"""The data access cost model of §III.B (Equations 1-8).

For a request served by the HDD DServers::

    T_D = T_s + T_t                                  (Eq. 1)

The per-server startup time ``alpha`` (seek + rotation) is modelled as
uniform on ``[a, b]`` with ``a = F(d) + R`` and ``b = S + R`` (Eq. 2).
A parallel request spanning ``m`` servers waits for the slowest, whose
expected value is (Eq. 3-4)::

    T_s = a + m / (m + 1) * (b - a)

The transfer term is the maximum per-server sub-request size (Table
II / Fig. 4) times the per-byte cost (Eq. 5)::

    T_t = s_m * beta_D

For the SSD CServers, startup is ignored ("SSDs are insensitive to
spatial locality", Eq. 7)::

    T_C = S_n * beta_C

and the benefit of redirecting is ``B = T_D - T_C`` (Eq. 8).

Parameters come from offline profiling (:mod:`repro.devices.profiler`),
with ``beta`` taken end-to-end: the paper profiles through the full
PVFS2-over-GigE stack, so the per-byte cost of a server path is the
serial composition of wire cost and device cost.
"""

from __future__ import annotations

import dataclasses

from ..devices.base import OP_READ, OP_WRITE
from ..devices.profiler import DeviceProfile
from ..errors import ConfigError
from ..pfs.layout import (
    involved_servers,
    involved_servers_paper,
    max_subrequest_paper,
)


@dataclasses.dataclass(frozen=True)
class CostParams:
    """Everything Table I lists, as measured values.

    ``beta_*`` are end-to-end per-byte costs (seconds/byte) of one
    server path; ``seek`` is the fitted F(d).
    """

    #: M — number of HDD file servers.
    num_dservers: int
    #: N — number of SSD file servers (paper assumes N < M).
    num_cservers: int
    #: Stripe size of the original (DServer) PFS.
    d_stripe: int
    #: Stripe size of the cache (CServer) PFS.
    c_stripe: int
    #: R — average rotational delay of the HDDs.
    avg_rotation: float
    #: S — maximum seek time of the HDDs.
    max_seek: float
    beta_d_read: float
    beta_d_write: float
    beta_c_read: float
    beta_c_write: float
    #: F — fitted seek curve (bytes -> seconds).
    hdd_profile: DeviceProfile

    def __post_init__(self) -> None:
        if self.num_dservers < 1 or self.num_cservers < 1:
            raise ConfigError("server counts must be >= 1")
        if self.d_stripe < 1 or self.c_stripe < 1:
            raise ConfigError("stripe sizes must be >= 1")
        if min(self.beta_d_read, self.beta_d_write,
               self.beta_c_read, self.beta_c_write) <= 0:
            raise ConfigError("beta costs must be positive")
        if self.avg_rotation < 0 or self.max_seek <= 0:
            raise ConfigError("rotation/seek parameters must be sane")

    @classmethod
    def from_profiles(
        cls,
        hdd: DeviceProfile,
        ssd: DeviceProfile,
        num_dservers: int,
        num_cservers: int,
        d_stripe: int,
        c_stripe: int,
        network_beta: float = 0.0,
    ) -> "CostParams":
        """Compose device profiles with the network's per-byte cost.

        Request data crosses the wire and then the device serially
        (store-and-forward through the server), so per-byte costs add.
        """
        if network_beta < 0:
            raise ConfigError("network beta must be non-negative")
        return cls(
            num_dservers=num_dservers,
            num_cservers=num_cservers,
            d_stripe=d_stripe,
            c_stripe=c_stripe,
            avg_rotation=hdd.avg_rotation,
            max_seek=hdd.max_seek,
            beta_d_read=hdd.beta_read + network_beta,
            beta_d_write=hdd.beta_write + network_beta,
            beta_c_read=ssd.beta_read + network_beta,
            beta_c_write=ssd.beta_write + network_beta,
            hdd_profile=hdd,
        )

    def beta_d(self, op: str) -> float:
        return self.beta_d_read if op == OP_READ else self.beta_d_write

    def beta_c(self, op: str) -> float:
        return self.beta_c_read if op == OP_READ else self.beta_c_write


class CostModel:
    """Evaluates Eq. 1-8 for individual file requests.

    Two refinements over the verbatim equations are enabled by default
    (both can be disabled to get the paper-exact form, which the
    cost-model ablation benchmark compares against):

    - ``exact_servers``: use the true involved-server count instead of
      Eq. 6, whose ``E = floor((f+r)/str)`` counts a phantom stripe
      whenever a request ends on a stripe boundary.  For aligned small
      requests the phantom adds ``(m/(m+1) - 1/2)(b - a)`` —
      milliseconds of deterministic noise that swamps the actual
      sequential-vs-random signal the selective policy needs.
    - ``seek_gated_rotation``: charge the rotational delay ``R`` only
      for requests that actually reposition the head (``d > 0``).  A
      stream continuation writes/reads the next sectors under the head
      and pays no rotational wait; charging R to both sides mutes the
      randomness signal Eq. 8 exists to capture.
    """

    def __init__(
        self,
        params: CostParams,
        exact_servers: bool = True,
        seek_gated_rotation: bool = True,
    ):
        self.params = params
        self.exact_servers = exact_servers
        self.seek_gated_rotation = seek_gated_rotation
        # The Identifier evaluates Eq. 8 on every request, so the
        # request-independent terms are taken out of ``params`` once
        # (the parameters are frozen): ``b`` of Eq. 2, the fitted F and
        # the two DServer betas.
        self._b = params.max_seek + params.avg_rotation
        hdd = params.hdd_profile
        seek = hdd.seek_profile
        self._seek_time = seek.seek_time if seek is not None else hdd.seek_time
        self._beta_d_read = params.beta_d(OP_READ)
        self._beta_d_write = params.beta_d(OP_WRITE)
        #: ``T_C`` by ``(op, size)``: Eq. 7 depends on nothing else.
        self._t_c: dict[tuple[str, int], float] = {}

    # -- DServer side (Eq. 1-6) -----------------------------------------
    def startup_time(self, distance: int, num_servers: int) -> float:
        """Expected max startup over ``num_servers`` servers (Eq. 4)."""
        rotation = self.params.avg_rotation
        if distance == 0 and self.seek_gated_rotation:
            rotation = 0.0
        a = self._seek_time(distance) + rotation
        b = self._b
        if a > b:  # fitted F can exceed measured S at the far edge
            a = b
        m = num_servers if num_servers > 1 else 1
        return a + (m / (m + 1)) * (b - a)

    def involved_servers(self, offset: int, size: int) -> int:
        """``m``: Eq. 6 verbatim, or the exact count (see class doc)."""
        p = self.params
        if self.exact_servers:
            return involved_servers(offset, size, p.d_stripe, p.num_dservers)
        return involved_servers_paper(offset, size, p.d_stripe, p.num_dservers)

    def cost_dservers(
        self, op: str, offset: int, size: int, distance: int
    ) -> float:
        """``T_D`` (Eq. 1): expected time at the HDD servers."""
        p = self.params
        m = self.involved_servers(offset, size)
        t_s = self.startup_time(distance, m)
        s_m = max_subrequest_paper(offset, size, p.d_stripe, p.num_dservers)
        return t_s + s_m * (
            self._beta_d_read if op == OP_READ else self._beta_d_write
        )

    # -- CServer side (Eq. 7) ---------------------------------------------
    def cost_cservers(self, op: str, size: int) -> float:
        """``T_C`` (Eq. 7): time at the SSD servers, startup-free.

        ``S_n`` is the maximum per-server share when the request is
        striped over all N CServers; the cache file's own offset is not
        known at admission time, so the aligned (offset 0) layout is
        used.  That leaves ``(op, size)`` as the only inputs, so each
        pair is computed once.
        """
        key = (op, size)
        t_c = self._t_c.get(key)
        if t_c is None:
            p = self.params
            s_n = max_subrequest_paper(0, size, p.c_stripe, p.num_cservers)
            t_c = self._t_c[key] = s_n * p.beta_c(op)
        return t_c

    # -- the decision value (Eq. 8) -----------------------------------------
    def benefit(self, op: str, offset: int, size: int, distance: int) -> float:
        """``B = T_D - T_C``: positive means CServers are faster."""
        return self.cost_dservers(op, offset, size, distance) - self.cost_cservers(
            op, size
        )

    def crossover_size(
        self, op: str, distance: int, lo: int = 1024, hi: int = 1 << 30
    ) -> int | None:
        """Smallest size in [lo, hi] where the benefit stops being
        positive, by bisection — None if B > 0 across the whole range.

        Diagnostic helper for experiments and docs; B(r) is monotone
        decreasing in r once both PFSs stripe over all servers.
        """
        if self.benefit(op, 0, hi, distance) > 0:
            return None
        if self.benefit(op, 0, lo, distance) <= 0:
            return lo
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.benefit(op, 0, mid, distance) > 0:
                lo = mid
            else:
                hi = mid
        return hi
