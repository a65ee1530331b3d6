"""The Sampler: a sim-time process streaming series rows to disk.

The sampler wakes every ``interval`` sim-seconds, snapshots every
series registered on its :class:`~repro.obs.streaming.hub.StreamHub`
and appends one row per series to a :class:`SeriesWriter` (JSONL or
CSV).  Each sample closes every series' window, so a row's window
fields cover exactly the observations since the previous sample.
Lifecycle:

- ``start()``   — spawn the tick process (idempotent);
- ``pause()``   — emit one final sample, *cancel* the pending tick and
  kill the process;
- ``close()``   — pause + flush/close the writer.

Ticks are armed one at a time, each at the previous tick's time plus
``interval`` (t_k = t_{k-1} + interval).

The pause path matters for determinism: a killed process leaves its
pending timeout in the event heap, and popping an orphan timeout
advances the clock — which would shift downstream float arithmetic and
break the bit-identical golden digests.  ``pause()`` therefore cancels
the tick through :meth:`repro.sim.core.Simulator.cancel`, whose lazy
skip never advances the clock.  With the sampler paused between jobs,
a telemetered run pops exactly the same clock values as an
uninstrumented one.
"""

from __future__ import annotations

import csv
import json
import typing

from ...errors import ConfigError, ProcessKilled

if typing.TYPE_CHECKING:  # pragma: no cover
    from ...sim import Simulator
    from .hub import StreamHub

#: Canonical CSV column order: the union of every kind's row fields.
CSV_COLUMNS = (
    "t", "run", "phase", "series", "kind",
    "count", "total", "mean", "stdev", "min", "max",
    "window_count", "window_total", "window_mean", "window_max", "rate",
    "p50", "p99", "p999", "value",
)


class SeriesWriter:
    """Base: append sampled rows to a file, one row per series/tick."""

    def __init__(self, path: str):
        self.path = path
        self.rows_written = 0
        self._fh = open(path, "w", encoding="utf-8", newline="")

    def write_row(self, row: dict) -> None:
        raise NotImplementedError

    def write_rows(self, rows: list[dict]) -> None:
        for row in rows:
            self.write_row(row)

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class JsonlSeriesWriter(SeriesWriter):
    """One JSON object per line; keys in insertion order."""

    def write_row(self, row: dict) -> None:
        self._fh.write(json.dumps(row) + "\n")
        self.rows_written += 1

    def write_rows(self, rows: list[dict]) -> None:
        # One file write per tick instead of one per series row.
        dumps = json.dumps
        self._fh.write("".join([dumps(row) + "\n" for row in rows]))
        self.rows_written += len(rows)


class CsvSeriesWriter(SeriesWriter):
    """Fixed-column CSV (:data:`CSV_COLUMNS`); absent fields empty."""

    def __init__(self, path: str):
        super().__init__(path)
        self._writer = csv.DictWriter(
            self._fh, fieldnames=CSV_COLUMNS, extrasaction="ignore"
        )
        self._writer.writeheader()

    def write_row(self, row: dict) -> None:
        self._writer.writerow(row)
        self.rows_written += 1


def make_writer(path: str, fmt: str = "jsonl") -> SeriesWriter:
    if fmt == "jsonl":
        return JsonlSeriesWriter(path)
    if fmt == "csv":
        return CsvSeriesWriter(path)
    raise ConfigError(f"unknown series format {fmt!r}")


class Sampler:
    """Snapshot the hub's series on a sim-time cadence."""

    def __init__(
        self,
        sim: "Simulator",
        hub: "StreamHub",
        writer: SeriesWriter,
        interval: float,
        run: int = 0,
    ):
        if interval <= 0:
            # Zero-delay ticks would live in the run queue, which the
            # engine's lazy cancellation cannot skip.
            raise ConfigError(f"sample interval must be positive: {interval}")
        self.sim = sim
        self.hub = hub
        self.writer = writer
        self.interval = interval
        self.run = run
        self.phase: str | None = None
        self.samples_taken = 0
        self._proc = None
        #: The armed tick until it fires.  A fired timeout goes back to
        #: the engine's pool and may be reused by anyone, so the
        #: reference is dropped as soon as the tick fires.
        self._tick = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def start(self) -> None:
        """Spawn the tick process (no-op when already running)."""
        if self.running:
            return
        self._proc = self.sim.spawn(self._body(), name="obs.sampler")

    def _body(self):
        sim = self.sim
        interval = self.interval
        try:
            while True:
                self._tick = sim.timeout(interval)
                yield self._tick
                self._tick = None
                self.sample()
        except ProcessKilled:
            # pause() kills us between jobs; exit cleanly (an uncaught
            # kill in an unjoined process would surface as a crash).
            self._cancel_pending()
            return

    def sample(self) -> None:
        """Emit one row per series at the current sim time."""
        head = {"t": self.sim.now, "run": self.run, "phase": self.phase}
        self.writer.write_rows(
            [head | fields for fields in self.hub.rows()]
        )
        self.samples_taken += 1

    def pause(self) -> None:
        """Emit a final sample and stop ticking, without clock impact.

        The pending tick is cancelled (lazily skipped by the engine, no
        clock advance) before the process is killed, so pausing between
        jobs leaves the event heap's observable timeline untouched.
        """
        if not self.running:
            return
        self.sample()
        self._cancel_pending()
        proc, self._proc = self._proc, None
        proc.kill()

    def _cancel_pending(self) -> None:
        """Lazily cancel the armed tick, if one is pending."""
        tick, self._tick = self._tick, None
        if tick is not None:
            self.sim.cancel(tick)

    def close(self) -> None:
        """Pause and flush/close the writer."""
        self.pause()
        self.writer.flush()
        self.writer.close()
