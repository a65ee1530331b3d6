"""Unit tests for the network fabric model."""

import pytest

from repro.errors import ConfigError, NetworkError
from repro.network import Fabric, NetworkSpec
from repro.sim import Simulator
from repro.units import MiB


def make_fabric(sim, **spec):
    fabric = Fabric(sim, NetworkSpec(**spec)) if spec else Fabric(sim)
    for name in ("c0", "c1", "s0", "s1"):
        fabric.add_endpoint(name)
    return fabric


def test_transfer_time_is_latency_plus_wire():
    sim = Simulator()
    fabric = make_fabric(sim, bandwidth=100 * MiB, latency=1e-4)

    def body():
        yield from fabric.transfer("c0", "s0", 10 * MiB)
        return sim.now

    end = sim.run_process(body())
    assert end == pytest.approx(1e-4 + (10 * MiB) / (100 * MiB))


def test_same_endpoint_transfer_is_free():
    sim = Simulator()
    fabric = make_fabric(sim)

    def body():
        yield from fabric.transfer("c0", "c0", 100 * MiB)
        return sim.now

    assert sim.run_process(body()) == 0.0


def test_concurrent_transfers_to_one_server_serialise():
    sim = Simulator()
    fabric = make_fabric(sim, bandwidth=100 * MiB, latency=0.0)

    def sender(src):
        yield from fabric.transfer(src, "s0", 100 * MiB)
        return sim.now

    def parent():
        return (
            yield sim.all_of(
                [sim.spawn(sender("c0")), sim.spawn(sender("c1"))]
            )
        )

    ends = sim.run_process(parent())
    # Both flows share s0's RX channel: 1s then 2s.
    assert sorted(ends) == pytest.approx([1.0, 2.0])


def test_transfers_to_distinct_servers_run_in_parallel():
    sim = Simulator()
    fabric = make_fabric(sim, bandwidth=100 * MiB, latency=0.0)

    def sender(src, dst):
        yield from fabric.transfer(src, dst, 100 * MiB)
        return sim.now

    def parent():
        return (
            yield sim.all_of(
                [sim.spawn(sender("c0", "s0")), sim.spawn(sender("c1", "s1"))]
            )
        )

    assert sim.run_process(parent()) == pytest.approx([1.0, 1.0])


def test_rate_limited_by_slower_endpoint():
    sim = Simulator()
    fabric = Fabric(sim, NetworkSpec(bandwidth=100 * MiB, latency=0.0))
    fabric.add_endpoint("fast", bandwidth=100 * MiB)
    fabric.add_endpoint("slow", bandwidth=10 * MiB)

    def body():
        yield from fabric.transfer("fast", "slow", 10 * MiB)
        return sim.now

    assert sim.run_process(body()) == pytest.approx(1.0)


def test_unknown_endpoint_rejected():
    for src, dst in (("c0", "nowhere"), ("nowhere", "s0")):
        sim = Simulator()
        fabric = make_fabric(sim)

        def body():
            yield from fabric.transfer(src, dst, 10)

        sim.spawn(body())
        with pytest.raises(NetworkError,
                           match="^unknown network endpoint 'nowhere'$"):
            sim.run()


def test_stats_accumulate():
    sim = Simulator()
    fabric = make_fabric(sim)

    def body():
        yield from fabric.transfer("c0", "s0", 1000)
        yield from fabric.transfer("s0", "c0", 500)

    sim.run_process(body())
    assert fabric.total_transfers == 2
    assert fabric.total_bytes == 1500
    assert fabric.endpoint("c0").bytes_sent == 1000
    assert fabric.endpoint("s0").bytes_received == 1000


def test_add_endpoint_idempotent():
    sim = Simulator()
    fabric = Fabric(sim)
    a = fabric.add_endpoint("x")
    b = fabric.add_endpoint("x")
    assert a is b


def test_bad_spec_rejected():
    with pytest.raises(ConfigError):
        NetworkSpec(bandwidth=0)
    with pytest.raises(ConfigError):
        NetworkSpec(latency=-1)
