"""A campaign run creates no reference cycles.

``Simulator.run()`` keeps the cyclic garbage collector off while its
loop runs, so a cycle made on the request path would live until the
collector's next pass after the run.  Each campaign below runs with the
collector off throughout; one collection, made before it is back on and
while the cluster is still referenced, must then find nothing
unreachable.

- ``fig6-s4d`` is the fig6 campaign shape reduced in size.  Closing its
  last file makes the Rebuilder kill the data movements still in
  flight, so it guards the killed-process path.
- ``fig6-stock`` is the same inputs with S4D off.
- ``ior-256`` is the capacity-sweep shape at 256 ranks, where many
  grants are released while a resource's grant pool is already full.
"""

import gc

import pytest

from repro.cluster import build_cluster, run_workload
from repro.experiments import common

from ..gcutil import collector, cyclic_garbage

_FIG6 = dict(ranks=8, requests_per_rank=32, instances=4, sequential=2,
             num_nodes=8, phases=("interleaved",), read_runs=2)

CAMPAIGNS = {
    "fig6-s4d": dict(_FIG6, s4d=True),
    "fig6-stock": dict(_FIG6, s4d=False),
    "ior-256": dict(ranks=256, requests_per_rank=4, instances=1,
                    sequential=1, num_nodes=32, phases=("write", "read"),
                    read_runs=1, s4d=True),
}


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_leaves_no_cyclic_garbage(name):
    shape = CAMPAIGNS[name]
    s4d = shape["s4d"]
    spec = common.testbed(num_nodes=shape["num_nodes"])
    campaign = common.ior_campaign(
        shape["ranks"], "16KB", instances=shape["instances"],
        sequential=shape["sequential"],
        requests_per_rank=shape["requests_per_rank"],
    )
    capacity = (spec.capacity_for(sum(w.data_bytes() for w in campaign))
                if s4d else None)
    cluster = build_cluster(spec, s4d=s4d, cache_capacity=capacity)
    gc.collect()
    with collector(False):
        result = run_workload(spec, campaign, s4d=s4d, cluster=cluster,
                              phases=shape["phases"],
                              read_runs=shape["read_runs"])
        assert cyclic_garbage() == {}
    assert result.phases["write"].bytes_moved > 0
