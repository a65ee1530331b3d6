"""The DMT's durable log stays bounded, and recovery cannot tell.

The DMT compacts its write-ahead log once the log outgrows the live
records (``DMT._bound_log``).  The test runs the reduced fig6 S4D
campaign of :mod:`tests.cluster.test_no_cycles`, records every record
the DMT writes, and at several points takes a crash image of the
durable log.  The DMT recovered from each image must equal the DMT
replayed from the uncompacted record stream up to that point.
"""

from repro.cluster import build_cluster, run_workload
from repro.core import DMT
from repro.core.tables import WAL_SLACK
from repro.experiments import common
from repro.kvstore import HashDB

from ..cluster.test_no_cycles import CAMPAIGNS

#: DMT mutations between two crash images.
EVERY = 150


def _replayed(records):
    """A DMT recovered from a durable log holding ``records``."""
    db = HashDB("dmt")
    for op, key, value in records:
        if op == "put":
            db.put(key, value)
        else:
            db.delete(key)
    dmt = DMT(db)
    dmt.recover()
    return dmt


def _state(dmt):
    return (
        [extent.to_record() for extent in dmt.all_extents()],
        [extent.record_id for extent in dmt.dirty_extents()],
        len(dmt),
        dmt.mapped_bytes,
        next(dmt._ids),
    )


def test_compacted_log_recovers_the_uncompacted_dmt():
    shape = CAMPAIGNS["fig6-s4d"]
    spec = common.testbed(num_nodes=shape["num_nodes"])
    campaign = common.ior_campaign(
        shape["ranks"], "16KB", instances=shape["instances"],
        sequential=shape["sequential"],
        requests_per_rank=shape["requests_per_rank"],
    )
    capacity = spec.capacity_for(sum(w.data_bytes() for w in campaign))
    cluster = build_cluster(spec, s4d=True, cache_capacity=capacity)
    dmt = cluster.middleware.dmt
    db = dmt.db

    written = []  # every (op, key, value) the DMT wrote, never compacted
    images = []  # (records written so far, the durable log at that point)
    compactions = []
    put, delete, compact, bound = db.put, db.delete, db.compact, dmt._bound_log

    def recording_put(key, value):
        put(key, value)
        written.append(("put", key, value))

    def recording_delete(key):
        delete(key)
        written.append(("delete", key, None))

    def counting_compact():
        compact()
        compactions.append(len(written))

    def checked_bound():
        bound()
        assert db.durable_log_length <= 2 * len(dmt) + WAL_SLACK
        if len(written) % EVERY == 0 or compactions[-1:] == [len(written)]:
            images.append((len(written), [
                (record.op, record.key, record.value)
                for record in db._durable_log
            ]))

    db.put, db.delete, db.compact = recording_put, recording_delete, counting_compact
    dmt._bound_log = checked_bound
    run_workload(spec, campaign, s4d=True, cluster=cluster,
                 phases=shape["phases"], read_runs=shape["read_runs"])

    assert compactions, "the campaign never outgrew the bound"
    assert db.durable_log_length < len(written)
    after = [n for n, _ in images if n >= compactions[0]]
    assert len(images) >= 5 and len(after) >= 3
    for n, image in images:
        assert _state(_replayed(image)) == _state(_replayed(written[:n]))
    # The crash at the end: the middleware recovers, from its compacted
    # log, what the whole record stream replays.
    expected = _state(_replayed(written))
    cluster.middleware.recover()
    assert _state(dmt) == expected
