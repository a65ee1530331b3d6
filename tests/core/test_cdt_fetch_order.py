"""Property test: the CDT's maintained fetch order vs a full sort."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDT

KEYS = [
    (d_file, offset * 4096, length)
    for d_file in ("/a", "/b")
    for offset in range(4)
    for length in (4096, 8192)  # same (file, offset): ties reach _seq
]
BENEFITS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])

steps = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, len(KEYS) - 1), BENEFITS),
        st.tuples(st.just("flag"), st.integers(0, 63), st.booleans()),
        st.tuples(st.just("benefit"), st.integers(0, 63), BENEFITS),
    ),
    min_size=1,
    max_size=120,
)


def _fetch_key(entry):
    return (-entry.benefit, entry.d_file, entry.d_offset, entry._seq)


@given(ops=steps, capacity=st.sampled_from([None, 3, 6]))
@settings(max_examples=200, deadline=None)
def test_fetch_order_matches_full_sort(ops, capacity):
    cdt = CDT(capacity_entries=capacity)
    # Every entry ever admitted, evicted ones included: the Rebuilder
    # clears C_flags on snapshot entries that may have been evicted.
    seen = []
    for op, arg, value in ops:
        if op == "admit":
            entry = cdt.admit(*KEYS[arg], benefit=value)
            if all(e is not entry for e in seen):
                seen.append(entry)
        elif seen:
            entry = seen[arg % len(seen)]
            if op == "flag":
                entry.c_flag = value
            else:
                entry.benefit = value

        pending = [e for e in cdt._entries.values() if e.c_flag]
        expected = sorted(pending, key=_fetch_key)
        got = cdt.pending_fetches()
        assert [id(e) for e in got] == [id(e) for e in expected]
        assert [id(e) for e in cdt.pending_fetches(limit=2)] == [
            id(e) for e in expected[:2]
        ]
        # A 10 KiB budget: entries are taken while less has been spent.
        spent, prefix = 0, []
        for e in expected:
            if spent >= 10240:
                break
            prefix.append(e)
            spent += e.length
        assert [id(e) for e in cdt.pending_fetches(budget=10240)] == [
            id(e) for e in prefix
        ]
        # The key -> row index holds exactly the live flagged entries,
        # each row current and present in the order.
        assert len(cdt._pending) == len(cdt._fetch_order) == len(pending)
        for key, row in cdt._pending.items():
            assert row[-1] is cdt._entries[key]
            assert row[:4] == _fetch_key(row[-1])
            assert row in cdt._fetch_order
