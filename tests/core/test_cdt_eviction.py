"""Property tests: the CDT's eviction index against a brute-force model,
and :class:`CDTEntry` as the dataclass it replaces."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDT
from repro.core.tables import CDTEntry

from .test_cdt_fetch_order import BENEFITS, KEYS, steps


def _check(cdt, model):
    assert {k: e.benefit for k, e in cdt._entries.items()} == {
        k: benefit for k, (benefit, _) in model.items()
    }


@given(ops=steps, capacity=st.sampled_from([1, 3, 6]))
@settings(max_examples=300, deadline=None)
def test_bounded_cdt_evicts_smallest_benefit_then_oldest(ops, capacity):
    cdt = CDT(capacity_entries=capacity)
    #: key -> (benefit, admission seq) of the live entries.
    model: dict[tuple, tuple[float, int]] = {}
    seq = 0
    seen = []
    for op, arg, value in ops:
        if op == "admit":
            key = KEYS[arg]
            if key in model:
                old, admitted = model[key]
                ema = CDT.BENEFIT_EMA
                model[key] = ((1 - ema) * old + ema * value, admitted)
            else:
                if len(model) >= capacity:
                    victim = min(model, key=model.__getitem__)
                    del model[victim]
                seq += 1
                model[key] = (value, seq)
            entry = cdt.admit(*key, benefit=value)
            if all(e is not entry for e in seen):
                seen.append(entry)
        elif seen:
            # Evicted entries are written too (the Rebuilder clears
            # flags on snapshots); only live ones move the model.
            entry = seen[arg % len(seen)]
            if op == "flag":
                entry.c_flag = value
            else:
                entry.benefit = value
                if entry.key in model and cdt.lookup(*entry.key) is entry:
                    model[entry.key] = (value, model[entry.key][1])
        _check(cdt, model)


@given(ops=steps)
@settings(max_examples=100, deadline=None)
def test_unbounded_cdt_keeps_no_heap(ops):
    cdt = CDT()
    seen = []
    for op, arg, value in ops:
        if op == "admit":
            seen.append(cdt.admit(*KEYS[arg], benefit=value))
        elif seen:
            entry = seen[arg % len(seen)]
            if op == "flag":
                entry.c_flag = value
            else:
                entry.benefit = value
    assert cdt._benefit_heap is None


@dataclasses.dataclass
class CDTEntryRecord:
    """The dataclass :class:`CDTEntry` used to be."""

    d_file: str
    d_offset: int
    length: int
    c_flag: bool = False
    benefit: float = 0.0


@given(a=st.tuples(st.sampled_from(["/a", "/b"]), st.integers(0, 2),
                   st.integers(1, 2), st.booleans(), BENEFITS),
       b=st.tuples(st.sampled_from(["/a", "/b"]), st.integers(0, 2),
                   st.integers(1, 2), st.booleans(), BENEFITS))
@settings(max_examples=200, deadline=None)
def test_entry_equality_and_repr_match_the_dataclass(a, b):
    entry_a, entry_b = CDTEntry(*a), CDTEntry(*b)
    record_a, record_b = CDTEntryRecord(*a), CDTEntryRecord(*b)
    assert (entry_a == entry_b) == (record_a == record_b)
    assert (entry_a != entry_b) == (record_a != record_b)
    assert repr(entry_a) == repr(record_a).replace(
        "CDTEntryRecord", "CDTEntry")
    # Table bookkeeping is not part of an entry's value.
    cdt = CDT()
    admitted = cdt.admit(a[0], a[1], a[2], a[4])
    admitted.c_flag = a[3]
    assert admitted == entry_a
    assert entry_a != record_a  # other types never compare equal
    with pytest.raises(TypeError):
        hash(entry_a)
