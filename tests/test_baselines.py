import gc
import math
import random
import time
import weakref
from collections import Counter
from dataclasses import asdict

import pytest

from sweep import _ins, _snapshot, _sweep, _sweep_last
from violationheap.baselines import BinaryHeap
from violationheap.heap_core import (EmptyHeapError, HeapError, NodeHandle,
                                     StaleHandleError, Telemetry)
from violationheap.invariants import full_audit
from violationheap.oracle import (DEFAULT_WEIGHTS, NaivePQ, apply_op, gen_ops,
                                  run_differential)
from violationheap.workloads import HEAP_NAMES, make_heap

# every heap make_heap knows runs the same interface tests, named by class
HEAPS = [pytest.param(name, id=type(make_heap(name)).__name__)
         for name in HEAP_NAMES]

# the heap contract, besides len: what apply_op and NaivePQ use, and the
# family's Telemetry.  perfbench's aliases new_heap and pool are left out
CONTRACT = {"decrease_key", "delete_min", "find_min", "insert", "is_live",
            "meld", "spawn", "telemetry"}


@pytest.mark.parametrize("name", HEAPS)
def test_every_heap_has_the_contract_and_no_more(name):
    h = make_heap(name)
    assert {a for a in dir(h) if not a.startswith("_")} - {"new_heap", "pool"} == CONTRACT


@pytest.mark.parametrize("name", HEAPS)
def test_sorts(name):
    rng = random.Random(1)
    keys = [rng.randrange(10 ** 9) for _ in range(4000)]
    h = make_heap(name)
    for k in keys:
        h.insert(k)
    assert [h.delete_min()[0] for _ in keys] == sorted(keys)
    assert len(h) == 0


@pytest.mark.parametrize("name", HEAPS)
def test_decrease_reorders(name):
    # items of any type come back with their keys
    h = make_heap(name)
    a = h.insert(10, "a")
    h.insert(20, {"payload": "b"})
    c = h.insert(30, "c")
    h.decrease_key(c, 5)
    assert h.find_min() == (5, "c")
    assert h.delete_min() == (5, "c")
    h.decrease_key(a, 1)
    assert h.find_min() == (1, "a")
    # a decrease that ties the minimum leaves the minimum where it is
    d = h.insert(25)
    h.decrease_key(d, 1)
    assert h.find_min() == (1, "a")
    assert [h.delete_min() for _ in range(3)] == [
        (1, "a"), (1, None), (20, {"payload": "b"})]


@pytest.mark.parametrize("name", HEAPS)
def test_error_paths(name):
    h = make_heap(name)
    assert len(h) == 0 and h.find_min() is None
    with pytest.raises(EmptyHeapError):
        h.delete_min()
    a = h.insert(10, "gone")
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, 11)
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, math.nan)
    h.decrease_key(a, 10)      # an equal key is a decrease that does nothing
    assert h.find_min() == (10, "gone")
    before = _snapshot([h], [a])
    with pytest.raises(HeapError, match="NaN"):
        h.insert(math.nan)
    assert _snapshot([h], [a]) == before
    # a removed element's handle is stale, its neighbours' are not, and a
    # handle issued later reads its own element
    b = h.insert(20, "stays")
    assert h.delete_min() == (10, "gone")
    assert not h.is_live(a) and h.is_live(b)
    c = h.insert(30, "later")
    with pytest.raises(StaleHandleError):
        h.decrease_key(a, 1)
    assert not h.is_live(a) and h.is_live(c) and (c.key, c.item) == (30, "later")
    h.delete_min()
    h.delete_min()
    with pytest.raises(StaleHandleError):
        h.decrease_key(a, 1)
    with pytest.raises(EmptyHeapError):
        h.delete_min()
    assert h.find_min() is None
    with pytest.raises(HeapError, match="itself"):
        h.meld(h)


@pytest.mark.parametrize("name", HEAPS)
def test_meld_absorbs(name):
    h1 = make_heap(name)
    h2 = h1.spawn()
    x = h1.insert(4, "x")
    y = h2.insert(1, "y")
    h2.insert(9, "z")
    merged = h1.meld(h2)
    assert merged is h1
    assert len(merged) == 3 and len(h2) == 0
    assert h2.find_min() is None
    assert merged.find_min() == (1, "y")
    assert merged.is_live(x) and merged.is_live(y)
    merged.decrease_key(x, 0)      # pre-meld handle survives
    assert merged.find_min() == (0, "x")
    # the emptied operand is an ordinary heap again
    w = h2.insert(7, "w")
    h2.decrease_key(w, 6)
    assert h2.find_min() == (6, "w") and len(h2) == 1
    if isinstance(h1, BinaryHeap):
        # a binary handle is live only in the heap whose array holds it,
        # though x and w sit in the same slot of two arrays
        assert x.pos == w.pos == 0
        assert not h2.is_live(x) and not h2.is_live(y)
        assert not h1.is_live(w)
    assert h1.meld(h2) is h1 and len(h1) == 4 and len(h2) == 0
    assert [h1.delete_min()[1] for _ in range(4)] == ["x", "y", "w", "z"]


@pytest.mark.parametrize("name", HEAPS)
def test_meld_empty_sides(name):
    h = make_heap(name)
    h.insert(3)
    assert h.meld(h.spawn()) is h and len(h) == 1
    e = h.spawn()
    assert e.meld(h).find_min() == (3, None)
    assert len(e) == 1 and len(h) == 0
    assert h.meld(h.spawn()) is h and len(h) == 0 and h.find_min() is None


@pytest.mark.parametrize("name", HEAPS)
def test_meld_ties_go_to_the_absorbing_heap(name):
    # two siblings each hold key 1: whichever absorbs the other keeps its
    # own element as the minimum
    for absorber in (0, 1):
        pair = [make_heap(name)]
        pair.append(pair[0].spawn())
        for i, h in enumerate(pair):
            h.insert(1, i)
        assert pair[absorber].meld(pair[1 - absorber]).find_min() == (1, absorber)


@pytest.mark.parametrize("name", HEAPS)
def test_meld_takes_its_own_kind_only(name):
    # a heap of another kind is refused with HeapError and both heaps are
    # left as they were; two heaps of one kind built apart meld
    keys = random.Random(3).sample(range(1000), 40)

    def filled(kind, part):
        h = make_heap(kind)
        hs = [h.insert(k) for k in part]
        h.delete_min()
        return h, hs

    def drain(h):
        out = [h.delete_min()[0] for _ in range(len(h))]
        assert out == sorted(out) and len(h) == 0
        return out

    for other in HEAP_NAMES:
        if other == name:
            continue
        (a, ha), (b, hb) = filled(name, keys[:20]), filled(other, keys[20:])
        before = _snapshot([a, b], ha + hb)
        with pytest.raises(HeapError, match="cannot meld"):
            a.meld(b)
        assert _snapshot([a, b], ha + hb) == before, other
        assert len(drain(a)) == len(drain(b)) == 19
    (a, _), (b, _) = filled(name, keys[:20]), filled(name, keys[20:])
    assert a.meld(b) is a and len(a) == 38 and len(b) == 0
    assert drain(a) == sorted(sorted(keys[:20])[1:] + sorted(keys[20:])[1:])


@pytest.mark.parametrize("name", HEAPS)
def test_decrease_on_the_emptied_meld_operand_is_refused(name):
    # a decrease on the heap a meld emptied is refused and changes nothing
    # (BinaryHeap's handle reads as stale, a HeapError subclass), and a
    # violation heap still audits clean.  b's delete_min makes its
    # violation handles a root and two children
    a = make_heap(name)
    b = a.spawn()
    hs = [a.insert(k) for k in (5, 6)] + [b.insert(k) for k in (7, 8, 9, 10)]
    b.delete_min()
    assert a.meld(b) is a and (len(a), len(b), b.find_min()) == (5, 0, None)
    before = _snapshot([a, b], hs)
    for h in hs[3:]:
        with pytest.raises(HeapError, match=None if name == "binary" else "empty"):
            b.decrease_key(h, 1)
        assert _snapshot([a, b], hs) == before
    if name == "violation":
        assert full_audit(a).ok
    assert [a.delete_min()[0] for _ in range(5)] == [5, 6, 8, 9, 10]
    assert len(a) == 0


@pytest.mark.parametrize("name", HEAPS)
def test_spawn_shares_telemetry(name):
    h = make_heap(name)
    side = h.spawn()
    assert side.telemetry is h.telemetry
    side.insert(2)
    before = h.telemetry.comparisons
    one = side.insert(1, "side")   # a side heap's work counts with its sibling's
    assert h.telemetry.comparisons > before
    apart = make_heap(name)     # shares neither counters nor elements
    apart.insert(1, "apart")
    assert side.delete_min() == (1, "side") and not side.is_live(one)
    assert apart.telemetry is not h.telemetry
    assert asdict(apart.telemetry) == asdict(Telemetry())
    assert len(apart) == 1 and apart.find_min() == (1, "apart")


class _Item:
    pass


@pytest.mark.parametrize("name", HEAPS)
def test_a_removed_element_releases_the_heap(name):
    # a handle held after its delete_min pins its own element only: the
    # removed node keeps no link into the trees it used to reach
    h = make_heap(name)
    handles = [h.insert(k, _Item()) for k in range(1000)]
    refs = [weakref.ref(x.item) for x in handles]
    kept = handles[0]
    assert h.delete_min()[0] == 0
    del h, handles
    gc.collect()
    assert [r() for r in refs if r() is not None] == [kept.item]


def _worn_heap(name):
    # a heap after a meld, delete-mins and cuts, holding 590 elements,
    # each item an _Item; returns it, its live handles and the weakrefs
    # of every item
    rng = random.Random(3)
    h = make_heap(name)
    handles = [h.insert(rng.randrange(10 ** 6), _Item()) for _ in range(300)]
    side = h.spawn()
    handles += [side.insert(rng.randrange(10 ** 6), _Item()) for _ in range(300)]
    h.meld(side)
    refs = [weakref.ref(x.item) for x in handles]
    for _ in range(10):
        h.delete_min()
    live = [x for x in handles if h.is_live(x)]
    for x in rng.sample(live, 200):
        h.decrease_key(x, x.key - rng.randrange(10 ** 6))
    if name != "binary":
        assert h.telemetry.cuts > 0
    return h, live, refs


@pytest.mark.parametrize("name", HEAPS)
def test_a_dropped_heap_is_freed_without_the_collector(name):
    # dropping the heap frees every element at once: reference counting
    # alone does it, with the cyclic collector off
    gc.disable()
    try:
        h, handles, refs = _worn_heap(name)
        assert len(h) == 590
        del h, handles
        assert [r() for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_a_differential_run_leaves_no_node_behind():
    def nodes():
        return sum(type(o) is NodeHandle for o in gc.get_objects())

    gc.disable()
    try:
        before = nodes()
        assert run_differential(0, 2000).passed
        assert nodes() == before
    finally:
        gc.enable()


@pytest.mark.parametrize("name", HEAPS)
def test_a_handle_of_a_dropped_heap_reads_as_removed(name):
    # used on another heap, it is refused like a deleted element's, and
    # that heap is left as it was
    h, handles, _ = _worn_heap(name)
    other = h.spawn()
    hs = [other.insert(k) for k in (50, 10, 30, 20)]
    other.delete_min()
    before = _snapshot([other], hs)
    del h
    for x in handles[:50]:
        assert not other.is_live(x)
        with pytest.raises(StaleHandleError):
            other.decrease_key(x, -1)
        assert _snapshot([other], hs) == before
    if name == "violation":
        assert full_audit(other).ok
    assert [other.delete_min()[0] for _ in range(3)] == [20, 30, 50]


@pytest.mark.parametrize("name", HEAPS)
def test_replay_against_the_model(name):
    # the heap and NaivePQ side by side, both stepped by apply_op over
    # generated scripts.  Alive keys stay distinct, so both must delete
    # the same element.
    for weights in (DEFAULT_WEIGHTS, (0.2, 0.7, 0.05, 0.05)):
        h, handles, model, ids = make_heap(name), [], NaivePQ(), []
        for step, op in enumerate(gen_ops(9, 12000, weights).ops):
            where = weights, step, op
            assert apply_op(h, handles, op) == apply_op(model, ids, op), where
            assert len(h) == len(model), where
            assert h.find_min() == model.find_min(), where


@pytest.mark.parametrize("name, late", [
    pytest.param(*p.values, late, id=p.id + tail) for p in HEAPS
    for late, tail in ((None, ""), (0, "-second"), (3, "-second-after-3"))])
def test_raise_inside_delete_min_loses_nothing(name, late):
    # a comparison may raise anywhere in the first delete-min of 200 keys,
    # or, given late, in the one after it, in a join or in the min scan.
    # With late = 3, three rank-0 roots inserted between the two make
    # joins while the old minimum's children are still unwalked
    keys = random.Random(6).sample(range(10_000), 200)
    ops = _ins(keys) + [("deletemin",)]
    if late is not None:
        ops += _ins(range(10_000, 10_000 + late)) + [("deletemin",)]
    _sweep_last(name, ops)


@pytest.mark.parametrize("name", HEAPS)
def test_raise_inside_decrease_key_loses_nothing(name):
    # decreases of targets all over a heap, to a new minimum and to just
    # below the old key, each from a fresh state
    keys = random.Random(7).sample(range(1, 10_000), 200)
    rest = sorted(keys)[1:]
    for t in rest[::20] + rest[-3:]:
        for new_key in (0, t - 1):
            _sweep_last(name, _ins(keys) + [
                ("deletemin",), ("decrease", keys.index(t), new_key)])


@pytest.mark.parametrize("name", HEAPS)
def test_raise_inside_insert_and_meld_loses_nothing(name):
    # an insert of a new minimum into 200 keys, and a 20 + 20 meld
    keys = random.Random(8).sample(range(1, 10_000), 240)
    _sweep_last(name, _ins(keys[:200]) + [("insert", 0)])
    _sweep_last(name, _ins(keys[200:220]) + [("meld", tuple(keys[220:]))])


@pytest.mark.parametrize("name", HEAP_NAMES)
def test_tripwire_sweep(name):
    # every op of two generated scripts either completes or keeps the
    # promise table
    start = time.perf_counter()
    points = Counter()
    for seed in (0, 1):
        points += _sweep(name, gen_ops(seed, 200).ops, 0)
    kinds = ("insert", "deletemin", "decrease", "meld")
    assert all(points[kind] for kind in kinds)
    print(f"\n[sweep {name}] {sum(points.values())} raise points: "
          + ", ".join(f"{kind} {points[kind]}" for kind in kinds)
          + f" ({time.perf_counter() - start:.1f} s)")


def test_binary_refuses_a_live_handle_of_another_heap():
    # the entries of a and b share slot numbers: only identity tells them
    a, b = BinaryHeap(), BinaryHeap()
    ha = [a.insert(k) for k in (5, 6, 7)]
    hb = [b.insert(k) for k in (1, 2, 3)]
    before = _snapshot([a, b], ha + hb)
    for h in hb:
        assert b.is_live(h) and not a.is_live(h)
        with pytest.raises(StaleHandleError):
            a.decrease_key(h, 0)
        assert _snapshot([a, b], ha + hb) == before
    assert [a.delete_min()[0] for _ in range(3)] == [5, 6, 7]
    assert [b.delete_min()[0] for _ in range(3)] == [1, 2, 3]
