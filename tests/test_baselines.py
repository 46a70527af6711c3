import gc
import math
import random
import time
import weakref
from collections import Counter
from dataclasses import asdict

import pytest

from raising_keys import Tripwire
from violationheap.baselines import BinaryHeap, PairingHeap
from violationheap.heap_core import (EmptyHeapError, HeapError, NodeHandle,
                                     StaleHandleError, Telemetry)
from violationheap.invariants import JoinNeutralityMonitor, full_audit
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
    counters = asdict(h.telemetry)
    with pytest.raises(HeapError, match="NaN"):
        h.insert(math.nan)
    assert len(h) == 1 and asdict(h.telemetry) == counters
    assert h.find_min() == (10, "gone")
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
        for k in part:
            h.insert(k)
        h.delete_min()
        return h

    def drain(h):
        out = [h.delete_min()[0] for _ in range(len(h))]
        assert out == sorted(out) and len(h) == 0
        return out

    for other in HEAP_NAMES:
        if other == name:
            continue
        a, b = filled(name, keys[:20]), filled(other, keys[20:])
        state = lambda: [(len(h), asdict(h.telemetry)) for h in (a, b)]
        before = state()
        with pytest.raises(HeapError, match="cannot meld"):
            a.meld(b)
        assert state() == before, other
        assert len(drain(a)) == len(drain(b)) == 19
    a, b = filled(name, keys[:20]), filled(name, keys[20:])
    assert a.meld(b) is a and len(a) == 38 and len(b) == 0
    assert drain(a) == sorted(sorted(keys[:20])[1:] + sorted(keys[20:])[1:])


@pytest.mark.parametrize("name", HEAPS)
def test_decrease_on_the_emptied_meld_operand_is_refused(name):
    # a decrease on the heap a meld emptied is refused and changes nothing
    # (BinaryHeap's handle reads as stale, a HeapError subclass).  b's
    # delete_min makes its violation handles a root and two children
    a = make_heap(name)
    b = a.spawn()
    for k in (5, 6):
        a.insert(k)
    hb = {k: b.insert(k) for k in (7, 8, 9, 10)}
    b.delete_min()
    del hb[7]
    assert a.meld(b) is a and len(a) == 5
    state = lambda: (len(a), a.find_min(), asdict(a.telemetry))
    before = state()
    for h in hb.values():
        with pytest.raises(HeapError, match=None if name == "binary" else "empty"):
            b.decrease_key(h, 1)
        assert len(b) == 0 and b.find_min() is None
    assert state() == before
    assert {k: h.key for k, h in hb.items()} == {8: 8, 9: 9, 10: 10}
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
    for k in (50, 10, 30, 20):
        other.insert(k)
    other.delete_min()

    def state():
        audit = full_audit(other).to_json() if name == "violation" else None
        return len(other), other.find_min(), asdict(other.telemetry), audit

    before = state()
    del h
    for x in handles[:50]:
        assert not other.is_live(x)
        with pytest.raises(StaleHandleError):
            other.decrease_key(x, -1)
    assert state() == before
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


def _drain(h, limit):
    # delete_min until the heap reports empty, or limit + 1 elements came out
    out = []
    while len(out) <= limit:
        try:
            out.append(h.delete_min())
        except EmptyHeapError:
            break
    return out


def _armed(k, call, key=Tripwire):
    # run call with the key class's cue set for its k-th comparison,
    # counting from 0; returns the number of comparisons call made
    key.countdown = k
    try:
        call()
        return k - key.countdown
    finally:
        key.countdown = None


def _stage(h, handles, op):
    # the heap's side of one OpScript op, with Tripwire keys, as a call and
    # the heaps it touches.  A meld's side heap is filled here, before the
    # call, so that only the meld's own comparisons are swept.  An
    # element's item is its id, which numbers insertions as NaivePQ does.
    kind = op[0]
    if kind == "insert":
        return lambda: handles.append(h.insert(Tripwire(op[1]), len(handles))), (h,)
    if kind == "deletemin":
        return h.delete_min, (h,)
    if kind == "decrease":
        return lambda: h.decrease_key(handles[op[1]], Tripwire(op[2])), (h,)
    side = h.spawn()
    for k in op[1]:
        handles.append(side.insert(Tripwire(k), len(handles)))
    return lambda: h.meld(side), (h, side)


def _build(name, ops):
    # ops replayed on a fresh heap and on a NaivePQ with plain int keys
    h, model, handles, ids = make_heap(name), NaivePQ(), [], []
    for op in ops:
        _stage(h, handles, op)[0]()
        apply_op(model, ids, op)
    return h, model, handles


def _snapshot(heaps, handles):
    # what an op that leaves no trace must not change: the counters, each
    # heap's attributes (a list by its contents) and every handle's slots
    return (asdict(heaps[0].telemetry),
            [[list(v) if isinstance(v, list) else v for v in vars(x).values()]
             for x in heaps],
            [[getattr(e, s) for s in e.__slots__] for e in handles])


def _check(name, op, k, heaps, handles, model, before, monitor):
    # the promise table of README (Baselines), after op raised at its
    # k-th comparison; the model holds the elements from before op, and
    # monitor, on a violation heap's delete_min, saw the joins it made
    where = name, op, k
    h = heaps[0]
    split = op[0] == "meld" and name == "binary"
    if op[0] == "deletemin" and name != "binary":
        # rolled back: the joins made stay, and so do the k comparisons
        # made, less the first of a violation join whose second raised;
        # the one that raised is not counted, and nothing was cut
        t0, t1 = before[0], asdict(h.telemetry)
        assert k - 1 <= t1["comparisons"] - t0["comparisons"] <= k, where
        assert [t1[c] - t0[c] for c in ("cuts", "rank_update_steps")] == [0, 0]
        if monitor is not None:
            assert t1["joins"] - t0["joins"] == monitor.joins, where
            assert not monitor.mismatches, where
    elif not split:
        assert _snapshot(heaps, handles) == before, where
    if name == "violation":
        assert all(full_audit(x).ok for x in heaps), where
        assert h.find_min() == model.find_min(), where
    expect = [[(model.key_of(i), i) for i in map(model.ident_at, range(len(model)))]]
    if op[0] == "meld":
        n = len(handles)
        expect.append(list(zip(op[1], range(n - len(op[1]), n))))
    drains = []
    for x in heaps:
        size = len(x)
        d = _drain(x, len(handles))
        assert len(d) == size and x.find_min() is None, where
        assert [e[0] for e in d] == sorted(e[0] for e in d), where
        drains.append(d)
    if split:
        # both operands are valid heaps that hold every element once
        drains, expect = [sum(drains, [])], [sum(expect, [])]
    assert [sorted(d) for d in drains] == [sorted(e) for e in expect], where


def _sweep(name, ops, first):
    # raise at each comparison of each op from ops[first] on, every time
    # on a fresh replay of the ops before it; returns the raise points
    # per op kind
    points = Counter()
    for i in range(first, len(ops)):
        op = ops[i]
        h, _, handles = _build(name, ops[:i])
        total = _armed(10 ** 9, _stage(h, handles, op)[0])
        for k in range(total):
            h, model, handles = _build(name, ops[:i])
            call, heaps = _stage(h, handles, op)
            before = _snapshot(heaps, handles)
            monitor = None
            if name == "violation" and op[0] == "deletemin":
                monitor = JoinNeutralityMonitor(h).install()
            with pytest.raises(RuntimeError, match="tripwire"):
                _armed(k, call)
            _check(name, op, k, heaps, handles, model, before, monitor)
        points[op[0]] += total
    return points


def _sweep_last(name, ops):
    # the ops before the last build a fixed state; only the last is swept
    return _sweep(name, ops, len(ops) - 1)


def _ins(keys):
    return [("insert", k) for k in keys]


@pytest.mark.parametrize("name", HEAPS)
def test_raise_inside_delete_min_loses_nothing(name):
    # one delete-min of 200 keys
    keys = random.Random(6).sample(range(10_000), 200)
    _sweep_last(name, _ins(keys) + [("deletemin",)])


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


def test_binary_ids_unique_across_instances():
    # handles of two heaps are distinct, and both stay live after a meld
    a, b = BinaryHeap(), BinaryHeap()
    ia = a.insert(1)
    ib = b.insert(2)
    assert ia != ib
    a.meld(b)
    assert a.is_live(ia) and a.is_live(ib)


def test_binary_refuses_a_live_handle_of_another_heap():
    # the entries of a and b share slot numbers: only identity tells them
    a, b = BinaryHeap(), BinaryHeap()
    for k in (5, 6, 7):
        a.insert(k)
    hb = [b.insert(k) for k in (1, 2, 3)]
    counters = asdict(a.telemetry), asdict(b.telemetry)
    for h in hb:
        assert b.is_live(h) and not a.is_live(h)
        with pytest.raises(StaleHandleError):
            a.decrease_key(h, 0)
    assert (asdict(a.telemetry), asdict(b.telemetry)) == counters
    assert [a.delete_min()[0] for _ in range(3)] == [5, 6, 7]
    assert [b.delete_min()[0] for _ in range(3)] == [1, 2, 3]


def test_telemetry_profiles():
    keys = list(range(100, 0, -1))
    b, q = BinaryHeap(), PairingHeap()
    for k in keys:
        b.insert(k)
        q.insert(k)
    for _ in keys:
        b.delete_min()
        q.delete_min()
    assert b.telemetry.comparisons > 0 and b.telemetry.joins == 0
    # every pairing link is recorded as a join and costs one comparison
    assert q.telemetry.joins == q.telemetry.comparisons > 0
