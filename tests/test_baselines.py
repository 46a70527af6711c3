import gc
import math
import random
import time
import weakref
from collections import Counter
from dataclasses import asdict, fields

import pytest

from raising_keys import Tripwire
from violationheap.baselines import BinaryHeap, PairingHeap
from violationheap.heap_core import (EmptyHeapError, HeapError,
                                     StaleHandleError, Telemetry)
from violationheap.invariants import full_audit
from violationheap.oracle import NaivePQ, gen_ops
from violationheap.workloads import (HEAP_NAMES, checksum, dijkstra, gen_graph,
                                     make_heap, mixed_bench)

# every heap make_heap knows runs the same interface tests, named by class
HEAPS = [pytest.param(cls, id=cls.__name__)
         for cls in (type(make_heap(name)) for name in HEAP_NAMES)]


@pytest.mark.parametrize("cls", HEAPS)
def test_sorts(cls):
    rng = random.Random(1)
    keys = [rng.randrange(10 ** 9) for _ in range(4000)]
    h = cls()
    for k in keys:
        h.insert(k)
    assert [h.delete_min()[0] for _ in keys] == sorted(keys)
    assert len(h) == 0 and h.is_empty()


@pytest.mark.parametrize("cls", HEAPS)
def test_decrease_reorders(cls):
    h = cls()
    a = h.insert(10, "a")
    h.insert(20, "b")
    c = h.insert(30, "c")
    h.decrease_key(c, 5)
    assert h.find_min() == (5, "c")
    assert h.delete_min() == (5, "c")
    h.decrease_key(a, 1)
    assert h.find_min() == (1, "a")
    # a decrease that ties the minimum leaves the minimum where it is
    d = h.insert(25, "d")
    h.decrease_key(d, 1)
    assert h.find_min() == (1, "a")


@pytest.mark.parametrize("cls", HEAPS)
def test_error_paths(cls):
    h = cls()
    a = h.insert(10)
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, 11)
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, math.nan)
    counters = asdict(h.telemetry)
    with pytest.raises(HeapError, match="NaN"):
        h.insert(math.nan)
    assert len(h) == 1 and asdict(h.telemetry) == counters
    assert h.find_min() == (10, None)
    h.delete_min()
    with pytest.raises(StaleHandleError):
        h.decrease_key(a, 1)
    with pytest.raises(EmptyHeapError):
        h.delete_min()
    assert h.find_min() is None
    with pytest.raises(HeapError, match="itself"):
        h.meld(h)


@pytest.mark.parametrize("cls", HEAPS)
def test_meld_absorbs(cls):
    h1 = cls()
    h2 = h1.spawn()
    x = h1.insert(4, "x")
    y = h2.insert(1, "y")
    h2.insert(9, "z")
    merged = h1.meld(h2)
    assert merged is h1
    assert len(merged) == 3 and len(h2) == 0
    assert h2.find_min() is None and h2.is_empty()
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


@pytest.mark.parametrize("cls", HEAPS)
def test_meld_empty_sides(cls):
    h = cls()
    h.insert(3)
    assert h.meld(h.spawn()) is h and len(h) == 1
    e = h.spawn()
    assert e.meld(h).find_min() == (3, None)
    assert len(e) == 1 and len(h) == 0
    assert h.meld(h.spawn()) is h and len(h) == 0 and h.find_min() is None


@pytest.mark.parametrize("cls", HEAPS)
def test_decrease_on_the_emptied_meld_operand_is_refused(cls):
    # BinaryHeap reports the handle as stale, a HeapError subclass
    a = cls()
    b = a.spawn()
    for k in (5, 6):
        a.insert(k)
    hb = [b.insert(k) for k in (7, 8, 9)]
    a.meld(b)
    for h in hb:
        with pytest.raises(HeapError):
            b.decrease_key(h, 1)
        assert len(b) == 0 and b.find_min() is None
    assert len(a) == 5
    assert [a.delete_min()[0] for _ in range(5)] == [5, 6, 7, 8, 9]
    assert a.is_empty()


@pytest.mark.parametrize("cls", HEAPS)
def test_spawn_shares_telemetry(cls):
    h = cls()
    side = h.spawn()
    assert side.telemetry is h.telemetry
    side.insert(2)
    before = h.telemetry.comparisons
    side.insert(1)        # a side heap's work counts with its sibling's
    assert h.telemetry.comparisons > before


@pytest.mark.parametrize("cls", HEAPS)
def test_a_removed_element_releases_the_heap(cls):
    # a handle held after its delete_min pins its own element only: the
    # removed node keeps no link into the trees it used to reach
    class Item:
        pass

    h = cls()
    handles = [h.insert(k, Item()) for k in range(1000)]
    refs = [weakref.ref(x.item) for x in handles]
    kept = handles[0]
    assert h.delete_min()[0] == 0
    del h, handles
    gc.collect()
    assert [r() for r in refs if r() is not None] == [kept.item]


@pytest.mark.parametrize("cls", HEAPS)
def test_random_traffic_against_dict_model(cls):
    # the heap and NaivePQ side by side.  Alive keys stay distinct, so
    # both must delete the same element.
    rng = random.Random(9)
    h = cls()
    model = NaivePQ()
    handles = []      # model id -> the heap's handle

    def insert(heap):
        k = rng.randrange(10 ** 9)
        while model.key_multiplicity(k):
            k = rng.randrange(10 ** 9)
        handles.append(heap.insert(k, model.insert(k, len(handles))))

    for step in range(12000):
        r = rng.random()
        if r < 0.45 or not model:
            insert(h)
        elif r < 0.7:
            i = model.ident_at(rng.randrange(len(model)))
            nk = model.key_of(i) - rng.randrange(1, 10 ** 6)
            if not model.key_multiplicity(nk):
                h.decrease_key(handles[i], nk)
                model.decrease_key(i, nk)
        elif r < 0.95:
            assert h.delete_min() == model.delete_min(), step
        else:
            side = h.spawn()
            for _ in range(rng.randrange(1, 4)):
                insert(side)
            assert h.meld(side) is h and side.is_empty(), step
        assert len(h) == len(model) and h.find_min() == model.find_min(), step


def _drain(h, limit):
    # delete_min until the heap reports empty, or limit + 1 elements came out
    out = []
    while len(out) <= limit:
        try:
            out.append(h.delete_min())
        except EmptyHeapError:
            break
    return out


def _armed(k, call):
    # run call with the tripwire set to raise at its k-th comparison,
    # counting from 0; returns the number of comparisons call made
    Tripwire.countdown = k
    try:
        call()
        return k - Tripwire.countdown
    finally:
        Tripwire.countdown = None


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
    h, model, handles = make_heap(name), NaivePQ(), []
    for op in ops:
        _stage(h, handles, op)[0]()
        if op[0] == "deletemin":
            model.delete_min()
        elif op[0] == "decrease":
            model.decrease_key(op[1], op[2])
        else:
            for k in (op[1],) if op[0] == "insert" else op[1]:
                model.insert(k)
    return h, model, handles


def _snapshot(heaps, handles):
    # what an op that leaves no trace must not change: the counters, each
    # heap's attributes (a list by its contents) and every handle's slots
    return (asdict(heaps[0].telemetry),
            [[list(v) if isinstance(v, list) else v for v in vars(x).values()]
             for x in heaps],
            [[getattr(e, s) for s in e.__slots__] for e in handles])


def _check(name, op, k, heaps, handles, model, before):
    # the promise table of README (Baselines), after op raised at its
    # k-th comparison; the model holds the elements from before op
    where = name, op, k
    h = heaps[0]
    split = op[0] == "meld" and name == "binary"
    if op[0] == "deletemin" and name != "binary":
        # rolled back: the joins made stay, but no comparison that raised
        # is counted, and nothing was cut
        t0, t1 = before[0], asdict(h.telemetry)
        assert 0 <= t1["comparisons"] - t0["comparisons"] <= k, where
        assert [t1[c] - t0[c] for c in ("cuts", "rank_update_steps")] == [0, 0]
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
            with pytest.raises(RuntimeError, match="tripwire"):
                _armed(k, call)
            _check(name, op, k, heaps, handles, model, before)
        points[op[0]] += total
    return points


def _sweep_last(name, ops):
    # the ops before the last build a fixed state; only the last is swept
    return _sweep(name, ops, len(ops) - 1)


def _ins(keys):
    return [("insert", k) for k in keys]


NAMED = [pytest.param(name, id=type(make_heap(name)).__name__)
         for name in HEAP_NAMES]


@pytest.mark.parametrize("name", NAMED)
def test_raise_inside_delete_min_loses_nothing(name):
    # one delete-min of 200 keys
    keys = random.Random(6).sample(range(10_000), 200)
    _sweep_last(name, _ins(keys) + [("deletemin",)])


@pytest.mark.parametrize("name", NAMED)
def test_raise_inside_decrease_key_loses_nothing(name):
    # decreases of targets all over a heap, to a new minimum and to just
    # below the old key, each from a fresh state
    keys = random.Random(7).sample(range(1, 10_000), 200)
    rest = sorted(keys)[1:]
    for t in rest[::20] + rest[-3:]:
        for new_key in (0, t - 1):
            _sweep_last(name, _ins(keys) + [
                ("deletemin",), ("decrease", keys.index(t), new_key)])


@pytest.mark.parametrize("name", NAMED)
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


def test_baseline_golden_counters():
    # exact counters of the binary and pairing heaps on test_golden_counters'
    # heapsort and Dijkstra runs: a change that keeps the algorithm keeps them
    graph = gen_graph(10_000, 100_000, 7)
    golden = {
        BinaryHeap: ((518469, 0, 0), (272526, 0, 0)),
        PairingHeap: ((351380, 351380, 0), (222056, 222056, 19987)),
    }
    for cls, (sort_counts, dijkstra_counts) in golden.items():
        rng = random.Random(0)
        h = cls()
        for _ in range(20_000):
            h.insert(rng.randrange(1 << 60))
        while len(h):
            h.delete_min()
        assert h.telemetry == Telemetry(*sort_counts)
        h = cls()
        assert checksum(dijkstra(graph, 0, h)) == 182835793
        assert h.telemetry == Telemetry(*dijkstra_counts)


def test_mixed_golden_counters():
    # exact counters of all three heaps on mixed_bench, the one workload
    # that melds.  BinaryHeap.meld takes entries from the end of the
    # other heap's array, so they arrive in reverse order of slot, which
    # gave 164827 comparisons where the earlier front-to-back meld gave
    # 164809.
    golden = {
        "violation": (72341, 12108, 820, 0, 8),
        "binary": (164827, 0, 0, 0, 0),
        "pairing": (46687, 46687, 2669, 0, 0),
    }
    for name, counts in golden.items():
        r = mixed_bench(name, 20_000, 0)
        assert tuple(getattr(r, f.name) for f in fields(Telemetry)) == counts


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
