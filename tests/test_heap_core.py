"""Structural unit tests pinned to hand-worked operation traces.

Every expected pointer/rank value in here was derived on paper from the
linking rules before the implementation existed; a failure means the
code drifted from the rules, not that the numbers need refreshing.
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from limited_run import run_limited
from raising_keys import Reentrant
from test_baselines import _armed, _sweep_last
from test_golden_counters import GOLDEN
from trees import children, roots, subtree
from violationheap import (EmptyHeapError, HeapError, StaleHandleError,
                           Telemetry, ViolationHeap, rank_from_pair)
from violationheap.heap_core import _active_parent
from violationheap.invariants import full_audit
from violationheap.oracle import DEFAULT_WEIGHTS, apply_op, gen_ops
from violationheap.workloads import HEAP_NAMES, checksum, dijkstra, gen_graph


def _one_deleted(n, low=1):
    # keys low .. low + n - 1 inserted in order, then low deleted: the heap
    # most traces below start from, and each element's handle by its key
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(low, low + n)}
    assert h.delete_min() == (low, None)
    return h, hs


def test_rank_formula_examples():
    assert rank_from_pair(3, 2) == 4
    assert rank_from_pair(-1, -1) == 0
    assert rank_from_pair(4, -1) == 3
    assert rank_from_pair(0, 0) == 1
    assert rank_from_pair(2, 2) == 3


def test_insert_keeps_newest_near_front():
    h = ViolationHeap()
    hs = [h.insert(k) for k in (1, 2, 3, 4, 5)]
    # new roots splice in right behind the first root
    assert [i.key for i in roots(h)] == [1, 5, 4, 3, 2]
    assert h.find_min() == (1, None)
    assert len(h) == 5


def test_empty_heap_queries():
    # a fresh heap, and one drained back to empty, has no first root
    h = ViolationHeap()
    for fill in (0, 3):
        for k in range(fill):
            h.insert(k)
        for _ in range(fill):
            h.delete_min()
        assert h.find_min() is None and h._first is None
        assert len(h) == 0 and not h
        with pytest.raises(EmptyHeapError):
            h.delete_min()


def test_four_singletons_consolidate():
    # third tree of a rank triggers one 3-way join; survivors: that tree
    h, hs = _one_deleted(4)
    i2 = hs[2]
    assert h.find_min() == (2, None) and len(h) == 3
    assert i2.rank == 1
    assert i2.down == hs[3] and hs[3].prv == hs[4]
    assert hs[4].prv is None and hs[3].nxt == i2
    assert [h.delete_min()[0] for _ in range(3)] == [2, 3, 4]


def test_ten_keys_cut_and_propagation_chain():
    h, hs = _one_deleted(10)
    assert hs[2].rank == 2 and hs[2].down == hs[5]
    assert children(hs[2]) == [hs[4], hs[3], hs[8], hs[5]]
    assert hs[8].rank == 1 and hs[5].rank == 1

    t = h.telemetry
    base = t.rank_update_steps
    # cutting 6 leaves 5 with one rank-0 child: ceiling keeps rank 1
    h.decrease_key(hs[6], 0)
    assert t.rank_update_steps - base == 0 and hs[5].rank == 1
    # cutting 7 empties 5: rank drops to 0, but 2 still holds rank 2
    h.decrease_key(hs[7], -1)
    assert t.rank_update_steps - base == 1
    assert hs[5].rank == 0 and hs[2].rank == 2
    h.decrease_key(hs[9], -2)
    assert t.rank_update_steps - base == 1 and hs[8].rank == 1
    # cutting 10 empties 8 and the repair continues into 2
    h.decrease_key(hs[10], -3)
    assert t.rank_update_steps - base == 3
    assert hs[8].rank == 0 and hs[2].rank == 1
    assert h.find_min() == (-3, None) and len(h) == 9
    assert t.cuts == 4
    assert [h.delete_min()[0] for _ in range(9)] == [-3, -2, -1, 0, 2, 3, 4, 5, 8]


def test_active_parent_on_the_ten_key_tree():
    h, hs = _one_deleted(10)
    assert children(hs[2]) == [hs[4], hs[3], hs[8], hs[5]]
    expected = {5: 2, 8: 2, 6: 5, 7: 5, 9: 8, 10: 8}
    for k in range(2, 11):
        want = hs[expected[k]] if k in expected else None
        assert _active_parent(hs[k]) is want, k


def test_cut_second_to_last_child_with_children():
    # 10-key tree, after cutting 6 and 7: 2 (rank 2) has children
    # [4, 3, 8, 5] with 5 childless (rank 0) and 8 (rank 1) over [10, 9].
    # Cutting 8 glues its last child 9 (tie at rank 0) into 8's place:
    # 3 -> 9 -> 5 among 2's children, 8 keeps 10.  The walk starts at 2,
    # whose active pair drops to (0, 0), so 2 falls to rank 1.
    h, hs = _one_deleted(10)
    h.decrease_key(hs[6], 0)
    h.decrease_key(hs[7], -1)
    assert children(hs[2]) == [hs[4], hs[3], hs[8], hs[5]]
    assert (hs[2].rank, hs[5].rank, hs[8].rank) == (2, 0, 1)
    assert [r.key for r in roots(h)] == [-1, 2, 0]
    t = h.telemetry
    before = (t.comparisons, t.cuts, t.rank_update_steps)

    h.decrease_key(hs[8], 1)
    # compared with the parent 2, then with the first root -1
    assert (t.comparisons, t.cuts, t.rank_update_steps) == (
        before[0] + 2, before[1] + 1, before[2] + 1)
    assert children(hs[2]) == [hs[4], hs[3], hs[9], hs[5]]
    assert hs[3].nxt == hs[9] and hs[9].prv == hs[3]
    assert hs[9].nxt == hs[5] and hs[5].prv == hs[9]
    assert hs[2].down == hs[5] and hs[5].nxt == hs[2]
    assert hs[8].down == hs[10] and hs[10].nxt == hs[8]
    assert hs[10].prv is None and hs[8].prv is None
    assert (hs[2].rank, hs[8].rank, hs[9].rank) == (1, 1, 0)
    # 8 enters the root list right behind the first root
    assert [r.key for r in roots(h)] == [-1, 1, 2, 0]
    assert full_audit(h).ok
    drained = [h.delete_min()[0] for _ in range(len(h))]
    assert drained == [-1, 0, 1, 2, 3, 4, 5, 9, 10]


def test_cut_non_active_child_with_children():
    # 28-key tree: 2 (rank 3) has children [4, 3, 8, 5, 20, 11]; 5 is not
    # active and has children [7, 6], both rank 0.  Cutting 5 glues 6 (the
    # last child wins the tie) between 8 and 20, 5 keeps 7, and no rank
    # repair runs.
    h, hs = _one_deleted(28)
    assert children(hs[2]) == [hs[k] for k in (4, 3, 8, 5, 20, 11)]
    assert children(hs[5]) == [hs[7], hs[6]]
    ranks = {k: x.rank for k, x in hs.items()}
    t = h.telemetry
    before = (t.comparisons, t.cuts, t.rank_update_steps)

    h.decrease_key(hs[5], 1)
    # no parent comparison: only the first root is compared
    assert (t.comparisons, t.cuts, t.rank_update_steps) == (
        before[0] + 1, before[1] + 1, before[2])
    assert children(hs[2]) == [hs[k] for k in (4, 3, 8, 6, 20, 11)]
    assert hs[8].nxt == hs[6] and hs[6].prv == hs[8]
    assert hs[6].nxt == hs[20] and hs[20].prv == hs[6]
    assert hs[5].down == hs[7] and hs[7].nxt == hs[5]
    assert hs[7].prv is None and hs[5].prv is None
    assert hs[5].rank == 1
    assert {k: x.rank for k, x in hs.items() if k != 5} == \
        {k: r for k, r in ranks.items() if k != 5}
    assert h._first == hs[5] and roots(h) == [hs[5], hs[2]]
    assert full_audit(h).ok
    assert [h.delete_min()[0] for _ in range(len(h))] == list(range(1, 5)) + \
        list(range(6, 29))


def test_eight_singletons_survivor_ranks():
    h, _ = _one_deleted(8)
    rks = sorted(r.rank for r in roots(h))
    assert rks == [0, 1, 1]
    assert [h.delete_min()[0] for _ in range(7)] == list(range(2, 9))


def test_nonactive_child_always_cuts():
    # in the 10-key tree, 3 is childless and older than the two active
    # children of 2; even a decrease that stays above the parent's key
    # must detach it
    h, hs = _one_deleted(10)
    cuts0 = h.telemetry.cuts
    h.decrease_key(hs[3], 3)   # same key: allowed, still a cut
    assert h.telemetry.cuts == cuts0 + 1
    assert hs[3].prv is None and hs[3] in roots(h)
    assert children(hs[2]) == [hs[4], hs[8], hs[5]]
    assert h.find_min() == (2, None)


def test_active_child_above_parent_stays_put():
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in (1, 4, 9, 12)}
    h.delete_min()
    i4, i9 = hs[4], hs[9]
    assert children(i4) == [hs[12], i9]
    cuts0 = h.telemetry.cuts
    h.decrease_key(hs[9], 5)   # active, still above parent key 4
    assert h.telemetry.cuts == cuts0
    assert children(i4)[-1] == i9 and i9.key == 5
    h.decrease_key(hs[9], 3)   # now undercuts the parent
    assert h.telemetry.cuts == cuts0 + 1
    assert h.find_min() == (3, None)


def test_82_keys_glue_surgeries():
    h, hs = _one_deleted(82)
    R = hs[2]
    assert R.rank == 4 and h._first == R
    L4 = R.down
    assert L4 == hs[29] and L4.rank == 3
    assert L4.down == hs[38] and hs[38].prv == hs[47]
    assert hs[38].rank == 2 and hs[47].rank == 2

    # cut the last child 38; its higher-ranked child 41 is glued in
    h.decrease_key(hs[38], 10)
    assert L4.down == hs[41] and hs[41].rank == 1
    assert hs[41].prv == hs[47]
    assert L4.rank == 3
    assert hs[38].rank == 2

    # cut 29 itself; active child 47 outranks 41 and takes its slot
    h.decrease_key(hs[29], 1)
    assert R.down == hs[47] and hs[47].nxt == R
    assert hs[29].rank == 2
    assert h.find_min() == (1, None)
    assert R.rank == 4
    drained = [h.delete_min()[0] for _ in range(81)]
    assert drained == sorted(drained)


def test_join_swaps_misordered_last_children():
    h1, a = _one_deleted(10, 100)
    assert a[101].rank == 2
    assert children(a[101]) == [a[103], a[102], a[107], a[104]]
    h1.decrease_key(a[104], 50)
    # 104's replacement is rank 0, leaving last two as (rank 1, rank 0)
    assert children(a[101]) == [a[103], a[102], a[107], a[105]]
    assert a[105].rank == 0 and a[107].rank == 1

    h2 = h1.spawn()
    b = {k: h2.insert(k) for k in range(200, 210)}
    assert h2.delete_min()[0] == 200
    h3 = h1.spawn()
    c = {k: h3.insert(k) for k in range(300, 310)}
    assert h3.delete_min()[0] == 300
    h = h1.meld(h2).meld(h3)
    h.insert(0)
    assert h.delete_min() == (0, None)
    # circular order put the 300-tree before the 200-tree, so the join
    # call was (300-tree, 200-tree, 101): 101 wins, swaps 105/107 so the
    # higher rank sits last, then links the two losers newest
    assert a[101].rank == 3
    assert children(a[101]) == [
        a[103], a[102], a[105], a[107], c[301], b[201]]
    assert h.find_min() == (50, None)
    drained = [h.delete_min()[0] for _ in range(len(h))]
    assert drained == sorted(drained)


def test_decrease_on_the_emptied_meld_operand_is_refused():
    # a handle must belong to the heap it is used on; the one breach that
    # is detected is a decrease called on an empty heap
    a = ViolationHeap()
    b = a.spawn()
    for k in (5, 6):
        a.insert(k)
    hb = {k: b.insert(k) for k in (7, 8, 9, 10)}
    b.delete_min()           # joins 8, 9, 10: a root and two children
    del hb[7]
    assert a.meld(b) is a and len(a) == 5
    before = (len(a), a.telemetry.comparisons)
    for h in hb.values():
        with pytest.raises(HeapError, match="empty"):
            b.decrease_key(h, 1)
    assert len(b) == 0 and b.find_min() is None
    assert (len(a), a.telemetry.comparisons) == before
    assert {k: h.key for k, h in hb.items()} == {8: 8, 9: 9, 10: 10}
    assert full_audit(a).ok
    assert [a.delete_min()[0] for _ in range(5)] == [5, 6, 8, 9, 10]


def test_meld_takes_a_heap_built_apart():
    # the absorbed heap's family reached a higher max_rank than the
    # absorber's, whose delete_min sizes its rank slots from its own:
    # meld lifts it, and each family keeps its own counters
    a, b = ViolationHeap(), ViolationHeap()
    for k in (150, 250, 350):
        a.insert(k)
    for k in random.Random(4).sample(range(100, 300), 200):
        b.insert(k)
    b.delete_min()
    assert a.telemetry.max_rank == 0 and b.telemetry.max_rank == 4
    b_counts = vars(b.telemetry).copy()
    assert a.meld(b) is a and len(a) == 202 and len(b) == 0
    assert full_audit(a).ok
    drained = [a.delete_min()[0] for _ in range(202)]
    assert drained == sorted([150, 250, 350] + list(range(101, 300)))
    assert a.telemetry.max_rank >= 4 and a.telemetry.joins > 0
    assert vars(b.telemetry) == b_counts


class OwnKindOnly:
    """Key that orders among its own kind and raises against any other."""

    def __init__(self, v):
        self.v = v

    def _other(self, other):
        if not isinstance(other, OwnKindOnly):
            raise TypeError("no order against a foreign key")
        return other.v

    def __lt__(self, other):
        return self.v < self._other(other)

    def __gt__(self, other):
        return self.v > self._other(other)


class NoStrictOrder:
    """Key that is never an increase (<= holds, > fails) but raises on <."""

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __lt__(self, other):
        raise TypeError("no strict order")


def test_raising_key_compare_mutates_nothing():
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in (5, 3, 8)}
    side = h.spawn()
    side.insert(OwnKindOnly(1))
    before = (len(h), len(side), h.telemetry.comparisons)

    def unchanged():
        assert (len(h), len(side), h.telemetry.comparisons) == before
        assert full_audit(h).ok and full_audit(side).ok
        assert [i.key for i in roots(h)] == [3, 8, 5]

    with pytest.raises(TypeError):
        h.insert(OwnKindOnly(0))
    unchanged()
    with pytest.raises(TypeError):
        h.meld(side)
    unchanged()
    with pytest.raises(TypeError):
        side.meld(h)
    unchanged()
    # a root compares with the first root before its key is stored
    with pytest.raises(TypeError):
        h.decrease_key(hs[8], NoStrictOrder())
    unchanged()
    # both operands stay usable after the failed meld
    assert h.delete_min() == (3, None)
    assert side.delete_min()[0].v == 1

    # children compare with the parent (active) or the first root
    # (deeper) before anything is stored or cut
    h = ViolationHeap()
    hs = [h.insert(k) for k in range(12)]
    h.delete_min()
    assert len(roots(h)) < 11
    for handle in hs[1:]:
        snap = ([(x.key, x.rank, x.down, x.nxt, x.prv) for x in hs],
                h._first, vars(h.telemetry).copy())
        with pytest.raises(TypeError):
            h.decrease_key(handle, NoStrictOrder())
        assert snap == ([(x.key, x.rank, x.down, x.nxt, x.prv) for x in hs],
                        h._first, vars(h.telemetry))
    assert full_audit(h).ok


@pytest.mark.parametrize("late", [0, 3])
def test_raise_inside_delete_min_keeps_every_tree(late):
    # a comparison may raise anywhere in a delete_min that follows an
    # earlier one, in a join or in the min scan; the sweep checks that
    # it rolls back on every heap.  With late = 3, three rank-0 roots
    # inserted after the first delete_min make joins while the old
    # minimum's children are still unwalked.
    keys = random.Random(6).sample(range(10_000), 200)
    ops = ([("insert", k) for k in keys] + [("deletemin",)]
           + [("insert", k) for k in range(10_000, 10_000 + late)]
           + [("deletemin",)])
    for name in HEAP_NAMES:
        _sweep_last(name, ops)


def test_golden_counters():
    # a ViolationHeap driven by hand, not through the bench helpers, counts
    # the golden table's heapsort and Dijkstra rows
    rng = random.Random(0)
    h = ViolationHeap()
    for _ in range(20_000):
        h.insert(rng.randrange(1 << 60))
    while len(h):
        h.delete_min()
    assert h.telemetry == Telemetry(*GOLDEN["heapsort", "violation"])
    h = ViolationHeap()
    dist = dijkstra(gen_graph(10_000, 100_000, 7), 0, h)
    assert h.telemetry == Telemetry(*GOLDEN["dijkstra", "violation"])
    assert checksum(dist) == 182835793


# what a key compared in h's delete_min does, given h, its handles, a sibling
REENTRANT_CALLS = {
    "insert": lambda h, hs, sib: h.insert(-5),
    "delete_min": lambda h, hs, sib: h.delete_min(),
    "decrease_key": lambda h, hs, sib: h.decrease_key(hs[-1], -5),
    "meld-into": lambda h, hs, sib: h.meld(sib),
    "meld-of": lambda h, hs, sib: sib.meld(h),
}


@pytest.mark.parametrize("kept", [False, True], ids=["fresh-slots", "kept-slots"])
@pytest.mark.parametrize("call", REENTRANT_CALLS)
def test_a_call_into_a_heap_from_its_delete_min_is_refused(call, kept):
    # at each comparison of one delete_min in turn, a key calls into its
    # heap: the call raises HeapError before it changes anything, and the
    # delete_min rolls back.  With kept, an earlier one left its slot list
    keys = random.Random(5).sample(range(999), 99) + [999]  # hs[-1] stays live

    def build():
        h = ViolationHeap()
        hs = [h.insert(Reentrant(k)) for k in keys]
        if kept:
            h.delete_min()
        sib = h.spawn()
        for k in (500, -7):
            sib.insert(k)
        Reentrant.call = lambda: REENTRANT_CALLS[call](h, hs, sib)
        return h, sib

    h, _ = build()
    assert (h._slots is not None) == kept
    for k in range(_armed(10 ** 9, h.delete_min, Reentrant)):
        h, sib = build()
        with pytest.raises(HeapError, match="delete_min runs"):
            _armed(k, h.delete_min, Reentrant)
        assert full_audit(h).ok and h._slots is None, k
        assert [sib.delete_min()[0] for _ in range(2)] == [-7, 500] and not sib, k
        assert [h.delete_min()[0] for _ in range(len(h))] == sorted(keys)[kept:], k


def _hooked_family():
    # 40 keys in h, one in its sibling side; the hook runs after each join
    h = ViolationHeap()
    side = h.spawn()
    for k in random.Random(4).sample(range(1000), 40):
        h.insert(k)
    side.insert(-1)
    return h, side


def test_delete_min_adds_to_counters_a_join_hook_moved():
    # each join's hook inserts a new minimum into a sibling, one
    # comparison each: delete_min's write adds to those, never overwrites
    # them (values taken from the code that wrote Telemetry at every join)
    h, side = _hooked_family()
    assert h.telemetry == Telemetry(comparisons=39)

    def hook(phase, trees):
        if phase == "after":
            side.insert(-2 - len(side))

    h.telemetry.join_hook = hook
    assert h.delete_min() == (20, None)
    assert len(side) == 19 and full_audit(h).ok and full_audit(side).ok
    assert h.telemetry == Telemetry(comparisons=95, joins=18, cuts=0,
                                    rank_update_steps=0, max_rank=3)


def test_join_hook_lifting_max_rank_mid_call():
    # a hook that melds a heap of higher ranks into the sibling lifts the
    # family's max_rank while delete_min runs: the call still sizes its
    # slots from its own ranks and keeps the higher max_rank.  The hook
    # sees the counters as they stood before the call.
    h, side = _hooked_family()
    far, _ = _one_deleted(2000, 0)
    assert far.telemetry.max_rank == 6
    seen = []

    def hook(phase, trees):
        if phase == "after":
            seen.append(h.telemetry.joins)
            side.insert(len(side))
            if len(side) == 3:
                side.meld(far)

    h.telemetry.join_hook = hook
    assert h.delete_min() == (20, None)
    assert seen == [0] * 18 and len(side) == 2018
    assert full_audit(h).ok and full_audit(side).ok
    assert h.telemetry == Telemetry(comparisons=96, joins=18, cuts=0,
                                    rank_update_steps=0, max_rank=6)


def test_join_hook_sees_whole_trees():
    # every tree a join hook is handed is a real tree: its root has no
    # older sibling, and together the trees hold every element but the
    # minimum being removed (len still counts it while the call runs).
    # Late inserts make joins while the old minimum's children are
    # still unwalked.
    h = ViolationHeap()
    for k in random.Random(9).sample(range(100_000), 3000):
        h.insert(k)
    h.delete_min()
    for k in range(-5, 0):
        h.insert(k)
    calls = []

    def hook(phase, trees):
        calls.append((all(u.prv is None for u in trees),
                      sum(len(subtree(u)) for u in trees) == len(h) - 1))

    h.telemetry.join_hook = hook
    for _ in range(50):
        h.delete_min()
    assert len(calls) > 500
    assert [c for c in calls if c != (True, True)] == []
    assert full_audit(h).ok


def _shape(h, handles):
    # every node's key, rank and links as indexes into handles, the root
    # order from the first root, and the counters
    at = {x: i for i, x in enumerate(handles)}
    at[None] = None
    nodes = [(x.key, x.rank, at[x.down], at[x.nxt], at[x.prv]) for x in handles]
    return nodes, [at[r] for r in roots(h)], h.telemetry


@pytest.mark.parametrize("weights", [DEFAULT_WEIGHTS, (0.3, 0.5, 0.15, 0.05)])
def test_kept_slots_change_nothing(weights):
    # one heap keeps its slot list between delete-mins, its twin never
    # does.  An op that leaves a kept list that no longer matches the
    # root list shows as the first op after which the twins differ.
    # uses counts the ops that had a kept list to act on, per kind
    uses = Counter()
    for seed in (0, 1):
        kept, fresh, hk, hf = ViolationHeap(), ViolationHeap(), [], []
        for n, op in enumerate(gen_ops(seed, 1000, weights).ops):
            fresh._slots = None
            had, cuts = kept._slots is not None, kept.telemetry.cuts
            assert apply_op(kept, hk, op) == apply_op(fresh, hf, op)
            assert _shape(kept, hk) == _shape(fresh, hf), (seed, n, op)
            kind = "cut" if kept.telemetry.cuts > cuts else op[0]
            uses[kind] += had
    assert all(uses[kind] for kind in ("deletemin", "insert", "meld", "cut")), uses


def _heavy_root(rounds):
    # w (key 0) wins a rank-1 join each round, and drops back to rank 1
    # when its two newest children lose theirs to cuts below them, so it
    # gains two childless children a round while no rank passes 2
    h = ViolationHeap()
    keys = itertools.count(10 ** 6, 1000)
    w = h.insert(0)
    for k in (next(keys), next(keys), -1):
        h.insert(k)
    h.delete_min()
    for i in range(rounds):
        h.insert(-2 - i)
        for _ in range(6 if i == 0 else 2):
            h.insert(next(keys))
        h.delete_min()
        assert w.rank == 2 and w.nxt is w
        for a in (w.down, w.down.prv):
            while a.down is not None:
                h.decrease_key(a.down, a.key - 1)
        assert w.rank == 1
    return h, w


def test_kept_slots_after_a_sibling_lifts_max_rank():
    # the last delete-min keeps an 8-slot list (ranks 0..3: max_rank was
    # 2), then a sibling lifts the family's max_rank to 6.  The next
    # delete-min takes out w, the only root: its 76 childless children
    # and its two of rank 1 carry up to rank 4 (3 ** 4 <= 76 + 2 * 3; one
    # round fewer stops at rank 3), a rank below max_rank and past the
    # list's end, so the call must widen the list before it places a
    # tree.  Its twin builds a fresh list.
    twins = []
    for drop in (False, True):
        h, w = _heavy_root(37)
        for k in (-10 ** 6, 10 ** 9, 10 ** 9 + 1):
            h.insert(k)
        h.delete_min()
        assert w.nxt is w and len(h._slots) == 8 and h.telemetry.max_rank == 2
        high, _ = _one_deleted(2000, 0)
        h.spawn().meld(high.spawn())
        assert h.telemetry.max_rank == 6
        if drop:
            h._slots = None
        assert h.delete_min() == (0, None)
        assert full_audit(h).ok and max(u.rank for u in roots(h)) == 4
        twins.append((asdict(h.telemetry), [(u.key, u.rank) for u in roots(h)],
                      [h.delete_min() for _ in range(len(h))], asdict(h.telemetry)))
    assert twins[0] == twins[1]


# heap 1, 2, 3 has the root list 1 -> 3 -> 2 -> 1, with no kept slot
# list.  In a child process under memory and CPU limits, so that a walk
# that does not end fails the test instead of eating the machine:
# corrupt the list, then delete_min must raise HeapError within a
# second, after a rollback that leaves the first root and the size as
# they were and a state full_audit reports without raising
_CORRUPT_DELETE_MIN = """
import sys, time
from violationheap import HeapError, ViolationHeap
from violationheap.invariants import full_audit
h = ViolationHeap()
z = h.insert(0)
h.delete_min()
_, two, three = (h.insert(k) for k in (1, 2, 3))
{corrupt}
before = h.find_min(), len(h)
t0 = time.perf_counter()
try:
    h.delete_min()
except HeapError as exc:
    print(exc, file=sys.stderr)
else:
    raise SystemExit("delete_min returned")
assert time.perf_counter() - t0 < 1, time.perf_counter() - t0
assert (h.find_min(), len(h)) == before
rules = {{v.rule for v in full_audit(h).violations}}
print(sorted(rules), file=sys.stderr)
assert rules
"""

# 4 .. 100 join the heap, and delete_min takes 1 and keeps its slot
# list; then the first root's last child points at its oldest child
# instead of at its parent, so the child chain never returns
_KEPT_CHILD_LOOP = """
for k in range(4, 101):
    h.insert(k)
h.delete_min()
assert h._slots is not None and h.find_min() == (2, None)
oldest = last = h._first.down
while oldest.prv is not None:
    oldest = oldest.prv
last.nxt = oldest
"""


@pytest.mark.parametrize("corrupt, message", [
    ("two.nxt = three", "the roots or children of NodeHandle(1, None) do not return to it"),
    ("two.nxt = z", "reach a removed node"),
    (_KEPT_CHILD_LOOP, "the roots or children of NodeHandle(2, None) do not return to it"),
], ids=["loop", "removed", "kept-child-loop"])
def test_corrupt_root_list_raises(corrupt, message):
    status, err = run_limited(_CORRUPT_DELETE_MIN.format(corrupt=corrupt))
    assert status == 0 and message in err, err


def test_key_increase_rejected():
    h = ViolationHeap()
    a = h.insert(10)
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, 11)
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, math.nan)   # NaN does not sort below 10
    h.decrease_key(a, 10)   # no-op decrease is fine
    assert h.find_min() == (10, None)
    # a NaN key is refused before a node is made or a key compared
    before = (len(h), vars(h.telemetry).copy())
    with pytest.raises(HeapError, match="NaN"):
        h.insert(math.nan)
    assert (len(h), vars(h.telemetry)) == before
    assert full_audit(h).ok and h.find_min() == (10, None)


def test_stale_handles_after_removal():
    h = ViolationHeap()
    a = h.insert(1, "gone")
    b = h.insert(2, "stays")
    assert h.delete_min() == (1, "gone")
    assert not h.is_live(a) and h.is_live(b)
    c = h.insert(3, "later")
    with pytest.raises(StaleHandleError):
        h.decrease_key(a, 0)
    assert not h.is_live(a) and h.is_live(c) and (c.key, c.item) == (3, "later")


def test_pools_are_independent():
    h1, h2 = ViolationHeap(), ViolationHeap()
    a = h1.insert(5)
    h2.insert(5)
    h1.delete_min()
    # h2's telemetry and heap unaffected by h1 traffic
    assert h2.telemetry.comparisons == 0
    assert len(h2) == 1 and h2.find_min() == (5, None)
    assert not h1.is_live(a)


def test_items_round_trip():
    h = ViolationHeap()
    h.insert(3, {"payload": 1})
    h.insert(1, "first")
    h.insert(2, None)
    assert h.delete_min() == (1, "first")
    assert h.delete_min() == (2, None)
    assert h.delete_min() == (3, {"payload": 1})


def test_telemetry_counts_move():
    h = ViolationHeap()
    for k in range(64):
        h.insert(k)
    h.delete_min()
    t = h.telemetry
    assert t.joins > 0 and t.comparisons > 0 and t.max_rank >= 2


def test_only_heap_core_names_the_family_record():
    # heaps are built with ViolationHeap() and spawn(), and the family
    # record is the shared Telemetry; perfbench's old names for them are
    # aliases in heap_core alone
    src = Path(__file__).resolve().parents[1] / "src" / "violationheap"
    naming = [f.name for f in sorted(src.glob("*.py"))
              if any(w in f.read_text() for w in ("NodePool", "new_heap", ".pool"))]
    assert naming == ["heap_core.py"]
