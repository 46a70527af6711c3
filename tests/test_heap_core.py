"""Structural unit tests pinned to hand-worked operation traces.

Every expected pointer/rank value in here was derived on paper from the
linking rules before the implementation existed; a failure means the
code drifted from the rules, not that the numbers need refreshing.
"""

import math
import random
from pathlib import Path

import pytest

from test_baselines import _sweep_last
from violationheap import (EmptyHeapError, HeapError, StaleHandleError,
                           Telemetry, ViolationHeap, rank_from_pair)
from violationheap.heap_core import _active_parent
from violationheap.invariants import full_audit
from violationheap.oracle import run_differential
from violationheap.workloads import (HEAP_NAMES, checksum, dijkstra,
                                     gen_graph)


def kids_oldest_first(i):
    out = []
    c = i.down
    while c is not None:
        out.append(c)
        c = c.prv
    return out[::-1]


def root_cycle(h):
    out = []
    r = f = h._first
    while True:
        out.append(r)
        r = r.nxt
        if r == f:
            return out


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
    assert [i.key for i in root_cycle(h)] == [1, 5, 4, 3, 2]
    assert h.find_min() == (1, None)
    assert len(h) == 5 and not h.is_empty()


def test_empty_heap_queries():
    h = ViolationHeap()
    assert h.find_min() is None
    assert h._first is None
    assert len(h) == 0 and h.is_empty()
    with pytest.raises(EmptyHeapError):
        h.delete_min()


def test_four_singletons_consolidate():
    # third tree of a rank triggers one 3-way join; survivors: that tree
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in (1, 2, 3, 4)}
    assert h.delete_min() == (1, None)
    i2 = hs[2]
    assert h.find_min() == (2, None) and len(h) == 3
    assert i2.rank == 1
    assert i2.down == hs[3] and hs[3].prv == hs[4]
    assert hs[4].prv is None and hs[3].nxt == i2
    assert [h.delete_min()[0] for _ in range(3)] == [2, 3, 4]


def test_ten_keys_cut_and_propagation_chain():
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(1, 11)}
    assert h.delete_min()[0] == 1
    i = lambda k: hs[k]
    assert i(2).rank == 2 and i(2).down == i(5)
    assert kids_oldest_first(i(2)) == [i(4), i(3), i(8), i(5)]
    assert i(8).rank == 1 and i(5).rank == 1

    t = h.telemetry
    base = t.rank_update_steps
    # cutting 6 leaves 5 with one rank-0 child: ceiling keeps rank 1
    h.decrease_key(hs[6], 0)
    assert t.rank_update_steps - base == 0 and i(5).rank == 1
    # cutting 7 empties 5: rank drops to 0, but 2 still holds rank 2
    h.decrease_key(hs[7], -1)
    assert t.rank_update_steps - base == 1
    assert i(5).rank == 0 and i(2).rank == 2
    h.decrease_key(hs[9], -2)
    assert t.rank_update_steps - base == 1 and i(8).rank == 1
    # cutting 10 empties 8 and the repair continues into 2
    h.decrease_key(hs[10], -3)
    assert t.rank_update_steps - base == 3
    assert i(8).rank == 0 and i(2).rank == 1
    assert h.find_min() == (-3, None) and len(h) == 9
    assert t.cuts == 4
    assert [h.delete_min()[0] for _ in range(9)] == [-3, -2, -1, 0, 2, 3, 4, 5, 8]


def test_active_parent_on_the_ten_key_tree():
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(1, 11)}
    h.delete_min()
    i = lambda k: hs[k]
    assert kids_oldest_first(i(2)) == [i(4), i(3), i(8), i(5)]
    expected = {5: 2, 8: 2, 6: 5, 7: 5, 9: 8, 10: 8}
    for k in range(2, 11):
        want = i(expected[k]) if k in expected else None
        assert _active_parent(i(k)) is want, k


def test_cut_second_to_last_child_with_children():
    # 10-key tree, after cutting 6 and 7: 2 (rank 2) has children
    # [4, 3, 8, 5] with 5 childless (rank 0) and 8 (rank 1) over [10, 9].
    # Cutting 8 glues its last child 9 (tie at rank 0) into 8's place:
    # 3 -> 9 -> 5 among 2's children, 8 keeps 10.  The walk starts at 2,
    # whose active pair drops to (0, 0), so 2 falls to rank 1.
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(1, 11)}
    h.delete_min()
    i = lambda k: hs[k]
    h.decrease_key(hs[6], 0)
    h.decrease_key(hs[7], -1)
    assert kids_oldest_first(i(2)) == [i(4), i(3), i(8), i(5)]
    assert (i(2).rank, i(5).rank, i(8).rank) == (2, 0, 1)
    assert [r.key for r in root_cycle(h)] == [-1, 2, 0]
    t = h.telemetry
    before = (t.comparisons, t.cuts, t.rank_update_steps)

    h.decrease_key(hs[8], 1)
    # compared with the parent 2, then with the first root -1
    assert (t.comparisons, t.cuts, t.rank_update_steps) == (
        before[0] + 2, before[1] + 1, before[2] + 1)
    assert kids_oldest_first(i(2)) == [i(4), i(3), i(9), i(5)]
    assert i(3).nxt == i(9) and i(9).prv == i(3)
    assert i(9).nxt == i(5) and i(5).prv == i(9)
    assert i(2).down == i(5) and i(5).nxt == i(2)
    assert i(8).down == i(10) and i(10).nxt == i(8)
    assert i(10).prv is None and i(8).prv is None
    assert (i(2).rank, i(8).rank, i(9).rank) == (1, 1, 0)
    # 8 enters the root list right behind the first root
    assert [r.key for r in root_cycle(h)] == [-1, 1, 2, 0]
    assert full_audit(h).ok
    drained = [h.delete_min()[0] for _ in range(len(h))]
    assert drained == [-1, 0, 1, 2, 3, 4, 5, 9, 10]


def test_cut_non_active_child_with_children():
    # 28-key tree: 2 (rank 3) has children [4, 3, 8, 5, 20, 11]; 5 is not
    # active and has children [7, 6], both rank 0.  Cutting 5 glues 6 (the
    # last child wins the tie) between 8 and 20, 5 keeps 7, and no rank
    # repair runs.
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(1, 29)}
    h.delete_min()
    i = lambda k: hs[k]
    assert kids_oldest_first(i(2)) == [i(k) for k in (4, 3, 8, 5, 20, 11)]
    assert kids_oldest_first(i(5)) == [i(7), i(6)]
    ranks = {k: x.rank for k, x in hs.items()}
    t = h.telemetry
    before = (t.comparisons, t.cuts, t.rank_update_steps)

    h.decrease_key(hs[5], 1)
    # no parent comparison: only the first root is compared
    assert (t.comparisons, t.cuts, t.rank_update_steps) == (
        before[0] + 1, before[1] + 1, before[2])
    assert kids_oldest_first(i(2)) == [i(k) for k in (4, 3, 8, 6, 20, 11)]
    assert i(8).nxt == i(6) and i(6).prv == i(8)
    assert i(6).nxt == i(20) and i(20).prv == i(6)
    assert i(5).down == i(7) and i(7).nxt == i(5)
    assert i(7).prv is None and i(5).prv is None
    assert i(5).rank == 1
    assert {k: x.rank for k, x in hs.items() if k != 5} == \
        {k: r for k, r in ranks.items() if k != 5}
    assert h._first == i(5) and root_cycle(h) == [i(5), i(2)]
    assert full_audit(h).ok
    assert [h.delete_min()[0] for _ in range(len(h))] == list(range(1, 5)) + \
        list(range(6, 29))


def test_eight_singletons_survivor_ranks():
    h = ViolationHeap()
    for k in range(1, 9):
        h.insert(k)
    assert h.delete_min()[0] == 1
    rks = sorted(r.rank for r in root_cycle(h))
    assert rks == [0, 1, 1]
    assert [h.delete_min()[0] for _ in range(7)] == list(range(2, 9))


def test_nonactive_child_always_cuts():
    # in the 10-key tree, 3 is childless and older than the two active
    # children of 2; even a decrease that stays above the parent's key
    # must detach it
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(1, 11)}
    h.delete_min()
    i = lambda k: hs[k]
    cuts0 = h.telemetry.cuts
    h.decrease_key(hs[3], 3)   # same key: allowed, still a cut
    assert h.telemetry.cuts == cuts0 + 1
    assert i(3).prv is None and i(3) in root_cycle(h)
    assert kids_oldest_first(i(2)) == [i(4), i(8), i(5)]
    assert h.find_min() == (2, None)


def test_active_child_above_parent_stays_put():
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in (1, 4, 9, 12)}
    h.delete_min()
    i4, i9 = hs[4], hs[9]
    assert kids_oldest_first(i4) == [hs[12], i9]
    cuts0 = h.telemetry.cuts
    h.decrease_key(hs[9], 5)   # active, still above parent key 4
    assert h.telemetry.cuts == cuts0
    assert kids_oldest_first(i4)[-1] == i9 and i9.key == 5
    h.decrease_key(hs[9], 3)   # now undercuts the parent
    assert h.telemetry.cuts == cuts0 + 1
    assert h.find_min() == (3, None)


def test_82_keys_glue_surgeries():
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(1, 83)}
    assert h.delete_min()[0] == 1
    i = lambda k: hs[k]
    R = i(2)
    assert R.rank == 4 and h._first == R
    L4 = R.down
    assert L4 == i(29) and L4.rank == 3
    assert L4.down == i(38) and i(38).prv == i(47)
    assert i(38).rank == 2 and i(47).rank == 2

    # cut the last child 38; its higher-ranked child 41 is glued in
    h.decrease_key(hs[38], 10)
    assert L4.down == i(41) and i(41).rank == 1
    assert i(41).prv == i(47)
    assert L4.rank == 3
    assert i(38).rank == 2

    # cut 29 itself; active child 47 outranks 41 and takes its slot
    h.decrease_key(hs[29], 1)
    assert R.down == i(47) and i(47).nxt == R
    assert i(29).rank == 2
    assert h.find_min() == (1, None)
    assert R.rank == 4
    drained = [h.delete_min()[0] for _ in range(81)]
    assert drained == sorted(drained)


def test_join_swaps_misordered_last_children():
    h1 = ViolationHeap()
    a = {k: h1.insert(k) for k in range(100, 110)}
    assert h1.delete_min()[0] == 100
    i1 = lambda k: a[k]
    assert i1(101).rank == 2
    assert kids_oldest_first(i1(101)) == [i1(103), i1(102), i1(107), i1(104)]
    h1.decrease_key(a[104], 50)
    # 104's replacement is rank 0, leaving last two as (rank 1, rank 0)
    assert kids_oldest_first(i1(101)) == [i1(103), i1(102), i1(107), i1(105)]
    assert i1(105).rank == 0 and i1(107).rank == 1

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
    assert i1(101).rank == 3
    assert kids_oldest_first(i1(101)) == [
        i1(103), i1(102), i1(105), i1(107), c[301], b[201]]
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


def test_meld_rejects_foreign_pool():
    # two heaps built apart are two families: meld refuses either way
    # round and changes neither, while a spawned sibling melds
    h1, h2 = ViolationHeap(), ViolationHeap()
    for h, base in ((h1, 0), (h2, 100)):
        for k in range(50):
            h.insert(base + k * 37 % 50)
        h.delete_min()
    state = lambda: [(len(h), h.find_min(), vars(h.telemetry).copy())
                     for h in (h1, h2)]
    before = state()
    for a, b in ((h1, h2), (h2, h1)):
        with pytest.raises(HeapError, match="different families"):
            a.meld(b)
        assert state() == before and full_audit(h1).ok and full_audit(h2).ok
    sib = h1.spawn()
    sib.insert(-1)
    assert h1.meld(sib) is h1 and len(h1) == 50 and h1.find_min() == (-1, None)
    for h in (h1, h2):
        drained = [h.delete_min()[0] for _ in range(len(h))]
        assert drained == sorted(drained)


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
        assert [i.key for i in root_cycle(h)] == [3, 8, 5]

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
    roots = set(root_cycle(h))
    assert len(roots) < 11
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
    # exact counters, not derived on paper: any change to the join order,
    # the root order or the min scan moves them
    rng = random.Random(0)
    h = ViolationHeap()
    for _ in range(20_000):
        h.insert(rng.randrange(1 << 60))
    while len(h):
        h.delete_min()
    assert h.telemetry == Telemetry(comparisons=465174, joins=143071, cuts=0,
                                    rank_update_steps=0, max_rank=9)
    h = ViolationHeap()
    dist = dijkstra(gen_graph(10_000, 100_000, 7), 0, h)
    assert h.telemetry == Telemetry(comparisons=256529, joins=72223,
                                    cuts=13894, rank_update_steps=3260,
                                    max_rank=8)
    assert checksum(dist) == 182835793
    # meld and decrease-key, through the oracle's replay
    v = run_differential(0, 10_000)
    assert v.passed
    assert Telemetry(v.comparisons, v.joins, v.cuts, v.rank_update_steps,
                     v.max_rank) == Telemetry(comparisons=38850, joins=7117,
                                              cuts=1301, rank_update_steps=85,
                                              max_rank=7)


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
    # heaps are built with ViolationHeap() and spawn(); the record behind
    # a family is heap_core's own
    src = Path(__file__).resolve().parents[1] / "src" / "violationheap"
    naming = [f.name for f in sorted(src.glob("*.py"))
              if any(w in f.read_text() for w in ("NodePool", "new_heap"))]
    assert naming == ["heap_core.py"]
