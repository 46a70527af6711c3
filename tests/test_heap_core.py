"""Structural unit tests pinned to hand-worked operation traces.

Every expected pointer/rank value in here was derived on paper from the
linking rules before the implementation existed; a failure means the
code drifted from the rules, not that the numbers need refreshing.
"""

import pytest

from violationheap import (NIL, EmptyHeapError, HeapError, NodeHandle,
                           NodePool, StaleHandleError, ViolationHeap,
                           rank_from_pair)
from violationheap.invariants import full_audit


def kids_oldest_first(p, i):
    out = []
    c = p.down[i]
    while c != NIL:
        out.append(c)
        c = p.prv[c]
    return out[::-1]


def root_cycle(h):
    p, out = h.pool, []
    r = f = h._first
    while True:
        out.append(r)
        r = p.nxt[r]
        if r == f:
            return out


def test_rank_formula_examples():
    assert rank_from_pair(3, 2) == 4
    assert rank_from_pair(-1, -1) == 0
    assert rank_from_pair(4, -1) == 3
    assert rank_from_pair(0, 0) == 1
    assert rank_from_pair(2, 2) == 3


def test_insert_keeps_newest_near_front():
    p = NodePool()
    h = p.new_heap()
    hs = [h.insert(k) for k in (1, 2, 3, 4, 5)]
    # new roots splice in right behind the first root
    assert [p.keys[i] for i in root_cycle(h)] == [1, 5, 4, 3, 2]
    assert h.find_min() == (1, None)
    assert len(h) == 5 and not h.is_empty()


def test_empty_heap_queries():
    h = NodePool().new_heap()
    assert h.find_min() is None
    assert h.first_root() is None
    assert len(h) == 0 and h.is_empty()
    with pytest.raises(EmptyHeapError):
        h.delete_min()


def test_four_singletons_consolidate():
    # third tree of a rank triggers one 3-way join; survivors: that tree
    p = NodePool()
    h = p.new_heap()
    hs = {k: h.insert(k) for k in (1, 2, 3, 4)}
    assert h.delete_min() == (1, None)
    i2 = hs[2].index
    assert h.find_min() == (2, None) and len(h) == 3
    assert p.ranks[i2] == 1
    assert p.down[i2] == hs[3].index and p.prv[hs[3].index] == hs[4].index
    assert p.prv[hs[4].index] == NIL and p.nxt[hs[3].index] == i2
    assert [h.delete_min()[0] for _ in range(3)] == [2, 3, 4]


def test_ten_keys_cut_and_propagation_chain():
    p = NodePool()
    h = p.new_heap()
    hs = {k: h.insert(k) for k in range(1, 11)}
    assert h.delete_min()[0] == 1
    i = lambda k: hs[k].index
    assert p.ranks[i(2)] == 2 and p.down[i(2)] == i(5)
    assert kids_oldest_first(p, i(2)) == [i(4), i(3), i(8), i(5)]
    assert p.ranks[i(8)] == 1 and p.ranks[i(5)] == 1

    t = p.telemetry
    base = t.rank_update_steps
    # cutting 6 leaves 5 with one rank-0 child: ceiling keeps rank 1
    h.decrease_key(hs[6], 0)
    assert t.rank_update_steps - base == 0 and p.ranks[i(5)] == 1
    # cutting 7 empties 5: rank drops to 0, but 2 still holds rank 2
    h.decrease_key(hs[7], -1)
    assert t.rank_update_steps - base == 1
    assert p.ranks[i(5)] == 0 and p.ranks[i(2)] == 2
    h.decrease_key(hs[9], -2)
    assert t.rank_update_steps - base == 1 and p.ranks[i(8)] == 1
    # cutting 10 empties 8 and the repair continues into 2
    h.decrease_key(hs[10], -3)
    assert t.rank_update_steps - base == 3
    assert p.ranks[i(8)] == 0 and p.ranks[i(2)] == 1
    assert h.find_min() == (-3, None) and len(h) == 9
    assert t.cuts == 4
    assert [h.delete_min()[0] for _ in range(9)] == [-3, -2, -1, 0, 2, 3, 4, 5, 8]


def test_eight_singletons_survivor_ranks():
    p = NodePool()
    h = p.new_heap()
    for k in range(1, 9):
        h.insert(k)
    assert h.delete_min()[0] == 1
    rks = sorted(p.ranks[r] for r in root_cycle(h))
    assert rks == [0, 1, 1]
    assert [h.delete_min()[0] for _ in range(7)] == list(range(2, 9))


def test_nonactive_child_always_cuts():
    # in the 10-key tree, 3 is childless and older than the two active
    # children of 2; even a decrease that stays above the parent's key
    # must detach it
    p = NodePool()
    h = p.new_heap()
    hs = {k: h.insert(k) for k in range(1, 11)}
    h.delete_min()
    i = lambda k: hs[k].index
    cuts0 = p.telemetry.cuts
    h.decrease_key(hs[3], 3)   # same key: allowed, still a cut
    assert p.telemetry.cuts == cuts0 + 1
    assert p.prv[i(3)] == NIL and i(3) in root_cycle(h)
    assert kids_oldest_first(p, i(2)) == [i(4), i(8), i(5)]
    assert h.find_min() == (2, None)


def test_active_child_above_parent_stays_put():
    p = NodePool()
    h = p.new_heap()
    hs = {k: h.insert(k) for k in (1, 4, 9, 12)}
    h.delete_min()
    i4, i9 = hs[4].index, hs[9].index
    assert kids_oldest_first(p, i4) == [hs[12].index, i9]
    cuts0 = p.telemetry.cuts
    h.decrease_key(hs[9], 5)   # active, still above parent key 4
    assert p.telemetry.cuts == cuts0
    assert kids_oldest_first(p, i4)[-1] == i9 and p.keys[i9] == 5
    h.decrease_key(hs[9], 3)   # now undercuts the parent
    assert p.telemetry.cuts == cuts0 + 1
    assert h.find_min() == (3, None)


def test_82_keys_glue_surgeries():
    p = NodePool()
    h = p.new_heap()
    hs = {k: h.insert(k) for k in range(1, 83)}
    assert h.delete_min()[0] == 1
    i = lambda k: hs[k].index
    R = i(2)
    assert p.ranks[R] == 4 and h._first == R
    L4 = p.down[R]
    assert L4 == i(29) and p.ranks[L4] == 3
    assert p.down[L4] == i(38) and p.prv[i(38)] == i(47)
    assert p.ranks[i(38)] == 2 and p.ranks[i(47)] == 2

    # cut the last child 38; its higher-ranked child 41 is glued in
    h.decrease_key(hs[38], 10)
    assert p.down[L4] == i(41) and p.ranks[i(41)] == 1
    assert p.prv[i(41)] == i(47)
    assert p.ranks[L4] == 3
    assert p.ranks[i(38)] == 2

    # cut 29 itself; active child 47 outranks 41 and takes its slot
    h.decrease_key(hs[29], 1)
    assert p.down[R] == i(47) and p.nxt[i(47)] == R
    assert p.ranks[i(29)] == 2
    assert h.find_min() == (1, None)
    assert p.ranks[R] == 4
    drained = [h.delete_min()[0] for _ in range(81)]
    assert drained == sorted(drained)


def test_join_swaps_misordered_last_children():
    p = NodePool()
    h1 = p.new_heap()
    a = {k: h1.insert(k) for k in range(100, 110)}
    assert h1.delete_min()[0] == 100
    i1 = lambda k: a[k].index
    assert p.ranks[i1(101)] == 2
    assert kids_oldest_first(p, i1(101)) == [i1(103), i1(102), i1(107), i1(104)]
    h1.decrease_key(a[104], 50)
    # 104's replacement is rank 0, leaving last two as (rank 1, rank 0)
    assert kids_oldest_first(p, i1(101)) == [i1(103), i1(102), i1(107), i1(105)]
    assert p.ranks[i1(105)] == 0 and p.ranks[i1(107)] == 1

    h2 = p.new_heap()
    b = {k: h2.insert(k) for k in range(200, 210)}
    assert h2.delete_min()[0] == 200
    h3 = p.new_heap()
    c = {k: h3.insert(k) for k in range(300, 310)}
    assert h3.delete_min()[0] == 300
    h = h1.meld(h2).meld(h3)
    h.insert(0)
    assert h.delete_min() == (0, None)
    # circular order put the 300-tree before the 200-tree, so the join
    # call was (300-tree, 200-tree, 101): 101 wins, swaps 105/107 so the
    # higher rank sits last, then links the two losers newest
    assert p.ranks[i1(101)] == 3
    assert kids_oldest_first(p, i1(101)) == [
        i1(103), i1(102), i1(105), i1(107), c[301].index, b[201].index]
    assert h.find_min() == (50, None)
    drained = [h.delete_min()[0] for _ in range(len(h))]
    assert drained == sorted(drained)


def test_meld_consumes_operands():
    p = NodePool()
    ha, hb = p.new_heap(), p.new_heap()
    ha.insert(5)
    hb.insert(3)
    m = ha.meld(hb)
    assert m.find_min()[0] == 3 and len(m) == 2
    for dead in (ha, hb):
        with pytest.raises(HeapError, match="consumed"):
            dead.find_min()
    with pytest.raises(HeapError, match="itself"):
        m.meld(m)


def test_meld_empty_operands():
    p = NodePool()
    e1, e2 = p.new_heap(), p.new_heap()
    m = e1.meld(e2)
    assert m.is_empty()
    h = p.new_heap()
    h.insert(7)
    m2 = m.meld(h)
    assert m2.find_min() == (7, None) and len(m2) == 1
    h2 = p.new_heap()
    h2.insert(4)
    m3 = h2.meld(p.new_heap())
    assert m3.find_min() == (4, None)


def test_meld_rejects_foreign_pool():
    h1 = NodePool().new_heap()
    h2 = NodePool().new_heap()
    with pytest.raises(HeapError, match="pool"):
        h1.meld(h2)


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


def test_raising_key_compare_mutates_nothing():
    p = NodePool()
    h = p.new_heap()
    for k in (5, 3, 8):
        h.insert(k)
    side = p.new_heap()
    side.insert(OwnKindOnly(1))
    before = (len(h), len(side), p.live_count, p.telemetry.comparisons)

    def unchanged():
        assert (len(h), len(side), p.live_count,
                p.telemetry.comparisons) == before
        assert full_audit(h).ok and full_audit(side).ok
        assert [p.keys[i] for i in root_cycle(h)] == [3, 8, 5]

    with pytest.raises(TypeError):
        h.insert(OwnKindOnly(0))
    unchanged()
    with pytest.raises(TypeError):
        h.meld(side)
    unchanged()
    with pytest.raises(TypeError):
        side.meld(h)
    unchanged()
    # both operands stay usable after the failed meld
    assert h.delete_min() == (3, None)
    assert side.delete_min()[0].v == 1


def test_key_increase_rejected():
    h = NodePool().new_heap()
    a = h.insert(10)
    with pytest.raises(HeapError, match="increase"):
        h.decrease_key(a, 11)
    h.decrease_key(a, 10)   # no-op decrease is fine
    assert h.find_min() == (10, None)


def test_decrease_key_by():
    h = NodePool().new_heap()
    a = h.insert(10, "x")
    h.decrease_key_by(a, 4)
    assert h.find_min() == (6, "x")
    with pytest.raises(HeapError):
        h.decrease_key_by(a, -1)


def test_stale_handles_after_slot_reuse():
    p = NodePool()
    h = p.new_heap()
    a = h.insert(1, "gone")
    b = h.insert(2, "stays")
    assert h.delete_min() == (1, "gone")
    assert not h.is_live(a) and h.is_live(b)
    c = h.insert(3, "reused")     # takes a's slot off the free list
    assert c.index == a.index and c.stamp != a.stamp
    for op in (lambda: h.decrease_key(a, 0),
               lambda: p.key_of(a),
               lambda: p.item_of(a),
               lambda: p.rank_of(a)):
        with pytest.raises(StaleHandleError):
            op()
    assert p.key_of(c) == 3 and p.item_of(c) == "reused"


def test_pools_are_independent():
    p1, p2 = NodePool(), NodePool()
    h1, h2 = p1.new_heap(), p2.new_heap()
    a = h1.insert(5)
    h2.insert(5)
    h1.delete_min()
    # p2's telemetry and slots unaffected by p1 traffic
    assert p2.telemetry.comparisons == 0
    assert len(h2) == 1 and h2.find_min() == (5, None)
    assert not p1.is_live(a)


def test_items_round_trip():
    h = NodePool().new_heap()
    h.insert(3, {"payload": 1})
    h.insert(1, "first")
    h.insert(2, None)
    assert h.delete_min() == (1, "first")
    assert h.delete_min() == (2, None)
    assert h.delete_min() == (3, {"payload": 1})


def test_telemetry_counts_move():
    p = NodePool()
    h = p.new_heap()
    for k in range(64):
        h.insert(k)
    h.delete_min()
    t = p.telemetry
    assert t.joins > 0 and t.comparisons > 0 and t.max_rank >= 2
