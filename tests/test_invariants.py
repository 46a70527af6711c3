"""Auditor and potential-telemetry tests: clean structures must audit
clean, and injected corruption must surface as the right rule id."""

import json
import re
import sys

import pytest

from violationheap import HeapError, ViolationHeap
from violationheap.invariants import (JoinNeutralityMonitor, full_audit,
                                      max_rank_bound, potential_snapshot,
                                      size_floor)
from violationheap.oracle import apply_op, gen_ops


def build(n):
    h = ViolationHeap()
    return h, [h.insert(k) for k in range(n)]


def test_audit_clean_small_and_empty():
    h, _ = build(0)
    rep = full_audit(h)
    assert rep.ok and rep.node_count == 0 and rep.max_rank == 0

    h, _ = build(10)
    h.delete_min()
    rep = full_audit(h)
    assert rep.ok
    assert rep.node_count == 9 and rep.max_rank == 2


def test_audit_clean_through_decreases():
    h, hs = build(50)
    h.delete_min()
    for i, target in enumerate((30, 41, 17, 8, 25)):
        h.decrease_key(hs[target], -i)
        rep = full_audit(h)
        assert rep.ok, rep.to_json()


def test_report_json_shape():
    h, _ = build(6)
    h.delete_min()
    doc = json.loads(full_audit(h).to_json())
    assert doc == {"violations": [], "nodes": 5, "max_rank": doc["max_rank"]}

    root = h._first
    root.rank = 40
    doc = json.loads(full_audit(h).to_json())
    assert doc["violations"]
    v = doc["violations"][0]
    assert set(v) == {"rule", "node", "detail"}


def test_inflated_rank_breaks_two_rules():
    h, _ = build(40)
    h.delete_min()
    root = h._first
    keep = root.rank
    root.rank = 30
    rules = {v.rule for v in full_audit(h).violations}
    assert "rank-bound" in rules and "size-bound" in rules
    root.rank = keep
    assert full_audit(h).ok


def test_size_bound_counts_whole_subtrees():
    # one tree: root 1 over 3, 2, 7, 4, with 7 and 4 holding two childless
    # children each, so 9 nodes in all and 3 under 4.  A rank whose floor
    # (fib) the subtree meets breaks the rank formula only
    h, hs = build(10)
    h.delete_min()
    root, four = h._first, hs[4]
    assert root.nxt is root and four.down.nxt is four
    for node, rank, size, floor in ((root, 5, 9, 8), (root, 6, 9, 13),
                                    (four, 3, 3, 3), (four, 4, 3, 5)):
        keep = node.rank
        node.rank = rank
        found = [(v.rule, v.detail) for v in full_audit(h).violations]
        short = [f"subtree size {size} below floor {floor} for rank {rank}"] * (size < floor)
        assert [d for rule, d in found if rule == "size-bound"] == short, (node, found)
        assert "rank-bound" in {rule for rule, _ in found}
        node.rank = keep
    assert full_audit(h).ok


def test_negative_rank_flagged():
    h, _ = build(4)
    h.delete_min()
    root = h._first
    root.rank = -1
    assert any(v.rule == "rank-bound" for v in full_audit(h).violations)


def test_childless_node_rank_rules():
    # a childless node's formula bound is rank_from_pair(-1, -1) = 0, and
    # a lone node meets the size floor of ranks 0 and 1 only
    h, _ = build(10)
    h.delete_min()
    leaf = h._first
    while leaf.down is not None:
        leaf = leaf.down
    for rank, messages in ((2, {("rank-bound", "rank 2 exceeds formula bound 0"),
                                ("size-bound", "subtree size 1 below floor 2 for rank 2")}),
                           (-1, {("rank-bound", "negative rank -1")})):
        leaf.rank = rank
        report = full_audit(h)
        assert {(v.rule, v.detail) for v in report.violations} == messages
        assert all(v.node is leaf for v in report.violations)
        leaf.rank = 0
        assert full_audit(h).ok


def test_child_list_into_a_root_of_the_same_heap():
    # roots x -> z -> y -> x: y's nxt names x and x's names z, so y hung
    # under x, or x under z, is a last child whose links agree, yet it is
    # also a root; the walk meets it twice and says so without raising
    h = ViolationHeap()
    x, y, z = h.insert(1), h.insert(2), h.insert(3)
    assert x.nxt is z and z.nxt is y and y.nxt is x
    for parent, root in ((x, y), (z, x)):
        parent.down = root
        report = full_audit(h)
        assert [(v.rule, v.node) for v in report.violations] == [("structure", root)]
        with pytest.raises(HeapError):
            potential_snapshot(h)
        parent.down = None
        assert full_audit(h).ok


def _count_and_max_rank(heap):
    # a plain depth-first walk over the root cycle and the child lists
    count = max_rank = 0
    stack = []
    r = heap._first
    while r is not None:
        stack.append(r)
        r = r.nxt
        if r is heap._first:
            break
    while stack:
        p = stack.pop()
        count += 1
        max_rank = max(max_rank, p.rank)
        c = p.down
        while c is not None:
            stack.append(c)
            c = c.prv
    return count, max_rank


def test_report_matches_an_independent_walk():
    for seed in (0, 1, 2):
        h, handles = ViolationHeap(), []
        for i, op in enumerate(gen_ops(seed, 2000).ops, 1):
            apply_op(h, handles, op)
            if i % 250 == 0:
                report = full_audit(h)
                assert report.ok, (seed, i, report.to_json())
                assert (report.node_count, report.max_rank) == _count_and_max_rank(h)
                assert report.node_count == len(h) > 0


def test_heap_order_violation_flagged():
    h, _ = build(10)
    h.delete_min()
    root = h._first
    child = root.down
    keep = child.key
    child.key = -100
    rules = {v.rule for v in full_audit(h).violations}
    assert "heap-order" in rules
    child.key = keep


class Unordered:
    """Key that raises on every comparison."""

    def __lt__(self, other):
        raise TypeError("unordered key")

    __gt__ = __lt__


def test_raising_key_compare_is_a_finding():
    h, _ = build(12)
    h.delete_min()
    root = h._first
    other_root = root.nxt
    assert other_root != root
    # a child, the first root (against every root and child), another root
    assert root.down is None and other_root.down is not None
    for i in (other_root.down, root, other_root):
        keep = i.key
        i.key = Unordered()
        report = full_audit(h)
        assert {v.rule for v in report.violations} == {"key-compare"}
        assert all(v.node is not None for v in report.violations)
        i.key = keep
        assert full_audit(h).ok


def test_first_root_rule():
    h, _ = build(6)
    h.delete_min()
    # rotate the designation away from the minimum
    first = h._first
    other = first.nxt
    if other != first:
        h._first = other
        assert any(v.rule == "first-root" for v in full_audit(h).violations)
        h._first = first
        assert full_audit(h).ok


def test_count_mismatch_flagged():
    h, _ = build(8)
    h._count += 1
    assert any(v.rule == "count" for v in full_audit(h).violations)
    h._count -= 1


def test_broken_sibling_link_flagged():
    h, _ = build(10)
    h.delete_min()
    root = h._first
    child = root.down
    keep = child.nxt
    child.nxt = child   # last child no longer points at parent
    rules = {v.rule for v in full_audit(h).violations}
    assert "structure" in rules
    child.nxt = keep


def test_unending_lists_raise():
    # the oldest child's prv points back at the newest: a child cycle
    h, _ = build(10)
    h.delete_min()
    root = h._first
    kids = []
    c = root.down
    while c is not None:
        kids.append(c)
        c = c.prv
    assert len(kids) == 4
    kids[-1].prv = kids[0]
    assert "structure" in {v.rule for v in full_audit(h).violations}
    with pytest.raises(HeapError, match=re.escape(f"node {root!r} does not end")):
        potential_snapshot(h)

    # mend it, then make the root list a loop that skips the first root
    kids[-1].prv = None
    a, b = h.insert(100), h.insert(101)
    assert root.nxt == b and b.nxt == a and a.nxt == root
    a.nxt = b
    assert "structure" in {v.rule for v in full_audit(h).violations}
    with pytest.raises(HeapError,
                       match=re.escape(f"root list from node {root!r} does not end")):
        potential_snapshot(h)


def test_lists_that_run_into_another_heap_and_loop_there():
    # the walks are bounded by the nodes they have met, not by a count:
    # a list that leaves the heap and cycles among another heap's nodes
    # still ends in a finding or an error naming the node
    h, _ = build(10)
    h.delete_min()
    root = h._first
    g = h.spawn()
    x, y = g.insert(500), g.insert(501)
    assert x.nxt is y and y.nxt is x

    # the root list: root -> b -> a -> x -> y -> x -> ...
    a, b = h.insert(100), h.insert(101)
    a.nxt = x
    assert "structure" in {v.rule for v in full_audit(h).violations}
    with pytest.raises(HeapError,
                       match=re.escape(f"root list from node {root!r} does not end")):
        potential_snapshot(h)
    a.nxt = root
    assert full_audit(h).ok

    # the oldest child's older sibling is x, and x and y are each
    # other's older siblings
    oldest = root.down
    while oldest.prv is not None:
        oldest = oldest.prv
    oldest.prv, x.prv, y.prv = x, y, x
    assert "structure" in {v.rule for v in full_audit(h).violations}
    with pytest.raises(HeapError, match=re.escape(f"node {root!r} does not end")):
        potential_snapshot(h)
    oldest.prv = x.prv = y.prv = None
    assert full_audit(h).ok and full_audit(g).ok


def test_dropping_a_corrupt_heap_ends_quietly(monkeypatch):
    # the drop's teardown ends on the lists of the two tests above and
    # reports nothing; a list run into another heap tears that heap's
    # nodes down too, and its audit then says so
    raised = []
    monkeypatch.setattr(sys, "unraisablehook", raised.append)

    def dropped(corrupt):
        # drop a heap of 11 keys, its roots root -> b -> a -> root,
        # after corrupt(root, other heap), and check that its
        # teardown ran: root reads as removed
        h, _ = build(10)
        h.delete_min()
        h.insert(100)
        h.insert(101)
        root, g = h._first, h.spawn()
        g.insert(500)
        g.insert(501)
        corrupt(root, g)
        assert "structure" in {v.rule for v in full_audit(h).violations}
        del h
        assert not g.is_live(root) and raised == []
        return g

    def kids(root):
        c, out = root.down, []
        while c is not None:
            out.append(c)
            c = c.prv
        return out

    def child_cycle(root, g):
        ks = kids(root)
        ks[-1].prv = ks[0]

    def root_loop(root, g):
        # root -> b -> a -> b -> ...
        b = root.nxt
        b.nxt.nxt = b

    def into_roots(root, g):
        # root -> b -> a -> x -> y -> x -> ...
        root.nxt.nxt.nxt = g._first

    def into_kids(root, g):
        x = g._first
        y = x.nxt
        kids(root)[-1].prv, x.prv, y.prv = x, y, x

    for corrupt in (child_cycle, root_loop):
        assert full_audit(dropped(corrupt)).ok, corrupt.__name__
    for corrupt in (into_roots, into_kids):
        assert not full_audit(dropped(corrupt)).ok, corrupt.__name__


def test_links_into_a_removed_node():
    # a removed node keeps no links: a root's nxt, a parent's down or an
    # oldest child's prv that names it is a structure finding, and the
    # snapshot refuses to measure past it
    h, hs = build(10)
    h.delete_min()
    z, root = hs[0], h._first
    assert not h.is_live(z) and z.nxt is None and z.down is None
    oldest = root.down
    while oldest.prv is not None:
        oldest = oldest.prv
    for node, link in ((root, "nxt"), (root, "down"), (oldest, "prv")):
        keep = getattr(node, link)
        setattr(node, link, z)
        report = full_audit(h)
        assert "structure" in {v.rule for v in report.violations}, link
        with pytest.raises(HeapError):
            potential_snapshot(h)
        setattr(node, link, keep)
        assert full_audit(h).ok


def test_slot_cache_holds_two_roots_per_rank():
    h = ViolationHeap()
    a, b, c = (h.insert(k) for k in range(3))
    # three rank-0 roots, a -> c -> b: legal between operations, while
    # no slot list is kept
    assert h._slots is None and full_audit(h).ok
    # a kept list of two of them, as a delete_min would leave it: going
    # round from a, c takes slot 1 and b, a third rank-0 root, finds no
    # slot, whichever root the list leaves out.  One finding, naming b
    for kept in ([a, c, None, None], [a, b, None, None]):
        h._slots = kept
        found = full_audit(h).violations
        assert [v.rule for v in found] == ["slot-cache"] and found[0].node is b


def test_slot_cache_rule():
    # a slot list kept across an insert misses the new root: one finding
    h, _ = build(40)
    h.delete_min()
    s = h._slots
    assert s is not None and full_audit(h).ok
    h.insert(-1)
    assert h._slots is None
    h._slots = s
    assert [v.rule for v in full_audit(h).violations] == ["slot-cache"]
    # a tree out of its rank's slots, a rank's second slot used alone,
    # the slots out of cycle order, and lists that are not of nodes are
    # findings too; none of them raises
    h.delete_min()
    s = h._slots
    j = next(j for j, u in enumerate(s) if u is not None and j % 2 == 0)
    for bad in (s[:j] + [None, s[j]] + s[j + 2:], s[:j] + [None] + s[j + 1:],
                s[::-1], s + [s[j]], [3], "slots"):
        h._slots = bad
        found = [v for v in full_audit(h).violations if v.rule == "slot-cache"]
        assert found and len(found) == len(full_audit(h).violations), bad
    h._slots = s
    assert full_audit(h).ok
    # a heap that delete-min emptied keeps a list of empty slots; a
    # list that holds nodes is then a finding
    h2, _ = build(1)
    h2.delete_min()
    assert h2._slots == [None] * 4 and full_audit(h2).ok
    h2._slots = s
    assert [v.rule for v in full_audit(h2).violations] == ["slot-cache"]


def test_max_rank_rule():
    # a rank above the family's max_rank, from which delete_min sizes a
    # fresh slot list, is one finding, naming a node of that rank
    h, _ = build(40)
    h.delete_min()
    top = full_audit(h).max_rank
    assert top == h.telemetry.max_rank > 0
    h.telemetry.max_rank = top - 1
    found = full_audit(h).violations
    assert [v.rule for v in found] == ["max-rank"] and found[0].node.rank == top


def test_snapshot_chain_counts():
    h, hs = build(10)
    h.delete_min()
    # root 1 (rank 2) has the children 3, 2, 7, 4, oldest first, and 4 and
    # 7 each hold two childless children.  Cutting one child of 4 leaves
    # 4 critical (its active pair sums to 0 + -1), cutting the other
    # empties it, and likewise for 7; emptying 7 drops 1 to rank 1 with
    # four children, a degree excess of 2.  (critical, excess, trees):
    counts = [(0, 0, 1), (1, 0, 2), (0, 0, 3), (1, 0, 4), (0, 2, 5)]
    snaps = [potential_snapshot(h)]
    for i, target in enumerate((5, 6, 8, 9)):
        h.decrease_key(hs[target], -1 - i)
        snaps.append(potential_snapshot(h))
    assert [(s.critical_count, s.degree_excess, s.tree_count)
            for s in snaps] == counts


def test_join_neutrality_monitor():
    h = ViolationHeap()
    for k in (1, 2, 3, 4):
        h.insert(k)
    mon = JoinNeutralityMonitor(h).install()
    h.delete_min()
    mon.remove()
    assert mon.joins == 1 == h.telemetry.joins and not mon.mismatches
    # a removed monitor sees no further join
    for k in (5, 6, 7, 8):
        h.insert(k)
    h.delete_min()
    assert mon.joins == 1 < h.telemetry.joins
    # every join, from roots, from children or past the slots' first
    # size, runs between the two hook calls
    for k in range(300):
        h.insert(k * 7919 % 300)
    joins = h.telemetry.joins
    mon = JoinNeutralityMonitor(h).install()
    while len(h):
        h.delete_min()
    mon.remove()
    assert mon.joins == h.telemetry.joins - joins > 100
    assert not mon.mismatches


def test_join_neutrality_monitor_beside_a_heap_with_excess():
    # two heaps of one family carry degree excess; the monitor, installed
    # on one of them, measures the trees in flight of whichever heap
    # consolidates, and the other heap's excess, which no join can touch,
    # never shows as a mismatch
    a = ViolationHeap()
    b = a.spawn()
    for h, base in ((a, 0), (b, 1000)):
        hs = {k: h.insert(base + k) for k in range(10)}
        h.delete_min()
        for i, k in enumerate((5, 6, 8, 9)):
            h.decrease_key(hs[k], base - 1 - i)
    assert [potential_snapshot(h).degree_excess for h in (a, b)] == [2, 2]
    joins = a.telemetry.joins
    mon = JoinNeutralityMonitor(a).install()
    for k in range(20):
        a.insert(100 + k)
    a.delete_min()
    assert potential_snapshot(b).degree_excess == 2
    for k in range(20):
        b.insert(1100 + k)
    b.delete_min()
    a.meld(b)
    while len(a):
        a.delete_min()
    mon.remove()
    assert mon.joins == a.telemetry.joins - joins > 10
    assert not mon.mismatches


def test_join_neutrality_monitor_sees_a_sibling_spawned_after_install():
    # the hook lives on the family's shared Telemetry, so a sibling that
    # spawn() makes after install() is watched as well
    h, _ = build(10)
    mon = JoinNeutralityMonitor(h).install()
    side = h.spawn()
    for k in range(100):
        side.insert(k * 37 % 100)
    while len(side):
        side.delete_min()
    mon.remove()
    assert mon.joins == side.telemetry.joins > 10
    assert not mon.mismatches


def test_join_neutrality_snapshot_pair():
    h, _ = build(20)
    before = potential_snapshot(h)
    h.delete_min()
    after = potential_snapshot(h)
    # consolidation joins never create degree excess on a fresh build
    assert before.degree_excess == after.degree_excess


def test_bound_helpers():
    assert size_floor(0) == 1 and size_floor(1) == 1
    assert size_floor(2) == 2 and size_floor(5) == 8
    assert size_floor(500) == size_floor(91)   # saturates, stays huge
    assert max_rank_bound(1) == 2
    assert max_rank_bound(10 ** 6) == 31
    for n in (2, 10, 1000):
        assert max_rank_bound(n) >= 2


def test_audit_does_not_mutate():
    h, hs = build(25)
    h.delete_min()
    snap_links = [(x.nxt, x.prv, x.down, x.rank) for x in hs]
    full_audit(h)
    potential_snapshot(h)
    assert snap_links == [(x.nxt, x.prv, x.down, x.rank) for x in hs]
