"""Auditor and potential-telemetry tests: clean structures must audit
clean, and injected corruption must surface as the right rule id."""

import json
import random
import re
import sys

import pytest

from trees import children, roots, subtree
from violationheap import HeapError, ViolationHeap
from violationheap.heap_core import max_rank_bound
from violationheap.invariants import (JoinNeutralityMonitor, full_audit,
                                      potential_snapshot)
from violationheap.oracle import apply_op, gen_ops


def build(n, delete_min=True):
    # keys 0 .. n - 1, then by default a delete_min that takes 0 and joins
    # the rest into trees
    h = ViolationHeap()
    hs = [h.insert(k) for k in range(n)]
    if delete_min:
        h.delete_min()
    return h, hs


def test_audit_clean_small_and_empty():
    h, _ = build(0, delete_min=False)
    rep = full_audit(h)
    assert rep.ok and rep.node_count == 0 and rep.max_rank == 0

    h, _ = build(10)
    rep = full_audit(h)
    assert rep.ok
    assert rep.node_count == 9 and rep.max_rank == 2


def test_audit_clean_through_decreases():
    h, hs = build(50)
    for i, target in enumerate((30, 41, 17, 8, 25)):
        h.decrease_key(hs[target], -i)
        rep = full_audit(h)
        assert rep.ok, rep.to_json()


def test_report_json_shape():
    h, _ = build(6)
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
    root = h._first
    keep = root.rank
    root.rank = 30   # above the formula and the family's max_rank alike
    rules = {v.rule for v in full_audit(h).violations}
    assert "rank-bound" in rules and "max-rank" in rules
    root.rank = keep
    assert full_audit(h).ok


# the rules whose silence the size lemma needs
LEMMA_RULES = {"rank-bound", "structure"}


def corrupted_states(seed, n, trials):
    """Yield ``(heap, full_audit(heap))`` for the heap of ``gen_ops(seed,
    n)`` under ``trials`` random corruptions, one after another.

    Every fourth corruption sets one node's prv or down to None or to
    another live node, and is undone after its yield.  The others move
    the ranks of 1-3 nodes by -2..+5 each, clamped at 0.  A rank
    corruption is undone when the audit reports rank-bound or structure
    for it and kept otherwise, so kept ranks add up towards the most the
    audit accepts.  At the end the heap gets its ranks back and audits
    clean."""
    rng = random.Random(seed)
    h, handles = ViolationHeap(), []
    for op in gen_ops(seed, n).ops:
        apply_op(h, handles, op)
    nodes = [x for x in handles if h.is_live(x)]
    ranks = [x.rank for x in nodes]
    for t in range(trials):
        link = t % 4 == 3
        if link:
            x = rng.choice(nodes)
            attr = rng.choice(("prv", "down"))
            saved = [(x, attr, getattr(x, attr))]
            setattr(x, attr, rng.choice((None, rng.choice(nodes))))
        else:
            picked = rng.sample(nodes, rng.randint(1, 3))
            saved = [(x, "rank", x.rank) for x in picked]
            for x in picked:
                x.rank = max(0, x.rank + rng.randint(-2, 5))
        report = full_audit(h)
        yield h, report
        if link or {v.rule for v in report.violations} & LEMMA_RULES:
            for x, attr, value in reversed(saved):
                setattr(x, attr, value)
    for x, rank in zip(nodes, ranks):
        x.rank = rank
    assert full_audit(h).ok


# (seed, ops, corruptions): many small heaps, whose small subtrees are
# the ones kept rank corruptions bring down to their size floor
CORRUPTED_HEAPS = ([(seed, 50, 2000) for seed in range(12)] +
                   [(seed, 200, 2000) for seed in range(4)] + [(0, 1000, 500)])


def test_rank_bound_implies_the_size_floor():
    # the size lemma in invariants' docstring, which the audit checks
    # through rank-bound alone: wherever full_audit reports neither
    # rank-bound nor structure, every subtree holds at least fib(rank)
    # nodes (fib(0) = fib(1) = 1)
    fib = [1, 1]
    clean = flagged = 0
    for seed, n, trials in CORRUPTED_HEAPS:
        for h, report in corrupted_states(seed, n, trials):
            if {v.rule for v in report.violations} & LEMMA_RULES:
                flagged += 1
                continue
            clean += 1
            for node in (u for r in roots(h) for u in subtree(r)):
                size = len(subtree(node))
                while len(fib) <= node.rank:
                    fib.append(fib[-1] + fib[-2])
                assert size >= fib[node.rank], (seed, n, node, node.rank, size)
    assert clean and flagged, (clean, flagged)


def test_negative_rank_flagged():
    h, _ = build(4)
    root = h._first
    root.rank = -1
    assert any(v.rule == "rank-bound" for v in full_audit(h).violations)


def test_childless_node_rank_rules():
    # a childless node's formula bound is rank_from_pair(-1, -1) = 0
    h, _ = build(10)
    leaf = subtree(h._first)[-1]
    for rank, messages in ((2, {("rank-bound", "rank 2 exceeds formula bound 0")}),
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


def test_report_matches_an_independent_walk():
    for seed in (0, 1, 2):
        h, handles = ViolationHeap(), []
        for i, op in enumerate(gen_ops(seed, 2000).ops, 1):
            apply_op(h, handles, op)
            if i % 250 == 0:
                report = full_audit(h)
                assert report.ok, (seed, i, report.to_json())
                # a walk of its own, by links alone
                nodes = [u for r in roots(h) for u in subtree(r)]
                assert (report.node_count, report.max_rank) == \
                    (len(nodes), max((u.rank for u in nodes), default=0))
                assert report.node_count == len(h) > 0


def test_heap_order_violation_flagged():
    h, _ = build(10)
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
    # rotate the designation away from the minimum
    first = h._first
    other = first.nxt
    if other != first:
        h._first = other
        assert any(v.rule == "first-root" for v in full_audit(h).violations)
        h._first = first
        assert full_audit(h).ok


def test_count_mismatch_flagged():
    h, _ = build(8, delete_min=False)
    h._count += 1
    assert any(v.rule == "count" for v in full_audit(h).violations)
    h._count -= 1


def test_broken_sibling_link_flagged():
    h, _ = build(10)
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
    root = h._first
    kids = children(root)
    assert len(kids) == 4
    kids[0].prv = kids[-1]
    assert "structure" in {v.rule for v in full_audit(h).violations}
    with pytest.raises(HeapError, match=re.escape(f"node {root!r} does not end")):
        potential_snapshot(h)

    # mend it, then make the root list a loop that skips the first root
    kids[0].prv = None
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
    oldest = children(root)[0]
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

    def child_cycle(root, g):
        ks = children(root)
        ks[0].prv = ks[-1]

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
        children(root)[0].prv, x.prv, y.prv = x, y, x

    for corrupt in (child_cycle, root_loop):
        assert full_audit(dropped(corrupt)).ok, corrupt.__name__
    for corrupt in (into_roots, into_kids):
        assert not full_audit(dropped(corrupt)).ok, corrupt.__name__


def test_links_into_a_removed_node():
    # a removed node keeps no links: a root's nxt, a parent's down or an
    # oldest child's prv that names it is a structure finding, and the
    # snapshot refuses to measure past it
    h, hs = build(10)
    z, root = hs[0], h._first
    assert not h.is_live(z) and z.nxt is None and z.down is None
    oldest = children(root)[0]
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
    # a kept value that is not a list, whether it iterates like one or
    # not at all, is the one finding
    for bad in (7, tuple(s)):
        h._slots = bad
        assert [v.rule for v in full_audit(h).violations] == ["slot-cache"], bad
    h._slots = s
    assert full_audit(h).ok
    # a heap that delete-min emptied keeps a list of empty slots; a
    # list that holds nodes is then a finding
    h2, _ = build(1)
    assert h2._slots == [None] * 4 and full_audit(h2).ok
    h2._slots = s
    assert [v.rule for v in full_audit(h2).violations] == ["slot-cache"]


def test_max_rank_rule():
    # a rank above the family's max_rank, from which delete_min sizes a
    # fresh slot list, is one finding, naming a node of that rank
    h, _ = build(40)
    top = full_audit(h).max_rank
    assert top == h.telemetry.max_rank > 0
    h.telemetry.max_rank = top - 1
    found = full_audit(h).violations
    assert [v.rule for v in found] == ["max-rank"] and found[0].node.rank == top


def test_snapshot_chain_counts():
    h, hs = build(10)
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
    h, _ = build(10, delete_min=False)
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
    h, _ = build(20, delete_min=False)
    before = potential_snapshot(h)
    h.delete_min()
    after = potential_snapshot(h)
    # consolidation joins never create degree excess on a fresh build
    assert before.degree_excess == after.degree_excess


def test_bound_helpers():
    assert max_rank_bound(1) == 2
    assert max_rank_bound(10 ** 6) == 31
    for n in (2, 10, 1000):
        assert max_rank_bound(n) >= 2


def test_audit_does_not_mutate():
    h, hs = build(25)
    snap_links = [(x.nxt, x.prv, x.down, x.rank) for x in hs]
    full_audit(h)
    potential_snapshot(h)
    assert snap_links == [(x.nxt, x.prv, x.down, x.rank) for x in hs]
