"""Auditor and potential-telemetry tests: clean structures must audit
clean, and injected corruption must surface as the right rule id."""

import json
import re

import pytest

from violationheap import HeapError, ViolationHeap
from violationheap.invariants import (JoinNeutralityMonitor, full_audit,
                                      max_rank_bound, potential_snapshot,
                                      size_floor)


def build(n):
    h = ViolationHeap()
    return h, [h.insert(k) for k in range(n)]


def test_audit_clean_small_and_empty():
    h, _ = build(0)
    rep = full_audit(h)
    assert rep.ok and rep.node_count == 0 and rep.max_rank == 0

    h, _ = build(10)
    h.delete_min()
    rep = full_audit(h, check_root_multiplicity=True)
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


def test_negative_rank_flagged():
    h, _ = build(4)
    h.delete_min()
    root = h._first
    root.rank = -1
    assert any(v.rule == "rank-bound" for v in full_audit(h).violations)


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


def test_root_multiplicity_only_on_request():
    h = ViolationHeap()
    for k in range(3):
        h.insert(k)
    # three rank-0 roots: legal between operations, flagged when the
    # post-delete-min guarantee is asserted
    assert full_audit(h).ok
    rep = full_audit(h, check_root_multiplicity=True)
    assert any(v.rule == "root-multiplicity" for v in rep.violations)


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
    full_audit(h, check_root_multiplicity=True)
    potential_snapshot(h)
    assert snap_links == [(x.nxt, x.prv, x.down, x.rank) for x in hs]
