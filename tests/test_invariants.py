"""Auditor and potential-telemetry tests: clean structures must audit
clean, and injected corruption must surface as the right rule id."""

import json
import random
import re

import pytest

from corrupt import PAIRING, SHAPES, base
from limited_run import run_limited
from raising_keys import Tripwire
from sweep import _armed, _snapshot
from trees import children, one_deleted, roots, subtree
from violationheap import ViolationHeap, invariants
from violationheap.heap_core import max_rank_bound
from violationheap.invariants import (JoinNeutralityMonitor, PotentialSnapshot,
                                      full_audit, potential_snapshot)
from violationheap.oracle import apply_op, gen_ops


def test_audit_clean_small_and_empty():
    h = ViolationHeap()
    rep = full_audit(h)
    assert rep.ok and rep.node_count == 0 and rep.max_rank == 0
    assert potential_snapshot(h) == PotentialSnapshot(0, 0, 0)

    h, _ = one_deleted(10)
    rep = full_audit(h)
    assert rep.ok
    assert rep.node_count == 9 and rep.max_rank == 2


def test_report_json_shape():
    h, _ = one_deleted(6)
    doc = json.loads(full_audit(h).to_json())
    assert doc == {"violations": [], "nodes": 5, "max_rank": doc["max_rank"]}


def test_every_audit_rule_has_a_row():
    # the rule ids of invariants' docstring table are those the rows of
    # tests/corrupt.py report, but key-compare, which needs a raising key
    table = set(re.findall(r"^    ([a-z-]+)  ", invariants.__doc__, re.M))
    assert "key-compare" in table
    assert {rule for s in SHAPES.values() for rule, _ in s.audit} == table - {"key-compare"}


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


def _size_floor():
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


def test_rank_bound_implies_the_size_floor():
    # _size_floor audits corrupt heaps, so it runs in a child under memory
    # and CPU limits: an audit that does not end fails this test instead
    # of eating the machine
    status, err = run_limited("from test_invariants import _size_floor; _size_floor()")
    assert status == 0, err


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


def test_raising_key_compare_is_a_finding():
    h, _ = one_deleted(12)
    root = h._first
    other_root = root.nxt
    assert other_root != root
    # a child, the first root (against every root and child), another root
    assert root.down is None and other_root.down is not None
    for i in (other_root.down, root, other_root):
        keep = i.key
        i.key = Tripwire(keep)
        found = []
        # cued at the first comparison, it raises at every one from there
        assert _armed(0, lambda: found.extend(full_audit(h).violations)) > 0
        assert {v.rule for v in found} == {"key-compare"}
        assert all(v.node is not None for v in found)
        i.key = keep
        assert full_audit(h).ok


def test_corruption_bases_are_sound():
    # undamaged, each base of tests/corrupt.py audits clean, its top rank
    # the first root's and the family's, and no two of its nodes share a
    # key, so a row's key names one node
    for kept, keys in ((False, [1, 101, 100]), (True, [1])):
        h, g, named = base(kept)
        z, leaf = named["z"], named["leaf"]
        assert [u.key for u in roots(h)] == keys and len(children(h._first)) == 4
        assert (h._slots is not None) == kept and full_audit(h).ok and full_audit(g).ok
        assert not h.is_live(z) and z.down is None
        nodes = [u for r in roots(h) for u in subtree(r)]
        assert len({u.key for u in nodes}) == len(nodes) == len(h)
        assert full_audit(h).max_rank == h._first.rank == h.telemetry.max_rank == 2
        assert leaf in nodes and leaf.down is None and leaf.key == 5


# one corrupt heap of tests/corrupt.py meets every walker in a child
# under memory and CPU limits, each walker on a fresh build, so that a
# walk that does not end fails the row's case instead of eating the
# machine.  Dropped, the heap tears down with nothing reaching
# sys.unraisablehook and its first root, where it has a root list, read
# as removed, and a heap its lists run into fails its audit exactly
# where the row spoils it; a pairing row meets only the drop.
# full_audit reports the row's findings, each a JSON object whose node
# is null exactly where the row names no node.  potential_snapshot
# raises the row's HeapError or measures.  Within a second delete_min
# raises the row's HeapError, leaving find_min (or its HeapError) and
# len as they were and no kept slot list, or returns the minimum; the
# heap then audits clean exactly where the row says the call mended it
_WALKERS = """
import json, sys, time
from corrupt import PAIRING, SHAPES, corrupt
from violationheap import HeapError
from violationheap.invariants import full_audit, potential_snapshot
name = sys.argv[1]
raised = []
sys.unraisablehook = raised.append
h, other = corrupt(name)
first = h._root if name in PAIRING else h._first
del h
assert (first is None or not other.is_live(first)) and raised == [], raised
if name in PAIRING:
    sys.exit()
row = SHAPES[name]
assert full_audit(other).ok != row.spoils

h, other = corrupt(name)
report = full_audit(h)
assert tuple((v.rule, v.node and v.node.key) for v in report.violations) == row.audit, report
assert row.detail in (None, tuple(v.detail for v in report.violations)), report
assert [(set(v), v["rule"], v["node"] is None)
        for v in json.loads(report.to_json())["violations"]] == [
    ({"rule", "node", "detail"}, rule, key is None) for rule, key in row.audit]

h, other = corrupt(name)
try:
    potential_snapshot(h)
except HeapError as exc:
    assert str(exc) == row.snapshot, exc
else:
    assert row.snapshot is None

h, other = corrupt(name)
def state():
    try:
        return h.find_min(), len(h)
    except HeapError as exc:
        return str(exc), len(h)
before = state()
t0 = time.perf_counter()
try:
    got = h.delete_min()
except HeapError as exc:
    print(exc, file=sys.stderr)
    assert state() == before and h._slots is None
else:
    assert got == before[0]
assert time.perf_counter() - t0 < 1, time.perf_counter() - t0
assert full_audit(h).ok == row.mended
"""


@pytest.mark.parametrize("name", [*SHAPES, *PAIRING])
def test_every_walker_ends_on_a_corrupt_heap(name):
    message = SHAPES[name].delete_min if name in SHAPES else None
    status, err = run_limited(_WALKERS, name)
    assert status == 0 and err == (f"{message}\n" if message else ""), err


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
    # a tree out of its rank's slots, a rank's second slot used alone,
    # the slots out of cycle order, and lists that are not of nodes are
    # findings; none of them raises
    h, _ = one_deleted(40)
    s = h._slots
    assert s is not None and full_audit(h).ok
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
    h2, _ = one_deleted(1)
    assert h2._slots == [None] * 4 and full_audit(h2).ok
    h2._slots = s
    assert [v.rule for v in full_audit(h2).violations] == ["slot-cache"]


def test_snapshot_chain_counts():
    h, hs = one_deleted(10)
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
    # a join that is not neutral is reported: a hook around the monitor
    # gives the leaf 3 rank -1, an excess of 2, for the walk after the join
    h = ViolationHeap()
    hs = [h.insert(k) for k in range(4)]
    mon = JoinNeutralityMonitor(h).install()
    observe = h.telemetry.join_hook

    def hook(phase, trees):
        hs[3].rank = -1 if phase == "after" else 0
        observe(phase, trees)
        hs[3].rank = 0

    h.telemetry.join_hook = hook
    h.delete_min()
    assert children(hs[1]) == [hs[3], hs[2]]
    assert mon.mismatches == [(1, 0, 2)]


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
    h = ViolationHeap()
    for k in range(10):
        h.insert(k)
    mon = JoinNeutralityMonitor(h).install()
    side = h.spawn()
    for k in range(100):
        side.insert(k * 37 % 100)
    while len(side):
        side.delete_min()
    mon.remove()
    assert mon.joins == side.telemetry.joins > 10
    assert not mon.mismatches


def test_bound_helpers():
    assert max_rank_bound(1) == 2
    assert max_rank_bound(10 ** 6) == 31
    for n in (2, 10, 1000):
        assert max_rank_bound(n) >= 2


def test_audit_does_not_mutate():
    h, hs = one_deleted(25)
    before = _snapshot([h], hs.values())
    full_audit(h)
    potential_snapshot(h)
    assert _snapshot([h], hs.values()) == before
