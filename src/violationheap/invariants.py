"""Structural audit and potential telemetry for violation heaps.

``full_audit`` walks one heap and reports every broken rule instead of
raising, so corrupted structures can be diagnosed.  Rules carry stable
string ids:

    structure           links disagree (dangling sibling links, a
                        last child not pointing at its parent, a root
                        with a prv link, unreachable or doubly reached
                        nodes, broken root cycle, removed nodes linked)
    heap-order          a child's key is smaller than its parent's
    first-root          some root's key undercuts the first root's
    key-compare         comparing a node's key with its parent's or the
                        first root's raised; the key has no order
                        against the heap's other keys
    rank-bound          a stored rank is negative or exceeds the value
                        the active-children formula allows
    max-rank            a node's rank is above its family's
                        ``Telemetry.max_rank``, from which delete_min
                        sizes a fresh slot list
    count               the heap's size counter disagrees with the number
                        of reachable nodes
    slot-cache          the slot list delete_min kept is not the list
                        its relink would make of the roots: going round
                        the cycle from the first slot's tree, each root
                        in slot 2r, or 2r + 1 when 2r is taken.  A third
                        root of a rank finds no slot, so while a list is
                        kept, as after every delete_min that returns,
                        this holds the roots to at most two per rank

The paper's size lemma needs no rule of its own: on a heap with no
``structure`` finding, every node that passes ``rank-bound`` roots at
least fib(rank) nodes (fib(0) = fib(1) = 1), by the argument Fredman
and Tarjan give for Fibonacci heaps (JACM 1987).  The proof is by
induction on height; a clean ``structure`` keeps subtrees disjoint.
Ranks 0 and 1 need one node.  Take a node of rank r >= 2 whose active
children have ranks r1 >= r2 (-1 for a missing child).  Then
r <= ceil((r1 + r2) / 2) + 1 gives r1 + r2 >= 2r - 3, so r1 >= r - 1.
If r2 >= r - 2, the node roots at least 1 + fib(r - 1) + fib(r - 2)
> fib(r) nodes.  Otherwise r1 >= r, and the first child alone roots
fib(r1) >= fib(r) nodes.  ``heap_core.max_rank_bound`` turns the lemma
into the largest rank a heap of n nodes allows.

The walk is breadth first: the roots in root-list order, then each
node's children, newest first, as the walk reaches their parent.
Findings come in walk order, followed by ``max-rank``, ``count`` and
``slot-cache``.  Measured cost: about 0.31 µs per node on the heaps of
perfbench's ``fuzz`` workload, about 1,800 nodes on average
(``invariants.full_audit.us_per_node`` under ``--trace 1``, median of 3
runs, 2 vCPUs, CPython 3.11.7, ``BENCH_audit_rules.json``).

``potential_snapshot`` reports the quantities the amortized analysis
charges against: the number of critical nodes, the total degree excess
(twice the violation units), and the tree count.  It raises
``HeapError`` on a root or child list that runs into a node it already
walked or a removed node, where ``full_audit`` reports ``structure``,
and on a heap whose own ``delete_min`` runs, which has no root list
then, where ``full_audit`` reports ``count``.
``JoinNeutralityMonitor`` measures the same degree excess over the trees
in flight around every join of a ``delete_min``.  Every walk is bounded
by the identity of the nodes it has met, not by a node count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .heap_core import _IN_FLIGHT, HeapError, NodeHandle, ViolationHeap, rank_from_pair


@dataclass
class Violation:
    rule: str
    node: Optional[NodeHandle]
    detail: str


@dataclass
class AuditReport:
    violations: list[Violation]
    node_count: int
    max_rank: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps({
            "violations": [
                {
                    "rule": v.rule,
                    "node": None if v.node is None else repr((v.node.key, v.node.item)),
                    "detail": v.detail,
                }
                for v in self.violations
            ],
            "nodes": self.node_count,
            "max_rank": self.max_rank,
        })


def _root_list(first: NodeHandle) -> tuple[list[NodeHandle], Optional[NodeHandle]]:
    # the roots along nxt from first, up to the node the walk stops at: a
    # root met again, or None past a removed node.  The list is whole
    # when the walk stops at first
    roots: dict[NodeHandle, None] = {}
    i = first
    while i not in roots and i is not None:
        roots[i] = None
        i = i.nxt
    return list(roots), i


def _audit_slots(slots, roots: list[NodeHandle], bad) -> None:
    # the kept slot list, if any, against the one its relink would make
    # of these roots, as at most one full_audit bad() finding.  The cycle
    # is walked from the first slot's tree, or from the first root when
    # that tree is no root.  Only identities and ranks are read, never
    # keys, and a list that is not one of nodes is itself the finding
    if slots is None:
        return
    if not isinstance(slots, list):
        bad("slot-cache", None, f"kept slot list is of type {type(slots).__name__}")
        return
    head = next((u for u in slots if u is not None), None)
    k = next((k for k, w in enumerate(roots) if w is head), 0)
    rebuilt = [None] * len(slots)
    for w in roots[k:] + roots[:k]:
        j = 2 * w.rank
        if 0 <= j < len(rebuilt) and rebuilt[j] is not None:
            j += 1
        if not 0 <= j < len(rebuilt) or rebuilt[j] is not None:
            bad("slot-cache", w, f"no free slot for a root of rank {w.rank}")
            return
        rebuilt[j] = w
    for j, (u, w) in enumerate(zip(slots, rebuilt)):
        if u is not w:
            bad("slot-cache", w, f"kept slot {j} differs from the roots' rebuilt list")
            return


def full_audit(heap: ViolationHeap) -> AuditReport:
    """Walk one heap and report every rule violation found.

    Never raises on a corrupt structure; every walk stops at a node it
    has already met, so broken links produce findings rather than hangs,
    and a key comparison that raises becomes a ``key-compare`` finding.
    """
    violations: list[Violation] = []

    def bad(rule: str, node: Optional[NodeHandle], detail: str) -> None:
        violations.append(Violation(rule, node, detail))

    first = heap._first
    if first is None:
        if heap._count != 0:
            bad("count", None, f"empty root list but count is {heap._count}")
        _audit_slots(heap._slots, [], bad)
        return AuditReport(violations, 0, 0)

    roots, stop = _root_list(first)
    if stop is None:
        bad("structure", roots.pop(), "root list reaches a removed node")
    elif stop is not first:
        bad("structure", stop, "root list does not cycle back to the first root")

    fk = first.key
    for r in roots:
        if r.prv is not None:
            bad("structure", r, "root carries a prv link")
        try:
            if r.key < fk:
                bad("first-root", r,
                    f"root key {r.key!r} undercuts first root key {fk!r}")
        except Exception as exc:
            bad("key-compare", r, f"root key vs first root key: {exc!r}")

    # breadth first over order itself: the roots, then each node's
    # children as the walk reaches their parent
    seen = set(roots)
    order = list(roots)
    leaf_bound = rank_from_pair(-1, -1)
    max_rank, highest = 0, None
    for p in order:
        rp = p.rank
        if rp > max_rank:
            max_rank, highest = rp, p
        d = p.down
        if d is None:
            bound = leaf_bound
        else:
            if d.nxt is not p:
                bad("structure", d, "last child does not point back at its parent")
            d2 = d.prv
            bound = rank_from_pair(d.rank, d2.rank if d2 is not None else -1)
            c = d
            pk = p.key
            while True:
                if c in seen:
                    bad("structure", c, "node reachable twice")
                    break
                seen.add(c)
                try:
                    if c.key < pk:
                        bad("heap-order", c,
                            f"child key {c.key!r} below parent key {pk!r}")
                except Exception as exc:
                    bad("key-compare", c, f"child key vs parent key: {exc!r}")
                order.append(c)
                older = c.prv
                if older is None:
                    break
                if older.nxt is not c:
                    bad("structure", older, "sibling links disagree")
                    break
                c = older
        if rp < 0:
            bad("rank-bound", p, f"negative rank {rp}")
        elif rp > bound:
            bad("rank-bound", p, f"rank {rp} exceeds formula bound {bound}")

    if max_rank > heap.telemetry.max_rank:
        bad("max-rank", highest, f"rank {max_rank} above the family's "
                                 f"max_rank {heap.telemetry.max_rank}")

    if len(order) != heap._count:
        bad("count", None, f"count is {heap._count} but {len(order)} nodes are reachable")

    _audit_slots(heap._slots, roots, bad)
    return AuditReport(violations, len(order), max_rank)


@dataclass
class PotentialSnapshot:
    """Whole-heap view of the quantities the amortized analysis tracks.

    critical_count  active nodes whose active-child rank pair (missing
                    children counting as rank -1) sums to an odd number;
                    exactly these nodes can lose a rank when one active
                    child's rank drops by one
    degree_excess   sum over nodes of max(0, degree - 2 * rank); twice
                    the total violation units, and always an integer
    tree_count      length of the root list
    """

    critical_count: int
    degree_excess: int
    tree_count: int


def _walk_trees(trees: list[NodeHandle]) -> PotentialSnapshot:
    # one pass over the given trees.  Raises HeapError, naming the parent,
    # when a child list reaches a root, a node walked or a removed node
    seen = set(trees)
    critical = excess = 0
    stack = list(trees)
    while stack:
        p = stack.pop()
        degree = 0
        c = p.down
        while c is not None:
            if c in seen:
                raise HeapError(f"child list of node {p!r} does not end: "
                                f"it reaches {c!r} again")
            if c.nxt is None:
                raise HeapError(f"child list of node {p!r} reaches a removed node {c!r}")
            seen.add(c)
            stack.append(c)
            # p's two newest children are active; one is critical when
            # the ranks of its own active children (a missing child
            # counting as -1) sum to an odd number
            if degree < 2:
                d = c.down
                if d is not None:
                    d2 = d.prv
                    if (d.rank + (d2.rank if d2 is not None else -1)) & 1:
                        critical += 1
            degree += 1
            c = c.prv
        e = degree - 2 * p.rank
        if e > 0:
            excess += e
    return PotentialSnapshot(critical, excess, len(trees))


def potential_snapshot(heap: ViolationHeap) -> PotentialSnapshot:
    """Measure the heap's potential components in one traversal.

    Raises HeapError, naming the node, when a root or child list runs
    into a removed node or a node the walk already met (it does not end),
    and when called while the heap's own delete_min runs.
    """
    first = heap._first
    if first is None:
        if heap._count:
            raise HeapError(_IN_FLIGHT)
        return PotentialSnapshot(0, 0, 0)
    roots, stop = _root_list(first)
    if stop is not first:
        raise HeapError(f"root list from node {first!r} does not end")
    return _walk_trees(roots)


class JoinNeutralityMonitor:
    """Brackets every 3-way join with degree-excess measurements.

    Install on a heap before driving operations.  The monitor sets the
    join hook on the heap's ``Telemetry``, which its family shares, so it
    sees the joins of every heap in it: the heap and each sibling
    ``spawn()`` made or makes.  ``remove()`` puts back the class's hook,
    None.  Afterwards ``joins`` counts observed joins and
    ``mismatches`` holds any join that changed the degree excess of the
    trees in flight (there must never be one).  Those trees are every
    tree of the heap being consolidated, and a join touches no node
    outside them, so the excess of the family's other heaps cannot move
    and is not walked.
    """

    def __init__(self, heap: ViolationHeap) -> None:
        self._family = heap.telemetry
        self.joins = 0
        self.mismatches: list[tuple[int, int, int]] = []
        self._before = 0

    def install(self) -> "JoinNeutralityMonitor":
        self._family.join_hook = self._observe
        return self

    def remove(self) -> None:
        if self._family.join_hook == self._observe:
            del self._family.join_hook

    def _observe(self, phase: str, trees: list[NodeHandle]) -> None:
        if phase == "before":
            self._before = _walk_trees(trees).degree_excess
        else:
            after = _walk_trees(trees).degree_excess
            self.joins += 1
            if after != self._before:
                self.mismatches.append((self.joins, self._before, after))
