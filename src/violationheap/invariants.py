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
    size-bound          a subtree is smaller than the Fibonacci-style
                        floor its rank promises (fib(0) = fib(1) = 1)
    max-rank            a node's rank is above its family's
                        ``Telemetry.max_rank``, from which delete_min
                        sizes a fresh slot list
    count               the heap's size counter disagrees with the number
                        of reachable nodes
    slot-cache          the slot list delete_min kept disagrees with the
                        root list: its trees, in slot order, are not the
                        roots in cycle order, a tree is not in one of its
                        rank's two slots (2r, 2r + 1), or a rank's second
                        slot is used while its first is empty
    root-multiplicity   some rank owns three or more roots; only checked
                        on request, it is guaranteed just after
                        delete_min, not between arbitrary operations

The walk is breadth first: the roots in root-list order, then each
node's children, newest first, as the walk reaches their parent.
Findings come in walk order, except ``size-bound``, which needs whole
subtree sizes and so comes after the walk, followed by ``max-rank``,
``count``, ``slot-cache`` and ``root-multiplicity``.  Measured cost:
about 0.57 µs per node on the heaps of perfbench's ``fuzz`` workload,
about 1,800 nodes on average (``invariants.full_audit.us_per_node`` under
``--trace 1``, 2 vCPUs, CPython 3.11.7, ``BENCH_audit.json``).

``potential_snapshot`` reports the quantities the amortized analysis
charges against: the number of critical nodes, the total degree excess
(twice the violation units), and the tree count.  It raises
``HeapError`` on a root or child list that runs into a node it already
walked or a removed node, where ``full_audit`` reports ``structure``.
``JoinNeutralityMonitor`` measures the same degree excess over the trees
in flight around every join of a ``delete_min``.  Every walk is bounded
by the identity of the nodes it has met, not by a node count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .heap_core import HeapError, NodeHandle, ViolationHeap, rank_from_pair

GOLDEN = (1 + math.sqrt(5)) / 2

# fib(0) = fib(1) = 1; anything above this index exceeds any plausible
# node count, so larger (corrupt) ranks fail the size bound outright
_FIB_LIMIT = 92
_FIB = [1, 1]
while len(_FIB) < _FIB_LIMIT:
    _FIB.append(_FIB[-1] + _FIB[-2])


def size_floor(rank: int) -> int:
    """Smallest subtree size a node of this rank may legally have."""
    if rank < len(_FIB):
        return _FIB[rank]
    return _FIB[-1]


def max_rank_bound(n: int) -> int:
    """Largest rank any node may carry in a heap of n nodes."""
    if n <= 1:
        return 2
    return math.ceil(math.log(n, GOLDEN)) + 2


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
    # the kept slot list, if any, against the root list, as full_audit's
    # bad() findings.  Only identities and ranks are read, never keys,
    # and a list that is not one of nodes is itself the finding
    if slots is None:
        return
    if not isinstance(slots, list):
        bad("slot-cache", None, f"kept slot list is of type {type(slots).__name__}")
        return
    kept = []
    for j, u in enumerate(slots):
        if u is None:
            continue
        if not isinstance(u, NodeHandle):
            bad("slot-cache", None, f"slot {j} holds no node but a {type(u).__name__} value")
            continue
        kept.append(u)
        if u.rank != j // 2:
            bad("slot-cache", u, f"rank {u.rank} tree in slot {j}, of rank {j // 2}")
        elif j & 1 and slots[j - 1] is None:
            bad("slot-cache", u, f"slot {j} is used and slot {j - 1} is empty")
    # the relink made the cycle in slot order; find_min's root may be
    # any of them, so the cycle is compared from the first slot's tree
    at = {u: k for k, u in enumerate(roots)}
    k = at.get(kept[0], 0) if kept else 0
    cycle = roots[k:] + roots[:k]
    for n, (u, w) in enumerate(zip(kept, cycle)):
        if u is not w:
            bad("slot-cache", w, f"slot order and cycle order part at tree {n}")
            return
    if len(kept) != len(cycle):
        bad("slot-cache", None, f"the slots hold {len(kept)} trees "
                                f"and the root list {len(cycle)}")


def full_audit(heap: ViolationHeap, check_root_multiplicity: bool = False) -> AuditReport:
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
    # children as the walk reaches their parent, so every node sits after
    # its parent.  parent_of holds that parent as a position in order (-1
    # for roots).  ranked holds the positions of nodes of rank 2 or more:
    # the size floor of ranks 0 and 1 is 1, which no node can miss
    seen = set(roots)
    order = list(roots)
    parent_of = [-1] * len(order)
    ranked: list[int] = []
    leaf_bound = rank_from_pair(-1, -1)
    max_rank, highest = 0, None
    for pos, p in enumerate(order):
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
                parent_of.append(pos)
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
        if rp >= 2:
            ranked.append(pos)

    # a node's descendants all sit after it, so one reverse pass over the
    # non-roots adds up every subtree size
    sizes = [1] * len(order)
    for j in range(len(order) - 1, len(roots) - 1, -1):
        sizes[parent_of[j]] += sizes[j]
    for j in ranked:
        rp = order[j].rank
        if sizes[j] < size_floor(rp):
            bad("size-bound", order[j],
                f"subtree size {sizes[j]} below floor {size_floor(rp)} for rank {rp}")

    if max_rank > heap.telemetry.max_rank:
        bad("max-rank", highest, f"rank {max_rank} above the family's "
                                 f"max_rank {heap.telemetry.max_rank}")

    if len(order) != heap._count:
        bad("count", None, f"count is {heap._count} but {len(order)} nodes are reachable")

    _audit_slots(heap._slots, roots, bad)

    if check_root_multiplicity:
        per_rank: dict[int, int] = {}
        for r in roots:
            per_rank[r.rank] = per_rank.get(r.rank, 0) + 1
        for rk, cnt in sorted(per_rank.items()):
            if cnt > 2:
                bad("root-multiplicity", None, f"{cnt} roots of rank {rk}")

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
    into a removed node or a node the walk already met (it does not end).
    """
    first = heap._first
    if first is None:
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
