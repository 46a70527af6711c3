"""Structural audit and potential telemetry for pools of violation heaps.

``full_audit`` walks one heap and reports every broken rule instead of
raising, so corrupted structures can be diagnosed.  Rules carry stable
string ids:

    structure           link slots disagree (dangling sibling links, a
                        last child not pointing at its parent, a root
                        with a prv link, unreachable or doubly reached
                        nodes, broken circular root list)
    heap-order          a child's key is smaller than its parent's
    first-root          some root's key undercuts the first root's
    key-compare         comparing a node's key with its parent's or the
                        first root's raised; the key has no order
                        against the heap's other keys
    rank-bound          a stored rank is negative or exceeds the value
                        the active-children formula allows
    size-bound          a subtree is smaller than the Fibonacci-style
                        floor its rank promises (fib(0) = fib(1) = 1)
    count               the heap's size counter disagrees with the number
                        of reachable nodes
    root-multiplicity   some rank owns three or more roots; only checked
                        on request, it is guaranteed just after
                        delete_min, not between arbitrary operations

``potential_snapshot`` reports the quantities the amortized analysis
charges against: the number of critical nodes, the total degree excess
(twice the violation units), and the tree count.  It and
``pool_degree_excess`` raise ``HeapError`` on a root or child list that
does not end, where ``full_audit`` reports a ``structure`` finding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .heap_core import (NIL, HeapError, NodeHandle, NodePool, ViolationHeap,
                        rank_from_pair)

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
                    "node": None if v.node is None else v.node.index,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
            "nodes": self.node_count,
            "max_rank": self.max_rank,
        })


def full_audit(heap: ViolationHeap, check_root_multiplicity: bool = False) -> AuditReport:
    """Walk one heap and report every rule violation found.

    Never raises on a corrupt structure; traversal is bounded so broken
    links produce findings rather than hangs, and a key comparison that
    raises becomes a ``key-compare`` finding.
    """
    pool = heap.pool
    keys = pool.keys
    ranks = pool.ranks
    down = pool.down
    nxt = pool.nxt
    prv = pool.prv
    stamps = pool.stamps
    nslots = len(stamps)
    violations: list[Violation] = []

    def bad(rule: str, node: int | None, detail: str) -> None:
        h = None if node is None else NodeHandle(node, stamps[node])
        violations.append(Violation(rule, h, detail))

    first = heap._first
    if first == NIL:
        if heap._count != 0:
            bad("count", None, f"empty root list but count is {heap._count}")
        return AuditReport(violations, 0, 0)

    limit = pool.live_count + 1

    roots = []
    i = first
    steps = 0
    while True:
        if not 0 <= i < nslots or stamps[i] & 1:
            bad("structure", None, f"root list reaches dead slot {i}")
            break
        roots.append(i)
        i = nxt[i]
        steps += 1
        if i == first:
            break
        if steps > limit:
            bad("structure", None, "root list does not cycle back to the first root")
            break

    fk = keys[first]
    for r in roots:
        if prv[r] != NIL:
            bad("structure", r, "root carries a prv link")
        try:
            if keys[r] < fk:
                bad("first-root", r,
                    f"root key {keys[r]!r} undercuts first root key {fk!r}")
        except Exception as exc:
            bad("key-compare", r, f"root key vs first root key: {exc!r}")

    seen = bytearray(nslots)
    order: list[int] = []
    parent_of = [NIL] * nslots
    max_rank = 0

    stack = []
    for r in roots:
        if seen[r]:
            bad("structure", r, "root reached twice")
            continue
        seen[r] = 1
        stack.append(r)
        while stack:
            p = stack.pop()
            order.append(p)
            rp = ranks[p]
            if rp > max_rank:
                max_rank = rp
            d = down[p]
            if d == NIL:
                r1 = r2 = -1
            else:
                if not 0 <= d < nslots or stamps[d] & 1:
                    bad("structure", p, f"down points at dead slot {d}")
                    continue
                if nxt[d] != p:
                    bad("structure", d, "last child does not point back at its parent")
                r1 = ranks[d]
                d2 = prv[d]
                r2 = ranks[d2] if d2 != NIL and 0 <= d2 < nslots else -1
                c = d
                kid_steps = 0
                pk = keys[p]
                while True:
                    if seen[c]:
                        bad("structure", c, "node reachable twice")
                        break
                    seen[c] = 1
                    parent_of[c] = p
                    try:
                        if keys[c] < pk:
                            bad("heap-order", c,
                                f"child key {keys[c]!r} below parent key {pk!r}")
                    except Exception as exc:
                        bad("key-compare", c, f"child key vs parent key: {exc!r}")
                    stack.append(c)
                    older = prv[c]
                    if older == NIL:
                        break
                    if not 0 <= older < nslots or stamps[older] & 1:
                        bad("structure", c, f"prv points at dead slot {older}")
                        break
                    if nxt[older] != c:
                        bad("structure", older, "sibling links disagree")
                        break
                    c = older
                    kid_steps += 1
                    if kid_steps > limit:
                        bad("structure", p, "child list does not terminate")
                        break
            bound = rank_from_pair(r1, r2)
            if rp < 0:
                bad("rank-bound", p, f"negative rank {rp}")
            elif rp > bound:
                bad("rank-bound", p, f"rank {rp} exceeds formula bound {bound}")

    sizes = [1] * nslots
    for i in reversed(order):
        p = parent_of[i]
        if p != NIL:
            sizes[p] += sizes[i]
    for i in order:
        rp = ranks[i]
        if 0 <= rp and sizes[i] < size_floor(rp):
            bad("size-bound", i,
                f"subtree size {sizes[i]} below floor {size_floor(rp)} for rank {rp}")

    if len(order) != heap._count:
        bad("count", None, f"count is {heap._count} but {len(order)} nodes are reachable")

    if check_root_multiplicity:
        per_rank: dict[int, int] = {}
        for r in roots:
            per_rank[ranks[r]] = per_rank.get(ranks[r], 0) + 1
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
    subtree_sizes   size of every node's subtree, by handle
    """

    critical_count: int
    degree_excess: int
    tree_count: int
    subtree_sizes: dict[NodeHandle, int] = field(default_factory=dict)


def potential_snapshot(heap: ViolationHeap) -> PotentialSnapshot:
    """Measure the heap's potential components in one traversal.

    Raises HeapError, naming the node, when the walk reaches more nodes
    than the pool holds: some root or child list does not end.
    """
    pool = heap.pool
    ranks = pool.ranks
    down = pool.down
    prv = pool.prv
    stamps = pool.stamps

    first = heap._first
    if first == NIL:
        return PotentialSnapshot(0, 0, 0)

    limit = pool.live_count
    roots = []
    i = first
    while True:
        roots.append(i)
        i = pool.nxt[i]
        if i == first:
            break
        if len(roots) > limit:
            raise HeapError(f"root list from node {first} does not end")

    critical = 0
    reached = len(roots)
    excess = 0
    order: list[int] = []
    parent_of: dict[int, int] = {}
    # stack holds (node, is_active); only the two newest children of a
    # node are active, roots never are
    stack = [(r, False) for r in roots]
    while stack:
        p, active = stack.pop()
        order.append(p)
        degree = 0
        c = down[p]
        pair = -2  # sum of the two active-slot ranks, missing slots are -1
        while c != NIL:
            reached += 1
            if reached > limit:
                raise HeapError(f"child list of node {p} does not end")
            stack.append((c, degree < 2))
            parent_of[c] = p
            if degree < 2:
                pair += ranks[c] + 1
            degree += 1
            c = prv[c]
        e = degree - 2 * ranks[p]
        if e > 0:
            excess += e
        if active and pair & 1:
            critical += 1

    sizes = {i: 1 for i in order}
    for i in reversed(order):
        p = parent_of.get(i)
        if p is not None:
            sizes[p] += sizes[i]
    by_handle = {NodeHandle(i, stamps[i]): s for i, s in sizes.items()}
    return PotentialSnapshot(critical, excess, len(roots), by_handle)


def assert_join_neutrality(before: PotentialSnapshot, after: PotentialSnapshot) -> bool:
    """True when a join left the degree excess untouched, as it must."""
    return before.degree_excess == after.degree_excess


def pool_degree_excess(pool: NodePool) -> int:
    """Degree excess summed over every live node in the pool.

    Usable mid-consolidation, when no root list exists to traverse: a
    join touches no node outside the pool, so pool-wide neutrality is
    equivalent to heap-wide neutrality.  Raises HeapError, naming the
    node, on a child list longer than the pool's live node count.
    """
    limit = pool.live_count
    total = 0
    stamps = pool.stamps
    down = pool.down
    prv = pool.prv
    ranks = pool.ranks
    for i in range(len(stamps)):
        if stamps[i] & 1:
            continue
        degree = 0
        c = down[i]
        while c != NIL:
            degree += 1
            if degree > limit:
                raise HeapError(f"child list of node {i} does not end")
            c = prv[c]
        e = degree - 2 * ranks[i]
        if e > 0:
            total += e
    return total


class JoinNeutralityMonitor:
    """Brackets every 3-way join with degree-excess measurements.

    Install on a pool before driving operations; afterwards ``joins``
    counts observed joins and ``mismatches`` holds any join that changed
    the pool's degree excess (there must never be one).
    """

    def __init__(self, pool: NodePool) -> None:
        self.pool = pool
        self.joins = 0
        self.mismatches: list[tuple[int, int, int]] = []
        self._before = 0

    def install(self) -> "JoinNeutralityMonitor":
        self.pool.join_hook = self._observe
        return self

    def remove(self) -> None:
        if self.pool.join_hook == self._observe:
            self.pool.join_hook = None

    def _observe(self, phase: str) -> None:
        if phase == "before":
            self._before = pool_degree_excess(self.pool)
        else:
            after = pool_degree_excess(self.pool)
            self.joins += 1
            if after != self._before:
                self.mismatches.append((self.joins, self._before, after))
