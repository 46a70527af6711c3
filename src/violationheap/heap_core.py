"""Mergeable min-heap with rank-repair instead of cascaded cuts.

The structure is a set of heap-ordered, node-disjoint multiary trees.
Roots sit on a singly linked circular list whose designated first root
always carries a minimum key.  Child lists are doubly linked and ordered
oldest to newest; a parent's ``down`` slot names its newest (last) child.
A node spends exactly three link slots:

    down  last child, or NIL
    nxt   for a root: the next root on the circular list;
          for a last child: the parent;
          otherwise: the next newer sibling
    prv   the next older sibling; NIL for the oldest child and for roots

There are no parent pointers.  The last two children of a node are its
*active* children: they are the only children that feed the node's rank,
and the only nodes that can reach their parent in O(1), via at most two
``nxt`` hops.  A node's rank is maintained against the formula

    rank = ceil((r1 + r2) / 2) + 1

over the ranks of its two active children, a missing child counting as
rank -1 (so a childless node has rank 0).  ``delete_min`` repairs the
root list by repeatedly joining three equal-rank trees into one tree of
rank one higher; ``decrease_key`` cuts at most one node, glues one of
its children into the gap, and walks ranks upward, each executed update
decreasing a stored rank by exactly one.

Nodes live in slot pools.  A ``NodeHandle`` is a (slot, stamp) pair;
retiring a slot and reusing it each bump the stamp, so operations on a
stale handle raise instead of corrupting the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

NIL = -1


class HeapError(Exception):
    """Misuse of the heap API (bad meld, bad key change, dead heap ref)."""


class StaleHandleError(HeapError):
    """The handle's slot was retired (and possibly reused) after issue."""


class EmptyHeapError(HeapError):
    """delete_min on an empty heap."""


class NodeHandle(NamedTuple):
    """Stable reference to one stored element."""

    index: int
    stamp: int


@dataclass
class Telemetry:
    """Monotone operation counters shared by every heap in one pool.

    ``max_rank`` is a high-water mark over every rank the pool ever
    assigned.  ``rank_update_steps`` counts executed rank decreases during
    upward propagation, which is the length of the repair walk each
    decrease-key pays for.
    """

    comparisons: int = 0
    joins: int = 0
    cuts: int = 0
    rank_update_steps: int = 0
    max_rank: int = 0


def rank_from_pair(r1: int, r2: int) -> int:
    """ceil((r1 + r2) / 2) + 1, exact for negative sums.

    Python's // floors, so (s + 1) // 2 is the ceiling of s / 2 for any
    integer s, including s in {-2, -1} which occur for missing children.
    """
    return (r1 + r2 + 1) // 2 + 1


class NodePool:
    """Slot storage for one family of meldable heaps.

    Node records are parallel arrays indexed by slot.  Retired slots are
    recycled through a free list.  Stamps start even; retiring a slot and
    reusing it each add one, so a slot is live exactly when its stamp is
    even, and a handle is valid exactly when it carries the slot's
    current stamp.  Handles from one pool are meaningless in another;
    heaps from different pools cannot meld.
    """

    def __init__(self) -> None:
        self.keys: list = []
        self.items: list = []
        self.ranks: list[int] = []
        self.down: list[int] = []
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.stamps: list[int] = []
        self.free: list[int] = []
        self.live_count = 0
        self.telemetry = Telemetry()
        # debug hook: called with "before" / "after" around every 3-way join
        self.join_hook = None

    def new_heap(self) -> "ViolationHeap":
        """Create a fresh empty heap drawing nodes from this pool."""
        return ViolationHeap(self)

    # -- slot management ------------------------------------------------

    def _alloc(self, key, item) -> int:
        free = self.free
        if free:
            i = free.pop()
            self.stamps[i] += 1  # odd -> even: slot live again
            self.keys[i] = key
            self.items[i] = item
            self.ranks[i] = 0
            self.down[i] = NIL
            self.nxt[i] = NIL
            self.prv[i] = NIL
        else:
            i = len(self.keys)
            self.keys.append(key)
            self.items.append(item)
            self.ranks.append(0)
            self.down.append(NIL)
            self.nxt.append(NIL)
            self.prv.append(NIL)
            self.stamps.append(0)
        self.live_count += 1
        return i

    def _retire(self, i: int) -> None:
        self.stamps[i] += 1  # even -> odd: stale handles become detectable
        self.keys[i] = None
        self.items[i] = None
        self.ranks[i] = 0
        self.down[i] = NIL
        self.nxt[i] = NIL
        self.prv[i] = NIL
        self.free.append(i)
        self.live_count -= 1

    def _check(self, h: NodeHandle) -> int:
        i, s = h
        if not 0 <= i < len(self.stamps) or self.stamps[i] != s or s & 1:
            raise StaleHandleError(f"stale handle {h!r}")
        return i

    # -- node inspection ------------------------------------------------

    def is_live(self, h: NodeHandle) -> bool:
        """True while the handle's slot still holds the element it named."""
        i, s = h
        return 0 <= i < len(self.stamps) and self.stamps[i] == s and not s & 1

    def key_of(self, h: NodeHandle):
        return self.keys[self._check(h)]

    def item_of(self, h: NodeHandle):
        return self.items[self._check(h)]

    def rank_of(self, h: NodeHandle) -> int:
        return self.ranks[self._check(h)]

    def _recalc(self, i: int) -> int:
        d = self.down[i]
        if d == NIL:
            return 0
        d2 = self.prv[d]
        r2 = self.ranks[d2] if d2 != NIL else -1
        return (self.ranks[d] + r2 + 1) // 2 + 1


class ViolationHeap:
    """One meldable min-heap inside a NodePool.

    find_min and insert are O(1), meld is O(1), decrease_key is amortized
    O(1), delete_min is amortized O(log n).  A heap reference passed to
    meld is consumed: afterwards only the returned reference is usable.
    """

    def __init__(self, pool: NodePool) -> None:
        self.pool = pool
        self._first = NIL
        self._count = 0
        self._live = True

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        self._require_live()
        return self._count

    def is_empty(self) -> bool:
        return len(self) == 0

    def is_live(self, h: NodeHandle) -> bool:
        """True while the handle still names an element in the pool."""
        return self.pool.is_live(h)

    def find_min(self) -> Optional[tuple]:
        """(key, item) of a minimum element, or None when empty."""
        self._require_live()
        f = self._first
        if f == NIL:
            return None
        return self.pool.keys[f], self.pool.items[f]

    def first_root(self) -> Optional[NodeHandle]:
        """Handle of the current first (minimum) root, or None when empty."""
        self._require_live()
        f = self._first
        if f == NIL:
            return None
        return NodeHandle(f, self.pool.stamps[f])

    @property
    def telemetry(self) -> Telemetry:
        return self.pool.telemetry

    def _require_live(self) -> None:
        if not self._live:
            raise HeapError("heap reference was consumed by meld")

    # -- updates --------------------------------------------------------

    def insert(self, key, item=None) -> NodeHandle:
        """Add one element as a rank-0 root.

        The node lands first on the root list when it carries a new
        minimum, otherwise second (right behind the first root).
        """
        self._require_live()
        pool = self.pool
        f = self._first
        if f == NIL:
            i = pool._alloc(key, item)
            pool.nxt[i] = i
            self._first = i
        else:
            # compare before linking: a key that raises leaves no trace
            new_min = key < pool.keys[f]
            pool.telemetry.comparisons += 1
            i = pool._alloc(key, item)
            nxt = pool.nxt
            nxt[i] = nxt[f]
            nxt[f] = i
            if new_min:
                self._first = i
        self._count += 1
        return NodeHandle(i, pool.stamps[i])

    def meld(self, other: "ViolationHeap") -> "ViolationHeap":
        """Combine two heaps from the same pool into a new one.

        Both inputs are consumed.  The circular root lists are spliced in
        O(1); the smaller of the two minimums becomes the first root, the
        left operand winning ties.
        """
        self._require_live()
        other._require_live()
        if other is self:
            raise HeapError("cannot meld a heap with itself")
        if other.pool is not self.pool:
            raise HeapError("pool mismatch")
        pool = self.pool
        out = ViolationHeap(pool)
        f1, f2 = self._first, other._first
        if f1 == NIL:
            out._first = f2
        elif f2 == NIL:
            out._first = f1
        else:
            # compare before splicing: a key that raises leaves no trace
            out._first = f2 if pool.keys[f2] < pool.keys[f1] else f1
            pool.telemetry.comparisons += 1
            nxt = pool.nxt
            # exchanging the two successors merges the two cycles
            nxt[f1], nxt[f2] = nxt[f2], nxt[f1]
        out._count = self._count + other._count
        self._live = False
        other._live = False
        return out

    def decrease_key(self, h: NodeHandle, new_key) -> None:
        """Lower the key stored at h; the new key must not exceed the old.

        A root is at most re-designated as the first root.  An active node
        whose new key still respects heap order stays put.  Any other node
        is cut: the higher-ranked of its active children is glued into the
        gap (so the parent keeps its child count), the cut node re-enters
        the root list with a freshly computed rank, and, when the cut node
        was active, rank repair walks upward from the old parent.
        """
        self._require_live()
        pool = self.pool
        x = pool._check(h)
        keys = pool.keys
        if keys[x] < new_key:
            raise HeapError("key increase not supported")
        keys[x] = new_key
        t = pool.telemetry
        nxt = pool.nxt
        prv = pool.prv
        down = pool.down
        ranks = pool.ranks

        # classify x from its own links: last child, second-to-last child,
        # deeper child, or root
        y = nxt[x]
        if down[y] == x:
            parent, was_active, was_last = y, True, True
        elif prv[y] == x:
            z = nxt[y]
            if down[z] == y:
                parent, was_active, was_last = z, True, False
            else:
                parent, was_active, was_last = NIL, False, False
        else:
            # x is a root; the designation is the only thing to fix
            f = self._first
            t.comparisons += 1
            if new_key < keys[f]:
                self._first = x
            return

        if was_active:
            t.comparisons += 1
            if not new_key < keys[parent]:
                return

        # cut x; glue its higher-ranked active child (ties: the last one)
        # into x's old position so the parent's child count is preserved
        t.cuts += 1
        d = down[x]
        if d == NIL:
            g = NIL
        else:
            d2 = prv[d]
            g = d2 if d2 != NIL and ranks[d2] > ranks[d] else d

        xp = prv[x]
        if g == NIL:
            # childless cut node: close the gap directly
            if was_last:
                down[parent] = xp
                if xp != NIL:
                    nxt[xp] = parent
            else:
                prv[y] = xp
                if xp != NIL:
                    nxt[xp] = y
        else:
            if g == d:
                gp = prv[g]
                down[x] = gp
                if gp != NIL:
                    nxt[gp] = x  # new last child points back at x
            else:
                gp = prv[g]
                prv[d] = gp
                if gp != NIL:
                    nxt[gp] = d
            prv[g] = xp
            if xp != NIL:
                nxt[xp] = g
            if was_last:
                nxt[g] = parent
                down[parent] = g
            else:
                nxt[g] = y
                prv[y] = g

        r = pool._recalc(x)
        ranks[x] = r
        if r > t.max_rank:
            t.max_rank = r

        f = self._first  # nonempty: x's old tree still has its root
        prv[x] = NIL
        nxt[x] = nxt[f]
        nxt[f] = x
        t.comparisons += 1
        if new_key < keys[f]:
            self._first = x

        if was_active:
            self._propagate(parent)

    def _propagate(self, c: int) -> None:
        # Walk upward from the old parent, shrinking ranks that the
        # active-children formula no longer supports.  The starting node
        # is recalculated even when it is not active; moving further up
        # requires the current node to be active.  Every executed update
        # must be a decrease of exactly one.
        pool = self.pool
        ranks = pool.ranks
        nxt = pool.nxt
        prv = pool.prv
        down = pool.down
        t = pool.telemetry
        while True:
            d = down[c]
            if d == NIL:
                r = 0
            else:
                d2 = prv[d]
                r2 = ranks[d2] if d2 != NIL else -1
                r = (ranks[d] + r2 + 1) // 2 + 1
            old = ranks[c]
            if r >= old:
                return
            assert old - r == 1, "rank repair step larger than one"
            ranks[c] = r
            t.rank_update_steps += 1
            y = nxt[c]
            if down[y] == c:
                c = y
            elif prv[y] == c:
                z = nxt[y]
                if down[z] == y:
                    c = z
                else:
                    return
            else:
                return

    def delete_min(self) -> tuple:
        """Remove and return a minimum (key, item).

        The first root is removed and its children become trees.  Trees
        are then fed through a rank-indexed table; whenever three trees of
        one rank meet, they are joined into a single tree of the next
        rank, so at most two trees of any rank survive.  The root list is
        rebuilt in ascending rank order with the minimum rotated to the
        front.
        """
        self._require_live()
        if self._count == 0:
            raise EmptyHeapError("empty")
        pool = self.pool
        keys = pool.keys
        nxt = pool.nxt
        prv = pool.prv
        down = pool.down
        ranks = pool.ranks
        t = pool.telemetry
        z = self._first
        out = (keys[z], pool.items[z])

        # surviving roots in circular order, then z's children oldest first
        work = []
        i = nxt[z]
        while i != z:
            work.append(i)
            i = nxt[i]
        kids = []
        c = down[z]
        while c != NIL:
            kids.append(c)
            c = prv[c]
        kids.reverse()
        work.extend(kids)
        pool._retire(z)
        self._count -= 1

        table: list[list[int]] = []
        hook = pool.join_hook
        for v in work:
            prv[v] = NIL
            while True:
                r = ranks[v]
                while len(table) <= r:
                    table.append([])
                bucket = table[r]
                bucket.append(v)
                if len(bucket) < 3:
                    break
                a, b, cc = bucket
                del bucket[:]
                if hook is not None:
                    hook("before")
                v = self._join3(a, b, cc)
                if hook is not None:
                    hook("after")

        survivors = [v for bucket in table for v in bucket]
        if not survivors:
            self._first = NIL
            return out
        m = len(survivors)
        for j in range(m - 1):
            nxt[survivors[j]] = survivors[j + 1]
        nxt[survivors[m - 1]] = survivors[0]
        best = survivors[0]
        bk = keys[best]
        for j in range(1, m):
            v = survivors[j]
            t.comparisons += 1
            k = keys[v]
            if k < bk:
                best = v
                bk = k
        self._first = best
        return out

    def _join3(self, a: int, b: int, c: int) -> int:
        # Merge three equal-rank trees into one: the root with the
        # smallest key (ties: earliest argument) wins and links the other
        # two as its newest children, in argument order, then gains one
        # rank.  Before linking, the winner's two active children are
        # reordered if the older of them outranks the newer, so the
        # higher-ranked one stays closer to the end of the child list.
        pool = self.pool
        keys = pool.keys
        ranks = pool.ranks
        nxt = pool.nxt
        prv = pool.prv
        down = pool.down
        t = pool.telemetry
        assert ranks[a] == ranks[b] == ranks[c], "3-way join needs equal ranks"
        t.comparisons += 2
        w = a
        if keys[b] < keys[w]:
            w = b
        if keys[c] < keys[w]:
            w = c
        if w == a:
            l1, l2 = b, c
        elif w == b:
            l1, l2 = a, c
        else:
            l1, l2 = a, b

        last = down[w]
        if last != NIL:
            s = prv[last]
            if s != NIL and ranks[s] > ranks[last]:
                p = prv[s]
                prv[last] = p
                if p != NIL:
                    nxt[p] = last
                nxt[last] = s
                prv[s] = last
                nxt[s] = w
                down[w] = s

        for u in (l1, l2):
            last = down[w]
            prv[u] = last
            if last != NIL:
                nxt[last] = u
            nxt[u] = w
            down[w] = u

        r = ranks[w] + 1
        ranks[w] = r
        t.joins += 1
        if r > t.max_rank:
            t.max_rank = r
        return w

    # -- conveniences ---------------------------------------------------

    def decrease_key_by(self, h: NodeHandle, delta) -> None:
        """Integer convenience: lower the key at h by a non-negative delta."""
        if delta < 0:
            raise HeapError("delta must be non-negative")
        i = self.pool._check(h)
        self.decrease_key(h, self.pool.keys[i] - delta)
