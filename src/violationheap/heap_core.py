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
rank -1 (so a childless node has rank 0).  ``delete_min`` walks the
roots and the old minimum's children where they lie, keeps two trees
per rank in slots, and joins a third with both into one tree of rank
one higher; ``decrease_key`` cuts at most one node, glues one of its
children into the gap, and walks ranks upward, each executed update
decreasing a stored rank by exactly one.

Nodes live in slot pools.  A ``NodeHandle`` is a (slot, stamp) pair;
retiring a slot and reusing it each bump the stamp, so operations on a
stale handle raise instead of corrupting the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, NamedTuple, Optional

NIL = -1


class HeapError(Exception):
    """Misuse of the heap API (bad meld, bad key, decrease on an empty heap)."""


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
        # debug hook: called with "before" / "after" around every 3-way
        # join, mid-consolidation; one that raises is handled like a key
        # comparison that raises
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
        return rank_from_pair(self.ranks[d], self.ranks[d2] if d2 != NIL else -1)

    def _active_parent(self, c: int) -> int:
        # c's parent when c is one of its parent's two newest children,
        # else NIL: a last child's nxt is the parent, a second-to-last
        # child's nxt is the last child, whose nxt is the parent
        y = self.nxt[c]
        if self.down[y] == c:
            return y
        if self.prv[y] == c:
            z = self.nxt[y]
            if self.down[z] == y:
                return z
        return NIL


class ViolationHeap:
    """One meldable min-heap inside a NodePool.

    find_min and insert are O(1), meld is O(1), decrease_key is amortized
    O(1), delete_min is amortized O(log n).  meld empties its argument
    into this heap; ``spawn`` makes an empty heap that can meld with it.
    """

    def __init__(self, pool: NodePool) -> None:
        self.pool = pool
        self._first = NIL
        self._count = 0

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return len(self) == 0

    def is_live(self, h: NodeHandle) -> bool:
        """True while the handle still names an element in the pool."""
        return self.pool.is_live(h)

    def find_min(self) -> Optional[tuple]:
        """(key, item) of a minimum element, or None when empty."""
        f = self._first
        if f == NIL:
            return None
        return self.pool.keys[f], self.pool.items[f]

    def first_root(self) -> Optional[NodeHandle]:
        """Handle of the current first (minimum) root, or None when empty."""
        f = self._first
        if f == NIL:
            return None
        return NodeHandle(f, self.pool.stamps[f])

    @property
    def telemetry(self) -> Telemetry:
        return self.pool.telemetry

    def spawn(self) -> "ViolationHeap":
        """An empty heap in the same pool, so it can meld with this one."""
        return ViolationHeap(self.pool)

    # -- updates --------------------------------------------------------

    def insert(self, key, item=None) -> NodeHandle:
        """Add one element as a rank-0 root.

        The node lands first on the root list when it carries a new
        minimum, otherwise second (right behind the first root).
        """
        # NaN is unordered: as a key it would stay the minimum forever
        if key != key:
            raise HeapError("NaN key")
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
        """Move every element of other, a heap of the same pool, into this
        one; other is left empty and usable.  Returns self.

        The circular root lists are spliced in O(1); the smaller of the
        two minimums becomes the first root, this heap winning ties.
        """
        if other is self:
            raise HeapError("cannot meld a heap with itself")
        if other.pool is not self.pool:
            raise HeapError("pool mismatch")
        pool = self.pool
        f1, f2 = self._first, other._first
        if f1 == NIL:
            self._first = f2
        elif f2 != NIL:
            # compare before splicing: a key that raises leaves no trace
            self._first = f2 if pool.keys[f2] < pool.keys[f1] else f1
            pool.telemetry.comparisons += 1
            nxt = pool.nxt
            # exchanging the two successors merges the two cycles
            nxt[f1], nxt[f2] = nxt[f2], nxt[f1]
        self._count += other._count
        other._first = NIL
        other._count = 0
        return self

    def decrease_key(self, h: NodeHandle, new_key) -> None:
        """Lower the key stored at h; the new key must not exceed the old.

        A root is at most re-designated as the first root.  An active node
        whose new key still respects heap order stays put.  Any other node
        is cut: the higher-ranked of its active children is glued into the
        gap (so the parent keeps its child count), the cut node re-enters
        the root list with a freshly computed rank, and, when the cut node
        was active, rank repair walks upward from the old parent.

        The handle must belong to this heap.  Only an empty heap is
        detected: ownership has no O(1) check without parent pointers.
        """
        pool = self.pool
        x = pool._check(h)
        f = self._first
        if f == NIL:
            raise HeapError("handle does not belong to this empty heap")
        keys = pool.keys
        # NaN fails <= against anything, so it is refused here too
        if not new_key <= keys[x]:
            raise HeapError("key increase not supported")
        t = pool.telemetry
        nxt = pool.nxt
        prv = pool.prv
        down = pool.down
        ranks = pool.ranks

        # x is an active child when it has an active parent, and that
        # parent's last child when the parent is y; otherwise x is an
        # older child, whose newer sibling y points back at it, or a root
        parent = pool._active_parent(x)
        y = nxt[x]
        if parent == NIL and prv[y] != x:
            # x is a root; the designation is the only thing to fix
            new_min = new_key < keys[f]
            t.comparisons += 1
            keys[x] = new_key
            if new_min:
                self._first = x
            return

        # compare before storing or cutting: a key that raises leaves no trace
        if parent != NIL and not new_key < keys[parent]:
            t.comparisons += 1
            keys[x] = new_key
            return
        new_min = new_key < keys[f]
        t.comparisons += 1 if parent == NIL else 2
        keys[x] = new_key

        # cut x; glue its higher-ranked active child g (ties: the last one)
        # into x's old position so the parent's child count is preserved
        t.cuts += 1
        xp = prv[x]
        d = down[x]
        if d == NIL:
            # no child to glue: x's neighbours close the gap
            after_xp, before_y = y, xp
        else:
            d2 = prv[d]
            g = d2 if d2 != NIL and ranks[d2] > ranks[d] else d
            # g's older sibling takes g's place among x's children
            gp = prv[g]
            if g == d:
                down[x] = gp
            else:
                prv[d] = gp
            if gp != NIL:
                nxt[gp] = nxt[g]
            nxt[g] = y
            prv[g] = xp
            after_xp = before_y = g
        if xp != NIL:
            nxt[xp] = after_xp
        if y == parent:
            down[y] = before_y
        else:
            prv[y] = before_y

        r = pool._recalc(x)
        ranks[x] = r
        if r > t.max_rank:
            t.max_rank = r

        prv[x] = NIL
        nxt[x] = nxt[f]
        nxt[f] = x
        if new_min:
            self._first = x

        # rank repair walks up from the old parent, shrinking ranks the
        # active-children formula no longer supports.  The parent is
        # recalculated even when it is not active; each further step needs
        # the current node to be active.  Every executed update must be a
        # decrease of exactly one.
        c = parent
        while c != NIL:
            r = pool._recalc(c)
            old = ranks[c]
            if r >= old:
                return
            assert old - r == 1, "rank repair step larger than one"
            ranks[c] = r
            t.rank_update_steps += 1
            c = pool._active_parent(c)

    def delete_min(self) -> tuple:
        """Remove and return a minimum (key, item).

        The first root is removed and its children become trees.  The
        other roots, then the children (oldest first), are walked where
        they lie into two slots per rank; a third tree that meets a full
        rank is joined with both into one tree of the next rank, which
        moves on up.  The survivors are relinked from the slots in
        ascending rank order, with a minimum as the first root.

        When a key comparison raises, the minimum stays removed and every
        other tree is put back on one root cycle before the exception
        propagates; until the next delete_min the first root need not be
        a minimum, which ``full_audit`` reports as ``first-root``.
        """
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

        # the other roots run from nxt[z] and z's children from the oldest
        # (rest), both along nxt and both ending at z
        i = nxt[z]
        rest = down[z] if down[z] != NIL else z
        while prv[rest] != NIL:
            rest = prv[rest]
        pool._retire(z)
        self._count -= 1

        # every rank is at most max_rank; a join may make max_rank + 1
        s1 = [NIL] * (t.max_rank + 2)
        s2 = s1[:]
        hook = pool.join_hook
        v = NIL
        try:
            while True:
                if i == z:
                    if rest == z:
                        break
                    i, rest = rest, z
                v = i
                i = nxt[v]
                prv[v] = NIL
                while True:
                    r = ranks[v]
                    a = s1[r]
                    if a == NIL:
                        s1[r] = v
                        break
                    b = s2[r]
                    if b == NIL:
                        s2[r] = v
                        break
                    # 3-way join: the smallest key (ties: a, b, v) wins and
                    # links the other two as its newest children, in that
                    # order, then gains one rank.  Compare before clearing
                    # the slots, so a key that raises loses no tree.
                    if hook is not None:
                        hook("before")
                    assert ranks[a] == ranks[b] == r, "3-way join needs equal ranks"
                    t.comparisons += 2
                    w = a
                    if keys[b] < keys[w]:
                        w = b
                    if keys[v] < keys[w]:
                        w = v
                    s1[r] = s2[r] = NIL
                    if w == a:
                        l1, l2 = b, v
                    elif w == b:
                        l1, l2 = a, v
                    else:
                        l1, l2 = a, b
                    # the winner's two active children are reordered if the
                    # older outranks the newer, so the higher-ranked one
                    # stays closer to the end of the child list
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
                            last = s
                        nxt[last] = l1
                    prv[l1] = last
                    nxt[l1] = l2
                    prv[l2] = l1
                    nxt[l2] = w
                    down[w] = l2
                    r += 1
                    ranks[w] = r
                    t.joins += 1
                    if r > t.max_rank:
                        t.max_rank = r
                        if r == len(s1):
                            s1.append(NIL)
                            s2.append(NIL)
                    v = w
                    if hook is not None:
                        hook("after")

            # relink the survivors in ascending rank, s1 before s2, and
            # make the first minimum met the first root
            first = last = best = NIL
            for u in chain.from_iterable(zip(s1, s2)):
                if u == NIL:
                    continue
                if last == NIL:
                    first = best = u
                    bk = keys[u]
                else:
                    nxt[last] = u
                    t.comparisons += 1
                    k = keys[u]
                    if k < bk:
                        best = u
                        bk = k
                last = u
            if last != NIL:
                nxt[last] = first
            self._first = best
            return out
        except BaseException:
            self._gather(s1, s2, v, i, rest, z)
            raise

    def _gather(self, s1: list, s2: list, v: int, i: int, rest: int,
                z: int) -> None:
        # delete_min raised between joins.  Every tree is then in a slot,
        # or is the incoming tree v, or is still unwalked along nxt from i
        # and from rest up to z (v may also sit in a slot or head i, hence
        # the dedupe).  Put them all on one root cycle, so that nothing is
        # lost and the size stays right.
        nxt = self.pool.nxt
        prv = self.pool.prv
        trees = [u for pair in zip(s1, s2) for u in pair]
        trees.append(v)
        for j in (i, rest):
            while j != z:
                trees.append(j)
                j = nxt[j]
        trees = [u for u in dict.fromkeys(trees) if u != NIL]
        for u, w in zip(trees, trees[1:] + trees[:1]):
            prv[u] = NIL
            nxt[u] = w
        self._first = trees[0] if trees else NIL

    # -- conveniences ---------------------------------------------------

    def decrease_key_by(self, h: NodeHandle, delta) -> None:
        """Integer convenience: lower the key at h by a non-negative delta."""
        if delta < 0:
            raise HeapError("delta must be non-negative")
        i = self.pool._check(h)
        self.decrease_key(h, self.pool.keys[i] - delta)
