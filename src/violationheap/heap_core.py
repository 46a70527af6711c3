"""Mergeable min-heap with rank-repair instead of cascaded cuts.

The structure is a set of heap-ordered, node-disjoint multiary trees.
Roots sit on a singly linked circular list whose designated first root
always carries a minimum key.  Child lists are doubly linked and ordered
oldest to newest; a parent's ``down`` link names its newest (last) child.
A node spends exactly three links:

    down  last child, or None
    nxt   for a root: the next root on the circular list;
          for a last child: the parent;
          otherwise: the next newer sibling
    prv   the next older sibling; None for the oldest child and for roots

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

Each element is one node object, and the node is the handle ``insert``
returns.  Removing the element clears the node's ``alive`` flag, so
operations on a stale handle raise instead of corrupting the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional


class HeapError(Exception):
    """Misuse of the heap API (bad meld, bad key, decrease on an empty heap)."""


class StaleHandleError(HeapError):
    """The handle's element was removed from its heap after issue."""


class EmptyHeapError(HeapError):
    """delete_min on an empty heap."""


class NodeHandle:
    """One stored element, and the stable reference insert returns for it."""

    __slots__ = ("key", "item", "rank", "down", "nxt", "prv", "alive")

    def __init__(self, key, item, nxt: Optional["NodeHandle"]) -> None:
        self.key = key
        self.item = item
        self.rank = 0
        self.down = None
        self.nxt = nxt
        self.prv = None
        self.alive = True

    def __repr__(self) -> str:
        return f"NodeHandle({self.key!r}, {self.item!r})"


@dataclass
class Telemetry:
    """Monotone operation counters shared by every heap in one family.

    ``max_rank`` is a high-water mark over every rank the family ever
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


def _recalc(x: NodeHandle) -> int:
    d = x.down
    if d is None:
        return 0
    d2 = d.prv
    return rank_from_pair(d.rank, d2.rank if d2 is not None else -1)


def _active_parent(c: NodeHandle) -> Optional[NodeHandle]:
    # c's parent when c is one of its parent's two newest children, else
    # None: a last child's nxt is the parent, a second-to-last child's nxt
    # is the last child, whose nxt is the parent
    y = c.nxt
    if y.down is c:
        return y
    if y.prv is c:
        z = y.nxt
        if z.down is y:
            return z
    return None


def _in_flight(s1: list, s2: list, v, i: NodeHandle, rest: NodeHandle,
               z: NodeHandle) -> list:
    # the trees of a consolidation under way: each is in a slot, or is the
    # incoming tree v, or is still unwalked along nxt from i and from rest
    # up to z (v may also sit in a slot or head i, hence the dedupe)
    trees = [u for pair in zip(s1, s2) for u in pair]
    trees.append(v)
    for j in (i, rest):
        while j is not z:
            trees.append(j)
            j = j.nxt
    return [u for u in dict.fromkeys(trees) if u is not None]


# public only because perfbench names NodePool().new_heap() and heap.pool
class NodePool:
    """The family a ``ViolationHeap()`` starts and its ``spawn()`` joins:
    shared counters and join hook.

    Heaps from different families cannot meld, since ``delete_min`` sizes
    its rank slots from the family's shared ``max_rank``.
    """

    def __init__(self) -> None:
        self.telemetry = Telemetry()
        # debug hook: called with "before" / "after" and the trees in
        # flight (every tree of the heap being consolidated) around every
        # 3-way join; one that raises is handled like a key comparison
        # that raises
        self.join_hook = None

    def new_heap(self) -> "ViolationHeap":
        """Create a fresh empty heap in this family."""
        h = ViolationHeap()
        h.pool = self
        h.telemetry = self.telemetry
        return h


class ViolationHeap:
    """One meldable min-heap.

    find_min and insert are O(1), meld is O(1), decrease_key is amortized
    O(1), delete_min is amortized O(log n).  ``ViolationHeap()`` starts
    a family of its own: fresh ``Telemetry`` and no join hook.  ``spawn``
    makes an empty sibling that shares both and can meld with this heap;
    meld empties its argument into this heap.
    """

    def __init__(self) -> None:
        self.pool = NodePool()
        self.telemetry = self.pool.telemetry
        self._first: Optional[NodeHandle] = None
        self._count = 0

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return len(self) == 0

    def is_live(self, h: NodeHandle) -> bool:
        """True while the handle's element has not been removed."""
        return h.alive

    def find_min(self) -> Optional[tuple]:
        """(key, item) of a minimum element, or None when empty."""
        f = self._first
        if f is None:
            return None
        return f.key, f.item

    def spawn(self) -> "ViolationHeap":
        """An empty heap in the same family, so it can meld with this one."""
        return self.pool.new_heap()

    # -- updates --------------------------------------------------------

    def insert(self, key, item=None) -> NodeHandle:
        """Add one element as a rank-0 root.

        The node lands first on the root list when it carries a new
        minimum, otherwise second (right behind the first root).
        """
        # NaN is unordered: as a key it would stay the minimum forever
        if key != key:
            raise HeapError("NaN key")
        f = self._first
        if f is None:
            x = NodeHandle(key, item, None)
            x.nxt = x
            self._first = x
        else:
            # compare before linking: a key that raises leaves no trace
            new_min = key < f.key
            self.telemetry.comparisons += 1
            x = NodeHandle(key, item, f.nxt)
            f.nxt = x
            if new_min:
                self._first = x
        self._count += 1
        return x

    def meld(self, other: "ViolationHeap") -> "ViolationHeap":
        """Move every element of other, a heap of the same family, into this
        one; other is left empty and usable.  Returns self.

        The circular root lists are spliced in O(1); the smaller of the
        two minimums becomes the first root, this heap winning ties.
        """
        if other is self:
            raise HeapError("cannot meld a heap with itself")
        if other.pool is not self.pool:
            raise HeapError("cannot meld heaps of different families")
        f1, f2 = self._first, other._first
        if f1 is None:
            self._first = f2
        elif f2 is not None:
            # compare before splicing: a key that raises leaves no trace
            self._first = f2 if f2.key < f1.key else f1
            self.telemetry.comparisons += 1
            # exchanging the two successors merges the two cycles
            f1.nxt, f2.nxt = f2.nxt, f1.nxt
        self._count += other._count
        other._first = None
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
        if not h.alive:
            raise StaleHandleError(f"stale handle {h!r}")
        x = h
        f = self._first
        if f is None:
            raise HeapError("handle does not belong to this empty heap")
        # NaN fails <= against anything, so it is refused here too
        if not new_key <= x.key:
            raise HeapError("key increase not supported")
        t = self.telemetry

        # x is an active child when it has an active parent, and that
        # parent's last child when the parent is y; otherwise x is an
        # older child, whose newer sibling y points back at it, or a root
        parent = _active_parent(x)
        y = x.nxt
        if parent is None and y.prv is not x:
            # x is a root; the designation is the only thing to fix
            new_min = new_key < f.key
            t.comparisons += 1
            x.key = new_key
            if new_min:
                self._first = x
            return

        # compare before storing or cutting: a key that raises leaves no trace
        if parent is not None and not new_key < parent.key:
            t.comparisons += 1
            x.key = new_key
            return
        new_min = new_key < f.key
        t.comparisons += 1 if parent is None else 2
        x.key = new_key

        # cut x; glue its higher-ranked active child g (ties: the last one)
        # into x's old position so the parent's child count is preserved
        t.cuts += 1
        xp = x.prv
        d = x.down
        if d is None:
            # no child to glue: x's neighbours close the gap
            after_xp, before_y = y, xp
        else:
            d2 = d.prv
            g = d2 if d2 is not None and d2.rank > d.rank else d
            # g's older sibling takes g's place among x's children
            gp = g.prv
            if g is d:
                x.down = gp
            else:
                d.prv = gp
            if gp is not None:
                gp.nxt = g.nxt
            g.nxt = y
            g.prv = xp
            after_xp = before_y = g
        if xp is not None:
            xp.nxt = after_xp
        if y is parent:
            y.down = before_y
        else:
            y.prv = before_y

        r = _recalc(x)
        x.rank = r
        if r > t.max_rank:
            t.max_rank = r

        x.prv = None
        x.nxt = f.nxt
        f.nxt = x
        if new_min:
            self._first = x

        # rank repair walks up from the old parent, shrinking ranks the
        # active-children formula no longer supports.  The parent is
        # recalculated even when it is not active; each further step needs
        # the current node to be active.  Every executed update must be a
        # decrease of exactly one.
        c = parent
        while c is not None:
            r = _recalc(c)
            old = c.rank
            if r >= old:
                return
            assert old - r == 1, "rank repair step larger than one"
            c.rank = r
            t.rank_update_steps += 1
            c = _active_parent(c)

    def delete_min(self) -> tuple:
        """Remove and return a minimum (key, item).

        The first root is removed and its children become trees.  The
        other roots, then the children (oldest first), are walked where
        they lie into two slots per rank; a third tree that meets a full
        rank is joined with both into one tree of the next rank, which
        moves on up.  The survivors are relinked from the slots in
        ascending rank order, with a minimum as the first root.  While
        the trees are in flight the heap has no root list.

        When a key comparison raises, the minimum stays in the heap as
        the childless first root, with every other tree on the root cycle
        behind it, and the exception propagates: the heap holds the same
        elements and answers find_min as before the call, though a rank
        may hold three or more roots until the next delete_min.  Joins
        already made stay, and stay counted; a comparison that raised is
        not counted.
        """
        if self._count == 0:
            raise EmptyHeapError("empty")
        t = self.telemetry
        z = self._first
        self._first = None

        # the other roots run from z.nxt and z's children from the oldest
        # (rest), both along nxt and both ending at z
        i = z.nxt
        rest = z.down if z.down is not None else z
        while rest.prv is not None:
            rest = rest.prv

        # every rank is at most max_rank; a join may make max_rank + 1
        s1 = [None] * (t.max_rank + 2)
        s2 = s1[:]
        hook = self.pool.join_hook
        v = None
        try:
            while True:
                if i is z:
                    if rest is z:
                        break
                    i, rest = rest, z
                v = i
                i = v.nxt
                v.prv = None
                while True:
                    r = v.rank
                    a = s1[r]
                    if a is None:
                        s1[r] = v
                        break
                    b = s2[r]
                    if b is None:
                        s2[r] = v
                        break
                    # 3-way join: the smallest key (ties: a, b, v) wins and
                    # links the other two as its newest children, in that
                    # order, then gains one rank.  Compare before clearing
                    # the slots, so a key that raises loses no tree, and
                    # count the two comparisons only once both are made.
                    if hook is not None:
                        hook("before", _in_flight(s1, s2, v, i, rest, z))
                    assert a.rank == b.rank == r, "3-way join needs equal ranks"
                    w = a
                    if b.key < w.key:
                        w = b
                    if v.key < w.key:
                        w = v
                    t.comparisons += 2
                    s1[r] = s2[r] = None
                    if w is a:
                        l1, l2 = b, v
                    elif w is b:
                        l1, l2 = a, v
                    else:
                        l1, l2 = a, b
                    # the winner's two active children are reordered if the
                    # older outranks the newer, so the higher-ranked one
                    # stays closer to the end of the child list
                    last = w.down
                    if last is not None:
                        s = last.prv
                        if s is not None and s.rank > last.rank:
                            p = s.prv
                            last.prv = p
                            if p is not None:
                                p.nxt = last
                            last.nxt = s
                            s.prv = last
                            last = s
                        last.nxt = l1
                    l1.prv = last
                    l1.nxt = l2
                    l2.prv = l1
                    l2.nxt = w
                    w.down = l2
                    r += 1
                    w.rank = r
                    t.joins += 1
                    if r > t.max_rank:
                        t.max_rank = r
                        if r == len(s1):
                            s1.append(None)
                            s2.append(None)
                    v = w
                    if hook is not None:
                        hook("after", _in_flight(s1, s2, v, i, rest, z))

            # relink the survivors in ascending rank, s1 before s2, and
            # make the first minimum met the first root
            first = last = best = None
            for u in chain.from_iterable(zip(s1, s2)):
                if u is None:
                    continue
                if last is None:
                    first = best = u
                    bk = u.key
                else:
                    last.nxt = u
                    k = u.key
                    if k < bk:
                        best = u
                        bk = k
                    t.comparisons += 1
                last = u
            if last is not None:
                last.nxt = first
        except BaseException:
            # z's key is at most every other key: it goes back in front
            # of all the trees, childless, and nothing is lost
            trees = _in_flight(s1, s2, v, i, rest, z)
            z.down = None
            z.rank = 0
            for u, w in zip([z] + trees, trees + [z]):
                u.prv = None
                u.nxt = w
            self._first = z
            raise
        self._first = best
        # a removed node keeps no link, so a handle held on to pins
        # only its own element, not the trees it used to reach
        z.down = z.nxt = None
        z.alive = False
        self._count -= 1
        return z.key, z.item
