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
per rank in one interleaved slot list (rank r's two slots at 2r and
2r + 1), and joins a third with both into one tree of rank one higher.
The heap keeps that list while its root list is still exactly the
survivors it was relinked from, and the next ``delete_min`` then walks
only the old minimum's children; ``insert``, ``meld`` and a cut drop it.
``decrease_key`` cuts at most one node, glues one of its children into
the gap, and walks ranks upward, each executed update decreasing a
stored rank by exactly one.

Each element is one node object, and the node is the handle ``insert``
returns.  A live node has a successor (next root, parent or newer
sibling); removal clears the links, so using a stale handle raises.
Every reference cycle among the nodes closes through a successor link,
so a dropped heap clears each node's: its nodes are then a forest that
reference counting frees at once, and its handles read as removed.

Every walk ends, on a corrupt heap too:

    teardown        stops at a cleared successor
    repair walk     each step lowers a rank by one; no rank is below 0
    delete_min      the walk to the oldest child clears each prv it
                    passes; the walk of the roots and children stops at
                    the old minimum, and raises HeapError at a removed
                    node or at a rank no tree of the heap's size can
                    carry (on a list that never returns, the joins lift
                    ranks without end); the relink walks the slot list
                    once; the rollback stops each chain at the old
                    minimum, at a removed node, or after as many nodes
                    as the heap holds
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional


class HeapError(Exception):
    """Misuse of the heap API (bad meld, bad key, decrease on an empty heap,
    a call into a violation heap while its own delete_min runs)."""


class StaleHandleError(HeapError):
    """The handle's element was removed from its heap after issue."""


class EmptyHeapError(HeapError):
    """delete_min on an empty heap."""


# a delete_min in flight leaves its heap no root list (_first is None)
# while it still holds elements (_count > 0): a key comparison that calls
# back into that heap is refused with this message before anything changes
_IN_FLIGHT = "called while this heap's own delete_min runs"


class NodeHandle:
    """One stored element, and the stable reference insert returns for it."""

    __slots__ = ("key", "item", "rank", "down", "nxt", "prv")

    def __init__(self, key, item, nxt: Optional["NodeHandle"]) -> None:
        self.key = key
        self.item = item
        self.rank = 0
        self.down = None
        self.nxt = nxt
        self.prv = None

    def __repr__(self) -> str:
        return f"NodeHandle({self.key!r}, {self.item!r})"


@dataclass
class Telemetry:
    """Monotone operation counters shared by every heap in one family.

    ``max_rank`` is the high-water mark of every rank assigned in the
    family or brought into it by ``meld``.  ``rank_update_steps`` counts
    executed rank decreases during upward propagation, which is the
    length of the repair walk each decrease-key pays for.  ``delete_min``
    adds its comparisons and joins, and lifts ``max_rank``, once per
    call, when it returns or raises; a join hook sees the counters as
    they stood before the call.  This object is the family's only
    record: every sibling ``spawn`` makes shares it, join hook included.
    """

    # debug hook, a class attribute and not a counter field: called with
    # "before" / "after" and the trees in flight (every tree of the heap
    # being consolidated) around every 3-way join; one that raises is
    # handled like a key comparison that raises.  The counters it reads
    # are those from before the delete_min: the call adds its own when it
    # returns or raises
    join_hook: ClassVar[Optional[Callable]] = None

    comparisons: int = 0
    joins: int = 0
    cuts: int = 0
    rank_update_steps: int = 0
    max_rank: int = 0


def spawn(heap):
    """An empty heap of heap's class in heap's family: it shares the
    ``Telemetry``, so the counters and the join hook alike."""
    h = type(heap)()
    h.telemetry = heap.telemetry
    return h


def check_meld(heap, other) -> None:
    """Refuse to meld a heap with itself or with a heap of another class."""
    if other is heap:
        raise HeapError("cannot meld a heap with itself")
    if type(other) is not type(heap):
        raise HeapError(f"cannot meld a {type(other).__name__} "
                        f"into a {type(heap).__name__}")


def rank_from_pair(r1: int, r2: int) -> int:
    """ceil((r1 + r2) / 2) + 1, exact for negative sums.

    Python's // floors, so (s + 1) // 2 is the ceiling of s / 2 for any
    integer s, including s in {-2, -1} which occur for missing children.
    """
    return (r1 + r2 + 1) // 2 + 1


GOLDEN = (1 + math.sqrt(5)) / 2


def max_rank_bound(n: int) -> int:
    """Largest rank any node may carry in a heap of n nodes: a tree of
    rank r holds at least fib(r) >= phi^(r-1) nodes, as the proof in
    ``invariants``' module docstring derives from the rank formula."""
    if n <= 1:
        return 2
    return math.ceil(math.log(n, GOLDEN)) + 2


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


def _in_flight(s: list, v, i: NodeHandle, rest: NodeHandle,
               z: NodeHandle, n: int) -> list:
    # the trees of a consolidation under way: each is in a slot, or is the
    # incoming tree v, or is still unwalked along nxt from i and from rest
    # up to z (v may also sit in a slot or head i, hence the dedupe).  On
    # a corrupt list a chain also stops at a None, past a removed node,
    # or after n nodes, the heap's size
    trees = s + [v]
    for j in (i, rest):
        for _ in range(n):
            if j is z or j is None:
                break
            trees.append(j)
            j = j.nxt
    return [u for u in dict.fromkeys(trees) if u is not None]


class ViolationHeap:
    """One meldable min-heap.

    find_min and insert are O(1), meld is O(1), decrease_key is amortized
    O(1), delete_min is amortized O(log n).  ``ViolationHeap()`` starts
    a family of its own: a fresh ``Telemetry``, with no join hook.
    ``spawn`` makes an empty sibling that shares it.  meld empties any
    other violation heap into this one.
    """

    def __init__(self) -> None:
        self.telemetry = Telemetry()
        self._first: Optional[NodeHandle] = None
        self._count = 0
        # the slot list the last delete_min relinked the roots from, kept
        # while the root list is exactly those roots with those ranks
        self._slots: Optional[list] = None

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def is_live(self, h: NodeHandle) -> bool:
        """True while the handle's element has not been removed."""
        return h.nxt is not None

    def find_min(self) -> Optional[tuple]:
        """(key, item) of a minimum element, or None when empty."""
        f = self._first
        if f is None:
            return None
        return f.key, f.item

    spawn = spawn

    def __del__(self) -> None:
        # tear the dropped heap down, so that reference counting frees
        # its nodes now instead of the cyclic collector later: every
        # cycle closes through a nxt link, and with each nxt cleared,
        # down and prv form a forest.  A nxt already None ends a walk,
        # so the walks end on a corrupt heap too.  No key is compared
        # and nothing raises; every handle then reads as removed
        stack = []
        x = self._first
        while x is not None and x.nxt is not None:
            stack.append(x)
            y = x.nxt
            x.nxt = None
            x = y
        while stack:
            c = stack.pop().down
            while c is not None and c.nxt is not None:
                c.nxt = None
                stack.append(c)
                c = c.prv

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
            if self._count:
                raise HeapError(_IN_FLIGHT)
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
        self._slots = None
        self._count += 1
        return x

    def meld(self, other: "ViolationHeap") -> "ViolationHeap":
        """Move every element of other, any violation heap, into this one;
        other is left empty and usable.  Returns self.

        The circular root lists are spliced in O(1); the smaller of the
        two minimums becomes the first root, this heap winning ties.
        Other's ranks come along, so this family's ``max_rank`` rises to
        at least other's and stays at or above every rank it holds: a
        fresh ``delete_min`` slot list takes its length from it.
        """
        check_meld(self, other)
        t = self.telemetry
        f1, f2 = self._first, other._first
        if (f1 is None and self._count) or (f2 is None and other._count):
            raise HeapError(_IN_FLIGHT)
        if f1 is None:
            self._first = f2
        elif f2 is not None:
            # compare before splicing: a key that raises leaves no trace
            self._first = f2 if f2.key < f1.key else f1
            t.comparisons += 1
            # exchanging the two successors merges the two cycles
            f1.nxt, f2.nxt = f2.nxt, f1.nxt
        self._slots = other._slots = None
        t.max_rank = max(t.max_rank, other.telemetry.max_rank)
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
        if h.nxt is None:
            raise StaleHandleError(f"stale handle {h!r}")
        x = h
        f = self._first
        if f is None:
            raise HeapError(_IN_FLIGHT if self._count
                            else "handle does not belong to this empty heap")
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
        self._slots = None
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

        # a child ranks below the join winner it was linked under, and a
        # child's rank only falls: a rank from x's children <= max_rank
        x.rank = _recalc(x)

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
        they lie into one slot list that holds rank r's two slots at 2r
        and 2r + 1; a third tree that meets a full rank is joined with
        both into one tree of the next rank, which moves on up two slots.
        The survivors are relinked by one walk of the list, so in
        ascending rank order, with a minimum as the first root.  While
        the trees are in flight the heap has no root list, and a call
        into it from a key comparison (``insert``, ``meld``,
        ``decrease_key`` or ``delete_min``) raises ``HeapError`` before
        it changes anything; raised through the comparison, it rolls
        this call back as below.

        The heap keeps that list as ``_slots`` until ``insert``, ``meld``
        or a cut changes the root list.  A fresh list has room up to
        rank ``max_rank`` + 1, the one use of the family's ``max_rank``
        here; a kept one has room for every rank its heap holds,
        whatever a sibling did to ``max_rank`` since.  Either grows only
        when a join makes a rank past its end.

        A call that finds the list kept walks no other root: the roots
        hold at most two trees per rank, so the walk would make no join
        and put each back in its slot, except the minimum's partner, which
        moves down to its rank's first slot.  The call takes the minimum
        out of the list, moves the partner and walks the children, with
        the same joins, counters and root order as a call that walks every
        root.

        When a key comparison raises, the minimum stays in the heap as
        the childless first root, with every other tree on the root cycle
        behind it, and the exception propagates: the heap holds the same
        elements and answers find_min as before the call, though a rank
        may hold three or more roots until the next delete_min.  Joins
        already made stay, and stay counted; a comparison that raised is
        not counted.

        On a corrupt root list the call raises ``HeapError`` after the
        same rollback: when the walk meets a removed node, or when a join
        makes a rank past ``max_rank_bound`` of the heap's size, which no
        tree of that many nodes reaches, so the list does not return to
        the minimum.

        The call's comparisons, joins and highest new rank are kept in
        locals and added to ``Telemetry`` once, when the call returns or
        raises, so a join hook sees the counters as they stood before the
        call.
        """
        if self._count == 0:
            raise EmptyHeapError("empty")
        t = self.telemetry
        z = self._first
        if z is None:
            raise HeapError(_IN_FLIGHT)
        self._first = None

        # rank r's two slots are s[2r] and s[2r + 1].  A kept list is
        # stored again only when the call returns
        s = self._slots
        self._slots = None
        if s is None:
            s = [None] * (2 * t.max_rank + 4)
            i = z.nxt
        else:
            # the other roots are in place already: z leaves its rank's
            # pair and its partner moves down to the first slot
            j = z.rank * 2
            if s[j] is z:
                s[j] = s[j + 1]
            s[j + 1] = None
            i = z

        # the roots still to walk run from i (none when i is z) and z's
        # children from the oldest (rest), both along nxt and both ending
        # at z.  A root's prv is None already; the walk to the oldest
        # child clears each child's as it passes, so every tree in flight
        # has prv None
        rest = z.down if z.down is not None else z
        p = rest.prv
        while p is not None:
            rest.prv = None
            rest = p
            p = rest.prv

        hook = t.join_hook
        v = None
        # this call's joins, comparisons and highest rank, added to t once
        # when the call returns or raises: a join hook may drive a sibling
        # heap of the family meanwhile, so t is added to, never assigned
        joins = cmps = 0
        top = len(s) // 2 - 2       # the list has room up to rank top + 1
        try:
            while True:
                if i is z:
                    if rest is z:
                        break
                    i, rest = rest, z
                v = i
                i = v.nxt
                # the join chain carries v's rank r and its slot index j
                r = v.rank
                j = r + r
                while True:
                    a = s[j]
                    if a is None:
                        s[j] = v
                        break
                    b = s[j + 1]
                    if b is None:
                        s[j + 1] = v
                        break
                    # 3-way join: the smallest key (ties: a, b, v) wins and
                    # links the other two as its newest children, in that
                    # order, then gains one rank.  Compare before clearing
                    # the slots, so a key that raises loses no tree, and
                    # count the two comparisons only once both are made.
                    if hook is not None:
                        hook("before", _in_flight(s, v, i, rest, z, self._count))
                    assert a.rank == b.rank == r, "3-way join needs equal ranks"
                    if b.key < a.key:
                        if v.key < b.key:
                            w, l1, l2 = v, a, b
                        else:
                            w, l1, l2 = b, a, v
                    elif v.key < a.key:
                        w, l1, l2 = v, a, b
                    else:
                        w, l1, l2 = a, b, v
                    cmps += 2
                    s[j] = s[j + 1] = None
                    # the winner's two active children are reordered if the
                    # older outranks the newer, so the higher-ranked one
                    # stays closer to the end of the child list
                    last = w.down
                    if last is not None:
                        q = last.prv
                        if q is not None and q.rank > last.rank:
                            p = q.prv
                            last.prv = p
                            if p is not None:
                                p.nxt = last
                            last.nxt = q
                            q.prv = last
                            last = q
                        last.nxt = l1
                    l1.prv = last
                    l1.nxt = l2
                    l2.prv = l1
                    l2.nxt = w
                    w.down = l2
                    r += 1
                    j += 2
                    w.rank = r
                    joins += 1
                    if r > top:
                        top = r
                        if j == len(s):
                            # only roots or children that never return
                            # to z make a rank past the bound
                            if r > max_rank_bound(self._count):
                                raise HeapError(f"rank {r} in a heap of {self._count}: the "
                                                f"roots or children of {z!r} do not return to it")
                            s += (None, None)
                    v = w
                    if hook is not None:
                        hook("after", _in_flight(s, v, i, rest, z, self._count))

            # relink the survivors in slot order, so in ascending rank and
            # each rank's first-filled slot first, and make the first
            # minimum met the first root.  A node defines no __bool__, so
            # every node is true and filter drops only the empty slots
            trees = filter(None, s)
            first = best = last = next(trees, None)
            if first is not None:
                bk = first.key
                for u in trees:
                    last.nxt = u
                    k = u.key
                    if k < bk:
                        best = u
                        bk = k
                    cmps += 1
                    last = u
                last.nxt = first
        except BaseException as exc:
            # z's key is at most every other key: it goes back in front
            # of all the trees, childless, and nothing is lost
            trees = _in_flight(s, v, i, rest, z, self._count)
            z.down = None
            z.rank = 0
            for u, w in zip([z] + trees, trees + [z]):
                u.prv = None
                u.nxt = w
            self._first = z
            if v is None and isinstance(exc, AttributeError):
                # the walk took a removed node's None nxt for a tree
                raise HeapError(f"the roots or children of {z!r} "
                                f"reach a removed node") from exc
            raise
        finally:
            t.joins += joins
            t.comparisons += cmps
            if top > t.max_rank:
                t.max_rank = top
        self._first = best
        self._slots = s
        # a removed node keeps no link: its None nxt marks it removed, and
        # a handle held on to pins its own element, not the trees it left
        z.down = z.nxt = None
        self._count -= 1
        return z.key, z.item


# perfbench's names for ViolationHeap(), spawn() and the family record
NodePool = ViolationHeap
ViolationHeap.new_heap = spawn
ViolationHeap.pool = property(lambda self: self)
