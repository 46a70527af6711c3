"""Reference heaps the benchmarks compare against.

Both expose the violation heap's surface: insert returns a handle,
delete_min returns (key, item), decrease_key takes the handle,
``a.meld(b)`` empties b, a heap of a's class, into a and returns a,
and ``spawn`` makes an empty heap sharing a's Telemetry.  As in the
violation heap, a handle is the object that stores its element.
BinaryHeap pays O(log n) per decrease and O(n log n) per meld;
PairingHeap is the strong practical baseline with cheap decrease and
O(1) meld.
"""

from __future__ import annotations

from typing import Optional

from .heap_core import (EmptyHeapError, HeapError, StaleHandleError, Telemetry, check_meld,
                        spawn)


class _BEntry:
    __slots__ = ("key", "item", "pos")

    def __init__(self, key, item, pos: int):
        self.key = key
        self.item = item
        self.pos = pos       # its slot in the array of the heap holding it


class BinaryHeap:
    """Array-backed binary min-heap.  Handles are the array's entries.

    An entry is live in heap h exactly when ``h._arr[e.pos] is e``, so a
    deleted entry, and a live entry of another heap, both go stale here.

    Each sift compares first and moves after: it walks its path to the
    slot where the entry settles, touching nothing, and only then moves
    the entries along that path.  A comparison that raises inside
    insert, decrease_key or delete_min therefore leaves no trace, not
    even in the counters.
    """

    def __init__(self):
        self._arr: list[_BEntry] = []
        self.telemetry = Telemetry()

    def __len__(self) -> int:
        return len(self._arr)

    def is_live(self, e: _BEntry) -> bool:
        arr = self._arr
        return e.pos < len(arr) and arr[e.pos] is e

    spawn = spawn

    def insert(self, key, item=None) -> _BEntry:
        if key != key:
            raise HeapError("NaN key")
        e = _BEntry(key, item, len(self._arr))
        self._rise(e, key, e.pos)
        return e

    def find_min(self) -> Optional[tuple]:
        if not self._arr:
            return None
        e = self._arr[0]
        return e.key, e.item

    def delete_min(self) -> tuple:
        arr = self._arr
        if not arr:
            raise EmptyHeapError("empty")
        top = arr[0]
        n = len(arr) - 1
        if n:
            # the last entry settles among the first n slots, over top;
            # its own slot is then dropped
            self._sink(arr[n], n)
        arr.pop()
        return top.key, top.item

    def decrease_key(self, e: _BEntry, new_key) -> None:
        if not self.is_live(e):
            raise StaleHandleError("handle is not live in this binary heap")
        if not new_key <= e.key:   # also refuses NaN
            raise HeapError("key increase not supported")
        self._rise(e, new_key, e.pos)

    def meld(self, other: "BinaryHeap") -> "BinaryHeap":
        """Absorb the other heap's elements; the other heap empties.

        Entries leave the end of other's array one at a time, each only
        once its place here is found.  If a comparison raises, both heaps
        are still valid and every element is in exactly one of them.
        """
        check_meld(self, other)
        rest = other._arr
        while rest:
            e = rest[-1]
            self._rise(e, e.key, len(self._arr))
            rest.pop()
        return self

    def _rise(self, e: _BEntry, key, i: int) -> None:
        # give e the key and settle it on slot i's ancestor chain; slot i
        # is e's own, or one past the end for an entry that joins
        arr = self._arr
        j = i
        c = 0
        while j > 0:
            p = (j - 1) >> 1
            c += 1
            if arr[p].key <= key:
                break
            j = p
        self.telemetry.comparisons += c
        # compared without raising: now store and move
        e.key = key
        if i == len(arr):
            arr.append(e)
        while i > j:
            p = (i - 1) >> 1
            a = arr[p]
            arr[i] = a
            a.pos = i
            i = p
        arr[j] = e
        e.pos = j

    def _sink(self, e: _BEntry, n: int) -> None:
        # settle e from the root over the first n slots, replacing the
        # root's entry: follow the smaller child while it is below e
        arr = self._arr
        key = e.key
        j = 0
        c = 0
        while True:
            left = 2 * j + 1
            if left >= n:
                break
            child = left
            right = left + 1
            if right < n:
                c += 1
                if arr[right].key < arr[left].key:
                    child = right
            c += 1
            if key <= arr[child].key:
                break
            j = child
        self.telemetry.comparisons += c
        # compared without raising: the path is j's ancestor chain, and
        # each entry on it moves up one slot as e takes j
        while j > 0:
            a = arr[j]
            arr[j] = e
            e.pos = j
            e = a
            j = (j - 1) >> 1
        arr[0] = e
        e.pos = 0


class _PNode:
    __slots__ = ("key", "item", "child", "sibling", "prev", "alive")

    def __init__(self, key, item):
        self.key = key
        self.item = item
        self.child = None
        self.sibling = None
        self.prev = None     # parent when first child, else left sibling
        self.alive = True    # a removed root has a live singleton's links


class PairingHeap:
    """Two-pass pairing heap.  Handles are the node objects themselves.

    Telemetry counts every pairwise link under ``joins`` and every
    decrease-triggered detach under ``cuts``.
    """

    def __init__(self):
        self._root: Optional[_PNode] = None
        self._count = 0
        self.telemetry = Telemetry()

    def __len__(self) -> int:
        return self._count

    def is_live(self, node: _PNode) -> bool:
        return node.alive

    spawn = spawn

    def __del__(self) -> None:
        # tear the dropped heap down, as ViolationHeap does: every cycle
        # closes through a prev link, so with each prev cleared, child
        # and sibling form a forest that reference counting frees now.
        # Each node is marked removed, and a node already not alive ends
        # a walk, so the walk ends on a corrupt heap too
        stack = [self._root]
        while stack:
            x = stack.pop()
            while x is not None and x.alive:
                x.alive = False
                x.prev = None
                stack.append(x.child)
                x = x.sibling

    def insert(self, key, item=None) -> _PNode:
        if key != key:
            raise HeapError("NaN key")
        node = _PNode(key, item)
        self._root = node if self._root is None else self._link(self._root, node)
        self._count += 1
        return node

    def find_min(self) -> Optional[tuple]:
        if self._root is None:
            return None
        return self._root.key, self._root.item

    def delete_min(self) -> tuple:
        root = self._root
        if root is None:
            raise EmptyHeapError("empty")
        self._root = self._combine(root)
        root.child = None    # a held handle pins no other node
        root.alive = False
        self._count -= 1
        return root.key, root.item

    def decrease_key(self, node: _PNode, new_key) -> None:
        if not node.alive:
            raise StaleHandleError("stale pairing-heap handle")
        if self._root is None:
            raise HeapError("handle does not belong to this empty heap")
        if not new_key <= node.key:   # also refuses NaN
            raise HeapError("key increase not supported")
        root = self._root
        if node is root:
            node.key = new_key
            return
        # the link's one comparison comes before the key is stored or the
        # node cut: a key that raises leaves no trace
        new_min = new_key < root.key
        t = self.telemetry
        t.comparisons += 1
        t.joins += 1
        t.cuts += 1
        node.key = new_key
        prev = node.prev
        if prev.child is node:
            prev.child = node.sibling
        else:
            prev.sibling = node.sibling
        if node.sibling is not None:
            node.sibling.prev = prev
        node.prev = node.sibling = None
        # the link, its comparison already made: the loser becomes the
        # winner's first child
        a, b = (node, root) if new_min else (root, node)
        b.prev = a
        b.sibling = a.child
        if a.child is not None:
            a.child.prev = b
        a.child = b
        self._root = a

    def meld(self, other: "PairingHeap") -> "PairingHeap":
        """Absorb the other heap's elements; the other heap empties."""
        check_meld(self, other)
        if other._root is not None:
            self._root = other._root if self._root is None \
                else self._link(self._root, other._root)
            self._count += other._count
        other._root = None
        other._count = 0
        return self

    def _link(self, a: _PNode, b: _PNode) -> _PNode:
        # count only once the comparison has not raised
        if b.key < a.key:
            a, b = b, a
        t = self.telemetry
        t.comparisons += 1
        t.joins += 1
        b.prev = a
        b.sibling = a.child
        if a.child is not None:
            a.child.prev = b
        a.child = b
        return a

    def _combine(self, parent: _PNode) -> Optional[_PNode]:
        # pass one pairs parent's children left to right, pass two folds
        # right to left.  A pair is detached only after its link, so when
        # a comparison raises, every tree is in pairs, or is root, or is
        # still on the sibling chain from cur; they all go back under
        # parent, whose key is at most theirs, and the heap is unchanged.
        pairs = []
        cur = parent.child
        root = None
        try:
            while cur is not None:
                b = cur.sibling
                nxt = b.sibling if b is not None else None
                w = cur if b is None else self._link(cur, b)
                w.sibling = w.prev = None
                pairs.append(w)
                cur = nxt
            if pairs:
                root = pairs.pop()
            while pairs:
                root = self._link(pairs[-1], root)
                pairs.pop()
        except BaseException:
            trees = pairs + ([root] if root is not None else [])
            while cur is not None:
                trees.append(cur)
                cur = cur.sibling
            parent.child = trees[0]
            trees[0].prev = parent
            for a, b in zip(trees, trees[1:]):
                a.sibling = b
                b.prev = a
            raise
        return root
