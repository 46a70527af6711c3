"""Reference heaps the benchmarks compare against.

Both expose the violation heap's surface: insert returns a handle,
delete_min returns (key, item), decrease_key takes the handle,
``a.meld(b)`` empties b into a and returns a, and ``spawn`` makes an
empty heap sharing a's Telemetry.  BinaryHeap pays O(log n) per
decrease and O(n log n) per meld; PairingHeap is the strong practical
baseline with cheap decrease and O(1) meld.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .heap_core import EmptyHeapError, HeapError, StaleHandleError, Telemetry

# ids unique across instances so melded heaps never collide
_binary_ids = itertools.count()


class BinaryHeap:
    """Array-backed binary min-heap with an id-to-slot map.

    Handles are plain ints.  A deleted element's id goes stale and any
    later decrease_key on it raises StaleHandleError.
    """

    def __init__(self):
        self._arr: list[tuple] = []    # (key, id)
        self._pos: dict[int, int] = {}
        self._items: dict[int, object] = {}
        self.telemetry = Telemetry()

    def __len__(self) -> int:
        return len(self._arr)

    def is_empty(self) -> bool:
        return not self._arr

    def is_live(self, ident: int) -> bool:
        return ident in self._pos

    def spawn(self) -> "BinaryHeap":
        h = BinaryHeap()
        h.telemetry = self.telemetry
        return h

    def insert(self, key, item=None) -> int:
        if key != key:
            raise HeapError("NaN key")
        ident = next(_binary_ids)
        self._items[ident] = item
        self._arr.append((key, ident))
        self._pos[ident] = len(self._arr) - 1
        self._sift_up(len(self._arr) - 1)
        return ident

    def find_min(self) -> Optional[tuple]:
        if not self._arr:
            return None
        key, ident = self._arr[0]
        return key, self._items[ident]

    def delete_min(self) -> tuple:
        arr = self._arr
        pos = self._pos
        if not arr:
            raise EmptyHeapError("empty")
        top = arr[0]
        last = arr.pop()
        if arr:
            arr[0] = last
            pos[last[1]] = 0
            try:
                self._sift_down(0)
            except BaseException:
                # the sift put last back at the root: it returns to the
                # end and the minimum to the root, as before the call
                arr[0] = top
                pos[top[1]] = 0
                arr.append(last)
                pos[last[1]] = len(arr) - 1
                raise
        key, ident = top
        del pos[ident]
        return key, self._items.pop(ident)

    def decrease_key(self, ident: int, new_key) -> None:
        pos = self._pos.get(ident)
        if pos is None:
            raise StaleHandleError(f"stale id {ident}")
        key, _ = self._arr[pos]
        if not new_key <= key:   # also refuses NaN
            raise HeapError("key increase not supported")
        self._arr[pos] = (new_key, ident)
        self._sift_up(pos)

    def meld(self, other: "BinaryHeap") -> "BinaryHeap":
        """Absorb the other heap's elements; the other heap empties."""
        if other is self:
            raise HeapError("cannot meld a heap with itself")
        for key, ident in other._arr:
            self._arr.append((key, ident))
            self._pos[ident] = len(self._arr) - 1
            self._items[ident] = other._items[ident]
            self._sift_up(len(self._arr) - 1)
        other._arr.clear()
        other._pos.clear()
        other._items.clear()
        return self

    def _sift_up(self, i: int) -> None:
        arr = self._arr
        pos = self._pos
        t = self.telemetry
        entry = arr[i]
        # the finally fills the hole with entry even if a comparison
        # raises, so no entry is lost or duplicated
        try:
            while i > 0:
                parent = (i - 1) >> 1
                t.comparisons += 1
                if arr[parent][0] <= entry[0]:
                    break
                arr[i] = arr[parent]
                pos[arr[i][1]] = i
                i = parent
        finally:
            arr[i] = entry
            pos[entry[1]] = i

    def _sift_down(self, i: int) -> None:
        arr = self._arr
        pos = self._pos
        t = self.telemetry
        n = len(arr)
        entry = arr[i]
        start = i
        try:
            while True:
                left = 2 * i + 1
                if left >= n:
                    break
                child = left
                right = left + 1
                if right < n:
                    t.comparisons += 1
                    if arr[right][0] < arr[left][0]:
                        child = right
                t.comparisons += 1
                if entry[0] <= arr[child][0]:
                    break
                arr[i] = arr[child]
                pos[arr[i][1]] = i
                i = child
        except BaseException:
            # a comparison raised: walk the path back up, moving each
            # entry down again, so entry ends where it started
            while i > start:
                parent = (i - 1) >> 1
                arr[i] = arr[parent]
                pos[arr[i][1]] = i
                i = parent
            raise
        finally:
            arr[i] = entry
            pos[entry[1]] = i


class _PNode:
    __slots__ = ("key", "item", "child", "sibling", "prev", "alive")

    def __init__(self, key, item):
        self.key = key
        self.item = item
        self.child = None
        self.sibling = None
        self.prev = None     # parent when first child, else left sibling
        self.alive = True


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

    def is_empty(self) -> bool:
        return self._root is None

    def is_live(self, node: _PNode) -> bool:
        return node.alive

    def spawn(self) -> "PairingHeap":
        h = PairingHeap()
        h.telemetry = self.telemetry
        return h

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
        if other is self:
            raise HeapError("cannot meld a heap with itself")
        if other._root is not None:
            self._root = other._root if self._root is None \
                else self._link(self._root, other._root)
            self._count += other._count
        other._root = None
        other._count = 0
        return self

    def _link(self, a: _PNode, b: _PNode) -> _PNode:
        t = self.telemetry
        t.comparisons += 1
        t.joins += 1
        if b.key < a.key:
            a, b = b, a
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
