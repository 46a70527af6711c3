"""Differential-testing oracle for the violation heap.

``NaivePQ`` is the one reference model: an unordered list of live
(key, id) entries plus a lazy ``heapq`` over the same tuples.  It is
plain and obviously correct, which is the whole point.  ``gen_ops``
drives a ``NaivePQ`` to build random operation scripts whose alive keys
are always pairwise distinct, so the minimum element is unambiguous and
both structures must delete the same element; ``run_differential``
replays a script against a fresh naive queue and a violation heap side
by side, comparing sizes, minimums, deleted elements, and (at a
configurable cadence) the full structural audit.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .heap_core import EmptyHeapError, HeapError, Telemetry, ViolationHeap
from .invariants import full_audit

# insert, delete_min, decrease_key, meld
DEFAULT_WEIGHTS = (0.45, 0.25, 0.25, 0.05)
# generated keys are drawn from [-KEY_SPAN, KEY_SPAN); a meld op brings a
# side heap of 1 to MELD_BATCH_MAX fresh keys
KEY_SPAN = 10 ** 9
MELD_BATCH_MAX = 4


class NaivePQ:
    """Reference priority queue: no clever structure.

    Elements are named by dense integer ids in insertion order.  Each
    live element owns one (key, id) tuple in ``_entries``, which is kept
    in swap-remove order.  The same tuple object is pushed onto a lazy
    heapq; a heap entry counts only while ``_entries`` still holds that
    very object for its id, so removed and decreased entries are skipped
    when they surface.  Ties on key are broken toward the smaller id,
    which matters only when a script contains duplicate alive keys
    (generated scripts never do).
    """

    def __init__(self):
        self._entries: list[tuple] = []   # live (key, id), swap-remove order
        self._pos: dict[int, int] = {}    # id -> index into _entries
        self._heap: list[tuple] = []      # heapq of (key, id), stale allowed
        self._items: list = []            # dense id -> payload
        self._key_count: dict = {}        # key -> live multiplicity

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, key, item=None) -> int:
        if key != key:
            raise ValueError("NaN key")
        ident = len(self._items)
        self._items.append(item)
        self._pos[ident] = len(self._entries)
        entry = (key, ident)
        self._entries.append(entry)
        heapq.heappush(self._heap, entry)
        self._key_count[key] = self._key_count.get(key, 0) + 1
        return ident

    def ident_at(self, pos: int) -> int:
        """Id of the live element at index pos of the entry list."""
        return self._entries[pos][1]

    def is_live(self, ident: int) -> bool:
        return ident in self._pos

    def key_of(self, ident: int):
        return self._entries[self._pos[ident]][0]

    def item_of(self, ident: int):
        return self._items[ident]

    def key_multiplicity(self, key) -> int:
        return self._key_count.get(key, 0)

    def find_min(self) -> Optional[tuple]:
        """(key, id) of the minimum, or None when empty."""
        heap = self._heap
        entries = self._entries
        pos = self._pos
        while heap:
            top = heap[0]
            p = pos.get(top[1])
            if p is not None and entries[p] is top:
                return top
            heapq.heappop(heap)
        return None

    def delete_min(self) -> tuple:
        """Remove and return (key, item) of the minimum element."""
        top = self.find_min()
        if top is None:
            raise EmptyHeapError("empty")
        heapq.heappop(self._heap)
        key, ident = top
        self._remove(ident)
        self._drop_key(key)
        return key, self._items[ident]

    def decrease_key(self, ident: int, new_key) -> None:
        pos = self._pos.get(ident)
        if pos is None:
            raise KeyError(ident)
        old_key = self._entries[pos][0]
        if not new_key <= old_key:   # also refuses NaN
            raise ValueError("key increase not supported")
        entry = (new_key, ident)
        self._entries[pos] = entry
        heapq.heappush(self._heap, entry)
        self._drop_key(old_key)
        self._key_count[new_key] = self._key_count.get(new_key, 0) + 1

    def _remove(self, ident: int) -> None:
        pos = self._pos.pop(ident)
        last = self._entries.pop()
        if pos < len(self._entries):
            self._entries[pos] = last
            self._pos[last[1]] = pos

    def _drop_key(self, key) -> None:
        c = self._key_count[key] - 1
        if c:
            self._key_count[key] = c
        else:
            del self._key_count[key]


@dataclass
class OpScript:
    """A replayable operation sequence.

    Ops are tuples: ("insert", key), ("deletemin",),
    ("decrease", id, new_key), ("meld", (key, ...)).  Ids number every
    insertion in script order, meld batches included.
    """

    seed: int
    ops: list = field(default_factory=list)
    weights: tuple = DEFAULT_WEIGHTS


def _normalize_weights(weights) -> tuple:
    """Check four insert/delete/decrease/meld weights (non-negative, not
    all zero) and scale them to sum to one."""
    w = tuple(weights)
    if len(w) != 4:
        raise ValueError("expected four weights")
    # NaN fails >= against anything, so it is refused here too
    if not all(x >= 0 for x in w):
        raise ValueError("weights must be non-negative")
    total = sum(w)
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return tuple(x / total for x in w)


def parse_weights(text: str) -> tuple:
    """Parse "a,b,c,d" into normalized insert/delete/decrease/meld weights."""
    return _normalize_weights(float(p) for p in text.split(","))


def gen_ops(seed: int, n_ops: int, weights: tuple = DEFAULT_WEIGHTS) -> OpScript:
    """Build a random script with pairwise-distinct alive keys.

    The script is built by driving a ``NaivePQ``: it supplies the alive
    keys, the minimum each delete removes, and the ids that decreases
    target.  Distinct alive keys make the minimum unique, so a naive
    queue and the heap under test must always agree on which element
    delete_min removes.  Keys freed by deletion may be drawn again later.
    """
    rng = random.Random(seed)
    w = _normalize_weights(weights)
    c1 = w[0]
    c2 = c1 + w[1]
    c3 = c2 + w[2]

    model = NaivePQ()
    ops: list = []

    def fresh_key() -> int:
        while True:
            k = rng.randrange(-KEY_SPAN, KEY_SPAN)
            if not model.key_multiplicity(k):
                return k

    for _ in range(n_ops):
        for _attempt in range(8):
            r = rng.random()
            kind = 0 if r < c1 else 1 if r < c2 else 2 if r < c3 else 3
            if kind in (1, 2) and not model:
                continue
            break
        else:
            kind = 0

        if kind == 0:
            k = fresh_key()
            ops.append(("insert", k))
            model.insert(k)
        elif kind == 1:
            model.delete_min()
            ops.append(("deletemin",))
        elif kind == 2:
            ident = model.ident_at(rng.randrange(len(model)))
            cur = model.key_of(ident)
            # mix local nudges with span-scale drops: nudges mostly stay
            # above the parent, drops force cuts and rank repairs
            hi = 1000 if rng.random() < 0.5 else KEY_SPAN
            while True:
                nk = cur - rng.randrange(1, hi + 1)
                if not model.key_multiplicity(nk):
                    break
            model.decrease_key(ident, nk)
            ops.append(("decrease", ident, nk))
        else:
            batch = []
            for _ in range(rng.randrange(1, MELD_BATCH_MAX + 1)):
                k = fresh_key()
                batch.append(k)
                model.insert(k)
            ops.append(("meld", tuple(batch)))

    return OpScript(seed=seed, ops=ops, weights=w)


@dataclass(kw_only=True)
class Verdict(Telemetry):
    """Outcome of one differential run, plus run statistics: counts per
    op class, audits run, and the heap's ``Telemetry`` counters."""

    seed: int
    op_count: int
    passed: bool
    fail_at: Optional[int] = None
    detail: str = ""
    inserts: int = 0
    deletes: int = 0
    decreases: int = 0
    melds: int = 0
    audits: int = 0
    multiplicity_audits: int = 0

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "ops": self.op_count,
            "verdict": "pass" if self.passed else "fail",
            "fail_at": self.fail_at,
            "detail": self.detail,
        }
        # every other field is a counter
        for f in fields(self):
            if f.name not in doc and f.name not in ("op_count", "passed"):
                doc[f.name] = getattr(self, f.name)
        return json.dumps(doc)


def _resolve_cadence(audit_every: Optional[int], n_ops: int) -> int:
    """0 disables audits; None picks every op for short scripts and a
    sparse schedule for long ones."""
    if audit_every is None:
        return 1 if n_ops <= 2000 else max(1, n_ops // 25)
    return audit_every


def replay(script: OpScript, audit_every: Optional[int] = None) -> Verdict:
    """Run one script against NaivePQ and a fresh violation heap.

    Returns a failing Verdict on the first observable divergence,
    structural audit finding, or heap-side exception.  Scripts with
    duplicate alive keys must not decrease an id after an ambiguous
    deletion; generated scripts never contain duplicates.
    """
    cadence = _resolve_cadence(audit_every, len(script.ops))
    v = Verdict(seed=script.seed, op_count=len(script.ops), passed=False)

    heap = ViolationHeap()
    naive = NaivePQ()
    handles: list = []   # dense id -> NodeHandle

    def fill_stats() -> None:
        for name, value in asdict(heap.telemetry).items():
            setattr(v, name, value)

    def fail(i: int, msg: str) -> Verdict:
        v.fail_at = i
        v.detail = msg
        fill_stats()
        return v

    for i, op in enumerate(script.ops):
        try:
            kind = op[0]
            was_delete = False
            if kind == "insert":
                naive.insert(op[1], len(handles))
                handles.append(heap.insert(op[1], len(handles)))
                v.inserts += 1
            elif kind == "deletemin":
                was_delete = True
                v.deletes += 1
                nk, nitem = naive.delete_min()
                unique = naive.key_multiplicity(nk) == 0
                hk, hitem = heap.delete_min()
                if hk != nk:
                    return fail(i, f"delete_min key {hk!r}, oracle removed {nk!r}")
                if unique and hitem != nitem:
                    return fail(i, f"delete_min item {hitem!r}, oracle removed {nitem!r}")
            elif kind == "decrease":
                _, ident, nk = op
                # heap first: a stale target then yields a failing
                # verdict instead of an oracle-side KeyError
                heap.decrease_key(handles[ident], nk)
                naive.decrease_key(ident, nk)
                v.decreases += 1
            else:
                side = heap.spawn()
                for k in op[1]:
                    naive.insert(k, len(handles))
                    handles.append(side.insert(k, len(handles)))
                heap.meld(side)
                v.melds += 1

            if len(heap) != len(naive):
                return fail(i, f"size {len(heap)} vs oracle {len(naive)}")

            if cadence and (i + 1) % cadence == 0:
                nm = naive.find_min()
                hm = heap.find_min()
                if nm is None:
                    if hm is not None:
                        return fail(i, f"find_min {hm!r} on empty oracle")
                else:
                    if hm is None:
                        return fail(i, "find_min empty, oracle is not")
                    if hm[0] != nm[0]:
                        return fail(i, f"find_min key {hm[0]!r}, oracle {nm[0]!r}")
                report = full_audit(heap, check_root_multiplicity=was_delete)
                v.audits += 1
                if was_delete:
                    v.multiplicity_audits += 1
                if not report.ok:
                    return fail(i, "audit: " + report.to_json())
        except (HeapError, AssertionError) as exc:
            return fail(i, f"{type(exc).__name__}: {exc}")

    if cadence:
        report = full_audit(heap)
        v.audits += 1
        if not report.ok:
            return fail(len(script.ops), "final audit: " + report.to_json())

    v.passed = True
    fill_stats()
    return v


def run_differential(seed: int, n_ops: int, weights: tuple = DEFAULT_WEIGHTS,
                     audit_every: Optional[int] = None) -> Verdict:
    """Generate a script for this seed and replay it; see ``replay``."""
    script = gen_ops(seed, n_ops, weights)
    return replay(script, audit_every=audit_every)
