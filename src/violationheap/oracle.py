"""Differential-testing oracle for the violation heap.

``NaivePQ`` is the one reference model: an unordered list of live
(key, id) entries plus a lazy ``heapq`` over the same tuples.  It is
plain and obviously correct, which is the whole point.  ``sampler``
makes every seeded integer draw in the package.  ``_draw_ops`` draws
each op from a ``NaivePQ``'s state, which its consumer steps before it
asks for the next, keeping the alive keys pairwise distinct so the
minimum element is unambiguous and both structures must delete the
same element.  ``apply_op`` steps any heap, or a ``NaivePQ``, through
one op.  ``_check`` is the one checking loop: it steps a fresh violation
heap and a naive queue side by side through ``apply_op``, comparing
sizes, minimums, deleted elements, and (at a configurable cadence) the
full structural audit.  Each differential run steps one model:
``run_differential`` draws each op from the very ``NaivePQ`` that
``_check`` steps, while ``gen_ops`` keeps a drawn script for
``replay``, which checks it against a fresh model.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields
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
        entries = self._entries
        pos = self._pos
        p = pos.pop(ident)
        last = entries.pop()
        if p < len(entries):
            entries[p] = last
            pos[last[1]] = p
        count = self._key_count
        c = count[key] - 1
        if c:
            count[key] = c
        else:
            del count[key]
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
        count = self._key_count
        c = count[old_key] - 1
        if c:
            count[old_key] = c
        else:
            del count[old_key]
        count[new_key] = count.get(new_key, 0) + 1

    def spawn(self) -> "NaivePQ":
        """The queue itself: the model is one multiset, so ``apply_op``
        inserts a meld batch straight into it."""
        return self

    def meld(self, other) -> "NaivePQ":
        """Return self when other is self (the spawned side of a meld);
        any other queue raises HeapError."""
        if other is not self:
            raise HeapError("a NaivePQ melds only itself, its own spawn")
        return self


@dataclass
class OpScript:
    """A replayable operation sequence.

    Ops are tuples: ("insert", key), ("deletemin",),
    ("decrease", id, new_key), ("meld", (key, ...)).  Ids number every
    insertion in script order, meld batches included.
    """

    seed: int
    ops: list = field(default_factory=list)


def _normalize_weights(weights) -> tuple:
    """Check four insert/delete/decrease/meld weights (non-negative,
    finite, not all zero) and scale them to sum to one."""
    w = tuple(weights)
    if len(w) != 4:
        raise ValueError("expected four weights")
    # NaN fails >= against anything, so it is refused here too
    if not all(x >= 0 for x in w):
        raise ValueError("weights must be non-negative")
    total = sum(w)
    if not math.isfinite(total):   # else they would scale to NaN or zeros
        raise ValueError("weights and their sum must be finite")
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return tuple(x / total for x in w)


def sampler(rng: random.Random):
    """Return ``below``, where ``below(n)`` draws a uniform int in [0, n)
    from ``rng``; it raises ValueError, without drawing, unless n > 0.

    ``below`` takes ``k = n.bit_length()`` bits from ``rng.getrandbits``
    and draws again while the result is not below n.  That is CPython
    3.11's ``Random._randbelow_with_getrandbits``, which ``Random``'s own
    range draw calls through a second Python frame, so ``a + below(b - a)``
    repeats that draw over [a, b) value for value.  Every seeded stream
    in the package is defined by it: the graphs, the op scripts and the
    heapsort keys reproduce on any Python whose ``getrandbits`` keeps the
    Mersenne Twister's output.

    ``below.rounds(pattern, times)`` is the batched draw for a stream
    whose bounds repeat a fixed pattern: ``times`` rounds of one draw per
    bound in ``pattern``, in a list of exactly the values that calling
    ``below`` on each bound in turn returns.  It takes each bound's bit
    count once and each first try straight from ``getrandbits``; a
    rejected try redraws through ``below``.  A bound that is not positive
    raises ValueError before anything is drawn.  ``gen_graph`` fills its
    arc chunks with it and ``heapsort_bench`` draws its keys with it.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        if n <= 0:
            raise ValueError(f"below(n) needs n > 0, got {n}")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def rounds(pattern, times: int) -> list:
        for n in pattern:
            if n <= 0:
                raise ValueError(f"rounds needs every bound > 0, got {n}")
        draws = [(n, n.bit_length()) for n in pattern] * times
        return [r if (r := getrandbits(k)) < n else below(n) for n, k in draws]

    below.rounds = rounds
    return below


def parse_weights(text: str) -> tuple:
    """Parse "a,b,c,d" into normalized insert/delete/decrease/meld weights."""
    return _normalize_weights(float(p) for p in text.split(","))


def _draw_ops(seed: int, n_ops: int, w: tuple, model: NaivePQ):
    """Yield ``n_ops`` ops drawn from ``random.Random(seed)`` and the
    state of ``model``, under normalized weights ``w``.

    The consumer steps ``model`` through each op before it asks for the
    next, so the model supplies the alive keys, the minimum each delete
    removes, and the ids that decreases target.  Every drawn key is
    absent from the model, and a meld batch's keys also from each other,
    so the alive keys stay pairwise distinct.  The stream's integers are
    drawn through ``sampler``.
    """
    rng = random.Random(seed)
    rand = rng.random
    below = sampler(rng)
    cuts = (w[0], w[0] + w[1], w[0] + w[1] + w[2])
    multiplicity = model.key_multiplicity

    def fresh_key(batch=()) -> int:
        while True:
            k = below(2 * KEY_SPAN) - KEY_SPAN
            if not multiplicity(k) and k not in batch:
                return k

    for _ in range(n_ops):
        # insert, delete_min, decrease_key or meld; a delete or decrease
        # drawn on an empty model is redrawn, up to 8 draws in all
        kind = bisect_right(cuts, rand())
        if 0 < kind < 3 and not model:
            for _attempt in range(7):
                kind = bisect_right(cuts, rand())
                if not 0 < kind < 3:
                    break
            else:
                kind = 0

        if kind == 0:
            yield ("insert", fresh_key())
        elif kind == 1:
            yield ("deletemin",)
        elif kind == 2:
            ident = model.ident_at(below(len(model)))
            cur = model.key_of(ident)
            # mix local nudges with span-scale drops: nudges mostly stay
            # above the parent, drops force cuts and rank repairs
            hi = 1000 if rand() < 0.5 else KEY_SPAN
            nk = cur - 1 - below(hi)
            while multiplicity(nk):
                nk = cur - 1 - below(hi)
            yield ("decrease", ident, nk)
        else:
            batch = []
            for _ in range(1 + below(MELD_BATCH_MAX)):
                batch.append(fresh_key(batch))
            yield ("meld", tuple(batch))


def gen_ops(seed: int, n_ops: int, weights: tuple = DEFAULT_WEIGHTS) -> OpScript:
    """Build a random script with pairwise-distinct alive keys.

    The ops are drawn by ``_draw_ops`` from a ``NaivePQ`` stepped through
    each op in turn.  Distinct alive keys make the minimum unique, so a
    naive queue and the heap under test must always agree on which
    element delete_min removes.  Keys freed by deletion may be drawn
    again later.
    """
    model = NaivePQ()
    ids: list = []
    ops: list = []
    for op in _draw_ops(seed, n_ops, _normalize_weights(weights), model):
        ops.append(op)
        apply_op(model, ids, op)
    return OpScript(seed=seed, ops=ops)


def apply_op(heap, handles: list, op: tuple):
    """Apply one ``OpScript`` op to any of the three heaps or to a
    ``NaivePQ``; return what ``delete_min`` returned, else None.  Each
    inserted element takes its id, its index in ``handles``, as its
    item, and a meld melds in a ``heap.spawn()`` that holds its batch
    (a ``NaivePQ`` spawns and melds itself).  This is the one mapping
    from the op format onto the heap API, for the heaps under test and
    the model alike.  An op of unknown kind, or a decrease of an id not
    yet inserted, raises ValueError before the heap is touched."""
    kind = op[0]
    if kind == "insert":
        handles.append(heap.insert(op[1], len(handles)))
    elif kind == "deletemin":
        return heap.delete_min()
    elif kind == "decrease":
        if not 0 <= op[1] < len(handles):
            raise ValueError(f"decrease of an id never inserted: {op!r}")
        heap.decrease_key(handles[op[1]], op[2])
    elif kind == "meld":
        side = heap.spawn()
        for k in op[1]:
            handles.append(side.insert(k, len(handles)))
        heap.meld(side)
    else:
        raise ValueError(f"unknown op kind: {op!r}")


@dataclass(kw_only=True)
class Verdict(Telemetry):
    """Outcome of one differential run, plus run statistics: counts per
    op class and audits run.  The verdict is also the checked heap's
    ``Telemetry``, so its counters are the heap family's own."""

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
    sparse schedule for long ones; a negative cadence is refused."""
    if audit_every is None:
        return 1 if n_ops <= 2000 else max(1, n_ops // 25)
    if audit_every < 0:
        raise ValueError(f"audit_every must be None or >= 0, got {audit_every}")
    return audit_every


def _check(seed: int, ops, n_ops: int, audit_every: Optional[int],
           naive: NaivePQ) -> Verdict:
    """Step a fresh violation heap and ``naive`` through ``ops``, which
    holds ``n_ops`` ops, side by side: the one checking loop.

    Each op steps the heap through ``apply_op``, then the naive queue
    through it too, and only then is the next op taken from ``ops``,
    which may draw it from ``naive``'s state.  Returns a failing Verdict
    on the first observable divergence, structural audit finding, or
    heap-side exception.
    """
    cadence = _resolve_cadence(audit_every, n_ops)
    v = Verdict(seed=seed, op_count=n_ops, passed=False)

    heap = ViolationHeap()
    # the verdict is the family's Telemetry, so the heap and every side
    # heap a meld spawns from it count straight into v
    heap.telemetry = v
    handles: list = []   # dense id -> NodeHandle
    ids: list = []       # dense id -> naive's id, the same number

    def fail(i: int, msg: str) -> Verdict:
        v.fail_at = i
        v.detail = msg
        return v

    for i, op in enumerate(ops):
        try:
            kind = op[0]
            was_delete = kind == "deletemin"
            if was_delete:
                v.deletes += 1
            # heap first: a stale target or a refused key then yields a
            # failing verdict instead of an oracle-side exception
            got = apply_op(heap, handles, op)
            want = apply_op(naive, ids, op)
            if kind == "insert":
                v.inserts += 1
            elif was_delete:
                hk, hitem = got
                nk, nitem = want
                if hk != nk:
                    return fail(i, f"delete_min key {hk!r}, oracle removed {nk!r}")
                if naive.key_multiplicity(nk) == 0 and hitem != nitem:
                    return fail(i, f"delete_min item {hitem!r}, oracle removed {nitem!r}")
            elif kind == "decrease":
                v.decreases += 1
            else:
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
                report = full_audit(heap)
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
            return fail(n_ops, "final audit: " + report.to_json())

    v.passed = True
    return v


def replay(script: OpScript, audit_every: Optional[int] = None) -> Verdict:
    """Run one script against a fresh NaivePQ and violation heap.

    See ``_check``.  Scripts with duplicate alive keys must not decrease
    an id after an ambiguous deletion; generated scripts never contain
    duplicates.
    """
    return _check(script.seed, script.ops, len(script.ops), audit_every, NaivePQ())


def run_differential(seed: int, n_ops: int, weights: tuple = DEFAULT_WEIGHTS,
                     audit_every: Optional[int] = None) -> Verdict:
    """Check a fresh violation heap against one NaivePQ over the script
    ``gen_ops(seed, n_ops, weights)``, drawing each op from that model
    as the check steps it; the Verdict equals ``replay``'s of the
    script, but no script list is built."""
    naive = NaivePQ()
    ops = _draw_ops(seed, n_ops, _normalize_weights(weights), naive)
    # gen_ops makes an empty script of a negative n_ops
    return _check(seed, ops, max(n_ops, 0), audit_every, naive)
