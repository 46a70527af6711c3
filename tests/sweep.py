"""The fault-injection sweep: a cued key (raising_keys.py) acts at each
comparison of a swept op in turn, every time on a fresh replay of the
ops before it, and the promise table of README (Baselines) is checked
against ``NaivePQ`` as the model.  The cued key class is the sweep's one
varying input: a ``Tripwire`` key raises, a ``Reentrant`` key calls into
its own heap."""

from collections import Counter
from dataclasses import asdict

import pytest

from raising_keys import Tripwire
from violationheap.heap_core import EmptyHeapError
from violationheap.invariants import JoinNeutralityMonitor, full_audit
from violationheap.oracle import NaivePQ, apply_op
from violationheap.workloads import make_heap

def _drain(h, limit):
    # delete_min until the heap reports empty, or limit + 1 elements came out
    out = []
    while len(out) <= limit:
        try:
            out.append(h.delete_min())
        except EmptyHeapError:
            break
    return out


def _armed(k, call, key=Tripwire):
    # run call with the key class's cue set for its k-th comparison,
    # counting from 0; returns the number of comparisons call made
    key.countdown = k
    try:
        call()
        return k - key.countdown
    finally:
        key.countdown = None


def _stage(h, handles, op, key=Tripwire):
    # the heap's side of one OpScript op, with keys of the cued class key,
    # as a call and the heaps it touches.  A meld's side heap is filled
    # here, before the call, so that only the meld's own comparisons are
    # swept.  An element's item is its id, which numbers insertions as
    # NaivePQ does.
    kind = op[0]
    if kind == "insert":
        return lambda: handles.append(h.insert(key(op[1]), len(handles))), (h,)
    if kind == "deletemin":
        return h.delete_min, (h,)
    if kind == "decrease":
        return lambda: h.decrease_key(handles[op[1]], key(op[2])), (h,)
    side = h.spawn()
    for k in op[1]:
        handles.append(side.insert(key(k), len(handles)))
    return lambda: h.meld(side), (h, side)


def _build(name, ops, key=Tripwire, bind=None):
    # ops replayed on a fresh heap, with keys of the class key, and on a
    # NaivePQ with plain int keys; then bind, if given, takes the heap and
    # its handles and returns extras for _check
    h, model, handles, ids = make_heap(name), NaivePQ(), [], []
    for op in ops:
        _stage(h, handles, op, key)[0]()
        apply_op(model, ids, op)
    return h, model, handles, bind(h, handles) if bind else []


def _snapshot(heaps, handles):
    # the tests' one check that a call left no trace (README, Baselines):
    # what it must not change is each heap's counters and attributes (a
    # list by its contents) and every handle's slots
    return ([asdict(x.telemetry) for x in heaps],
            [[list(v) if isinstance(v, list) else v for v in vars(x).values()]
             for x in heaps],
            [[getattr(e, s) for s in e.__slots__] for e in handles])


def _check(name, op, k, heaps, extras, handles, model, before, joins):
    # the promise table of README (Baselines), after op was cut off at
    # its k-th comparison; the model holds the elements from before op,
    # extras pairs each other heap op may reach with the (key, item)
    # pairs it must hold, and joins counts the joins a hook saw op make
    where = name, op, k
    h = heaps[0]
    split = op[0] == "meld" and name == "binary"
    if op[0] == "deletemin" and name != "binary":
        # rolled back: the joins made stay, and so do the k comparisons
        # made, less the first of a violation join whose second raised;
        # the one that raised is not counted, and nothing was cut
        t0, t1 = before[0][0], asdict(h.telemetry)
        assert k - 1 <= t1["comparisons"] - t0["comparisons"] <= k, where
        assert [t1[c] - t0[c] for c in ("cuts", "rank_update_steps")] == [0, 0]
        if name == "violation":
            assert t1["joins"] - t0["joins"] == joins, where
            assert h._slots is None, where
    elif not split:
        assert _snapshot(heaps, handles) == before, where
    expect = [[(model.key_of(i), i) for i in map(model.ident_at, range(len(model)))]]
    if op[0] == "meld":
        n = len(handles)
        expect.append(list(zip(op[1], range(n - len(op[1]), n))))
    heaps = list(heaps) + [x for x, _ in extras]
    expect += [contents for _, contents in extras]
    if name == "violation":
        assert all(full_audit(x).ok for x in heaps), where
        assert h.find_min() == model.find_min(), where
    drains = []
    for x in heaps:
        size = len(x)
        d = _drain(x, len(handles))
        assert len(d) == size and x.find_min() is None, where
        assert [e[0] for e in d] == sorted(e[0] for e in d), where
        drains.append(d)
    if split:
        # both operands are valid heaps that hold every element once
        drains[:2], expect[:2] = [sum(drains[:2], [])], [sum(expect[:2], [])]
    assert [sorted(d) for d in drains] == [sorted(e) for e in expect], where


def _sweep(name, ops, first, key=Tripwire, raises=(RuntimeError, "tripwire"),
           bind=None):
    # cue the key at each comparison of each op from ops[first] on, every
    # time on a fresh replay of the ops before it (see _build for bind),
    # and check that the op raised raises = (exception, match) and kept
    # the promise table; returns the raise points per op kind
    points = Counter()
    for i in range(first, len(ops)):
        op = ops[i]
        # the run that counts op's comparisons makes every join op makes,
        # and each armed run below a prefix of them: a cued key compares
        # as its int until the cue, so the monitor checks them all here
        h, _, handles, _ = _build(name, ops[:i], key, bind)
        monitor = JoinNeutralityMonitor(h).install()
        total = _armed(10 ** 9, _stage(h, handles, op, key)[0], key)
        assert not monitor.mismatches, (name, op)
        for k in range(total):
            h, model, handles, extras = _build(name, ops[:i], key, bind)
            call, heaps = _stage(h, handles, op, key)
            before = _snapshot(heaps, handles)
            seen = Counter()
            h.telemetry.join_hook = lambda phase, trees: seen.update((phase,))
            with pytest.raises(raises[0], match=raises[1]):
                _armed(k, call, key)
            _check(name, op, k, heaps, extras, handles, model, before, seen["after"])
        points[op[0]] += total
    return points


def _sweep_last(name, ops, *cue):
    # the ops before the last build a fixed state; only the last is swept
    return _sweep(name, ops, len(ops) - 1, *cue)


def _ins(keys):
    return [("insert", k) for k in keys]
