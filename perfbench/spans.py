"""Outside-in span recorder for the traced run.

``SpanRecorder.installed(pkg)`` replaces public functions of the
package's layers with wrappers that record one span per call: the
span's name, start and end on the benchmark's clock, and the span that
was open when it began.  Three extra integers per span, a, b and c,
carry counts that the wrapper reads around the call:

    heap_core.delete_min,     deltas of the pool's joins, cuts and
    heap_core.decrease_key    rank_update_steps
    invariants.full_audit     a = nodes audited

Spans stay in one flat int64 ``array`` until ``dump`` writes them out.  A
span's self time is its duration minus the durations of its children;
children of one span never overlap, because the run has one thread.

Every replaced attribute is put back when the ``with`` block ends,
including when it ends with an exception.
"""

from __future__ import annotations

import functools
import json
import operator
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

HEAP_OPS = ("insert", "delete_min", "decrease_key", "meld")

# NaivePQ's public surface as replay uses it; its private helpers run
# inside these and are not split out
NAIVE_METHODS = ("__len__", "insert", "is_live", "key_of", "item_of",
                 "key_multiplicity", "find_min", "delete_min", "decrease_key")

COLUMNS = ("name", "parent", "start_ns", "end_ns", "a", "b", "c")
WIDTH = len(COLUMNS)

_deltas = operator.attrgetter("joins", "cuts", "rank_update_steps")


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row of len(COLUMNS) int64s per span; parent holds the
        # parent's row offset, -1 at top level
        self.data = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.data) // WIDTH

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name: str, counted: bool = False, sized: bool = False):
        """Wrap fn so each call records a span.

        ``counted``: fn is a heap method; store the deltas of its pool's
        joins, cuts and rank_update_steps in a, b, c.  ``sized``: fn
        returns an audit report; store its node count in a.
        """
        nid = self.name_id(name)
        data = self.data
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(data)
            data.extend((nid, stack[-1], 0, 0, 0, 0, 0))
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                data[i + 3] = clock()
                data[i + 2] = t0
                stack.pop()
            if sized:
                data[i + 4] = out.node_count
            return out

        @functools.wraps(fn)
        def counted_wrapper(heap, *args, **kwargs):
            t = heap.pool.telemetry
            j0, c0, s0 = _deltas(t)
            i = len(data)
            data.extend((nid, stack[-1], 0, 0, 0, 0, 0))
            stack.append(i)
            t0 = clock()
            try:
                return fn(heap, *args, **kwargs)
            finally:
                data[i + 3] = clock()
                data[i + 2] = t0
                stack.pop()
                j1, c1, s1 = _deltas(t)
                data[i + 4] = j1 - j0
                data[i + 5] = c1 - c0
                data[i + 6] = s1 - s0

        return counted_wrapper if counted else wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        data = self.data
        i = len(data)
        data.extend((self.name_id(name), self._stack[-1], 0, 0, 0, 0, 0))
        self._stack.append(i)
        t0 = time.perf_counter_ns()
        try:
            yield i // WIDTH
        finally:
            data[i + 3] = time.perf_counter_ns()
            data[i + 2] = t0
            self._stack.pop()

    @contextmanager
    def installed(self, pkg):
        """Wrap the layers' public functions for the length of the block."""
        saved = []

        def patch(owner, attr: str, name: str, **kind) -> None:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, **kind))

        try:
            vh = pkg.heap_core.ViolationHeap
            patch(vh, "insert", "heap_core.insert")
            patch(vh, "meld", "heap_core.meld")
            patch(vh, "delete_min", "heap_core.delete_min", counted=True)
            patch(vh, "decrease_key", "heap_core.decrease_key", counted=True)
            naive = pkg.oracle.NaivePQ
            for m in NAIVE_METHODS:
                patch(naive, m, "oracle.NaivePQ." + m)
            oracle = pkg.oracle
            patch(oracle, "full_audit", "invariants.full_audit", sized=True)
            patch(oracle, "gen_ops", "oracle.gen_ops")
            patch(oracle, "replay", "oracle.replay")
            patch(pkg.workloads, "dijkstra", "workloads.dijkstra")
            patch(pkg.workloads, "gen_graph", "workloads.gen_graph")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def columns(self) -> dict:
        """{column: array}, one entry per span; parent as a span index."""
        cols = {c: self.data[k::WIDTH] for k, c in enumerate(COLUMNS)}
        cols["parent"] = array("q", (p // WIDTH if p >= 0 else -1
                                     for p in cols["parent"]))
        return cols

    def dump(self, path: Path) -> None:
        """Write a JSON header line, then each column as raw int64s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns()
        header = {"names": self.names, "count": len(self), "columns": list(COLUMNS)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                cols[col].tofile(fh)


def roots(cols: dict, nid: int) -> list:
    """Indices of the top-level spans whose name id is nid, in order."""
    names, parents = cols["name"], cols["parent"]
    return [i for i in range(len(names)) if parents[i] == -1 and names[i] == nid]


def subtree(cols: dict, root: int) -> range:
    """Indices of root and every span recorded under it.

    Spans are numbered as they open, so a subtree is one contiguous run
    that ends where the next top-level span begins.
    """
    parents = cols["parent"]
    end = root + 1
    while end < len(parents) and parents[end] != -1:
        end += 1
    return range(root, end)


def self_times(cols: dict, idx: range) -> list:
    """Self time in ns of each span of a subtree, in index order."""
    starts, ends, parents = cols["start_ns"], cols["end_ns"], cols["parent"]
    lo = idx.start
    dur = [ends[i] - starts[i] for i in idx]
    own = list(dur)
    for j, i in enumerate(idx):
        p = parents[i]
        if p >= lo:
            own[p - lo] -= dur[j]
    return own
