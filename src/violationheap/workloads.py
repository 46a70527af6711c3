"""Benchmark workloads: heapsort, mixed operations, and Dijkstra.

Each driver returns a BenchRecord carrying wall time and the heap's
``Telemetry`` counters, suitable for CSV output.  Dijkstra inserts on
reach: the heap starts with the source alone, a vertex enters it when
a relaxed arc first reaches it, and each later improvement is a
decrease_key, so the heap holds only the frontier and a vertex that is
never reached never enters it.  No settled-vertex flags are needed,
because with non-negative weights a settled vertex can never be offered
a smaller key than it was removed with.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from array import array
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

from .baselines import BinaryHeap, PairingHeap
from .heap_core import Telemetry, ViolationHeap
from .oracle import OpScript, apply_op, sampler

# sentinel for "not yet reached"; larger than any real path length
INF_KEY = (1 << 63) - 1
# gen_graph draws arc weights uniformly from [0, MAX_WEIGHT]
MAX_WEIGHT = 10 ** 6
# gen_graph draws this many arcs per chunk of its arc array
_GEN_CHUNK = 1 << 10
# a Graph stores every tail, head and weight in [-_INT64, _INT64)
_INT64 = 1 << 63

# the run columns, then one column per Telemetry counter
CSV_COLUMNS = ("workload", "heap", "n", "m", "seed", "wall_ns",
               *(f.name for f in fields(Telemetry)))
CSV_HEADER = ",".join(CSV_COLUMNS)

_HEAP_CLASSES = {"violation": ViolationHeap, "binary": BinaryHeap,
                 "pairing": PairingHeap}
HEAP_NAMES = tuple(_HEAP_CLASSES)


def make_heap(name: str):
    """An empty heap of the named kind, in a family of its own."""
    if name not in _HEAP_CLASSES:
        raise ValueError(f"unknown heap {name!r}; choose from {', '.join(HEAP_NAMES)}")
    return _HEAP_CLASSES[name]()


class Graph:
    """Directed graph on vertices 0..n-1.

    ``flat`` holds the arcs as one ``array('q')`` laid out ``[tail, head,
    weight, tail, head, weight, ...]`` in arc order, 24 bytes per arc.
    ``Graph(n, arcs)`` refuses n outside 1..2**63, since vertex n - 1 must
    fit in int64.  It takes any iterable of ``(tail, head, weight)``
    triples, refusing a vertex outside 0..n-1 or a weight outside the
    int64 range with ValueError naming the arc, and ``arcs`` yields them
    back in arc order.  ``base`` is the number the graph's source gives
    vertex 0, for messages only: 0, or 1 for a graph read from DIMACS.
    """

    __slots__ = ("n", "flat", "base", "_csr")

    def __init__(self, n: int, arcs=()) -> None:
        if not 0 < n <= _INT64:
            raise ValueError(f"vertex count must be in 1..2**63, got {n}")
        self.n = n
        self.flat = array("q")
        self.base = 0
        self._csr = None   # adjacency()'s (first, pairs) once built
        for u, v, w in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {u}->{v} has a vertex outside 0..{n - 1}")
            if not -_INT64 <= w < _INT64:
                raise ValueError(f"arc {u}->{v} has weight {w} outside the int64 range")
            self.flat.extend((u, v, w))

    @property
    def m(self) -> int:
        return len(self.flat) // 3

    @property
    def arcs(self):
        """An iterator of ``(tail, head, weight)`` in arc order."""
        it = iter(self.flat)
        return zip(it, it, it)

    def adjacency(self) -> tuple:
        """The out-arcs in CSR form, ``(first, pairs)``: ``pairs`` is an
        ``array('q')`` of ``[head, weight, ...]`` grouped by tail, in arc
        order within each tail, and ``pairs[first[u]:first[u + 1]]`` is
        vertex u's out-arcs.  ``first`` is a list of n + 1 offsets.

        The first call builds the form and the graph keeps it, so that
        a later search on the graph pays only for its search: one pass
        counts each tail's arcs and one scatters the arcs into place, and
        ``pairs`` takes 16 bytes per arc.  Later calls return the same two
        objects, which belong to the graph: callers must not change them,
        and ``flat`` must not change after the first call.
        """
        if self._csr is not None:
            return self._csr
        count = [0] * (self.n + 1)
        for u in memoryview(self.flat)[::3]:
            count[u + 1] += 2
        first = list(accumulate(count))
        nxt = first[:-1]
        pairs = array("q", [0]) * (2 * self.m)
        it = iter(self.flat)
        for u, v, w in zip(it, it, it):
            p = nxt[u]
            nxt[u] = p + 2
            pairs[p] = v
            pairs[p + 1] = w
        self._csr = first, pairs
        return self._csr


def gen_graph(n: int, m: int, seed: int) -> Graph:
    """Random directed multigraph: m uniform ordered pairs, self-loops
    allowed, weights uniform on [0, MAX_WEIGHT].  The stream is
    ``random.Random(seed)``, drawn through ``oracle.sampler``: tail,
    head, then weight, arc by arc.  ``Graph(n)`` is made first, so n
    outside 1..2**63 raises ValueError before anything is drawn.

    The arc array is allocated at its final size, 24 bytes per arc, and
    filled _GEN_CHUNK arcs at a time, each chunk by one batched draw,
    ``below.rounds((n, n, MAX_WEIGHT + 1), arcs)``, so no list of all 3m
    draws is ever made.
    """
    graph = Graph(n)
    if m < 0:
        raise ValueError(f"arc count must be non-negative, got {m}")
    rounds = sampler(random.Random(seed)).rounds
    pattern = (n, n, MAX_WEIGHT + 1)
    flat = array("q", [0]) * (3 * m)
    for start in range(0, m, _GEN_CHUNK):
        arcs = min(_GEN_CHUNK, m - start)
        flat[3 * start:3 * (start + arcs)] = array("q", rounds(pattern, arcs))
    graph.flat = flat
    return graph


def read_dimacs(source) -> Graph:
    """Parse shortest-path DIMACS text: 'c' comments, one 'p sp N M'
    header, then M lines 'a tail head weight' with 1-based vertices.

    Accepts a path or an iterable of lines.  Malformed input, including
    a weight outside the int64 range, raises ValueError naming the
    offending line number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return read_dimacs(fh)
    graph = None
    declared_m = -1
    lineno = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if graph is not None:
                raise ValueError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "sp":
                raise ValueError(f"line {lineno}: expected 'p sp <n> <m>'")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer sizes") from None
            # vertex n is stored as n - 1, which must fit in int64
            if not 0 < n <= _INT64 or declared_m < 0:
                raise ValueError(f"line {lineno}: bad sizes n={n} m={declared_m}")
            graph = Graph(n)
            graph.base = 1
        elif fields[0] == "a":
            if graph is None:
                raise ValueError(f"line {lineno}: arc before problem line")
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 'a <tail> <head> <weight>'")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer arc") from None
            if not (1 <= u <= graph.n and 1 <= v <= graph.n):
                raise ValueError(f"line {lineno}: vertex out of range 1..{graph.n}")
            if not -_INT64 <= w < _INT64:
                raise ValueError(f"line {lineno}: weight {w} outside the int64 range")
            graph.flat.extend((u - 1, v - 1, w))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {fields[0]!r}")
    if graph is None:
        raise ValueError("no problem line found")
    if graph.m != declared_m:
        raise ValueError(
            f"problem line declares {declared_m} arcs, file has {graph.m}")
    return graph


def dijkstra(graph: Graph, source: int, heap=None) -> list:
    """Single-source shortest distances; unreachable stays INF_KEY.

    ``heap``, when given, must be empty: an element already in it would
    be popped as if it were a vertex, so a heap that holds one raises
    ValueError before anything is inserted.  The heap starts with the
    source alone; a relaxed arc that lowers ``dist[v]`` inserts v if it
    was never reached and decreases its key otherwise, and the search
    runs until the heap is empty.  A pop whose key is below the previous
    pop's raises AssertionError: with non-negative weights a correct
    heap never does that, ties included.  Negative arc weights raise
    ValueError when the search reaches them, and so does a vertex that
    is reached but whose distance is INF_KEY or more, which INF_KEY
    could not tell from unreachable.  Both errors number vertices from
    ``graph.base``, as the graph's source does.  An arc that would offer
    such a distance is legal while its head is reached another way.  The
    relax loop reads vertex u's out-arcs from
    ``Graph.adjacency()``'s CSR form as ``pairs[first[u]:first[u + 1]]``,
    sliced through a ``memoryview`` so that nothing is copied, and walks
    the slice with ``zip(it, it)``, which reuses its result tuple.
    """
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    if heap is None:
        heap = make_heap("violation")
    elif len(heap):
        raise ValueError(f"dijkstra needs an empty heap; "
                         f"this one holds {len(heap)}")
    first, pairs = graph.adjacency()
    out = memoryview(pairs)
    dist = [INF_KEY] * graph.n
    dist[source] = 0
    handles = [None] * graph.n   # a vertex's handle once it is reached
    insert, decrease_key, delete_min = heap.insert, heap.decrease_key, heap.delete_min
    insert(0, source)
    prev = 0   # the last pop's key
    too_far = []   # heads of arcs that offered a distance >= INF_KEY
    while len(heap):
        du, u = delete_min()
        if du < prev:
            raise AssertionError("delete_min order regressed")
        prev = du
        room = INF_KEY - du   # a weight of room or more reaches INF_KEY
        it = iter(out[first[u]:first[u + 1]])
        for v, w in zip(it, it):
            if not 0 <= w < room:
                if w < 0:
                    raise ValueError(f"negative weight {w} on arc "
                                     f"{u + graph.base}->{v + graph.base}")
                too_far.append(v)
                continue
            nd = du + w
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                if dv == INF_KEY:
                    handles[v] = insert(nd, v)
                else:
                    decrease_key(handles[v], nd)
    for v in too_far:
        if dist[v] == INF_KEY:
            raise ValueError(f"vertex {v + graph.base} is reached, but its "
                             f"distance is at least {INF_KEY}, the "
                             f"unreachable sentinel")
    return dist


def checksum(values) -> int:
    """Order-sensitive crc32 of an integer sequence, for result pinning."""
    return zlib.crc32(" ".join(map(str, values)).encode())


@dataclass(kw_only=True)
class BenchRecord(Telemetry):
    """One run's identity and wall time plus the heap's counters."""

    workload: str
    heap: str
    n: int
    m: int
    seed: int
    wall_ns: int
    checksum: int = 0   # nonzero only for workloads with a pinnable result

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, c)) for c in CSV_COLUMNS)


def _record(workload: str, heap_name: str, heap, n: int, m: int, seed: int,
            wall_ns: int, check: int = 0) -> BenchRecord:
    return BenchRecord(workload=workload, heap=heap_name, n=n, m=m, seed=seed,
                       wall_ns=wall_ns, checksum=check, **asdict(heap.telemetry))


def heapsort_bench(heap_name: str, n: int, seed: int) -> BenchRecord:
    """Insert n random keys, pop them all; output must come out sorted."""
    keys = sampler(random.Random(seed)).rounds((1 << 60,), n)
    heap = make_heap(heap_name)
    t0 = time.perf_counter_ns()
    for k in keys:
        heap.insert(k)
    prev = None
    for _ in range(n):
        k, _item = heap.delete_min()
        if prev is not None and k < prev:
            raise AssertionError("delete_min order regressed")
        prev = k
    wall = time.perf_counter_ns() - t0
    return _record("heapsort", heap_name, heap, n, 0, seed, wall)


def mixed_bench(heap_name: str, script: OpScript) -> BenchRecord:
    """Time ``apply_op`` over a prebuilt ``gen_ops`` script: exactly the
    traffic that ``vheap fuzz`` checks, generated outside the timed loop."""
    heap = make_heap(heap_name)
    handles: list = []
    t0 = time.perf_counter_ns()
    for op in script.ops:
        apply_op(heap, handles, op)
    wall = time.perf_counter_ns() - t0
    return _record("mixed", heap_name, heap, len(script.ops), 0, script.seed, wall)


def dijkstra_bench(heap_name: str, graph: Graph, seed: int) -> BenchRecord:
    """Time one search from vertex 0, the CSR build outside the timer."""
    graph.adjacency()
    heap = make_heap(heap_name)
    t0 = time.perf_counter_ns()
    dist = dijkstra(graph, 0, heap)
    wall = time.perf_counter_ns() - t0
    return _record("dijkstra", heap_name, heap, graph.n, graph.m, seed,
                   wall, checksum(dist))
