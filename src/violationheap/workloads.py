"""Benchmark workloads: heapsort, mixed operations, and Dijkstra.

Each driver returns a BenchRecord carrying wall time and the heap's
``Telemetry`` counters, suitable for CSV output.  Dijkstra runs
insert-all-then-decrease: every vertex enters the queue up front at an
infinite sentinel key, so the whole run exercises decrease_key instead
of repeated inserts, and no settled-vertex flags are needed because
with non-negative weights a settled vertex can never be offered a
smaller key than it was removed with.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import asdict, dataclass, field, fields

from .baselines import BinaryHeap, PairingHeap
from .heap_core import Telemetry, ViolationHeap

# sentinel for "not yet reached"; larger than any real path length
INF_KEY = (1 << 63) - 1
# gen_graph draws arc weights uniformly from [0, MAX_WEIGHT]
MAX_WEIGHT = 10 ** 6

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


@dataclass
class Graph:
    """Directed graph; arcs are (tail, head, weight) with 0-based vertices."""

    n: int
    arcs: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def adjacency(self) -> list:
        adj: list = [[] for _ in range(self.n)]
        for u, v, w in self.arcs:
            adj[u].append((v, w))
        return adj


def gen_graph(n: int, m: int, seed: int) -> Graph:
    """Random directed multigraph: m uniform ordered pairs, self-loops
    allowed, weights uniform on [0, MAX_WEIGHT]."""
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    if m < 0:
        raise ValueError(f"arc count must be non-negative, got {m}")
    rng = random.Random(seed)
    arcs = [(rng.randrange(n), rng.randrange(n), rng.randrange(MAX_WEIGHT + 1))
            for _ in range(m)]
    return Graph(n, arcs)


def read_dimacs(source) -> Graph:
    """Parse shortest-path DIMACS text: 'c' comments, one 'p sp N M'
    header, then M lines 'a tail head weight' with 1-based vertices.

    Accepts a path or an iterable of lines.  Malformed input raises
    ValueError naming the offending line number.
    """
    if isinstance(source, str):
        with open(source) as fh:
            return read_dimacs(fh)
    n = -1
    declared_m = -1
    arcs: list = []
    lineno = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise ValueError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "sp":
                raise ValueError(f"line {lineno}: expected 'p sp <n> <m>'")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer sizes") from None
            if n <= 0 or declared_m < 0:
                raise ValueError(f"line {lineno}: bad sizes n={n} m={declared_m}")
        elif fields[0] == "a":
            if n < 0:
                raise ValueError(f"line {lineno}: arc before problem line")
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 'a <tail> <head> <weight>'")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer arc") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"line {lineno}: vertex out of range 1..{n}")
            arcs.append((u - 1, v - 1, w))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {fields[0]!r}")
    if n < 0:
        raise ValueError("no problem line found")
    if len(arcs) != declared_m:
        raise ValueError(
            f"problem line declares {declared_m} arcs, file has {len(arcs)}")
    return Graph(n, arcs)


def dijkstra(graph: Graph, source: int, heap=None) -> list:
    """Single-source shortest distances; unreachable stays INF_KEY.

    Negative arc weights raise ValueError when the search reaches them.
    """
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    if heap is None:
        heap = make_heap("violation")
    adj = graph.adjacency()
    dist = [INF_KEY] * graph.n
    dist[source] = 0
    handles = [heap.insert(dist[v], v) for v in range(graph.n)]
    for _ in range(graph.n):
        du, u = heap.delete_min()
        if du == INF_KEY:
            break   # nothing reachable remains
        for v, w in adj[u]:
            if w < 0:
                raise ValueError(f"negative weight {w} on arc {u}->{v}")
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heap.decrease_key(handles[v], nd)
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
    rng = random.Random(seed)
    keys = [rng.randrange(1 << 60) for _ in range(n)]
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


def mixed_bench(heap_name: str, n_ops: int, seed: int) -> BenchRecord:
    """Random insert/delete/decrease/meld traffic.

    Decrease targets are sampled from every insert ever made, so some
    are stale by the time they come up; those are skipped via is_live,
    which itself exercises the handle liveness path.
    """
    rng = random.Random(seed)
    heap = make_heap(heap_name)
    handles: list = []
    keys: list = []
    t0 = time.perf_counter_ns()
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.45 or not len(heap):
            k = rng.randrange(1 << 40)
            handles.append(heap.insert(k, len(handles)))
            keys.append(k)
        elif r < 0.70:
            heap.delete_min()
        elif r < 0.95:
            i = rng.randrange(len(handles))
            if heap.is_live(handles[i]):
                nk = keys[i] - rng.randrange(1, 1 << 20)
                heap.decrease_key(handles[i], nk)
                keys[i] = nk
        else:
            side = heap.spawn()
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(1 << 40)
                handles.append(side.insert(k, len(handles)))
                keys.append(k)
            heap.meld(side)
    wall = time.perf_counter_ns() - t0
    return _record("mixed", heap_name, heap, n_ops, 0, seed, wall)


def dijkstra_bench(heap_name: str, graph: Graph, seed: int) -> BenchRecord:
    heap = make_heap(heap_name)
    t0 = time.perf_counter_ns()
    dist = dijkstra(graph, 0, heap)
    wall = time.perf_counter_ns() - t0
    return _record("dijkstra", heap_name, heap, graph.n, graph.m, seed,
                   wall, checksum(dist))
