"""The four benchmark workloads and their independent output checks.

Each ``Case`` has four parts:

    build(pkg, seed)           the workload's inputs, from the seed alone
    run(pkg, inputs, make_heap)
                               the timed unit: drives the package's public
                               API once and returns (output, counters)
    expect(inputs)             a reference answer computed with the
                               standard library only, never timed
    check(output, expected)    (checks attempted, checks failed)

``counters`` is the tuple of ``Telemetry`` fields in ``COUNTERS`` order,
read after the unit finishes.  ``pkg`` is the namespace that
``run.load_package`` returns; nothing here imports the package itself,
so a fresh import in set-up is the one every unit uses.

Sizes are module constants; tests pass smaller ones as keywords to
``build``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable

COUNTERS = ("comparisons", "joins", "cuts", "rank_update_steps", "max_rank")

HEAPSORT_N = 20_000

DIJKSTRA_N = 15_000
DIJKSTRA_M = 150_000
# the package's documented "not reached" distance, restated here so the
# reference does not take it from the code under test
UNREACHED = (1 << 63) - 1

HOLD_LIVE = 50_000
HOLD_ROUNDS = 3_000
HOLD_DECREASES = 32
HOLD_SPAN = 1 << 40
HOLD_NUDGE = 1 << 10

FUZZ_SEEDS = 2
FUZZ_OPS = 10_000


@dataclass(frozen=True)
class Case:
    name: str
    build: Callable[..., Any]
    run: Callable[[Any, Any, Callable[[], Any]], tuple]
    expect: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple]
    # the binary and pairing baselines can run the same inputs
    baselines: bool = True


def read_counters(telemetry) -> tuple:
    return tuple(getattr(telemetry, f) for f in COUNTERS)


def check_equal(output, expected) -> tuple:
    return 1, int(output != expected)


# -- heapsort -------------------------------------------------------------

def heapsort_build(pkg, seed: int, n: int = HEAPSORT_N) -> list:
    rng = random.Random(seed)
    return [rng.randrange(1 << 60) for _ in range(n)]


def heapsort_run(pkg, keys: list, make_heap) -> tuple:
    heap = make_heap()
    insert = heap.insert
    for k in keys:
        insert(k)
    delete_min = heap.delete_min
    out = [delete_min()[0] for _ in keys]
    return out, read_counters(heap.telemetry)


# -- dijkstra -------------------------------------------------------------

def dijkstra_build(pkg, seed: int, n: int = DIJKSTRA_N, m: int = DIJKSTRA_M):
    return pkg.workloads.gen_graph(n, m, seed)


def dijkstra_run(pkg, graph, make_heap) -> tuple:
    heap = make_heap()
    dist = pkg.workloads.dijkstra(graph, 0, heap)
    return dist, read_counters(heap.telemetry)


def dijkstra_expect(graph) -> list:
    """Lazy-deletion Dijkstra from vertex 0 over ``graph.arcs``."""
    adj: list = [[] for _ in range(graph.n)]
    for u, v, w in graph.arcs:
        adj[u].append((v, w))
    dist = [UNREACHED] * graph.n
    dist[0] = 0
    queue = [(0, 0)]
    while queue:
        d, u = heapq.heappop(queue)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(queue, (nd, v))
    return dist


# -- decrease_heavy -------------------------------------------------------

def hold_build(pkg, seed: int, live: int = HOLD_LIVE, rounds: int = HOLD_ROUNDS) -> tuple:
    """Initial keys plus one (decreases, re-insert key) pair per round.

    Slots 0..live-1 name the elements; every slot is live at all times,
    because each round re-inserts into the slot it popped.  A ``heapq``
    model with per-slot versions tracks the current minimum, which the
    drops and the re-insert keys depend on.  Alive keys stay pairwise
    distinct, so every pop is unambiguous.
    """
    rng = random.Random(seed)
    alive: set = set()
    keys = []
    while len(keys) < live:
        k = rng.randrange(HOLD_SPAN)
        if k not in alive:
            alive.add(k)
            keys.append(k)
    cur = list(keys)
    ver = [0] * live
    model = [(k, s, 0) for s, k in enumerate(keys)]
    heapq.heapify(model)

    def set_key(s: int, k: int) -> None:
        alive.discard(cur[s])
        alive.add(k)
        cur[s] = k
        ver[s] += 1
        heapq.heappush(model, (k, s, ver[s]))

    def top() -> tuple:
        while model[0][2] != ver[model[0][1]]:
            heapq.heappop(model)
        return model[0]

    stream = []
    for _ in range(rounds):
        lo = top()[0]
        batch = []
        for _ in range(HOLD_DECREASES):
            s = rng.randrange(live)
            old = cur[s]
            while True:
                if old > lo and rng.random() < 0.5:
                    # drop to a uniform point between the minimum and the old key
                    nk = rng.randrange(lo, old)
                else:
                    nk = old - rng.randrange(1, HOLD_NUDGE + 1)
                if nk not in alive:
                    break
            set_key(s, nk)
            lo = min(lo, nk)
            batch.append((s, nk))
        k, s, _ = top()
        while True:
            nk = k + rng.randrange(1, HOLD_SPAN)
            if nk not in alive:
                break
        set_key(s, nk)
        stream.append((tuple(batch), nk))
    return keys, stream


def hold_run(pkg, inputs: tuple, make_heap) -> tuple:
    keys, stream = inputs
    heap = make_heap()
    insert = heap.insert
    decrease_key = heap.decrease_key
    delete_min = heap.delete_min
    handles = [insert(k, s) for s, k in enumerate(keys)]
    pops = []
    for batch, nk in stream:
        for s, k in batch:
            decrease_key(handles[s], k)
        k, s = delete_min()
        pops.append(k)
        handles[s] = insert(nk, s)
    return pops, read_counters(heap.telemetry)


def hold_expect(inputs: tuple) -> list:
    """Replay the stream on a versioned ``heapq`` model; return its pops."""
    keys, stream = inputs
    ver = [0] * len(keys)
    model = [(k, s, 0) for s, k in enumerate(keys)]
    heapq.heapify(model)
    pops = []
    for batch, nk in stream:
        for s, k in batch:
            ver[s] += 1
            heapq.heappush(model, (k, s, ver[s]))
        while True:
            k, s, v = heapq.heappop(model)
            if v == ver[s]:
                break
        pops.append(k)
        ver[s] += 1
        heapq.heappush(model, (nk, s, ver[s]))
    return pops


# -- fuzz -----------------------------------------------------------------

def fuzz_build(pkg, seed: int, seeds: int = FUZZ_SEEDS, ops: int = FUZZ_OPS) -> tuple:
    return tuple(range(seed * seeds, (seed + 1) * seeds)), ops


def fuzz_run(pkg, inputs: tuple, make_heap) -> tuple:
    seeds, ops = inputs
    verdicts = [pkg.oracle.run_differential(s, ops) for s in seeds]
    sums = [sum(getattr(v, f) for v in verdicts) for f in COUNTERS[:-1]]
    return verdicts, (*sums, max(v.max_rank for v in verdicts))


def fuzz_expect(inputs: tuple) -> None:
    return None


def fuzz_check(verdicts: list, expected: None) -> tuple:
    return len(verdicts), sum(not v.passed for v in verdicts)


# why each workload exists is recorded in BENCHMARK.json and NOTES.md
CASES = {c.name: c for c in (
    Case("heapsort", heapsort_build, heapsort_run, sorted, check_equal),
    Case("dijkstra", dijkstra_build, dijkstra_run, dijkstra_expect, check_equal),
    Case("decrease_heavy", hold_build, hold_run, hold_expect, check_equal),
    Case("fuzz", fuzz_build, fuzz_run, fuzz_expect, fuzz_check, baselines=False),
)}
