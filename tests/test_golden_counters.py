"""Exact Telemetry counters of each heap on pinned runs, as the code
counted them, not derived on paper: a change that keeps the algorithms and
the workloads keeps every row, and a new heap adds one row per run."""

from dataclasses import fields
from functools import cache

import pytest

from violationheap.heap_core import Telemetry
from violationheap.oracle import gen_ops, run_differential
from violationheap.workloads import (dijkstra_bench, gen_graph, heapsort_bench,
                                     mixed_bench)


@cache
def _graph():
    return gen_graph(10_000, 100_000, 7)


RUNS = {
    # heapsort of random keys below 2 ** 60: 20,000 from seed 0, 1,500 from 2
    "heapsort": lambda name: heapsort_bench(name, 20_000, 0),
    "heapsort-1500-seed-2": lambda name: heapsort_bench(name, 1500, 2),
    # one search from vertex 0, with the same distances on every heap
    "dijkstra": lambda name: dijkstra_bench(name, _graph(), 7),
    # apply_op over gen_ops(0, 20_000): the traffic vheap fuzz checks
    "mixed": lambda name: mixed_bench(name, gen_ops(0, 20_000)),
    # a violation heap checked against NaivePQ as it runs: melds and
    # decrease-keys, then 32 decrease-keys per delete-min, so that most
    # trees a delete-min consolidates come from cuts, in a small heap
    # (inserts and delete-mins balanced) and one that grows to about 1,600
    "differential": lambda name: run_differential(0, 10_000),
    "differential-decrease": lambda name: run_differential(0, 10_000, (1, 1, 32, 0)),
    "differential-decrease-growing":
        lambda name: run_differential(0, 20_000, (4, 1, 32, 0)),
}

# (run, heap): (comparisons, joins, cuts, rank_update_steps, max_rank)
GOLDEN = {
    ("heapsort", "violation"): (465174, 143071, 0, 0, 9),
    ("heapsort", "binary"): (518469, 0, 0, 0, 0),
    ("heapsort", "pairing"): (351380, 351380, 0, 0, 0),
    ("heapsort-1500-seed-2", "violation"): (24238, 7274, 0, 0, 6),
    ("dijkstra", "violation"): (225563, 67178, 5382, 590, 8),
    ("dijkstra", "binary"): (248797, 0, 0, 0, 0),
    ("dijkstra", "pairing"): (201053, 201053, 9988, 0, 0),
    ("mixed", "violation"): (82393, 15077, 2644, 192, 8),
    ("mixed", "binary"): (169472, 0, 0, 0, 0),
    ("mixed", "pairing"): (57601, 57601, 5000, 0, 0),
    ("differential", "violation"): (38850, 7117, 1301, 85, 7),
    ("differential-decrease", "violation"): (11962, 651, 682, 75, 3),
    ("differential-decrease-growing", "violation"): (34949, 5305, 5580, 591, 7),
}


@pytest.mark.parametrize("run, name", GOLDEN)
def test_golden_counters(run, name):
    record = RUNS[run](name)
    if run == "dijkstra":
        assert record.checksum == 182835793
    if run.startswith("differential"):
        assert record.passed
    assert tuple(getattr(record, f.name) for f in fields(Telemetry)) == GOLDEN[run, name]
