"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cases
import run
import spans

HERE = Path(__file__).resolve().parent

SMALL = {
    "heapsort": dict(n=400),
    "dijkstra": dict(n=300, m=2_000),
    "decrease_heavy": dict(live=400, rounds=60),
    "fuzz": dict(seeds=2, ops=600),  # 2 seeds: also covers the counter sums
}


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def small_case(pkg, name: str, seed: int = 3) -> tuple:
    case = cases.CASES[name]
    inputs = case.build(pkg, seed, **SMALL[name])
    return case, inputs, run.heap_factories(pkg, case)["violation"]


def traced_unit(pkg, case, inputs, make) -> tuple:
    rec = spans.SpanRecorder()
    with rec.installed(pkg), rec.span("bench.unit") as root:
        out = case.run(pkg, inputs, make)
    return rec, root, out


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_tracing_leaves_heap_counters_unchanged(pkg, name):
    case, inputs, make = small_case(pkg, name)
    plain_out, plain = case.run(pkg, inputs, make)
    rec, _, (traced_out, traced) = traced_unit(pkg, case, inputs, make)
    assert traced == plain
    assert traced_out == plain_out
    assert case.check(plain_out, case.expect(inputs))[1] == 0
    # the deltas the wrappers read add up to the pool's own counters
    c = rec.columns()
    heap_ids = {rec.name_id("heap_core.delete_min"), rec.name_id("heap_core.decrease_key")}
    rows = [i for i in range(len(rec)) if c["name"][i] in heap_ids]
    joins, cuts, steps = (sum(c[k][i] for i in rows) for k in ("a", "b", "c"))
    assert (joins, cuts, steps) == (plain[1], plain[2], plain[3])


def test_recorder_restores_originals(pkg):
    owners = [pkg.heap_core.ViolationHeap, pkg.oracle.NaivePQ,
              pkg.oracle, pkg.workloads]
    before = [dict(vars(o)) for o in owners]
    rec = spans.SpanRecorder()

    def unchanged() -> bool:
        return all(vars(o).keys() == b.keys() and all(vars(o)[k] is b[k] for k in b)
                   for o, b in zip(owners, before))

    with rec.installed(pkg):
        assert not unchanged()
    assert unchanged()
    with pytest.raises(RuntimeError):
        with rec.installed(pkg):
            pkg.heap_core.NodePool().new_heap().insert(1)
            raise RuntimeError("stop mid-block")
    assert unchanged()
    assert len(rec) == 1


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_layer_self_times_sum_to_at_most_the_traced_total(pkg, name):
    case, inputs, make = small_case(pkg, name)
    rec, root, _ = traced_unit(pkg, case, inputs, make)
    m = run.unit_layers(rec.names, rec.columns(), root)
    layers = sum(v for k, v in m.items()
                 if k.endswith(".self_s") and k != "bench.loop.self_s")
    assert 0 < layers <= m["trace.unit_s"]
    assert layers + m["bench.loop.self_s"] == pytest.approx(m["trace.unit_s"], abs=1e-6)
    assert (m["heap_core.decrease_key.inplace_self_s"] + m["heap_core.decrease_key.cut_self_s"]
            == pytest.approx(m["heap_core.decrease_key.self_s"], abs=1e-9))


def swapping(real):
    """A delete_min that returns the first two pops of each heap swapped."""
    held = {}
    done = set()

    def delete_min(self):
        if self in held:
            return held.pop(self)
        first = real(self)
        if self in done or len(self) == 0:
            return first
        done.add(self)
        held[self] = first
        return real(self)

    return delete_min


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_swapped_pops_raise_the_error_rate(pkg, name, monkeypatch):
    case, inputs, make = small_case(pkg, name)
    tally = run.Tally()
    on_result = run.checker(case, case.expect(inputs), tally)
    cls = pkg.heap_core.ViolationHeap
    monkeypatch.setattr(cls, "delete_min", swapping(cls.delete_min))
    run.alternate({"unit": lambda: case.run(pkg, inputs, make)}, on_result, 0, 1)
    assert tally.attempted > 0
    assert tally.error_rate > 0


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_peak_rss_probe_runs_the_unit(pkg, name):
    case, inputs, make = small_case(pkg, name)
    with run.peak_rss_probe(case) as probe:
        (out, counters), loaded, peak = run.peak_rss(probe, inputs)
    assert (out, counters) == case.run(pkg, inputs, make)
    assert case.check(out, case.expect(inputs))[1] == 0
    assert 0 < loaded <= peak


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(30_000) == 99.9
    assert run.tail_percentile(4_000) == 99.0
    assert run.tail_percentile(50) == 50.0
    assert run.percentile(list(range(1, 1001)), 99.0) == 990


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("heapsort", 0), ("fuzz", 1)])
def test_command_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heapsort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
