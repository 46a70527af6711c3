"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload heapsort --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/``;
nothing needs building.  Every call into the package waits for the one
before it: one process, one thread, a closed loop.

``--trace 0`` prints the end-to-end metrics: ``norm_time`` (the median
over repetitions of the unit's time divided by the calibration kernel's,
timed alternately), ``setup_s`` and ``peak_rss_mib`` (of a fresh process
that runs one unit, see ``peak_rss.py``).  ``--trace 1``
prints the per-layer metrics: it runs the unit traced a few times, each
paired with an untraced run, then the untraced unit and the baseline
heaps for the rest of ``--seconds``, and writes the spans to
``.bench_out/spans-<workload>.bin``.  NOTES.md defines every metric.

Every unit's output is checked against a reference built with the
standard library only (``sorted``, ``heapq``), outside the timed region.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import calib
import cases
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "violationheap"
LAYERS = ("heap_core", "oracle", "invariants", "workloads", "baselines")

SETUP_SECONDS = 3.0
SETUP_REPS = 7      # set-ups, at least, whatever SETUP_SECONDS allows
MIN_REPS = 3        # untraced repetitions, at least, whatever --seconds says
TRACED_REPS = 3

clock = time.perf_counter


class PackageMissing(Exception):
    """The checkout has no importable package under ``src/``."""


def load_package() -> SimpleNamespace:
    """Import the package's layers afresh from ``src/``."""
    src = (ROOT / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise PackageMissing(f"no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    where = Path(mods["heap_core"].__file__).resolve()
    if not where.is_relative_to(src):
        raise PackageMissing(f"{PACKAGE} was imported from {where}, not {src}")
    return SimpleNamespace(**mods)


def heap_factories(pkg, case) -> dict:
    names = ("violation", "binary", "pairing") if case.baselines else ("violation",)
    return {name: functools.partial(pkg.workloads.make_heap, name) for name in names}


class Tally:
    """Output checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class UnitError:
    """Stands in for the output of a unit that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def set_up(case, pkg, seed: int, rec=None) -> tuple:
    """Build the inputs repeatedly; only the builds are timed.

    Builds repeat for SETUP_SECONDS and at least SETUP_REPS times, with
    the calibration kernel between them, as ``alternate`` does for
    units.  Returns the last inputs and the set-up timings.  With a
    recorder, each build runs traced under a ``bench.setup`` span.
    """
    last = []

    def once():
        if rec is None:
            return case.build(pkg, seed)
        with rec.installed(pkg), rec.span("bench.setup"):
            return case.build(pkg, seed)

    def keep(label: str, out) -> None:
        if isinstance(out, UnitError):
            raise out.exc
        last[:] = [out]   # frees the previous inputs, outside the timing
        # every build starts with the cyclic collector in the same state,
        # so its collections fall at the same points in every build
        gc.collect()

    gc.collect()
    timings, _ = alternate({"setup": once}, keep, SETUP_SECONDS, SETUP_REPS)
    return last[0], timings["setup"]


def time_kernel() -> float:
    t0 = clock()
    calib.kernel()
    return clock() - t0


def alternate(units: dict, on_result, seconds: float, min_rounds: int) -> tuple:
    """Time the units in turn, with the calibration kernel between them.

    The kernel runs once before the first unit and once after every
    unit.  Each unit's ratio is its time over the mean of the two
    kernel times around it.  Rounds repeat until ``seconds`` have passed
    and ``min_rounds`` are done.  ``on_result(label, output)`` runs
    after each unit's timing stops; a unit that raises is timed up to
    the raise and reported as a ``UnitError``.

    Returns ({label: [(seconds, ratio), ...]}, [kernel seconds, ...]).
    """
    timings = {label: [] for label in units}
    refs = [time_kernel()]
    deadline = clock() + seconds
    rounds = 0
    while rounds < min_rounds or clock() < deadline:
        for label, fn in units.items():
            t0 = clock()
            try:
                out = fn()
            except Exception as exc:   # a broken unit is a failed check
                out = UnitError(exc)
            dt = clock() - t0
            on_result(label, out)
            out = None
            refs.append(time_kernel())
            timings[label].append((dt, dt / ((refs[-2] + refs[-1]) / 2)))
        rounds += 1
    return timings, refs


def checker(case, expected, tally: Tally):
    """on_result for ``alternate``: check outputs, count failures."""
    def on_result(label: str, out) -> None:
        if isinstance(out, UnitError):
            traceback.print_exception(out.exc, file=sys.stderr)
            tally.add(1, 1)
        else:
            tally.add(*case.check(out[0], expected))
    return on_result


def median_of(pairs: list, k: int) -> float:
    return statistics.median(p[k] for p in pairs)


@contextmanager
def peak_rss_probe(case):
    """Start the process that runs one unit for ``peak_rss``.

    Start it while this process is still small: Linux carries the RSS
    high-water mark of the process that spawns a child across the
    child's exec, so a probe started after set-up would report set-up's
    peak.  The probe is killed if the block ends before it has.
    """
    with subprocess.Popen([sys.executable, str(HERE / "peak_rss.py"), case.name],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            # wait until its start-up is over, so that it does not
            # compete with the first set-up for the CPU
            proc.stdout.read(1)
            yield proc
        finally:
            proc.kill()   # does nothing once the probe has been waited for


def peak_rss(probe, inputs) -> tuple:
    """Send the inputs to the probe; see ``peak_rss.py``.

    Returns ((output, counters), ru_maxrss MiB once the inputs are
    loaded, ru_maxrss MiB after the unit).
    """
    out, _ = probe.communicate(pickle.dumps(inputs), timeout=150)
    if probe.returncode != 0:
        raise RuntimeError(f"peak_rss.py exited with code {probe.returncode}")
    return pickle.loads(out)


# -- untraced run ---------------------------------------------------------

def end_to_end(case, seed: int, seconds: float, tally: Tally) -> dict:
    with peak_rss_probe(case) as probe:
        pkg = load_package()
        inputs, setups = set_up(case, pkg, seed)
        expected = case.expect(inputs)
        out, rss_loaded, rss_peak = peak_rss(probe, inputs)
    on_result = checker(case, expected, tally)
    on_result("peak_rss", out)
    out = None
    make = heap_factories(pkg, case)["violation"]
    units = {"unit": lambda: case.run(pkg, inputs, make)}
    alternate(units, on_result, 0, 1)   # warm-up, checked but not timed
    timings, refs = alternate(units, on_result, seconds, MIN_REPS)
    reps = timings["unit"]
    print(f"# {len(reps)} reps: unit median {median_of(reps, 0):.4f} s, "
          f"kernel median {statistics.median(refs):.4f} s, "
          f"set-up median {median_of(setups, 0):.6f} s before normalising; "
          f"ru_maxrss {rss_loaded:.1f} MiB with inputs loaded, "
          f"{rss_peak:.1f} MiB after the unit")
    return {
        "norm_time": median_of(reps, 1),
        "setup_s": median_of(setups, 1) * calib.KERNEL_REF_S,
        "peak_rss_mib": rss_peak,
    }


# -- traced run -----------------------------------------------------------

def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(round(len(sorted_vals) * p / 100, 9))
    return sorted_vals[max(0, k - 1)]


def tail_percentile(n: int) -> float:
    """Highest of p99.99/p99.9/p99/p90/p50 with at least 10 samples beyond it."""
    for p in (99.99, 99.9, 99.0, 90.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50.0


def unit_layers(names: list, c: dict, root: int) -> dict:
    """Per-layer figures of one traced unit, from its span subtree."""
    idx = spans.subtree(c, root)
    own = spans.self_times(c, idx)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    dm_us = []
    joins = audit_nodes = 0
    walk: Counter = Counter()
    for j, i in enumerate(idx):
        name = names[c["name"][i]]
        if name.startswith("oracle.NaivePQ."):
            name = "oracle.naive"
        elif name == "heap_core.decrease_key":
            kind = "cut" if c["b"][i] else "inplace"
            calls[f"{name}.{kind}"] += 1
            self_ns[f"{name}.{kind}"] += own[j]
            if kind == "cut":
                walk[c["c"][i]] += 1
        elif name == "heap_core.delete_min":
            dm_us.append((c["end_ns"][i] - c["start_ns"][i]) / 1e3)
            joins += c["a"][i]
        elif name == "invariants.full_audit":
            audit_nodes += c["a"][i]
        calls[name] += 1
        self_ns[name] += own[j]

    def s(name: str) -> float:
        return self_ns[name] / 1e9

    m = {}
    for op in spans.HEAP_OPS:
        m[f"heap_core.{op}.calls"] = calls[f"heap_core.{op}"]
        m[f"heap_core.{op}.self_s"] = s(f"heap_core.{op}")
    dm_us.sort()
    n_dm = len(dm_us)
    m["heap_core.delete_min.p50_us"] = percentile(dm_us, 50) if dm_us else 0.0
    m["heap_core.delete_min.tail_us"] = \
        percentile(dm_us, tail_percentile(n_dm)) if dm_us else 0.0
    m["heap_core.delete_min.samples"] = n_dm
    m["heap_core.delete_min.joins_per_call"] = joins / n_dm if n_dm else 0.0
    n_dk = calls["heap_core.decrease_key"]
    n_cut = calls["heap_core.decrease_key.cut"]
    m["heap_core.decrease_key.inplace_frac"] = \
        calls["heap_core.decrease_key.inplace"] / n_dk if n_dk else 0.0
    m["heap_core.decrease_key.inplace_self_s"] = s("heap_core.decrease_key.inplace")
    m["heap_core.decrease_key.cut_self_s"] = s("heap_core.decrease_key.cut")
    steps = sum(k * v for k, v in walk.items())
    m["heap_core.repair_walk.steps_per_cut"] = steps / n_cut if n_cut else 0.0
    for k in range(3):
        m[f"heap_core.repair_walk.len_{k}"] = walk[k] / n_cut if n_cut else 0.0
    m["heap_core.repair_walk.len_3plus"] = \
        sum(v for k, v in walk.items() if k >= 3) / n_cut if n_cut else 0.0
    m["oracle.gen_ops.self_s"] = s("oracle.gen_ops")
    m["oracle.naive.self_s"] = s("oracle.naive")
    m["oracle.replay.self_s"] = s("oracle.replay")
    m["invariants.full_audit.calls"] = calls["invariants.full_audit"]
    m["invariants.full_audit.self_s"] = s("invariants.full_audit")
    m["invariants.full_audit.us_per_node"] = \
        self_ns["invariants.full_audit"] / 1e3 / audit_nodes if audit_nodes else 0.0
    m["workloads.dijkstra.self_s"] = s("workloads.dijkstra")
    m["bench.loop.self_s"] = s("bench.unit")
    m["trace.unit_s"] = (c["end_ns"][root] - c["start_ns"][root]) / 1e9
    return m


def per_layer(case, seed: int, seconds: float, tally: Tally) -> dict:
    rec = spans.SpanRecorder()
    pkg = load_package()
    inputs, _ = set_up(case, pkg, seed, rec)
    expected = case.expect(inputs)
    makers = heap_factories(pkg, case)
    check = checker(case, expected, tally)
    counters = {}

    def on_result(label: str, out) -> None:
        check(label, out)
        if label in ("untraced", "traced") and not isinstance(out, UnitError):
            # tracing must not change what the heap does: every
            # repetition, traced or not, repeats the first one's counters
            first = counters.setdefault("first", out[1])
            tally.add(1, int(out[1] != first))

    def traced():
        with rec.installed(pkg), rec.span("bench.unit"):
            return case.run(pkg, inputs, makers["violation"])

    deadline = clock() + seconds
    untraced = lambda: case.run(pkg, inputs, makers["violation"])
    # a fixed number of traced units bounds the spans held in memory;
    # the rest of the time goes to the untraced unit and the baselines
    paired, _ = alternate({"untraced": untraced, "traced": traced},
                          on_result, 0, TRACED_REPS)
    units = {"untraced": untraced}
    for name in ("binary", "pairing"):
        if name in makers:
            units[name] = lambda make=makers[name]: case.run(pkg, inputs, make)
    timings, refs = alternate(units, on_result, max(0.0, deadline - clock()), 1)

    c = rec.columns()
    reps = [unit_layers(rec.names, c, r)
            for r in spans.roots(c, rec.name_id("bench.unit"))]
    layers = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    comparisons, joins, cuts, steps, max_rank = counters.get("first", (0,) * 5)
    n_ops = sum(layers[f"heap_core.{op}.calls"] for op in spans.HEAP_OPS)
    layers["heap_core.comparisons_per_op"] = comparisons / n_ops if n_ops else 0.0
    layers["heap_core.joins"] = joins
    layers["heap_core.cuts"] = cuts
    layers["heap_core.rank_update_steps"] = steps
    layers["heap_core.max_rank"] = max_rank

    gen_id = rec.name_id("workloads.gen_graph")
    gen = [(c["end_ns"][i] - c["start_ns"][i]) / 1e9
           for r in spans.roots(c, rec.name_id("bench.setup"))
           for i in spans.subtree(c, r) if c["name"][i] == gen_id]
    layers["workloads.gen_graph.s"] = statistics.median(gen) if gen else 0.0
    for name in ("binary", "pairing"):
        layers[f"baselines.{name}.norm_time"] = \
            median_of(timings[name], 1) if name in timings else 0.0
    layers["calib.workload_s"] = median_of(timings["untraced"], 0)
    layers["calib.ref_s"] = statistics.median(refs)
    layers["trace.overhead_frac"] = \
        median_of(paired["traced"], 1) / median_of(paired["untraced"], 1) - 1
    rec.dump(OUT_DIR / f"spans-{case.name}.bin")
    print(f"# {len(reps)} traced reps, {len(rec)} spans written to "
          f".bench_out/spans-{case.name}.bin")
    return layers


def declared_units(trace: int) -> dict:
    """{metric name: unit} that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    case = cases.CASES[args.workload]
    units = declared_units(args.trace)
    tally = Tally()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(case, args.seed, args.seconds, tally)
    except PackageMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if metrics.keys() != units.keys():
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(metrics.keys() ^ units.keys())}")
    print(f"# workload {case.name}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>14.6g} {unit}")
    print(f"{'error_rate':40s} {tally.error_rate:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} checks failed)")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
