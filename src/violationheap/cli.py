"""Command-line front end: differential fuzzing, trace replay, benchmarks.

Exit codes: 0 success, 1 a fuzz seed failed or a trace/check error, 2
usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .heap_core import HeapError, ViolationHeap
from .invariants import full_audit
from .oracle import DEFAULT_WEIGHTS, gen_ops, parse_weights, run_differential
from .workloads import (CSV_HEADER, HEAP_NAMES, dijkstra_bench, gen_graph,
                        heapsort_bench, mixed_bench, read_dimacs)


def _count(least: int):
    """An argparse type: an integer of at least ``least``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its error message
    return parse


def _weights(text: str) -> tuple:
    """An argparse type: ``parse_weights``, with its reason kept in the
    usage error."""
    try:
        return parse_weights(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# a value that starts with a number's minus sign: argparse reads it as an
# option after "--weights", unless it comes in the "--weights=..." form
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_weights(argv: list) -> list:
    """``--weights V`` as ``--weights=V`` when V starts with a minus sign,
    so ``parse_weights`` sees V and names why it is refused.  Abbreviations
    down to ``--w`` count, as argparse accepts them."""
    out = []
    for a in argv:
        if (out and out[-1].startswith("--w") and "--weights".startswith(out[-1])
                and _NEGATIVE.match(a)):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vheap",
        description="Violation-heap fuzzing, trace replay, and benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fuzz", help="differential fuzzing against a naive queue")
    f.add_argument("--seeds", type=_count(1), default=10,
                   help="number of seeds, starting at --seed-base (default 10)")
    f.add_argument("--seed-base", type=int, default=0)
    f.add_argument("--ops", type=_count(1), default=1000, help="operations per seed")
    f.add_argument("--weights", type=_weights, default=DEFAULT_WEIGHTS,
                   metavar="I,D,K,M",
                   help="insert,delete,decrease,meld weights (normalized)")
    f.add_argument("--audit-every", type=_count(0), default=None, metavar="N",
                   help="structural audit cadence; 0 disables, default adapts")

    c = sub.add_parser("check", help="replay a trace file against the heap")
    c.add_argument("trace", help="trace file path, or - for stdin")

    b = sub.add_parser("bench", help="run a workload and print counter records")
    b.add_argument("workload", choices=("heapsort", "mixed", "dijkstra"))
    b.add_argument("--heap", choices=HEAP_NAMES + ("all",), default="all")
    b.add_argument("--n", type=_count(1), default=10000,
                   help="elements (heapsort), ops of a gen_ops script at the "
                        "default weights (mixed), vertices (dijkstra)")
    b.add_argument("--m", type=_count(0), default=50000, help="dijkstra arc count")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeat", type=_count(1), default=1,
                   help="run seeds seed..seed+repeat-1")
    b.add_argument("--dimacs", metavar="FILE",
                   help="dijkstra only: read the graph instead of generating")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _cmd_fuzz(args) -> int:
    failures = 0
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        verdict = run_differential(seed, args.ops, weights=args.weights,
                                   audit_every=args.audit_every)
        print(verdict.to_json())
        if not verdict.passed:
            failures += 1
    return 1 if failures else 0


class TraceError(Exception):
    pass


def run_trace(lines, out=None) -> None:
    """Replay a line-oriented trace.  Every heap is a ``ViolationHeap()``
    of its own; any two meld.  Heap names are aliases, and a meld points
    the absorbed heap's names at the other.

        new H            create an empty heap named H
        insert H ID KEY  insert; ID becomes the element's name
        decrease ID KEY  lower the element's key
        deletemin H      pop the minimum, print "ID KEY"
        findmin H        print "ID KEY" without removing, or "none"
        meld H1 H2       H1 absorbs H2; both names now resolve to H1
        check H          full structural audit, print "ok"

    Blank lines and '#' comments are skipped.  Any violation of the
    trace language raises TraceError with the line number.
    """
    if out is None:
        out = sys.stdout
    heaps: dict = {}
    handles: dict = {}
    owners: dict = {}   # element id -> heap name at insert time; the
                        # name keeps resolving after melds re-alias it

    def heap_of(name, lineno):
        try:
            return heaps[name]
        except KeyError:
            raise TraceError(f"line {lineno}: unknown heap {name!r}") from None

    def parse_key(text, lineno):
        try:
            return int(text)
        except ValueError:
            raise TraceError(f"line {lineno}: bad key {text!r}") from None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        op, rest = fields[0], fields[1:]
        try:
            if op == "new" and len(rest) == 1:
                if rest[0] in heaps:
                    raise TraceError(f"line {lineno}: heap {rest[0]!r} exists")
                heaps[rest[0]] = ViolationHeap()
            elif op == "insert" and len(rest) == 3:
                name, ident, key = rest
                if ident in handles:
                    raise TraceError(f"line {lineno}: id {ident!r} reused")
                handles[ident] = heap_of(name, lineno).insert(
                    parse_key(key, lineno), ident)
                owners[ident] = name
            elif op == "decrease" and len(rest) == 2:
                ident, key = rest
                if ident not in handles:
                    raise TraceError(f"line {lineno}: unknown id {ident!r}")
                owner = heaps[owners[ident]]
                if not owner.is_live(handles[ident]):
                    raise TraceError(f"line {lineno}: id {ident!r} is dead")
                owner.decrease_key(handles[ident], parse_key(key, lineno))
            elif op == "deletemin" and len(rest) == 1:
                key, item = heap_of(rest[0], lineno).delete_min()
                print(f"{item} {key}", file=out)
            elif op == "findmin" and len(rest) == 1:
                got = heap_of(rest[0], lineno).find_min()
                print("none" if got is None else f"{got[1]} {got[0]}", file=out)
            elif op == "meld" and len(rest) == 2:
                a, b = heap_of(rest[0], lineno), heap_of(rest[1], lineno)
                if a is b:
                    raise TraceError(
                        f"line {lineno}: {rest[0]!r} and {rest[1]!r} are the same heap")
                a.meld(b)
                heaps.update({name: a for name, h in heaps.items() if h is b})
            elif op == "check" and len(rest) == 1:
                report = full_audit(heap_of(rest[0], lineno))
                if not report.ok:
                    raise TraceError(
                        f"line {lineno}: audit failed: {report.to_json()}")
                print("ok", file=out)
            else:
                raise TraceError(f"line {lineno}: bad trace line {line!r}")
        except HeapError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None


def _cmd_check(args) -> int:
    try:
        if args.trace == "-":
            run_trace(sys.stdin)
        else:
            with open(args.trace) as fh:
                run_trace(fh)
    except TraceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args) -> int:
    names = HEAP_NAMES if args.heap == "all" else (args.heap,)
    seeds = range(args.seed, args.seed + args.repeat)
    dimacs = None
    if args.dimacs:
        try:
            dimacs = read_dimacs(args.dimacs)
        except OSError as exc:
            print(f"cannot read graph: {exc}", file=sys.stderr)
            return 2

    # seed by seed, so that each seed's graph or script is built once and
    # dropped before the next one is built
    runs = {}
    try:
        for seed in seeds:
            if args.workload == "dijkstra":
                graph = dimacs if dimacs is not None else gen_graph(args.n, args.m, seed)
            elif args.workload == "mixed":
                script = gen_ops(seed, args.n)
            for name in names:
                if args.workload == "heapsort":
                    runs[name, seed] = heapsort_bench(name, args.n, seed)
                elif args.workload == "mixed":
                    runs[name, seed] = mixed_bench(name, script)
                else:
                    runs[name, seed] = dijkstra_bench(name, graph, seed)
    except (OverflowError, MemoryError) as exc:
        # a size no list can index, or too large for memory to hold
        cause = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: the workload is too large to run ({cause})", file=sys.stderr)
        return 2
    records = [runs[name, seed] for name in names for seed in seeds]

    if args.format == "json":
        for r in records:
            print(json.dumps(vars(r)))
    else:
        print(CSV_HEADER)
        for r in records:
            print(r.csv_row())
        if args.workload == "dijkstra":
            for r in records:
                print(f"# checksum {r.heap} seed={r.seed} {r.checksum}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_weights(sys.argv[1:] if argv is None else argv))
    if args.command == "bench" and args.dimacs and args.workload != "dijkstra":
        parser.error(f"--dimacs is for the dijkstra workload only, not {args.workload}")
    try:
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_bench(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
