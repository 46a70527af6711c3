"""CLI behavior: subcommand output shapes, trace replay, exit codes."""

import io
import json
import shlex
import weakref
from dataclasses import fields
from pathlib import Path

import pytest

from violationheap import cli
from violationheap.cli import TraceError, _build_parser, main, run_trace
from violationheap.heap_core import Telemetry, ViolationHeap
from violationheap.oracle import run_differential
from violationheap.workloads import CSV_HEADER, HEAP_NAMES

TELEMETRY = [f.name for f in fields(Telemetry)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFuzz:
    def test_passing_seeds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seeds", "3", "--ops", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            doc = json.loads(line)
            assert doc["seed"] == i and doc["verdict"] == "pass"
            assert doc["ops"] == 200 and doc["fail_at"] is None

    def test_seed_base_and_weights(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seeds", "2", "--seed-base", "70",
                           "--ops", "150", "--weights", "1,1,1,0",
                           "--audit-every", "10")
        assert code == 0
        seeds = [json.loads(l)["seed"] for l in out.strip().splitlines()]
        assert seeds == [70, 71]

    def test_lines_carry_every_counter(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seeds", "2", "--seed-base", "4",
                           "--ops", "300")
        assert code == 0
        for line in out.strip().splitlines():
            doc = json.loads(line)
            v = run_differential(doc["seed"], 300)
            for name in TELEMETRY + ["inserts", "deletes", "decreases",
                                     "melds", "audits", "multiplicity_audits"]:
                assert doc[name] == getattr(v, name), name

    def test_a_failing_seed_exits_one(self, capsys, monkeypatch):
        # a planted bug: find_min reports every heap empty
        monkeypatch.setattr(ViolationHeap, "find_min", lambda self: None)
        code, out, _ = run(capsys, "fuzz", "--seeds", "2", "--ops", "200")
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 1 and [doc["seed"] for doc in docs] == [0, 1]
        for doc in docs:
            assert doc["verdict"] == "fail" and isinstance(doc["fail_at"], int)
            assert doc["detail"].startswith("find_min empty, oracle is not")

    def test_bad_weights_usage_error(self, capsys):
        # argparse exits 2 and its message keeps parse_weights's reason
        for text, reason in [("1,2", "expected four weights"),
                             ("inf,1,1,1", "must be finite"),
                             ("-1,1,1,1", "must be non-negative"),
                             ("-inf,1,1,1", "must be non-negative"),
                             ("-.5,1,1,1", "must be non-negative"),
                             ("0,0,0,0", "must not all be zero")]:
            # a leading minus sign reaches parse_weights in either form
            for argv in (["fuzz", "--weights=" + text], ["fuzz", "--weights", text],
                         ["fuzz", "--w", text]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2, argv
                assert reason in capsys.readouterr().err, argv

    def test_negative_values_of_other_options_are_left_alone(self, capsys):
        # only the value right after --weights is joined to it
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--ops", "-1", "--weights", "1,1,1,1"])
        assert exc.value.code == 2
        assert "argument --ops: must be at least 1, got -1" in capsys.readouterr().err


class TestTrace:
    def test_full_session(self):
        trace = """
        # two heaps, melded, with a decrease across the meld
        new a
        new b
        insert a x 5
        insert a y 12
        insert b z 3
        meld a b
        findmin b        # either name reaches the merged heap
        decrease y 1
        findmin a
        deletemin a
        deletemin a
        deletemin b
        findmin a
        check a
        """
        out = io.StringIO()
        run_trace(trace.strip().splitlines(), out=out)
        assert out.getvalue().splitlines() == [
            "z 3", "y 1", "y 1", "z 3", "x 5", "none", "ok"]

    def test_unknown_heap(self):
        with pytest.raises(TraceError, match="line 1: unknown heap"):
            run_trace(["findmin nope"])

    def test_dead_id(self):
        out = io.StringIO()
        with pytest.raises(TraceError, match="line 4: id 'x' is dead"):
            run_trace(["new a", "insert a x 5", "deletemin a", "decrease x 1"], out=out)
        assert out.getvalue() == "x 5\n"

    def test_key_increase_reported_with_line(self):
        with pytest.raises(TraceError, match="line 3: key increase"):
            run_trace(["new a", "insert a x 5", "decrease x 9"])

    def test_reused_id(self):
        with pytest.raises(TraceError, match="reused"):
            run_trace(["new a", "insert a x 5", "insert a x 6"])

    def test_empty_deletemin(self):
        with pytest.raises(TraceError, match="line 2"):
            run_trace(["new a", "deletemin a"])

    def test_self_meld(self):
        with pytest.raises(TraceError, match="same heap"):
            run_trace(["new a", "new b", "insert a x 1", "insert b y 2",
                       "meld a b", "meld a b"])

    def test_garbage_line(self):
        with pytest.raises(TraceError, match="bad trace line"):
            run_trace(["pop everything"])

    @pytest.mark.parametrize("lines, message", [
        (["new a", "new a"], "line 2: heap 'a' exists"),
        (["new a", "decrease x 1"], "line 2: unknown id 'x'"),
        (["new a", "insert a x five"], "line 2: bad key 'five'"),
    ])
    def test_errors_name_the_line(self, lines, message):
        with pytest.raises(TraceError, match=message):
            run_trace(lines)

    def test_check_reports_a_failed_audit(self, monkeypatch):
        # a decrease that only stores the key leaves a root below the first
        monkeypatch.setattr(ViolationHeap, "decrease_key",
                            lambda self, x, key: setattr(x, "key", key))
        with pytest.raises(TraceError, match="line 5: audit failed: .*first-root"):
            run_trace(["new a", "insert a x 5", "insert a y 6", "decrease y 1", "check a"])

    def test_file_and_exit_codes(self, tmp_path, capsys, monkeypatch):
        good = tmp_path / "good.trace"
        good.write_text("new h\ninsert h a 2\nfindmin h\ncheck h\n")
        code, out, _ = run(capsys, "check", str(good))
        assert code == 0 and out.splitlines() == ["a 2", "ok"]
        # "-" reads the trace from stdin
        monkeypatch.setattr("sys.stdin", io.StringIO(good.read_text()))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0 and out.splitlines() == ["a 2", "ok"]

        bad = tmp_path / "bad.trace"
        bad.write_text("new h\ndeletemin h\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "line 2" in err

        code, _, err = run(capsys, "check", str(tmp_path / "missing.trace"))
        assert code == 2 and "cannot read" in err


class TestBench:
    def test_heapsort_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "heapsort", "--n", "500",
                           "--heap", "violation")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "heapsort" and fields[1] == "violation"

    def test_dijkstra_all_heaps_same_checksum(self, capsys):
        code, out, _ = run(capsys, "bench", "dijkstra", "--n", "200",
                           "--m", "800")
        assert code == 0
        sums = {l.rsplit(" ", 1)[1] for l in out.splitlines()
                if l.startswith("# checksum")}
        assert len(sums) == 1

    def test_dijkstra_from_dimacs(self, capsys, tmp_path):
        f = tmp_path / "g.gr"
        f.write_text("p sp 3 2\na 1 2 5\na 2 3 5\n")
        code, out, _ = run(capsys, "bench", "dijkstra", "--dimacs", str(f),
                           "--heap", "binary")
        assert code == 0 and "dijkstra,binary,3,2" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bench", "mixed", "--n", "400",
                           "--heap", "pairing", "--format", "json")
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["workload"] == "mixed" and doc["heap"] == "pairing"

    def test_csv_columns_are_run_prefix_plus_telemetry(self):
        assert CSV_HEADER == "workload,heap,n,m,seed,wall_ns," + ",".join(TELEMETRY)

    def test_json_carries_every_counter(self, capsys):
        argv = ("bench", "heapsort", "--n", "300", "--heap", "violation")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        _, out, _ = run(capsys, *argv)
        header, row = out.strip().splitlines()
        csv = dict(zip(header.split(","), row.split(",")))
        for name in TELEMETRY:
            assert str(doc[name]) == csv[name], name

    def test_repeat_seeds(self, capsys):
        code, out, _ = run(capsys, "bench", "heapsort", "--n", "300",
                           "--heap", "binary", "--seed", "5", "--repeat", "3")
        assert code == 0
        seeds = [int(l.split(",")[4]) for l in out.strip().splitlines()[1:]]
        assert seeds == [5, 6, 7]

    def test_bad_dimacs_exit_two(self, capsys, tmp_path):
        f = tmp_path / "bad.gr"
        f.write_text("a 1 2 3\n")
        code, _, err = run(capsys, "bench", "dijkstra", "--dimacs", str(f))
        assert code == 2 and "line 1" in err

    @pytest.mark.parametrize("weight", [2 ** 63, -2 ** 63 - 1])
    def test_dimacs_weight_outside_int64_exit_two(self, capsys, tmp_path, weight):
        f = tmp_path / "wide.gr"
        f.write_text(f"p sp 2 1\na 1 2 {weight}\n")
        code, out, err = run(capsys, "bench", "dijkstra", "--dimacs", str(f))
        assert code == 2 and out == ""
        assert "line 2" in err and "int64" in err

    def test_dimacs_distance_reaching_the_sentinel_exit_two(self, capsys, tmp_path):
        f = tmp_path / "far.gr"
        f.write_text(f"p sp 3 2\na 1 2 {2 ** 62}\na 2 3 {2 ** 62}\n")
        code, out, err = run(capsys, "bench", "dijkstra", "--dimacs", str(f))
        assert code == 2 and out == ""
        assert "vertex 3 is reached" in err

    def test_dimacs_negative_weight_names_the_file_vertices(self, capsys, tmp_path):
        f = tmp_path / "neg.gr"
        f.write_text("p sp 2 1\na 1 2 -3\n")
        code, out, err = run(capsys, "bench", "dijkstra", "--dimacs", str(f))
        assert code == 2 and out == ""
        assert "negative weight -3 on arc 1->2" in err

    def test_vertex_count_past_int64_exit_two(self, capsys):
        code, out, err = run(capsys, "bench", "dijkstra", "--n", str(1 << 64),
                             "--m", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "vertex count" in err

    # sizes no list can index (2**63) or no memory can hold (2**63 - 1):
    # refused before anything is allocated
    @pytest.mark.parametrize("argv,cause", [
        ("heapsort --n 9223372036854775808", "OverflowError"),
        ("dijkstra --n 9223372036854775808 --m 1", "OverflowError"),
        ("heapsort --n 9223372036854775807", "MemoryError")])
    def test_size_too_large_exit_two(self, capsys, argv, cause):
        code, out, err = run(capsys, "bench", *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large" in err and cause in err

    def test_dimacs_size_too_large_exit_two(self, capsys, tmp_path):
        f = tmp_path / "huge.gr"
        f.write_text("p sp 9223372036854775808 0\n")
        code, out, err = run(capsys, "bench", "dijkstra", "--dimacs", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "OverflowError" in err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_dimacs_exit_two(self, capsys, tmp_path, where):
        path = tmp_path / "absent.gr" if where == "missing" else tmp_path
        code, out, err = run(capsys, "bench", "dijkstra", "--dimacs", str(path))
        assert code == 2 and out == ""
        assert err.startswith("cannot read graph: ") and str(path) in err

    # the builder's name in cli, and where its arguments hold the seed
    @pytest.mark.parametrize("workload,builder,seed_at", [
        ("dijkstra", "gen_graph", 2), ("mixed", "gen_ops", 0)],
        ids=["dijkstra", "mixed"])
    def test_repeat_builds_each_input_once(self, capsys, monkeypatch,
                                           workload, builder, seed_at):
        built = []
        real = getattr(cli, builder)

        def counting(*args):
            built.append(args[seed_at])
            return real(*args)

        monkeypatch.setattr(cli, builder, counting)
        code, out, _ = run(capsys, "bench", workload, "--n", "50", "--m", "200",
                           "--heap", "all", "--seed", "4", "--repeat", "3")
        assert code == 0 and built == [4, 5, 6]
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert [(r[1], int(r[4])) for r in rows] == \
            [(h, s) for h in HEAP_NAMES for s in (4, 5, 6)]

    def test_repeat_drops_each_graph_before_the_next(self, capsys, monkeypatch):
        # a graph keeps its CSR form, so the last seed's graph must be
        # freed before gen_graph builds the next one
        built = []
        real = cli.gen_graph

        def tracking(*args):
            assert all(ref() is None for ref in built)
            graph = real(*args)
            built.append(weakref.ref(graph.flat))
            return graph

        monkeypatch.setattr(cli, "gen_graph", tracking)
        code, _, _ = run(capsys, "bench", "dijkstra", "--n", "50", "--m", "200",
                         "--heap", "all", "--repeat", "3")
        assert code == 0 and len(built) == 3

    @pytest.mark.parametrize("workload", ["heapsort", "mixed"])
    def test_dimacs_outside_dijkstra_usage_error(self, capsys, workload):
        with pytest.raises(SystemExit) as exc:
            main(["bench", workload, "--n", "5", "--dimacs", "/nonexistent"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and "--dimacs" in out.err and out.out == ""

    def test_unknown_workload_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "quicksort"])
        assert exc.value.code == 2
        assert "invalid choice: 'quicksort'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "fuzz --seeds 0", "fuzz --seeds -3", "fuzz --ops 0", "fuzz --ops -5",
    "fuzz --audit-every -1", "bench heapsort --n -5",
    "bench dijkstra --m -7", "bench heapsort --repeat 0"])
def test_counts_that_run_nothing_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2 and "must be at least" in capsys.readouterr().err


def test_smallest_accepted_counts_run(capsys):
    code, out, _ = run(capsys, *"fuzz --seeds 1 --ops 1 --audit-every 0".split())
    assert code == 0 and json.loads(out)["audits"] == 0
    code, out, _ = run(capsys, *"bench dijkstra --n 1 --m 0 --heap binary".split())
    assert code == 0 and "dijkstra,binary,1,0" in out


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line.split("#", 1)[0].strip()
                for line in readme.read_text().splitlines()
                if line.strip().startswith("vheap ")]
    assert commands
    parser = _build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
