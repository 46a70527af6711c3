import io

import pytest

from violationheap.workloads import (CSV_HEADER, INF_KEY, Graph, checksum,
                                     dijkstra, dijkstra_bench, gen_graph,
                                     heapsort_bench, make_heap, mixed_bench,
                                     read_dimacs)

ALL = ("violation", "binary", "pairing")


def test_make_heap_names():
    for name in ALL:
        h = make_heap(name)
        h.insert(1)
        assert h.delete_min()[0] == 1
    with pytest.raises(ValueError, match="unknown heap"):
        make_heap("fibonacci")


class TestDijkstra:
    def test_path_graph(self):
        g = Graph(3, [(0, 1, 2), (1, 2, 3)])
        for name in ALL:
            assert dijkstra(g, 0, make_heap(name)) == [0, 2, 5]

    def test_unreachable_stays_infinite(self):
        g = Graph(3, [(0, 1, 4)])
        assert dijkstra(g, 0) == [0, 4, INF_KEY]

    def test_zero_weights_and_self_loops(self):
        g = Graph(3, [(0, 0, 5), (0, 1, 0), (1, 2, 0)])
        assert dijkstra(g, 0) == [0, 0, 0]

    def test_negative_weight_raises(self):
        g = Graph(2, [(0, 1, -3)])
        with pytest.raises(ValueError, match="negative weight"):
            dijkstra(g, 0)

    def test_unreached_negative_arc_ignored(self):
        # the bad arc hangs off an unreachable vertex; never relaxed
        g = Graph(3, [(0, 1, 2), (2, 0, -9)])
        assert dijkstra(g, 0) == [0, 2, INF_KEY]

    def test_bad_source(self):
        with pytest.raises(ValueError, match="source"):
            dijkstra(Graph(2, []), 5)

    def test_all_heaps_agree_elementwise(self):
        for seed in range(4):
            g = gen_graph(250, 1200, seed)
            base = dijkstra(g, 0, make_heap("binary"))
            for name in ("violation", "pairing"):
                assert dijkstra(g, 0, make_heap(name)) == base


class TestGenGraph:
    def test_shape_and_determinism(self):
        g = gen_graph(50, 200, seed=5)
        assert g.n == 50 and g.m == 200
        assert all(0 <= u < 50 and 0 <= v < 50 and 0 <= w <= 10 ** 6
                   for u, v, w in g.arcs)
        assert g.arcs == gen_graph(50, 200, seed=5).arcs
        assert g.arcs != gen_graph(50, 200, seed=6).arcs

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_graph(0, 5, 1)
        with pytest.raises(ValueError, match="arc count"):
            gen_graph(5, -1, 1)


class TestDimacs:
    def test_round_trip(self):
        text = "c tiny\np sp 2 1\na 1 2 7\n"
        g = read_dimacs(io.StringIO(text))
        assert g.n == 2 and g.arcs == [(0, 1, 7)]
        assert dijkstra(g, 0) == [0, 7]

    @pytest.mark.parametrize("text,fragment", [
        ("a 1 2 7\n", "line 1: arc before problem line"),
        ("p sp 2 1\na 1 3 7\n", "line 2: vertex out of range"),
        ("p sp 2 2\na 1 2 7\n", "declares 2 arcs"),
        ("p sp 2 1\na 1 2\n", "line 2"),
        ("p sp 2 1\nq wat\n", "line 2: unrecognized"),
        ("p sp 2 1\np sp 2 1\n", "duplicate problem line"),
        ("p sp x 1\n", "line 1"),
        ("", "no problem line"),
    ])
    def test_errors_name_the_line(self, text, fragment):
        with pytest.raises(ValueError) as err:
            read_dimacs(io.StringIO(text))
        assert fragment in str(err.value)

    def test_reads_from_path(self, tmp_path):
        f = tmp_path / "g.dimacs"
        f.write_text("p sp 3 2\na 1 2 4\na 2 3 6\n")
        g = read_dimacs(str(f))
        assert dijkstra(g, 0) == [0, 4, 10]


class TestBenches:
    def test_heapsort_record(self):
        r = heapsort_bench("violation", 1500, seed=2)
        assert r.workload == "heapsort" and r.heap == "violation"
        assert r.n == 1500 and r.wall_ns > 0
        assert r.joins > 0 and r.max_rank > 0
        assert len(r.csv_row().split(",")) == len(CSV_HEADER.split(","))

    def test_mixed_all_heaps(self):
        for name in ALL:
            r = mixed_bench(name, 3000, seed=4)
            assert r.wall_ns > 0 and r.comparisons > 0

    def test_dijkstra_checksums_match(self):
        g = gen_graph(400, 2000, seed=3)
        sums = {dijkstra_bench(name, g, 3).checksum for name in ALL}
        assert len(sums) == 1

    def test_checksum_is_order_sensitive(self):
        assert checksum([1, 2, 3]) != checksum([3, 2, 1])
        assert checksum([]) == checksum([])
