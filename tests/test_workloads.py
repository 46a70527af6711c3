import io
import time
import tracemalloc
from array import array
from dataclasses import fields
from types import SimpleNamespace

import pytest

from violationheap import workloads
from violationheap.heap_core import Telemetry
from violationheap.oracle import gen_ops, replay
from violationheap.workloads import (CSV_HEADER, HEAP_NAMES, INF_KEY, Graph,
                                     checksum, dijkstra, dijkstra_bench,
                                     gen_graph, heapsort_bench, make_heap,
                                     mixed_bench, read_dimacs)


def _swap_pops(heap):
    # heap's delete_min holds a minimum back and returns the next one,
    # then the one held; the last element comes out in its turn
    delete_min = heap.delete_min
    held = []

    def swapped_delete_min():
        if held:
            return held.pop()
        first = delete_min()
        if len(heap) == 0:
            return first
        held.append(first)
        return delete_min()

    heap.delete_min = swapped_delete_min
    return heap


def test_make_heap_names():
    for name in HEAP_NAMES:
        h = make_heap(name)
        h.insert(1)
        assert h.delete_min()[0] == 1
    with pytest.raises(ValueError, match="unknown heap"):
        make_heap("no-such-heap")


class TestDijkstra:
    def test_path_graph(self):
        g = Graph(3, [(0, 1, 2), (1, 2, 3)])
        for name in HEAP_NAMES:
            assert dijkstra(g, 0, make_heap(name)) == [0, 2, 5]

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_unreachable_stays_infinite(self, name):
        g = Graph(3, [(0, 1, 4)])
        assert dijkstra(g, 0, make_heap(name)) == [0, 4, INF_KEY]

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_zero_weights_and_self_loops(self, name):
        # zero-weight arcs lead back into settled vertices 0 and 1: they
        # offer no smaller key, so no removed handle is ever decreased
        g = Graph(3, [(0, 0, 5), (0, 1, 0), (1, 2, 0), (2, 1, 0), (2, 0, 0)])
        heap = make_heap(name)
        decrease_key = heap.decrease_key

        def live_decrease_key(handle, key):
            assert heap.is_live(handle)
            return decrease_key(handle, key)

        heap.decrease_key = live_decrease_key
        assert dijkstra(g, 0, heap) == [0, 0, 0]

    def test_negative_weight_raises(self):
        g = Graph(2, [(0, 1, -3)])
        with pytest.raises(ValueError, match="negative weight -3 on arc 0->1"):
            dijkstra(g, 0)

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_unreached_negative_arc_ignored(self, name):
        # the bad arc hangs off an unreachable vertex; never relaxed
        g = Graph(3, [(0, 1, 2), (2, 0, -9)])
        assert dijkstra(g, 0, make_heap(name)) == [0, 2, INF_KEY]

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_only_reached_vertices_enter_the_heap(self, name):
        # vertices 3..5 form a component the source cannot reach, and
        # vertex 2 is reached twice: one insert, then a decrease
        g = Graph(6, [(0, 1, 1), (0, 2, 5), (1, 2, 1), (3, 4, 1), (4, 5, 1),
                      (5, 3, 1), (3, 0, 1)])
        heap = make_heap(name)
        insert = heap.insert
        inserted = []

        def counting_insert(key, item=None):
            inserted.append(item)
            return insert(key, item)

        heap.insert = counting_insert
        dist = dijkstra(g, 0, heap)
        assert dist == [0, 1, 2, INF_KEY, INF_KEY, INF_KEY]
        assert sorted(inserted) == [v for v, d in enumerate(dist) if d != INF_KEY]
        assert len(heap) == 0

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_swapped_pops_raise(self, name):
        # popping vertex 2 before vertex 1 leaves the distances right, so
        # only the pop-order guard shows the heap is wrong
        g = Graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        with pytest.raises(AssertionError, match="order regressed"):
            dijkstra(g, 0, _swap_pops(make_heap(name)))
        assert dijkstra(g, 0, make_heap(name)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_tied_pops_pass_the_guard(self, name):
        # all weights zero: every pop ties with the one before it
        g = gen_graph(300, 1500, 4)
        g.flat[2::3] = array("q", [0]) * g.m
        dist = dijkstra(g, 0, make_heap(name))
        assert set(dist) == {0, INF_KEY} and dist.count(0) > 1

    @pytest.mark.parametrize("arcs,vertex", [
        ([(0, 1, 2 ** 62), (1, 2, 2 ** 62)], 2),   # true distance 2**63
        ([(0, 1, INF_KEY)], 1)], ids=["sum", "one-arc"])
    def test_distance_reaching_the_sentinel_raises(self, arcs, vertex):
        # the vertex is reached; INF_KEY would report it unreachable
        for name in HEAP_NAMES:
            with pytest.raises(ValueError, match=f"vertex {vertex} is reached"):
                dijkstra(Graph(3, arcs), 0, make_heap(name))

    def test_oversized_arc_into_a_vertex_reached_another_way(self):
        g = Graph(3, [(0, 1, INF_KEY), (0, 2, 1), (2, 1, INF_KEY - 2)])
        assert dijkstra(g, 0) == [0, INF_KEY - 1, 1]

    @pytest.mark.parametrize("arc", [(0, -1, 5), (-1, 1, 5), (0, 2, 5), (2, 0, 5)])
    def test_graph_refuses_vertex_out_of_range(self, arc):
        # a negative vertex would otherwise index from the end of a list
        with pytest.raises(ValueError, match="outside 0..1"):
            Graph(2, [arc])

    @pytest.mark.parametrize("n", [0, (1 << 63) + 1])
    def test_graph_refuses_vertex_count_outside_int64(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n)

    @pytest.mark.parametrize("w", [1 << 63, -(1 << 63) - 1])
    def test_graph_refuses_weight_outside_int64(self, w):
        with pytest.raises(ValueError, match=f"arc 0->1 has weight {w} outside the int64"):
            Graph(2, [(0, 0, 7), (0, 1, w)])
        edge = w - 1 if w > 0 else w + 1
        assert list(Graph(2, [(0, 1, edge)]).arcs) == [(0, 1, edge)]

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_refuses_a_heap_that_is_not_empty(self, name):
        # a stale element would be popped as a vertex: (-100, 2) made the
        # distances from 0 read [-99, -94, -89] instead of [0, 5, 10]
        g = Graph(3, [(0, 1, 5), (1, 2, 5), (2, 0, 1)])
        heap = make_heap(name)
        heap.insert(-100, 2)
        with pytest.raises(ValueError, match="needs an empty heap; this one holds 1"):
            dijkstra(g, 0, heap)
        assert len(heap) == 1 and heap.find_min() == (-100, 2)
        heap.delete_min()
        assert dijkstra(g, 0, heap) == [0, 5, 10]

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
        assert list(g.arcs) == list(gen_graph(50, 200, seed=5).arcs)
        assert list(g.arcs) != list(gen_graph(50, 200, seed=6).arcs)

    def test_stream_pinned(self):
        # perfbench's dijkstra graph at --seed 0, arc by arc
        g = gen_graph(15_000, 150_000, 0)
        assert checksum(x for arc in g.arcs for x in arc) == 2070937815

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_graph(0, 5, 1)
        with pytest.raises(ValueError, match="arc count"):
            gen_graph(5, -1, 1)

    def test_vertex_count_must_fit_int64(self):
        # vertex n - 1 is stored in int64, as read_dimacs requires
        with pytest.raises(ValueError, match="vertex count"):
            gen_graph((1 << 63) + 1, 1, 0)
        g = gen_graph(1 << 63, 2, 0)
        assert g.m == 2 and all(0 <= x < 1 << 63 for arc in g.arcs for x in arc[:2])

    def test_memory_per_arc(self):
        # the arc array keeps 24 bytes per arc, and the chunked fill adds
        # only one chunk on top; a (tail, head, weight) tuple per arc kept
        # about 155
        tracemalloc.start()
        try:
            g = gen_graph(2_000, 20_000, 1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept / g.m <= 25
        assert peak / g.m < 40


class TestAdjacency:
    @staticmethod
    def out_arcs(g):
        first, pairs = g.adjacency()
        assert len(first) == g.n + 1 and first[0] == 0
        assert first[-1] == len(pairs) == 2 * g.m
        return [list(pairs[first[u]:first[u + 1]]) for u in range(g.n)]

    def test_flat_pairs_in_arc_order(self):
        # parallel arcs 0->1, self-loops on 0 and 2, and a vertex with none
        g = Graph(4, [(0, 1, 5), (2, 2, 0), (0, 0, 3), (0, 1, 2), (2, 0, 7),
                      (0, 1, 5)])
        first, pairs = g.adjacency()
        assert isinstance(pairs, array) and pairs.typecode == "q"
        assert list(first) == [0, 8, 8, 12, 12]
        assert list(pairs) == [1, 5, 0, 3, 1, 2, 1, 5, 2, 0, 0, 7]
        assert self.out_arcs(g) == [[1, 5, 0, 3, 1, 2, 1, 5], [], [2, 0, 0, 7], []]

    def test_boundary_vertices(self):
        # vertex 0 has no arcs and the last vertex has some
        g = Graph(3, [(2, 0, 4), (1, 2, 1), (2, 1, 6)])
        first, pairs = g.adjacency()
        assert list(first) == [0, 0, 2, 6]
        assert self.out_arcs(g) == [[], [2, 1], [0, 4, 1, 6]]
        assert dijkstra(g, 0) == [0, INF_KEY, INF_KEY]
        assert dijkstra(g, 2) == [4, 6, 0]

    def test_single_vertex_without_arcs(self):
        g = Graph(1, [])
        first, pairs = g.adjacency()
        assert list(first) == [0, 0] and len(pairs) == 0
        assert dijkstra(g, 0) == [0]

    def test_memory_per_arc(self):
        # the CSR form peaks at about 24 bytes per arc; a (head, weight)
        # tuple per arc would peak at about 72
        g = gen_graph(2_000, 20_000, 1)
        tracemalloc.start()
        try:
            g.adjacency()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / g.m < 40

    def test_built_once_and_kept(self):
        g = gen_graph(300, 3000, 4)
        first, pairs = g.adjacency()
        again = g.adjacency()
        assert again[0] is first and again[1] is pairs
        d1, d2 = dijkstra(g, 0), dijkstra(g, 0, make_heap("binary"))
        assert d1 == d2
        again = g.adjacency()
        assert again[0] is first and again[1] is pairs
        tracemalloc.start()
        try:
            g.adjacency()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024


class TestDimacs:
    def test_round_trip(self):
        text = "c tiny\np sp 2 1\na 1 2 7\n"
        g = read_dimacs(io.StringIO(text))
        assert g.n == 2 and list(g.arcs) == [(0, 1, 7)]
        assert dijkstra(g, 0) == [0, 7]

    def test_int64_extremes_kept(self):
        text = f"p sp 2 2\na 1 2 {2 ** 63 - 1}\na 2 1 {-2 ** 63}\n"
        g = read_dimacs(io.StringIO(text))
        assert list(g.arcs) == [(0, 1, 2 ** 63 - 1), (1, 0, -2 ** 63)]

    @pytest.mark.parametrize("text,fragment", [
        ("a 1 2 7\n", "line 1: arc before problem line"),
        ("p sp 2 1\na 1 3 7\n", "line 2: vertex out of range"),
        ("p sp 2 2\na 1 2 7\n", "declares 2 arcs"),
        ("p sp 2 1\na 1 2\n", "line 2"),
        ("p sp 2 1\nq wat\n", "line 2: unrecognized"),
        ("p sp 2 1\np sp 2 1\n", "duplicate problem line"),
        ("p sp x 1\n", "line 1"),
        ("", "no problem line"),
        (f"p sp 2 1\na 1 2 {2 ** 63}\n", "line 2: weight"),
        (f"p sp 2 1\na 1 2 {-2 ** 63 - 1}\n", "line 2: weight"),
        (f"p sp {2 ** 63 + 1} 0\n", "line 1: bad sizes"),
        ("c max flow\np max 2 1\n", "line 2: expected 'p sp <n> <m>'"),
        ("p sp 2 1\na 1 2 x\n", "line 2: non-integer arc"),
    ])
    def test_errors_name_the_line(self, text, fragment):
        with pytest.raises(ValueError) as err:
            read_dimacs(io.StringIO(text))
        assert fragment in str(err.value)

    def test_reads_from_path(self, tmp_path):
        f = tmp_path / "g.dimacs"
        f.write_text("p sp 3 2\na 1 2 4\na 2 3 6\n")
        for path in (str(f), f):
            assert dijkstra(read_dimacs(path), 0) == [0, 4, 10]

    @pytest.mark.parametrize("text,message", [
        ("p sp 2 1\na 1 2 -3\n", "negative weight -3 on arc 1->2"),
        (f"p sp 3 2\na 1 2 {2 ** 62}\na 2 3 {2 ** 62}\n", "vertex 3 is reached")])
    def test_dijkstra_errors_number_vertices_as_the_file_does(self, text, message):
        # the graph stores vertices from 0 but names them from 1, as read
        g = read_dimacs(io.StringIO(text))
        assert g.base == 1
        with pytest.raises(ValueError, match=message):
            dijkstra(g, 0)

    def test_built_graphs_number_vertices_from_zero(self):
        assert Graph(2, [(0, 1, 5)]).base == gen_graph(3, 4, 0).base == 0


class TestBenches:
    def test_heapsort_record(self):
        r = heapsort_bench("violation", 1500, seed=2)
        assert r.workload == "heapsort" and r.heap == "violation"
        assert r.n == 1500 and r.wall_ns > 0
        assert r.joins > 0 and r.max_rank > 0
        assert len(r.csv_row().split(",")) == len(CSV_HEADER.split(","))

    @pytest.mark.parametrize("name", HEAP_NAMES)
    def test_heapsort_swapped_pops_raise(self, name, monkeypatch):
        monkeypatch.setattr(workloads, "make_heap", lambda name: _swap_pops(make_heap(name)))
        with pytest.raises(AssertionError, match="order regressed"):
            heapsort_bench(name, 100, 0)

    def test_mixed_all_heaps(self):
        script = gen_ops(4, 3000)
        for name in HEAP_NAMES:
            r = mixed_bench(name, script)
            assert r.wall_ns > 0 and r.comparisons > 0
            assert (r.n, r.seed) == (3000, 4)

    def test_mixed_drives_the_heap_calls_replay_checks(self):
        # the bench and the fuzzer step the heap through one apply_op, so
        # one script gives one set of violation-heap counters
        script = gen_ops(0, 20_000)
        r = mixed_bench("violation", script)
        v = replay(script, audit_every=0)
        assert v.passed
        assert [getattr(r, f.name) for f in fields(Telemetry)] == \
            [getattr(v, f.name) for f in fields(Telemetry)]

    def test_dijkstra_checksums_match(self):
        g = gen_graph(400, 2000, seed=3)
        sums = {dijkstra_bench(name, g, 3).checksum for name in HEAP_NAMES}
        assert len(sums) == 1

    def test_dijkstra_bench_builds_the_csr_before_its_timer(self, monkeypatch):
        # every heap on one graph, as `vheap bench dijkstra --heap all`
        # runs them: the one build happens before the first heap's timer
        # starts, so no heap's wall_ns holds it
        events = []
        built = []
        real_adjacency = Graph.adjacency

        def adjacency(graph):
            out = real_adjacency(graph)
            events.append("reuse" if built and out[1] is built[-1] else "build")
            built.append(out[1])
            return out

        def clock():
            events.append("clock")
            return time.perf_counter_ns()

        monkeypatch.setattr(Graph, "adjacency", adjacency)
        monkeypatch.setattr(workloads, "time", SimpleNamespace(perf_counter_ns=clock))
        g = gen_graph(400, 2000, seed=3)
        records = [dijkstra_bench(name, g, 3) for name in HEAP_NAMES]
        timed = False
        for event in events:
            if event == "clock":
                timed = not timed
            assert not (timed and event == "build"), events
        assert events.count("build") == 1 and events[0] == "build"
        assert events.count("clock") == 2 * len(HEAP_NAMES)
        assert len({r.checksum for r in records}) == 1
        assert all(r.wall_ns > 0 for r in records)

    def test_checksum_is_order_sensitive(self):
        assert checksum([1, 2, 3]) != checksum([3, 2, 1])
        assert checksum([]) == checksum([])
