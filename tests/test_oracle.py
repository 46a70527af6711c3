"""Oracle-side tests: the naive queue itself, script generation
guarantees, and the differential driver's verdicts."""

import math
import random
import zlib

import pytest

from violationheap import invariants, oracle
from violationheap.heap_core import EmptyHeapError, HeapError, ViolationHeap
from violationheap.oracle import (DEFAULT_WEIGHTS, NaivePQ, OpScript, apply_op,
                                  gen_ops, parse_weights, replay,
                                  run_differential, sampler)
from violationheap.workloads import HEAP_NAMES, make_heap


class TestNaivePQ:
    def test_basic_ordering(self):
        q = NaivePQ()
        ids = [q.insert(k, f"v{k}") for k in (5, 3, 9, 1)]
        assert q.find_min() == (1, ids[3])
        assert q.delete_min() == (1, "v1")
        assert q.delete_min() == (3, "v3")
        assert len(q) == 2

    def test_decrease_and_liveness(self):
        q = NaivePQ()
        a = q.insert(10, "a")
        b = q.insert(20, "b")
        q.decrease_key(b, 1)
        assert q.key_of(b) == 1
        assert q.delete_min() == (1, "b")
        assert not q.is_live(b) and q.is_live(a)
        with pytest.raises(KeyError):
            q.decrease_key(b, 0)
        with pytest.raises(ValueError):
            q.decrease_key(a, 11)

    def test_decreases_leave_no_ghosts(self):
        q = NaivePQ()
        a = q.insert(100, "a")
        b = q.insert(50, "b")
        # every superseded entry stays in the lazy heap; 40 would surface
        # before 50 if it still counted
        for k in (90, 80, 40, 30):
            q.decrease_key(a, k)
        assert q.find_min() == (30, a)
        assert q.delete_min() == (30, "a")
        assert q.delete_min() == (50, "b")
        assert q.find_min() is None and len(q) == 0
        # a decrease to the key already held also leaves a stale twin
        c = q.insert(5, "c")
        d = q.insert(7, "d")
        q.decrease_key(c, 5)
        assert q.delete_min() == (5, "c")
        assert q.delete_min() == (7, "d")
        assert q.find_min() is None and not q.is_live(d)
        with pytest.raises(EmptyHeapError):
            q.delete_min()
        # NaN does not sort below the old key, so it is no decrease
        e = q.insert(5.0, "e")
        with pytest.raises(ValueError, match="increase"):
            q.decrease_key(e, math.nan)
        assert q.find_min() == (5.0, e)
        # nor is NaN inserted: it would stay the minimum forever
        with pytest.raises(ValueError, match="NaN"):
            q.insert(math.nan, "f")
        assert len(q) == 1 and q.find_min() == (5.0, e)
        assert q.delete_min() == (5.0, "e") and q.find_min() is None

    def test_tie_break_toward_older_id(self):
        q = NaivePQ()
        first = q.insert(7, "old")
        q.insert(7, "new")
        assert q.find_min() == (7, first)
        assert q.delete_min() == (7, "old")
        # a decrease onto a tie keeps the smaller id first, either way round
        q = NaivePQ()
        old = q.insert(4, "old")
        new = q.insert(9, "new")
        q.decrease_key(new, 4)
        assert q.find_min() == (4, old)
        q = NaivePQ()
        old = q.insert(9, "old")
        q.insert(4, "new")
        q.decrease_key(old, 4)
        assert q.find_min() == (4, old)
        assert q.delete_min() == (4, "old")
        assert q.delete_min() == (4, "new")

    def test_matches_min_scan_with_duplicates(self):
        # generated scripts never hold duplicate alive keys, so check
        # that case against a direct scan of the live elements
        rng = random.Random(5)
        q = NaivePQ()
        live = {}
        for _ in range(3000):
            r = rng.random()
            if r < 0.4 or not live:
                k = rng.randrange(20)
                live[q.insert(k, k)] = k
            elif r < 0.7:
                key, _ = q.delete_min()
                ident = min(live, key=lambda i: (live[i], i))
                assert key == live.pop(ident) and not q.is_live(ident)
            else:
                ident = q.ident_at(rng.randrange(len(q)))
                live[ident] -= rng.randrange(3)
                q.decrease_key(ident, live[ident])
            expect = min(((k, i) for i, k in live.items()), default=None)
            assert q.find_min() == expect and len(q) == len(live)

    def test_multiplicity_tracking(self):
        q = NaivePQ()
        q.insert(4)
        b = q.insert(4)
        assert q.key_multiplicity(4) == 2
        q.delete_min()
        assert q.key_multiplicity(4) == 1
        q.decrease_key(b, 2)
        assert q.key_multiplicity(4) == 0 and q.key_multiplicity(2) == 1

    def test_spawns_and_melds_only_itself(self):
        # what apply_op's meld needs: the batch goes into the queue itself
        q = NaivePQ()
        q.insert(2)
        assert q.spawn() is q and q.meld(q) is q
        other = NaivePQ()
        other.insert(1)
        with pytest.raises(HeapError, match="itself"):
            q.meld(other)
        assert (len(q), q.find_min()) == (1, (2, 0))
        assert (len(other), other.find_min()) == (1, (1, 0))


def test_parse_weights():
    assert parse_weights("1,1,1,1") == (0.25, 0.25, 0.25, 0.25)
    w = parse_weights("0.45,0.25,0.25,0.05")
    assert abs(sum(w) - 1.0) < 1e-12
    for bad in ("1,2,3", "a,b,c,d", "-1,1,1,1", "0,0,0,0", "nan,1,1,1"):
        with pytest.raises(ValueError):
            parse_weights(bad)
    # an infinite weight, or a sum that overflows, is refused as such,
    # not scaled to NaN or to all zeros
    for bad in ("inf,1,1,1", "1e308,1e308,0,0"):
        with pytest.raises(ValueError, match="finite"):
            parse_weights(bad)
    # gen_ops and run_differential check the weights they are given the
    # same way, before any op is drawn
    for bad in ((1, 2, 3), (-1, 1, 1, 1), (0, 0, 0, 0), (float("nan"), 1, 1, 1),
                (float("inf"), 1, 1, 1)):
        for n_ops in (0, 10):
            with pytest.raises(ValueError):
                gen_ops(0, n_ops, bad)
            with pytest.raises(ValueError):
                run_differential(0, n_ops, bad)


# bounds for the sampler: small, Dijkstra-sized, past 2**31 and 2**32,
# and each side of every power of two up to 2**61
SAMPLER_BOUNDS = sorted({1, 2, 3, 15_000, 10 ** 6 + 1, 2 * 10 ** 9,
                         *(2 ** k + d for k in range(1, 62) for d in (-1, 0, 1))})


class TestSampler:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_stream_as_randrange(self, seed):
        below = sampler(random.Random(seed))
        ref = random.Random(seed)
        for n in SAMPLER_BOUNDS:
            for _ in range(20):
                assert below(n) == ref.randrange(n), n

    def test_same_stream_with_random_interleaved(self):
        rng = random.Random(5)
        below = sampler(rng)
        ref = random.Random(5)
        for i, n in enumerate(SAMPLER_BOUNDS * 3):
            assert below(n) == ref.randrange(n), n
            if i % 3:
                assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [0, -5])
    def test_refuses_empty_range_without_drawing(self, n):
        rng = random.Random(9)
        below = sampler(rng)
        state = rng.getstate()
        with pytest.raises(ValueError):
            below(n)
        assert rng.getstate() == state


class TestSamplerRounds:
    """``below.rounds`` returns what ``below``, and so ``randrange``,
    would draw bound by bound from the same state."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_bounds_match_below_and_randrange(self, seed):
        rounds = sampler(random.Random(seed)).rounds
        below = sampler(random.Random(seed))
        ref = random.Random(seed)
        for n in SAMPLER_BOUNDS:
            got = rounds((n,), 20)
            assert got == [below(n) for _ in range(20)], n
            assert got == [ref.randrange(n) for _ in range(20)], n

    def test_multi_bound_pattern_with_random_interleaved(self):
        rng = random.Random(11)
        rounds = sampler(rng).rounds
        ref = random.Random(11)
        below = sampler(ref)
        pattern = (15_000, 15_000, 10 ** 6 + 1, 1, 1 << 60, 2 ** 33 + 1, 3)
        for times in (0, 1, 7, 300):
            expect = [below(n) for _ in range(times) for n in pattern]
            assert rounds(pattern, times) == expect, times
            assert rng.random() == ref.random()

    def test_no_rounds_draw_nothing(self):
        rng = random.Random(4)
        rounds = sampler(rng).rounds
        state = rng.getstate()
        assert rounds((5, 1 << 60), 0) == [] and rounds((), 3) == []
        assert rng.getstate() == state

    @pytest.mark.parametrize("pattern", [(0,), (5, -1), (1 << 60, 3, 0)])
    def test_refuses_a_non_positive_bound_without_drawing(self, pattern):
        rng = random.Random(9)
        rounds = sampler(rng).rounds
        state = rng.getstate()
        with pytest.raises(ValueError, match="bound > 0"):
            rounds(pattern, 4)
        assert rng.getstate() == state


class TestGenOps:
    def test_deterministic(self):
        assert gen_ops(7, 500).ops == gen_ops(7, 500).ops

    # first and last scripts of acceptance criteria 1 and 2; the fuzz
    # benchmark replays seed 0's as well, and seed 2's at its --seed 1
    @pytest.mark.parametrize("seed,n_ops,weights,crc", [
        (0, 10_000, (0.45, 0.25, 0.25, 0.05), 812743672),
        (199, 10_000, (0.45, 0.25, 0.25, 0.05), 2311269027),
        (1000, 2000, (0.35, 0.35, 0.25, 0.05), 85114265),
        (1049, 2000, (0.35, 0.35, 0.25, 0.05), 3180099146),
        (2, 10_000, (0.45, 0.25, 0.25, 0.05), 2893532162),
    ])
    def test_scripts_pinned(self, seed, n_ops, weights, crc):
        ops = gen_ops(seed, n_ops, weights).ops
        assert zlib.crc32(repr(ops).encode()) == crc

    def test_alive_keys_stay_distinct(self):
        script = gen_ops(3, 3000)
        alive = {}
        keys = set()
        nid = 0
        for op in script.ops:
            if op[0] == "insert":
                assert op[1] not in keys
                alive[nid] = op[1]
                keys.add(op[1])
                nid += 1
            elif op[0] == "meld":
                for k in op[1]:
                    assert k not in keys
                    alive[nid] = k
                    keys.add(k)
                    nid += 1
            elif op[0] == "decrease":
                _, ident, nk = op
                assert ident in alive, "decrease aimed at a dead id"
                assert nk < alive[ident]
                assert nk not in keys
                keys.discard(alive[ident])
                alive[ident] = nk
                keys.add(nk)
            else:
                victim = min(alive, key=lambda i: alive[i])
                keys.discard(alive.pop(victim))
        assert script.ops.count(("deletemin",)) > 0

    def test_never_pops_empty(self):
        # heavy delete pressure still produces a replayable script
        script = gen_ops(11, 2000, weights=(0.2, 0.7, 0.05, 0.05))
        size = 0
        for op in script.ops:
            if op[0] == "insert":
                size += 1
            elif op[0] == "meld":
                size += len(op[1])
            elif op[0] == "deletemin":
                assert size > 0
                size -= 1

    def test_decrease_redraws_a_key_the_model_holds(self):
        # live keys two apart: a decrease's drawn key often lands on one,
        # and is drawn again until it does not
        model, ids = NaivePQ(), []
        for k in range(0, 4000, 2):
            apply_op(model, ids, ("insert", k))
        held = model.key_multiplicity
        hits = []
        model.key_multiplicity = lambda k: hits.append(held(k) > 0) or held(k)
        for op in oracle._draw_ops(3, 300, (0.0, 0.0, 1.0, 0.0), model):
            kind, ident, key = op
            assert kind == "decrease" and not held(key) and key < model.key_of(ident)
            apply_op(model, ids, op)
        # one draw per op missed the model, and every other draw redrew
        assert sum(hits) == len(hits) - 300 > 0

    def test_weight_zero_meld(self):
        script = gen_ops(5, 800, weights=(0.5, 0.25, 0.25, 0.0))
        assert not any(op[0] == "meld" for op in script.ops)


class TestReplay:
    def test_short_seeds_pass_with_full_audits(self):
        for seed in range(8):
            v = run_differential(seed, 250, audit_every=1)
            assert v.passed, (seed, v.fail_at, v.detail)
            assert v.audits >= v.op_count // 2

    def test_counters_populated(self):
        v = run_differential(42, 4000)
        assert v.passed
        assert v.inserts + v.deletes + v.decreases + v.melds == 4000
        assert v.joins > 0 and v.comparisons > 0
        assert v.max_rank > 0

    def test_stale_decrease_becomes_failing_verdict(self):
        s = OpScript(seed=0, ops=[("insert", 5), ("deletemin",),
                                  ("decrease", 0, -5)])
        v = replay(s)
        assert not v.passed and v.fail_at == 2
        assert "StaleHandleError" in v.detail

    def test_refused_key_becomes_failing_verdict(self):
        # the heap steps first, so its HeapError is the verdict, not the
        # naive queue's ValueError
        v = replay(OpScript(seed=0, ops=[("insert", 1), ("insert", float("nan"))]))
        assert v.passed is False and v.fail_at == 1
        assert v.detail.startswith("HeapError")

    def test_empty_deletemin_becomes_failing_verdict(self):
        v = replay(OpScript(seed=0, ops=[("deletemin",)]))
        assert not v.passed and "EmptyHeapError" in v.detail

    def test_duplicate_keys_tolerated_when_tie_safe(self):
        # same key on two ids: delete order between them is unspecified,
        # so the driver compares keys only; items must still match once
        # the key is unique again
        ops = [("insert", 5), ("insert", 5), ("insert", 9),
               ("deletemin",), ("deletemin",), ("deletemin",)]
        v = replay(OpScript(seed=0, ops=ops), audit_every=1)
        assert v.passed, v.detail

    def test_meld_heavy_script(self):
        v = run_differential(13, 1500, weights=(0.3, 0.3, 0.2, 0.2),
                             audit_every=25)
        assert v.passed, v.detail
        assert v.melds > 0

    def test_audit_cadence_zero_disables(self):
        v = run_differential(1, 300, audit_every=0)
        assert v.passed and v.audits == 0

    def test_audits_through_the_invariants_function(self):
        # replay calls full_audit through the oracle module's own binding,
        # which perfbench's trace patches to time the audit
        assert oracle.full_audit is invariants.full_audit

    def test_negative_cadence_refused(self):
        for bad in (-1, -7):
            with pytest.raises(ValueError, match="audit_every"):
                run_differential(3, 300, audit_every=bad)
            with pytest.raises(ValueError, match="audit_every"):
                replay(gen_ops(3, 30), audit_every=bad)

    def test_json_line(self):
        import json
        doc = json.loads(run_differential(2, 100).to_json())
        assert doc["seed"] == 2 and doc["ops"] == 100
        assert doc["verdict"] == "pass" and doc["fail_at"] is None


class TestApplyOp:
    @pytest.mark.parametrize("name", HEAP_NAMES + ("naive",))
    @pytest.mark.parametrize("op", [("melt", (1,)), ("decrease", -1, 1),
                                    ("decrease", 1, 1)])
    def test_malformed_op_refused_before_the_heap_moves(self, name, op):
        heap = NaivePQ() if name == "naive" else make_heap(name)
        handles: list = []
        apply_op(heap, handles, ("insert", 3))
        with pytest.raises(ValueError) as err:
            apply_op(heap, handles, op)
        assert repr(op) in str(err.value)
        assert len(heap) == 1 and len(handles) == 1
        assert heap.find_min() == (3, 0)
        assert heap.delete_min() == (3, 0)

    def test_replay_refuses_an_unknown_kind(self):
        # it would otherwise be stepped as a meld, and the run pass
        with pytest.raises(ValueError, match="melt"):
            replay(OpScript(0, [("insert", 3), ("melt", (1,))]))

    def test_replay_refuses_a_negative_decrease_id(self):
        # it would otherwise decrease the last element inserted
        with pytest.raises(ValueError, match="never inserted"):
            replay(OpScript(0, [("insert", 3), ("insert", 4), ("decrease", -1, 1)]))


class TestOneModel:
    """run_differential draws each op from the model its check steps;
    its verdict must be the one replay gives on gen_ops' script."""

    @pytest.mark.parametrize("weights", [DEFAULT_WEIGHTS, (0.2, 0.7, 0.05, 0.05)])
    @pytest.mark.parametrize("audit_every", [None, 0, 1, 7])
    def test_same_verdict_as_replaying_the_script(self, weights, audit_every):
        for seed in range(4):
            v = run_differential(seed, 600, weights, audit_every)
            assert v.passed, (seed, v.detail)
            assert v == replay(gen_ops(seed, 600, weights), audit_every)

    def test_same_verdict_on_the_sparse_schedule(self):
        for seed in (5, 6):
            v = run_differential(seed, 2600)
            assert v.audits == 2600 // 104 + 1
            assert v == replay(gen_ops(seed, 2600))

    def test_same_verdict_with_no_ops(self):
        for n_ops in (0, -3):
            assert run_differential(1, n_ops) == replay(gen_ops(1, n_ops))

    def test_same_failing_verdict_with_a_bug_injected(self, monkeypatch):
        # each bug makes the heap fail one check of the loop; both paths
        # must catch it at one op, with that check's message
        real = {name: getattr(ViolationHeap, name)
                for name in ("decrease_key", "delete_min", "find_min", "insert")}

        def lossy(self, handle, new_key):
            # drops every key divisible by 7: the heap holds the old key
            if new_key % 7:
                real["decrease_key"](self, handle, new_key)

        def ranked(self, key, item=None):
            # a new leaf claims rank 1, past the formula's bound
            x = real["insert"](self, key, item)
            x.rank = 1
            return x

        # (method, bug, runs as (seed, audit_every, message))
        bugs = [
            ("decrease_key", lossy, [(0, None, "find_min key"), (1, 0, "delete_min key"),
                                     (2, 7, "delete_min key")]),
            ("__len__", lambda self: self._count + (self._count == 5), [(0, None, "size")]),
            ("find_min", lambda self: real["find_min"](self) or (0, None),
             [(3, None, "find_min (0, None) on empty oracle")]),
            ("find_min", lambda self: None, [(0, None, "find_min empty, oracle is not")]),
            ("insert", ranked, [(0, None, "audit: "), (0, 10 ** 6, "final audit: ")]),
            ("delete_min", lambda self: (real["delete_min"](self)[0], None),
             [(0, None, "delete_min item")]),
        ]
        for method, bug, runs in bugs:
            with monkeypatch.context() as m:
                m.setattr(ViolationHeap, method, bug)
                for seed, audit_every, message in runs:
                    v = run_differential(seed, 1500, audit_every=audit_every)
                    assert not v.passed and v.fail_at is not None, (method, seed)
                    assert v.detail.startswith(message), (method, seed, v.detail)
                    w = replay(gen_ops(seed, 1500), audit_every)
                    assert (v.fail_at, v.detail) == (w.fail_at, w.detail)
                    assert v == w

    # verdicts of the first and last seeds of acceptance criterion 1,
    # as test_scripts_pinned pins their scripts
    @pytest.mark.parametrize("seed,crc", [(0, 389648628), (199, 696774414)])
    def test_verdicts_pinned(self, seed, crc):
        doc = run_differential(seed, 10_000).to_json()
        assert zlib.crc32(doc.encode()) == crc


def test_default_weights_shape():
    assert len(DEFAULT_WEIGHTS) == 4
    assert abs(sum(DEFAULT_WEIGHTS) - 1.0) < 1e-12
