"""Property-based tests: randomized structural invariants and a
stateful differential machine that audits as it goes."""

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from violationheap import ViolationHeap, rank_from_pair
from violationheap.heap_core import max_rank_bound
from violationheap.invariants import full_audit
from violationheap.oracle import NaivePQ, apply_op


@given(st.integers(-1, 200), st.integers(-1, 200))
def test_rank_formula_matches_exact_ceiling(r1, r2):
    exact = math.ceil(Fraction(r1 + r2, 2)) + 1
    assert rank_from_pair(r1, r2) == exact
    assert rank_from_pair(r1, r2) == rank_from_pair(r2, r1)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=300,
                unique=True))
def test_insert_then_drain_sorts(keys):
    h = ViolationHeap()
    for k in keys:
        h.insert(k)
    assert [h.delete_min()[0] for _ in keys] == sorted(keys)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=250),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_random_interleavings_stay_sound(codes, seed):
    """Interpret small op streams; audit and drain at the end."""
    rng = random.Random(seed)
    heap, model = ViolationHeap(), NaivePQ()
    hh, mh = [], []      # each side's handles, by element id

    def fresh_key(batch=()):
        k = rng.randrange(-10 ** 7, 10 ** 7)
        while model.key_multiplicity(k) or k in batch:
            k = rng.randrange(-10 ** 7, 10 ** 7)
        return k

    for code in codes:
        if code <= 2 or not model:      # insert biased 1/2
            op = ("insert", fresh_key())
        elif code == 3:
            op = ("deletemin",)
        elif code == 4:
            ident = model.ident_at(rng.randrange(len(model)))
            nk = model.key_of(ident) - rng.randrange(1, 10 ** 7)
            assume(not model.key_multiplicity(nk))
            op = ("decrease", ident, nk)
        else:
            batch = []
            for _ in range(rng.randrange(1, 3)):
                batch.append(fresh_key(batch))
            op = ("meld", tuple(batch))
        assert apply_op(heap, hh, op) == apply_op(model, mh, op)
        assert len(heap) == len(model)

    report = full_audit(heap)
    assert report.ok, report.to_json()
    drained = [heap.delete_min() for _ in range(len(heap))]
    assert drained == [model.delete_min() for _ in range(len(model))]


@given(st.integers(2, 500), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_max_rank_stays_logarithmic(n, seed):
    rng = random.Random(seed)
    h = ViolationHeap()
    keys = list(range(n))
    rng.shuffle(keys)
    for k in keys:
        h.insert(k)
    h.delete_min()
    report = full_audit(h)
    assert report.ok
    assert report.max_rank <= max_rank_bound(n)
    assert h.telemetry.max_rank <= max_rank_bound(n)


@given(st.integers(3, 400), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_active_children_prop_up_their_parent(n, seed):
    """Corollary of the rank rule: wherever a node keeps its two newest
    children, the higher-ranked one reaches at least rank - 1."""
    rng = random.Random(seed)
    h = ViolationHeap()
    hs = [h.insert(k) for k in rng.sample(range(-n * 10, n * 10), n)]
    h.delete_min()
    for hd in rng.sample(hs, min(n // 3, len(hs))):
        if h.is_live(hd):
            h.decrease_key(hd, hd.key - rng.randrange(1, 10 ** 6))
    for x in hs:
        if not h.is_live(x) or x.down is None:
            continue
        d = x.down
        r1 = d.rank
        d2 = d.prv
        if d2 is not None:
            r1 = max(r1, d2.rank)
        assert r1 >= x.rank - 1


class DifferentialMachine(RuleBasedStateMachine):
    """Steps the heap and the naive queue with the same ops through
    ``apply_op``, auditing the heap after every rule."""

    def __init__(self):
        super().__init__()
        self.heap, self.naive = ViolationHeap(), NaivePQ()
        self.hh, self.nh = [], []     # each side's handles, by element id

    def step(self, *op):
        assert apply_op(self.heap, self.hh, op) == apply_op(self.naive, self.nh, op)

    @rule(key=st.integers(-10 ** 9, 10 ** 9))
    def insert(self, key):
        assume(not self.naive.key_multiplicity(key))
        self.step("insert", key)

    @rule()
    @precondition(lambda self: len(self.naive) > 0)
    def delete_min(self):
        self.step("deletemin")

    @rule(data=st.data(), delta=st.integers(1, 10 ** 9))
    @precondition(lambda self: len(self.naive) > 0)
    def decrease(self, data, delta):
        pos = data.draw(st.integers(0, len(self.naive) - 1))
        ident = self.naive.ident_at(pos)
        nk = self.naive.key_of(ident) - delta
        assume(not self.naive.key_multiplicity(nk))
        self.step("decrease", ident, nk)

    @rule(keys=st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1,
                        max_size=3, unique=True))
    def meld_batch(self, keys):
        assume(not any(self.naive.key_multiplicity(k) for k in keys))
        self.step("meld", tuple(keys))

    @invariant()
    def sizes_and_minimum_agree(self):
        assert len(self.heap) == len(self.naive)
        assert self.heap.find_min() == self.naive.find_min()

    @invariant()
    def structure_is_clean(self):
        report = full_audit(self.heap)
        assert report.ok, report.to_json()

    def teardown(self):
        drained = [self.heap.delete_min() for _ in range(len(self.heap))]
        assert drained == [self.naive.delete_min() for _ in range(len(self.naive))]


DifferentialMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
TestDifferentialMachine = DifferentialMachine.TestCase
