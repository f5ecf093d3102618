import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from wglab.arith import ProblemContext, admissible, prime_window
from wglab.errors import (
    EmptyWindow,
    EnumerationTooLarge,
    MemoryBudgetExceeded,
    ParameterDomain,
    PrecisionOverflow,
)
import wglab.representations as representations
from wglab.representations import (
    _fold_table,
    _lattice_window,
    _rho_lattice,
    moment,
    rho_mitm,
    RepresentationRecord,
    RepresentationTable,
    rho_naive,
    rho_route,
    rho_scan,
)
from wglab.singular_integral import wrap_length

L7, L11, L13 = math.log(7), math.log(11), math.log(13)


def _tiny_ctx(s=2):
    # prime window (6, 14]: {7, 11, 13}
    return ProblemContext.from_parts(2, s, 10.0, 4.0)


class TestRhoNaive:
    def test_single_tuple(self):
        rec = rho_naive(98, _tiny_ctx())
        assert rec.tuple_count == 1  # 49 + 49
        assert rec.value == pytest.approx(L7 * L7, rel=1e-14)

    def test_ordered_pair(self):
        rec = rho_naive(170, _tiny_ctx())
        assert rec.tuple_count == 2  # 49 + 121 both ways
        assert rec.value == pytest.approx(2 * L7 * L11, rel=1e-14)

    def test_no_representation(self):
        rec = rho_naive(3, _tiny_ctx())
        assert (rec.value, rec.tuple_count) == (0.0, 0)

    def test_value_zero_iff_count_zero(self):
        ctx = _tiny_ctx()
        for n in range(90, 350):
            rec = rho_naive(n, ctx)
            assert (rec.value == 0.0) == (rec.tuple_count == 0)
            assert rec.value >= 0.0

    def test_count_cap(self):
        # each ordered tuple weighs at most log(x + y)^s
        ctx = _tiny_ctx(s=3)
        cap = math.log(14.0) ** 3
        for n in (147, 219, 291, 339):
            rec = rho_naive(n, ctx)
            assert rec.value <= rec.tuple_count * cap + 1e-12

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            rho_naive(100, ProblemContext.from_parts(2, 2, 10.0, 0.5))

    def test_enumeration_ceiling(self):
        ctx = ProblemContext.from_parts(2, 9, 100.0, 25.0)
        with pytest.raises(EnumerationTooLarge):
            rho_naive(10 ** 5, ctx)


def _join_per_target(n, t1, t2):
    # independent oracle: look each n - v (v in T2) up in T1, one target
    # at a time, and sum the hits with dot products
    need = n - t2.values
    idx = np.searchsorted(t1.values, need)
    ok = (idx < t1.values.size) & (need >= t1.values[0])
    idx_c = np.minimum(idx, t1.values.size - 1)
    ok &= t1.values[idx_c] == need
    w = float(np.dot(t2.weights[ok], t1.weights[idx_c[ok]]))
    c = int(np.dot(t2.counts[ok], t1.counts[idx_c[ok]]))
    return w, c


class TestRhoMitm:
    def test_matches_naive_on_full_span(self):
        for s in (2, 3):
            ctx = _tiny_ctx(s=s)
            span = range(s * 49, s * 169 + 1)
            recs = rho_mitm(list(span), ctx)
            for n, rec in zip(span, recs):
                ref = rho_naive(n, ctx)
                assert rec.tuple_count == ref.tuple_count
                assert rec.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)

    def test_matches_naive_sampled_wide(self):
        ctx = ProblemContext.from_parts(2, 4, 50.0, 20.0)
        rng = np.random.default_rng(5)
        drawn = rng.integers(4 * 31 ** 2, 4 * 67 ** 2 + 1, size=25)
        # unsorted, with two repeats: records follow the input order
        targets = np.concatenate([drawn, drawn[[3, 17]]])
        recs = rho_mitm(targets, ctx)
        assert [rec.n for rec in recs] == targets.tolist()
        for n, rec in zip(targets.tolist(), recs):
            ref = rho_naive(n, ctx)
            assert rec.tuple_count == ref.tuple_count
            assert rec.value == pytest.approx(ref.value, rel=1e-11, abs=1e-11)

    def test_out_of_span_is_zero(self):
        recs = rho_mitm([10, 10 ** 9, 2 ** 70], _tiny_ctx())
        for rec in recs:
            assert (rec.value, rec.tuple_count) == (0.0, 0)

    def test_total_mass_identity(self):
        # summing rho over every representable n recovers (sum log p)^s
        ctx = _tiny_ctx(s=3)
        recs = rho_mitm(list(range(3 * 49, 3 * 169 + 1)), ctx)
        total = math.fsum(rec.value for rec in recs)
        mass = (L7 + L11 + L13) ** 3
        assert total == pytest.approx(mass, rel=1e-12)

    def test_matches_per_target_join_on_window(self):
        # every admissible target of the N = 800,000 scan window; m^5 is
        # past the naive ceiling, so the per-target join is the oracle
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        hi = math.floor(ctx.N + ctx.window_width)
        ns = [n for n in range(ctx.N + 1, hi + 1) if admissible(n, ctx.k, ctx.s)]
        assert len(ns) == 2011
        win = prime_window(ctx.x, ctx.y)
        pk = [p ** 2 for p in win.primes]
        top = 5 * pk[-1]
        t1 = _fold_table(pk, list(win.weights), 3, top)
        t2 = _fold_table(pk, list(win.weights), 2, top)
        for rec in rho_mitm(ns, ctx):
            w, c = _join_per_target(rec.n, t1, t2)
            assert rec.tuple_count == c
            assert rec.value == pytest.approx(w, rel=1e-12)

    def test_big_power_dict_route(self):
        # cube sums near 2^63 leave int64; the join falls back to
        # big-integer keys and must still match the naive enumeration
        ctx = ProblemContext.from_parts(3, 2, float(2 ** 21), 60.0)
        win = prime_window(ctx.x, ctx.y)
        assert ctx.s * max(win.primes) ** 3 >= 2 ** 62
        p1, p2 = win.primes[0], win.primes[1]
        hit = p1 ** 3 + p2 ** 3
        recs = rho_mitm([hit, hit + 1], ctx)
        assert recs[0].tuple_count == 2
        assert recs[0].value == pytest.approx(
            2 * math.log(p1) * math.log(p2), rel=1e-12
        )
        assert (recs[1].value, recs[1].tuple_count) == (0.0, 0)
        ref = rho_naive(hit, ctx)
        assert recs[0].tuple_count == ref.tuple_count
        assert recs[0].value == pytest.approx(ref.value, rel=1e-12)
        # s = 5: folds 3 and 2 both go through object tables
        ctx5 = ProblemContext.from_parts(3, 5, float(2 ** 21), 60.0)
        c1, c2 = p1 ** 3, p2 ** 3
        p3 = win.primes[-1] ** 3
        hits = [5 * c1, 3 * c1 + 2 * c2, c1 + c2 + 3 * p3, 5 * p3]
        recs = rho_mitm([*hits, hits[1] + 1], ctx5)
        for rec in recs:
            ref = rho_naive(rec.n, ctx5)
            assert rec.tuple_count == ref.tuple_count
            assert rec.value == pytest.approx(ref.value, rel=1e-12)
        assert [rec.tuple_count for rec in recs] == [1, 10, 20, 1, 0]

    def test_table_budget(self):
        ctx = ProblemContext.from_parts(2, 7, 1e4, 1e3)
        with pytest.raises(MemoryBudgetExceeded):
            rho_mitm([10 ** 8], ctx)

    def test_table_budget_counts_bytes_before_allocating(self):
        # m = 647 primes, 647^3 = 2.7e8 three-fold sums: 10 GiB of tables,
        # refused before any of it is allocated
        ctx = ProblemContext.from_parts(2, 5, 1e4, 3e3)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded, match="647\\^3"):
                rho_mitm([5 * 10 ** 8], ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20


class TestRepresentationTable:
    def test_sequence_of_records(self):
        # unsorted, repeated and out-of-span targets keep their places
        ctx = _tiny_ctx()
        targets = [242, 98, 170, 3, 98, 290, 242]
        table = rho_mitm(targets, ctx)
        assert isinstance(table, RepresentationTable)
        assert len(table) == len(targets)
        assert table.n.dtype == np.int64 and table.n.tolist() == targets
        assert table.values.dtype == np.float64
        assert table.counts.dtype == np.int64
        recs = list(table)
        assert all(type(rec) is RepresentationRecord for rec in recs)
        assert recs == [rho_naive(n, ctx) for n in targets]
        assert [table[i] for i in range(len(table))] == recs
        assert table[-1] == recs[-1] and table[-7] == recs[0]
        assert table[1] == table[4] and recs[3] == RepresentationRecord(3, 0.0, 0)
        with pytest.raises(IndexError):
            table[7]
        with pytest.raises(TypeError):
            table[1.0]

    def test_targets_past_int64_go_to_objects(self):
        table = rho_mitm([10, 10 ** 9, 2 ** 70], _tiny_ctx())
        assert table.n.dtype == object and table.n.tolist() == [10, 10 ** 9, 2 ** 70]
        assert table.values.dtype == np.float64
        assert table.counts.dtype == np.int64
        assert table[-1] == RepresentationRecord(2 ** 70, 0.0, 0)
        assert type(table[-1].n) is int
        # uint64 targets past 2^63 do not wrap into int64
        table = rho_mitm(np.array([98, 2 ** 64 - 1], dtype=np.uint64), _tiny_ctx())
        assert table.n.tolist() == [98, 2 ** 64 - 1]
        assert [rec.tuple_count for rec in table] == [1, 0]

    def test_empty_and_numpy_scalars(self):
        ctx = _tiny_ctx()
        assert len(rho_mitm([], ctx)) == 0
        assert list(rho_mitm(np.array([], dtype=np.int64), ctx)) == []
        rec = rho_mitm([np.int64(170), np.uint64(98)], ctx)[0]
        assert rec == RepresentationRecord(170, 2 * L7 * L11, 2)

    @pytest.mark.parametrize(
        "targets",
        [[800_021.7], [800_021.0], [True], [98, True], np.array([98.0]),
         np.array([True]), [np.float64(98.0)], ["98"]],
        ids=["float", "whole-float", "bool", "bool-among-ints", "float-array",
             "bool-array", "numpy-float", "str"],
    )
    def test_non_integral_targets_are_refused(self, targets):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        with pytest.raises(ParameterDomain, match="integer targets"):
            rho_mitm(targets, ctx)

    @pytest.mark.parametrize("n", [98.0, 800_021.7, True, np.float64(98.0)])
    def test_naive_refuses_non_integral_targets(self, n):
        with pytest.raises(ParameterDomain, match="integer target"):
            rho_naive(n, _tiny_ctx())


def _scan_targets(ctx):
    lo = math.floor(ctx.N) + 1
    hi = math.floor(ctx.N + ctx.window_width)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    return ns[[admissible(int(n), ctx.k, ctx.s) for n in ns]]


def _forced_lattice(ns, ctx):
    return _rho_lattice(ns, ctx, _lattice_window(ctx, int(ns[0]), int(ns[-1])))


def _assert_matches_mitm(ns, ctx):
    values, counts = _forced_lattice(ns, ctx)
    recs = rho_mitm(ns, ctx)
    assert counts.tolist() == [rec.tuple_count for rec in recs]
    ref = np.array([rec.value for rec in recs])
    assert np.array_equal(values == 0.0, ref == 0.0)
    hit = ref > 0
    assert np.all(np.abs(values[hit] - ref[hit]) <= 1e-12 * ref[hit])


class TestLatticeRoute:
    def test_matches_mitm_on_window(self):
        # the lattice route forced on all 2011 admissible N = 800,000
        # targets, where the cost rule would take the join
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        ns = _scan_targets(ctx)
        assert ns.size == 2011
        _assert_matches_mitm(ns, ctx)

    def test_matches_mitm_sampled_x1000(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 5 * 1000 ** 2)
        ns = _scan_targets(ctx)
        rng = np.random.default_rng(1000)
        sample = np.sort(rng.choice(ns, size=300, replace=False))
        _assert_matches_mitm(sample, ctx)

    def test_matches_naive_with_zeros_and_out_of_span(self):
        ctx = _tiny_ctx(s=3)
        ns = np.arange(3 * 49 - 5, 3 * 169 + 6, dtype=np.int64)
        values, counts = _forced_lattice(ns, ctx)
        for n, v, c in zip(ns.tolist(), values.tolist(), counts.tolist()):
            ref = rho_naive(n, ctx)
            assert c == ref.tuple_count
            assert v == pytest.approx(ref.value, rel=1e-12)
            assert (v == 0.0) == (c == 0)
        assert _lattice_window(ctx, 10, 20) is None

    @pytest.mark.parametrize(
        "ctx,route",
        [
            (ProblemContext.from_parts(2, 2, 10.0, 4.0), "mitm"),  # x = 10 goldens
            (ProblemContext.from_scale(2, 5, 0.8, 800_000), "lattice"),
            (ProblemContext.from_scale(3, 7, 0.8, 7 * 60 ** 3), "mitm"),
            (ProblemContext.from_scale(2, 5, 0.8, 5 * 1000 ** 2), "lattice"),
        ],
        ids=["x10", "N800000", "k3-x60", "k2-x1000"],
    )
    def test_cost_rule(self, ctx, route):
        lo = math.floor(ctx.N) + 1
        hi = math.floor(ctx.N + ctx.window_width)
        assert rho_route(ctx, lo, hi) == route

    def test_scan_follows_the_route(self):
        # rho_scan on the join side returns the join's numbers exactly
        ctx = ProblemContext.from_scale(3, 7, 0.8, 7 * 60 ** 3)
        ns = _scan_targets(ctx)
        assert rho_route(ctx, int(ns[0]), int(ns[-1])) == "mitm"
        values, counts = rho_scan(ns, ctx)
        recs = rho_mitm(ns, ctx)
        assert values.tolist() == [rec.value for rec in recs]
        assert counts.tolist() == [rec.tuple_count for rec in recs]

    def test_scan_bits_k3_x60(self):
        # sha256 of the join's arrays over the 42,329 targets of the
        # k = 3, s = 7, x = 60 window, as the per-record join gave them
        ctx = ProblemContext.from_scale(3, 7, 0.8, 7 * 60 ** 3)
        values, counts = rho_scan(_scan_targets(ctx), ctx)
        assert (values.size, values.dtype, counts.dtype) == (42329, np.float64, np.int64)
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "2c374421d32ad7de157c5f4bbd7b412e49b70ee234a512c77f06200607862185"
        )
        assert hashlib.sha256(counts.tobytes()).hexdigest() == (
            "7910e845d1e238d6f37949058271d81fdf03f87a9cec709ded05b25d290b0596"
        )

    def test_rounding_certificate_refuses_before_allocating(self):
        # 115 primes in (4500, 5500] at s = 12: m^(s - 1/2) = 5e23 puts
        # the count error bound far past 1/2, while the FFT on the step-24
        # lattice (four real arrays of 8 L = 20 MB each) fits the budget
        ctx = ProblemContext.from_parts(2, 12, 5000.0, 500.0)
        assert len(prime_window(ctx.x, ctx.y).primes) == 115
        lo = math.floor(ctx.N) + 1
        plan = _lattice_window(ctx, lo, lo + 1000)
        assert plan.g == 24
        assert 8 * plan.L > 16 * 2 ** 20 and 32 * plan.L < 2 ** 30
        ns = np.arange(lo, lo + 1001, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(PrecisionOverflow, match="not below 1/2"):
                _forced_lattice(ns, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_step_one_matches_naive(self):
        # the window (1, 7] holds 2 and 3, so the lattice has step 1
        ctx = ProblemContext.from_parts(2, 3, 4.0, 3.0)
        ns = np.arange(3 * 4 - 2, 3 * 49 + 3, dtype=np.int64)
        assert _lattice_window(ctx, int(ns[0]), int(ns[-1])).g == 1
        values, counts = _forced_lattice(ns, ctx)
        assert counts.sum() == 4 ** 3
        for n, v, c in zip(ns.tolist(), values.tolist(), counts.tolist()):
            ref = rho_naive(n, ctx)
            assert c == ref.tuple_count
            assert v == pytest.approx(ref.value, rel=1e-12)
            assert (v == 0.0) == (c == 0)

    def test_step_two_matches_mitm_sampled_k3_x60(self):
        ctx = ProblemContext.from_scale(3, 7, 0.8, 7 * 60 ** 3)
        ns = _scan_targets(ctx)
        assert _lattice_window(ctx, int(ns[0]), int(ns[-1])).g == 2
        rng = np.random.default_rng(60)
        sample = np.sort(rng.choice(ns, size=300, replace=False))
        _assert_matches_mitm(sample, ctx)

    @pytest.mark.parametrize(
        "ctx,g",
        [
            (ProblemContext.from_parts(2, 3, 4.0, 3.0), 1),  # 2 and 3
            (ProblemContext.from_parts(2, 2, 10.0, 4.0), 24),  # 7, 11, 13
            (ProblemContext.from_scale(3, 7, 0.8, 7 * 60 ** 3), 2),
            (ProblemContext.from_scale(2, 5, 0.8, 5 * 1000 ** 2), 24),
        ],
        ids=["k2-x4", "x10", "k3-x60", "k2-x1000"],
    )
    def test_plan_step_divides_every_power_gap(self, ctx, g):
        pk = [p ** ctx.k for p in prime_window(ctx.x, ctx.y).primes]
        plan = _lattice_window(ctx, ctx.s * pk[0], ctx.s * pk[-1])
        assert plan.g == g
        assert all((v - pk[0]) % g == 0 for v in pk)

    def test_step_and_length_at_x1000(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 5 * 1000 ** 2)
        lo = math.floor(ctx.N) + 1
        hi = math.floor(ctx.N + ctx.window_width)
        plan = _lattice_window(ctx, lo, hi)
        assert (plan.g, plan.L) == (24, 118_098)
        assert plan.L == wrap_length(plan.R, 5, plan.a, plan.b)

    def test_counts_off_the_integers_are_refused(self, monkeypatch):
        # the a-posteriori check: counts computed 0.01 away from the
        # integers raise instead of being rounded
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        ns = _scan_targets(ctx)
        exact = representations.wrapped_convolution
        monkeypatch.setattr(
            representations, "wrapped_convolution", lambda *args: exact(*args) + 0.01
        )
        with pytest.raises(PrecisionOverflow, match="from an integer"):
            _forced_lattice(ns, ctx)


class TestMoment:
    def test_first_moment_is_weight_square_sum(self):
        val = moment(1, _tiny_ctx())
        assert val.t == 1
        assert val.value == pytest.approx(L7 ** 2 + L11 ** 2 + L13 ** 2, rel=1e-14)

    def test_second_moment_against_pair_table(self):
        # independent oracle: aggregate ordered pair sums in a dict, then
        # sum the squared weights
        ctx = _tiny_ctx()
        win = prime_window(ctx.x, ctx.y)
        agg = {}
        for p, wp in zip(win.primes, win.weights):
            for q, wq in zip(win.primes, win.weights):
                key = p ** 2 + q ** 2
                agg[key] = agg.get(key, 0.0) + wp * wq
        expect = math.fsum(w * w for w in agg.values())
        assert moment(2, ctx).value == pytest.approx(expect, rel=1e-13)

    def test_parseval_against_quadrature(self):
        # mean of |f|^2 over a uniform grid finer than the top frequency
        # equals the aggregated first moment exactly
        ctx = _tiny_ctx()
        from wglab.expsums import build_sequence, eval_sum

        seq = build_sequence(ctx, "prime_log")
        grid = 512  # max frequency is 169 < 512, so the mean is exact
        acc = math.fsum(
            abs(eval_sum(seq, 2, j / grid)) ** 2 for j in range(grid)
        ) / grid
        assert acc == pytest.approx(moment(1, ctx).value, rel=1e-10)

    def test_dict_route_first_moment(self):
        ctx = ProblemContext.from_parts(3, 2, float(2 ** 21), 60.0)
        win = prime_window(ctx.x, ctx.y)
        expect = math.fsum(w * w for w in win.weights)
        assert moment(1, ctx).value == pytest.approx(expect, rel=1e-13)

    def test_big_power_second_moment_against_pair_table(self):
        # pair sums of cubes near 2^64 go through object tables
        ctx = ProblemContext.from_parts(3, 2, float(2 ** 21), 60.0)
        win = prime_window(ctx.x, ctx.y)
        agg = {}
        for p, wp in zip(win.primes, win.weights):
            for q, wq in zip(win.primes, win.weights):
                key = p ** 3 + q ** 3
                agg[key] = agg.get(key, 0.0) + wp * wq
        assert max(agg) >= 2 ** 62
        expect = math.fsum(w * w for w in agg.values())
        assert moment(2, ctx).value == pytest.approx(expect, rel=1e-13)

    def test_moment_ceiling_and_domain(self):
        with pytest.raises(EnumerationTooLarge):
            moment(4, ProblemContext.from_parts(2, 2, 1e4, 1e3))
        with pytest.raises(ParameterDomain):
            moment(0, _tiny_ctx())
