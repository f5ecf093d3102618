import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wglab.arcs as arcs
from wglab.arcs import (
    ArcDecomposition,
    ArcParams,
    RationalPoint,
    classify,
    dirichlet_approx,
    major_measure,
    require_arc_budget,
    w_k,
)
from wglab.arith import ProblemContext, euler_phi
from wglab.errors import MemoryBudgetExceeded, OverlapDetected, ParameterDomain
from wglab.expsums import major_mask


class TestArcWeight:
    def test_prime_power_examples(self):
        assert w_k(2, 1) == 1.0
        assert w_k(2, 2) == pytest.approx(math.sqrt(2))
        assert w_k(2, 4) == pytest.approx(0.5)
        assert w_k(3, 8) == pytest.approx(0.5)

    def test_first_power_generic(self):
        # e = 1 always lands in the v = 1 branch: k / sqrt(p)
        for k in (2, 3, 5):
            for p in (2, 3, 7, 101):
                assert w_k(k, p) == pytest.approx(k / math.sqrt(p))

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=120, deadline=None)
    def test_multiplicative(self, k, q1, q2):
        if math.gcd(q1, q2) != 1:
            return
        assert w_k(k, q1 * q2) == pytest.approx(w_k(k, q1) * w_k(k, q2), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            w_k(1, 5)
        with pytest.raises(ParameterDomain):
            w_k(2, 0)


class TestRationalPoint:
    def test_reduced_only(self):
        RationalPoint(a=1, q=2, beta=0.0)
        with pytest.raises(ParameterDomain):
            RationalPoint(a=2, q=4, beta=0.0)
        with pytest.raises(ParameterDomain):
            RationalPoint(a=3, q=2, beta=0.0)


class TestDirichletApprox:
    def test_zero(self):
        pt = dirichlet_approx(0.0, 100.0)
        assert (pt.a, pt.q, pt.beta) == (0, 1, 0.0)

    def test_half(self):
        pt = dirichlet_approx(0.5, 10.0)
        assert (pt.a, pt.q) == (1, 2)
        assert pt.beta == 0.0

    def test_near_pi_fraction(self):
        pt = dirichlet_approx(0.14159265, 100.0)
        assert (pt.a, pt.q) == (1, 7)
        assert pt.beta == pytest.approx(0.14159265 - 1 / 7)

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            dirichlet_approx(1.0, 10.0)
        with pytest.raises(ParameterDomain):
            dirichlet_approx(-0.1, 10.0)
        with pytest.raises(ParameterDomain):
            dirichlet_approx(0.3, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_witness_quality(self, alpha, q_bound):
        pt = dirichlet_approx(alpha, q_bound)
        a_ex = Fraction(alpha)
        bound = 1 / Fraction(q_bound)
        assert pt.q <= q_bound
        assert abs(pt.q * a_ex - pt.a) <= bound
        assert pt.beta == pytest.approx(alpha - pt.a / pt.q, abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=120, deadline=None)
    def test_denominator_minimality(self, alpha, q_bound):
        pt = dirichlet_approx(alpha, float(q_bound))
        a_ex = Fraction(alpha)
        bound = 1 / Fraction(q_bound)
        for q in range(1, pt.q):
            a = round(q * alpha)
            assert abs(q * a_ex - a) > bound


class TestClassify:
    def test_origin_is_major(self):
        params = ArcParams.explicit(10.0, 1e4)
        label, pt = classify(0.0, params)
        assert label == "major"
        assert (pt.a, pt.q) == (0, 1)

    def test_just_off_half_is_minor(self):
        params = ArcParams.explicit(10.0, 1e4)
        alpha = 0.5 + 2.0 / params.Q
        label, pt = classify(alpha, params)
        assert label == "minor"
        assert pt.q > params.P

    def test_small_new_denominator_is_minor(self):
        params = ArcParams.explicit(10.0, 1e4)
        label, pt = classify(1.0 / 11.0, params)
        assert label == "minor"
        assert (pt.a, pt.q) == (1, 11)

    def test_rational_inside_cutoff_is_major(self):
        params = ArcParams.explicit(10.0, 1e4)
        label, pt = classify(3.0 / 7.0, params)
        assert label == "major"
        assert (pt.a, pt.q) == (3, 7)


class TestArcParams:
    def test_from_context(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        params = ArcParams.from_context(ctx, A=1.0)
        assert params.P == pytest.approx(math.log(ctx.x))
        assert params.Q == pytest.approx(ctx.x * ctx.y ** (ctx.k - 1) / params.P)

    def test_cutoff_ordering(self):
        with pytest.raises(ParameterDomain):
            ArcParams.explicit(10.0, 10.0)
        with pytest.raises(ParameterDomain):
            ArcParams.explicit(0.5, 10.0)

    def test_nonpositive_A_rejected(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        for A in (0.0, -1.0):
            with pytest.raises(ParameterDomain, match="need A > 0") as err:
                ArcParams.from_context(ctx, A=A)
            assert err.value.code == "parameter-domain"

    def test_small_x_rejected(self):
        # log(x)^A < 1 leaves no admissible denominator level
        ctx = ProblemContext.from_parts(2, 2, 2.0, 1.0)
        with pytest.raises(ParameterDomain):
            ArcParams.from_context(ctx, A=1.0)


class TestDecomposition:
    def test_arc_count(self):
        # q = 1 contributes two glued halves, q >= 2 contributes phi(q) arcs
        params = ArcParams.explicit(10.0, 1e4)
        dec = ArcDecomposition.build(params)
        expect = 2 + sum(euler_phi(q) for q in range(2, 11))
        assert len(dec.intervals) == expect

    def test_sorted_and_disjoint(self):
        for P in (3, 17, 50):
            params = ArcParams.explicit(float(P), float(P * P + 1))
            dec = ArcDecomposition.build(params)
            centers = [m.center for m in dec.intervals]
            assert centers == sorted(centers)
            for m, m2 in zip(dec.intervals, dec.intervals[1:]):
                if m.q == 1 and m2.q == 1:
                    continue
                assert m.center + m.half_width < m2.center - m2.half_width

    def test_half_widths(self):
        params = ArcParams.explicit(5.0, 100.0)
        dec = ArcDecomposition.build(params)
        for m in dec.intervals:
            assert m.half_width == pytest.approx(1.0 / (m.q * params.Q))
            assert math.gcd(m.a, m.q) == 1

    def test_overlap_raises(self):
        with pytest.raises(OverlapDetected):
            ArcDecomposition.build(ArcParams.explicit(5.0, 9.0))

    def test_measure_examples(self):
        assert major_measure(ArcParams.explicit(1.0, 50.0)) == pytest.approx(2 / 50)
        assert major_measure(ArcParams.explicit(2.0, 100.0)) == pytest.approx(0.03)
        assert major_measure(ArcParams.explicit(3.0, 10.0)) == pytest.approx(13 / 30)

    def test_measure_matches_interval_lengths(self):
        params = ArcParams.explicit(8.0, 500.0)
        dec = ArcDecomposition.build(params)
        # the two glued halves at 0 and 1 jointly contribute one full arc
        total = sum(2 * m.half_width for m in dec.intervals if m.q >= 2)
        total += 2.0 / params.Q
        assert dec.measure() == pytest.approx(total, rel=1e-12)

    def test_arc_budget(self):
        # about 3/pi^2 P^2 + 1 arcs at 280 bytes each, against 2 GiB
        count = len(ArcDecomposition.build(ArcParams.explicit(300.0, 1e4)).intervals)
        assert abs(count - (round(3 / math.pi ** 2 * 300 ** 2) + 1)) < 0.01 * count
        assert require_arc_budget(1200) == 1200  # test_blanketed_circle_returns_zero
        assert require_arc_budget(5000) == 5000
        with pytest.raises(MemoryBudgetExceeded, match="q <= 5100 need 2.1 GiB, over the 2 GiB arc"):
            require_arc_budget(5100)

    def test_every_arc_loop_refuses_before_enumerating(self, monkeypatch):
        # a budget that admits P = 99 and not P = 100, for the three loops
        # over q <= floor(P)
        monkeypatch.setattr(arcs, "_ARC_BYTES", 280 * (round(3 / math.pi ** 2 * 99 ** 2) + 1))
        small, big = ArcParams.explicit(99.0, 1e4), ArcParams.explicit(100.0, 1e4)
        for loop in (ArcDecomposition.build, major_measure, lambda p: major_mask(p, 1000)):
            loop(small)
            with pytest.raises(MemoryBudgetExceeded, match="arc budget"):
                loop(big)

    def test_measure_overlap_raises(self):
        with pytest.raises(OverlapDetected):
            major_measure(ArcParams.explicit(5.0, 9.0))

    def test_covers_at_centers(self):
        params = ArcParams.explicit(10.0, 1e4)
        dec = ArcDecomposition.build(params)
        for m in dec.intervals:
            assert dec.covers(m.center)
        assert dec.covers(0.0)
        assert dec.covers(1.0 - 0.5 / params.Q)  # wrap-around half

    def test_covers_nothing_without_arcs(self):
        dec = ArcDecomposition(ArcParams.explicit(10.0, 1e4), ())
        assert not any(dec.covers(alpha) for alpha in (0.0, 0.5, 1.0))

    def test_covers_matches_classify(self):
        # membership by interval scan must agree with the exact Dirichlet
        # route away from float-rounded arc endpoints
        for P, Q in [(10.0, 1e4), (50.0, 1e5)]:
            params = ArcParams.explicit(P, Q)
            dec = ArcDecomposition.build(params)
            rng = np.random.default_rng(7)
            for alpha in rng.random(2000):
                label, _ = classify(float(alpha), params)
                assert dec.covers(float(alpha)) == (label == "major")
