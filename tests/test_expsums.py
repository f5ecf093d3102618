import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglab.arcs import ArcDecomposition, ArcParams, classify
from wglab import expsums
from wglab.arith import ProblemContext
from wglab.errors import (
    EmptyRegion, EmptyWindow, MemoryBudgetExceeded, ParameterDomain, RangeTooLarge,
)
from wglab.experiment import _arc_integrand, minor_arc_moment
from wglab.expsums import (
    _GRID_BYTES,
    _M26,
    _M53,
    PanelNodes,
    PhasePowers,
    WeightedSequence,
    arc_profile,
    build_sequence,
    dichotomy_report,
    eval_sum,
    eval_sums,
    exact_phase,
    grid_magnitudes,
    grid_points,
    grid_sums,
    major_mask,
    panel_sums,
    phase_fraction_exact,
    _reduce,
    require_grid_budget,
    sup_scan,
)
from wglab.singular_integral import gauss_legendre_panels


def _window_ctx(x, y, k=2, s=2):
    return ProblemContext.from_parts(k, s, x, y)


def _fractions_scalar(pw, alpha):
    """The one-alpha limb loop on Python big integers: frac(alpha n^k)
    from alpha's dyadic ratio num/den, limb by limb."""
    num, den = float(alpha).as_integer_ratio()
    acc = np.zeros(pw.size, dtype=np.int64)
    tail = np.zeros(pw.size, dtype=np.float64)
    for j in range(pw._limbs.shape[1]):
        r = (num << (26 * j)) % den
        if r == 0:
            continue
        scaled = r << 53
        a_j = scaled // den
        tail_j = (scaled - a_j * den) / den
        a_hi, a_lo = a_j >> 27, a_j & ((1 << 27) - 1)
        L = pw._limbs[:, j]
        acc = (acc + (((a_hi * L) & _M26) << 27) + a_lo * L) & _M53
        tail += pw._limbs_f[:, j] * (tail_j * 2.0 ** -53)
    frac = acc.astype(np.float64) * 2.0 ** -53 + tail
    frac -= np.floor(frac)
    return frac


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _sum_left_to_right(weights, phases):
    """sum of w * e over the support, one Python complex at a time."""
    w = weights.tolist()
    e = phases.tolist()
    acc = w[0] * e[0]
    for wj, ej in zip(w[1:], e[1:]):
        acc += wj * ej
    return acc


# the N = 800,000 scale context (k=2, s=5, theta=0.8)
CTX_800K = ProblemContext.from_scale(2, 5, 0.8, 800_000)


class TestBuildSequence:
    def test_prime_window(self):
        seq = build_sequence(_window_ctx(10.0, 4.0), "prime_log")
        assert seq.support.tolist() == [7, 11, 13]
        assert np.allclose(seq.weights, np.log([7, 11, 13]))

    def test_empty_prime_window(self):
        with pytest.raises(EmptyWindow):
            build_sequence(_window_ctx(10.0, 0.5), "prime_log")

    def test_unknown_kind(self):
        for kind in ("poisson", "unit", "integer_log"):
            with pytest.raises(ParameterDomain, match="unknown sequence kind"):
                build_sequence(_window_ctx(10.0, 4.0), kind)

    def test_sequence_invariants(self):
        with pytest.raises(ParameterDomain):
            WeightedSequence(np.array([3, 2]), np.array([1.0, 1.0]))
        with pytest.raises(ParameterDomain):
            WeightedSequence(np.array([2, 3]), np.array([1.0, 0.0]))
        with pytest.raises(ParameterDomain):
            WeightedSequence(np.array([2, 3]), np.array([1.0]))


class TestEvalSum:
    def test_zero_phase_gives_total_weight(self):
        seq = build_sequence(_window_ctx(500.0, 100.0), "prime_log")
        val = eval_sum(seq, 2, 0.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(float(np.sum(seq.weights)), rel=1e-14)

    def test_conjugate_symmetry(self):
        seq = build_sequence(_window_ctx(500.0, 100.0), "prime_log")
        rng = np.random.default_rng(3)
        for alpha in rng.random(100):
            lhs = eval_sum(seq, 2, 1.0 - alpha)
            rhs = eval_sum(seq, 2, float(alpha)).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_triangle_bound(self):
        seq = build_sequence(_window_ctx(300.0, 80.0), "prime_log")
        cap = float(np.sum(seq.weights)) * (1 + 1e-12)
        rng = np.random.default_rng(4)
        for alpha in rng.random(1000):
            assert abs(eval_sum(seq, 3, float(alpha))) <= cap

    def test_periodicity_exact_on_dyadics(self):
        # alpha and alpha + 1 are both exactly representable, and the
        # phase reduction is exact integer arithmetic, so values match
        # bit for bit
        seq = build_sequence(_window_ctx(100.0, 30.0), "prime_log")
        for alpha in (0.25, 0.0078125, 0.333251953125):
            assert eval_sum(seq, 2, alpha) == eval_sum(seq, 2, alpha + 1.0)

    def test_half_phase_parity(self):
        # at alpha = 1/2 every odd prime squared contributes e(1/2) = -1
        seq = build_sequence(_window_ctx(100.0, 30.0), "prime_log")
        val = eval_sum(seq, 2, 0.5)
        assert val == pytest.approx(-float(np.sum(seq.weights)), rel=1e-14)

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=10 ** 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_limb_phase_matches_bigint(self, alpha, k, n):
        pw = PhasePowers(np.array([n], dtype=np.int64), k)
        got = float(pw.fractions(alpha)[0])
        want = phase_fraction_exact(alpha, n, k)
        dist = abs(got - want)
        assert min(dist, 1.0 - dist) < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=2 ** 48),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_phase_matches_limb_route(self, alpha, m):
        want = complex(PhasePowers(np.array([m], dtype=np.int64), 1).phases(alpha)[0])
        assert abs(exact_phase(alpha, m) - want) <= 1e-12

    def test_subnormal_alpha(self):
        # subnormal alphas have denominators up to 2^1074, past float range;
        # regression for an overflow in the tail-fraction division
        pw = PhasePowers(np.array([97, 10 ** 6 + 3], dtype=np.int64), 3)
        for alpha in (5e-324, 2.2250738585072014e-313, math.ulp(0.0) * 7):
            fr = pw.fractions(alpha)
            assert np.all(np.isfinite(fr)) and np.all((0.0 <= fr) & (fr < 1.0))
            assert float(fr[0]) == pytest.approx(
                phase_fraction_exact(alpha, 97, 3), abs=1e-300
            )


class TestLimbs:
    NS = [0, 1, 2, 97, 2 ** 26 - 1, 2 ** 26, 2 ** 40 + 3, 2 ** 48]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_limbs_reassemble_the_exact_power(self, k):
        # one support of every n, then each n alone: the fewest limbs
        # (at least one) that hold the largest power
        for ns in [self.NS, *([n] for n in self.NS)]:
            pw = PhasePowers(np.array(ns, dtype=np.int64), k)
            count = max(1, -(-(max(ns) ** k).bit_length() // 26))
            assert pw._limbs.dtype == np.int64 and pw._limbs.shape == (len(ns), count)
            assert np.all((0 <= pw._limbs) & (pw._limbs <= _M26))
            assert np.array_equal(pw._limbs_f, pw._limbs.astype(np.float64))
            for n, row in zip(ns, pw._limbs.tolist()):
                assert sum(L << (26 * j) for j, L in enumerate(row)) == n ** k


class TestBatchedPhases:
    """`PhasePowers.fractions` on many alphas at once against the scalar
    big-integer limb loop, bit for bit."""

    SUPPORT = np.array([2, 3, 97, 401, 10 ** 6 + 3, 2 ** 40 + 3, 2 ** 48], dtype=np.int64)

    @staticmethod
    def _alphas():
        rng = np.random.default_rng(11)
        out = [j / 32768 for j in range(0, 32768, 5)]
        out += [j / 5000 for j in range(0, 5000, 3)]
        out += (-rng.random(400) * 1e-4).tolist() + (1 + rng.random(400) * 1e-4).tolist()
        out += [5e-324, 2.2250738585072014e-313, math.ulp(0.0) * 7, -5e-324, 0.0, -0.0]
        out += [1 - 2 ** -53, -(1 - 2 ** -53), 3.5, 1e17, 1e300, -1e300]
        return out

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_match_scalar_loop(self, k):
        pw = PhasePowers(self.SUPPORT, k)
        alphas = self._alphas()
        got = pw.fractions(np.array(alphas))
        assert got.shape == (len(alphas), self.SUPPORT.size)
        want = np.array([_fractions_scalar(pw, a) for a in alphas])
        assert np.array_equal(_bits(got), _bits(want))

    def test_one_row_and_shapes(self):
        pw = PhasePowers(self.SUPPORT, 3)
        alpha = 0.6180339887498949
        assert pw.fractions(alpha).shape == (self.SUPPORT.size,)
        assert np.array_equal(_bits(pw.fractions(alpha)), _bits(_fractions_scalar(pw, alpha)))
        grid = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert pw.phases(grid).shape == (2, 2, self.SUPPORT.size)
        assert np.array_equal(_bits(pw.phases(grid)[1, 0]), _bits(pw.phases(0.3)))
        assert PhasePowers(np.zeros(0, dtype=np.int64), 2).fractions([0.5, 0.25]).shape == (2, 0)

    def test_non_finite_alpha(self):
        pw = PhasePowers(self.SUPPORT, 2)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterDomain):
                pw.fractions([0.5, bad])

    def test_support_and_k_domain(self):
        cases = [
            (RangeTooLarge, "range-too-large", "exceed 2\\*\\*48", [2, 2 ** 48 + 1], 2),
            (ParameterDomain, "parameter-domain", "nonnegative", [-1, 2], 2),
            (ParameterDomain, "parameter-domain", "need k >= 1", [2], 0),
        ]
        for error, code, message, support, k in cases:
            with pytest.raises(error, match=message) as err:
                PhasePowers(np.array(support, dtype=np.int64), k)
            assert err.value.code == code

    def test_eval_sums_matches_pointwise_dot(self):
        # more points than one block holds, so block edges are crossed
        seq = build_sequence(CTX_800K, "prime_log")
        pw = PhasePowers(seq.support, 2)
        rng = np.random.default_rng(5)
        alphas = np.concatenate([np.arange(700) / 700, rng.random(300)])
        got = eval_sums(seq, 2, alphas)
        want = np.array([_sum_left_to_right(seq.weights, pw.phases(float(a))) for a in alphas])
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("x, y", [(1e5, 1e4), (1e6, 7e4)], ids=["1.7k-primes", "10k-primes"])
    def test_wide_windows_sum_left_to_right(self, x, y):
        # blocks of a few rows or of one row (past 2^13 primes), where a
        # pairwise reduction of the contiguous support axis would differ
        seq = build_sequence(_window_ctx(x, y), "prime_log")
        pw = PhasePowers(seq.support, 2)
        alphas = [0.1, 1 / 3, 0.5, 0.7071067811865476, 0.9]
        want = np.array([_sum_left_to_right(seq.weights, pw.phases(a)) for a in alphas])
        assert np.array_equal(_bits(eval_sums(seq, 2, alphas)), _bits(want))
        assert np.array_equal(_bits(eval_sum(seq, 2, alphas[1])), _bits(want[1]))
        G = 12347
        js = [1, 5000, G - 1]
        R = seq.support ** 2 % G
        table = np.exp((2j * np.pi) * (np.arange(G) / G))
        want = np.array([_sum_left_to_right(seq.weights, table[j * R % G]) for j in js])
        assert np.array_equal(_bits(grid_sums(seq, 2, G, js)), _bits(want))


class TestSupScan:
    def _setup(self):
        ctx = ProblemContext.from_parts(2, 5, 1e4, 1e3)
        seq = build_sequence(ctx, "prime_log")
        params = ArcParams.from_context(ctx)
        return seq, ArcDecomposition.build(params)

    def test_major_peak_aligns_fully(self):
        # odd p have p^2 = 1 (mod 8), so every grid point a/8 aligns the
        # phases completely and ties alpha = 0; the winner must be one of
        # those fully aligned major points
        seq, arcs = self._setup()
        rep = sup_scan(seq, 2, arcs, "major", 1000)
        assert rep.sup_abs == pytest.approx(float(np.sum(seq.weights)), rel=1e-12)
        assert rep.nearest_rational.q in (1, 2, 4, 8)
        assert rep.nearest_rational.beta == 0.0

    def test_region_partition(self):
        seq, arcs = self._setup()
        major = sup_scan(seq, 2, arcs, "major", 1000)
        minor = sup_scan(seq, 2, arcs, "minor", 1000)
        full = sup_scan(seq, 2, arcs, "full", 1000)
        assert major.points_in_region + minor.points_in_region == 1000
        assert full.points_in_region == 1000
        assert full.sup_abs == max(major.sup_abs, minor.sup_abs)
        assert minor.sup_abs < major.sup_abs

    def test_empty_minor_region(self):
        seq, arcs = self._setup()
        # the only two grid points, 0 and 1/2, are both major
        with pytest.raises(EmptyRegion):
            sup_scan(seq, 2, arcs, "minor", 2)

    def test_ties_go_to_the_first_maximum(self):
        # 5 and 9 are 1 (mod 4), so at k = 1 every |f(j/4)| is exactly 3
        seq = WeightedSequence(np.array([1, 5, 9]), np.ones(3))
        params = ArcParams.explicit(1.0, 50.0)
        arcs = ArcDecomposition.build(params)
        idx, mags = grid_magnitudes(seq, 1, params, "full", 4)
        assert idx.tolist() == [0, 1, 2, 3] and mags.tolist() == [3.0] * 4
        assert sup_scan(seq, 1, arcs, "full", 4).argmax_alpha == 0.0
        # 0 is major at P = 1; the first minor point is 1/4
        assert sup_scan(seq, 1, arcs, "minor", 4).argmax_alpha == 0.25

    def test_sup_is_the_first_maximum_of_grid_sums(self):
        # |f| ties exactly (at every j/8 when k = 2 and the primes are
        # odd), and the transform's last bits would pick among the ties;
        # the sup must be the first maximum of grid_sums over the region,
        # with Python's abs(complex) of it, bit for bit.  The last case is
        # the scan_sup.json golden's, where eight points tie
        cases = [(CTX_800K, 32768, r) for r in ("major", "minor", "full")]
        cases.append((ProblemContext.from_parts(2, 2, 10, 4), 200, "full"))
        for ctx, G, region in cases:
            seq = build_sequence(ctx, "prime_log")
            params = ArcParams.from_context(ctx)
            rep = sup_scan(seq, 2, ArcDecomposition.build(params), region, G)
            idx = grid_points(params, region, G)
            mags = [abs(f) for f in grid_sums(seq, 2, G, idx).tolist()]
            best = mags.index(max(mags))
            assert rep.argmax_alpha == int(idx[best]) / G, (G, region)
            assert rep.sup_abs.hex() == mags[best].hex(), (G, region)
        # the transform alone picks another of the tied points, so the
        # re-evaluation decided the golden's 0.625
        idx, mags = grid_magnitudes(seq, 2, params, "full", 200)
        assert int(idx[np.argmax(mags)]) / 200 == 0.0 and rep.argmax_alpha == 0.625

    def test_region_must_be_a_name(self, monkeypatch):
        # a bad region is refused before any binning or re-evaluation
        def no_pass(*args):
            raise AssertionError("a pass ran before the region was checked")

        monkeypatch.setattr(expsums, "_residues", no_pass)
        monkeypatch.setattr(expsums, "grid_sums", no_pass)
        arcs = ArcDecomposition.build(ArcParams.from_context(CTX_800K))
        seq = build_sequence(CTX_800K, "prime_log")
        for bad in (["minor"], "everything"):
            with pytest.raises(ParameterDomain, match="unknown region"):
                sup_scan(seq, 2, arcs, bad, 32768)

    def test_domain(self):
        seq, arcs = self._setup()
        with pytest.raises(ParameterDomain):
            sup_scan(seq, 2, arcs, "everything", 100)
        with pytest.raises(ParameterDomain):
            sup_scan(seq, 2, arcs, "full", 1)


class TestCircleGrid:
    def _setup(self):
        ctx = ProblemContext.from_parts(2, 5, 1e4, 1e3)
        params = ArcParams.from_context(ctx)
        return ctx, build_sequence(ctx, "prime_log"), params

    def test_grid_points_split_the_full_grid(self):
        _, _, params = self._setup()
        full = grid_points(params, "full", 1000)
        assert full.dtype == np.int64
        assert full.tolist() == list(range(1000))
        major = grid_points(params, "major", 1000).tolist()
        minor = grid_points(params, "minor", 1000).tolist()
        assert sorted(major + minor) == full.tolist()
        assert major == sorted(major) and minor == sorted(minor)
        with pytest.raises(ParameterDomain):
            grid_points(params, "everything", 1000)

    def test_eval_sums_matches_pointwise(self):
        _, seq, _ = self._setup()
        alphas = [0.0, 0.125, 1 / 3, 0.7071067811865476]
        got = eval_sums(seq, 2, alphas)
        assert got.dtype == np.complex128
        assert got.tolist() == [eval_sum(seq, 2, a) for a in alphas]

    @pytest.mark.parametrize(
        "params",
        [
            ArcParams.from_context(CTX_800K),
            ArcParams.explicit(10.0, 1e4),
            ArcParams.explicit(5.0, 9.0),  # overlapping arcs
        ],
        ids=["N800000", "explicit-10-1e4", "overlap-5-9"],
    )
    def test_major_mask_matches_classify(self, params):
        for G in (200, 1000, 4096, 5000, 12347, 32768):
            want = [classify(j / G, params)[0] == "major" for j in range(G)]
            assert major_mask(params, G).tolist() == want

    def test_major_mask_labels_the_exact_rational(self):
        # 2/3 is on the closed arc |alpha - 1| <= 1/3; the float 2/3 is not
        params = ArcParams.explicit(1.0, 3.0)
        assert major_mask(params, 3).tolist() == [True, True, True]
        assert classify(2 / 3, params)[0] == "minor"

    @pytest.mark.parametrize(
        "params",
        [
            ArcParams.from_context(CTX_800K),
            ArcParams.explicit(10.0, 1e4),
            ArcParams.explicit(5.0, 9.0),
            ArcParams.explicit(1.0, 3.0),
        ],
        ids=["N800000", "explicit-10-1e4", "overlap-5-9", "explicit-1-3"],
    )
    def test_major_mask_is_symmetric(self, params):
        # j/G and (G - j)/G lie on the arcs at a/q and (q - a)/q alike
        for G in (3, 200, 1000, 5000, 12347):
            m = major_mask(params, G)
            assert m[1:].tolist() == m[1:][::-1].tolist()

    def test_major_mask_at_large_P(self):
        # P = (log x)^3 ~ 907 at x = 16000; j/G is exact at G = 2^16
        ctx = ProblemContext.from_scale(2, 5, 0.8, 5 * 16000 ** 2)
        params = ArcParams.from_context(ctx, A=3.0)
        assert params.P > 900
        G = 2 ** 16
        m = major_mask(params, G)
        js = np.random.default_rng(17).integers(0, G, 2000)
        js = np.union1d(js, np.flatnonzero(m))
        assert [bool(m[j]) for j in js.tolist()] == [
            classify(j / G, params)[0] == "major" for j in js.tolist()
        ]

    def test_minor_moment_on_overlapping_arcs(self):
        # Q <= 2 floor(P) - 1: the arcs overlap, which `ArcDecomposition.build`
        # refuses; the grid labels still come out.  At (5, 9) points with
        # minimal witness q in 6..9 stay minor; at (5, 6) none is left
        seq = build_sequence(CTX_800K, "prime_log")
        params = ArcParams.explicit(5.0, 9.0)
        minor = [j for j in range(4096) if classify(j / 4096, params)[0] == "minor"]
        assert grid_points(params, "minor", 4096).tolist() == minor
        want = 0.0
        for f in eval_sums(seq, 2, [j / 4096 for j in minor]):
            want += abs(f) ** 4
        assert minor_arc_moment(CTX_800K, params, 4, 4096) == pytest.approx(want / 4096, rel=1e-13)
        blanket = ArcParams.explicit(5.0, 6.0)
        assert minor_arc_moment(CTX_800K, blanket, 4, 4096) == 0.0

    def test_callers_share_the_grid(self):
        # the profile's |f| is `grid_magnitudes`' route exactly; the sup
        # re-evaluates its argmax by `grid_sums`, within 1e-12 W of it
        ctx, seq, params = self._setup()
        arcs = ArcDecomposition.build(params)
        prof = arc_profile(ctx, params, 1000)
        for region, count in (("major", np.count_nonzero(prof.major)),
                              ("minor", np.count_nonzero(~prof.major))):
            assert count == sup_scan(seq, 2, arcs, region, 1000).points_in_region
        _, mags = grid_magnitudes(seq, 2, params, "full", 1000)
        assert prof.magnitudes.max() == mags.max()
        W = float(np.sum(seq.weights))
        sup = sup_scan(seq, 2, arcs, "full", 1000).sup_abs
        assert abs(sup - mags.max()) <= 1e-12 * W


class TestGridSums:
    @pytest.mark.parametrize("G", [4096, 32768])
    def test_dyadic_grid_matches_limb_route(self, G):
        # j/G is exact in doubles, so the limb route's fraction is r/G
        # exactly and both routes take the same e(r/G)
        seq = build_sequence(CTX_800K, "prime_log")
        idx = np.arange(G)
        got = grid_sums(seq, 2, G, idx)
        assert np.array_equal(_bits(got), _bits(eval_sums(seq, 2, idx / G)))
        R = seq.support ** 2 % G
        table = np.exp((2j * np.pi) * (np.arange(G) / G))
        for j in (1, 3, G // 3, G - 1):
            assert np.array_equal(_bits(table[j * R % G]), _bits(PhasePowers(seq.support, 2).phases(j / G)))

    @pytest.mark.parametrize("G", [200, 1000, 5000, 12347])
    def test_matches_big_integer_oracle(self, G):
        # both grid routes: grid_sums' f and the binned transform's |f|
        seq = build_sequence(CTX_800K, "prime_log")
        params = ArcParams.from_context(CTX_800K)
        ns = seq.support.tolist()
        ws = seq.weights.tolist()
        f0 = math.fsum(ws)
        for k in (2, 3):
            got = grid_sums(seq, k, G, np.arange(G))
            idx, mags = grid_magnitudes(seq, k, params, "full", G)
            assert idx.tolist() == list(range(G))
            worst = worst_abs = 0.0
            for j in range(G):
                terms = [w * cmath.exp(2j * math.pi * ((j * n ** k) % G) / G) for n, w in zip(ns, ws)]
                want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                worst = max(worst, abs(complex(got[j]) - want))
                worst_abs = max(worst_abs, abs(float(mags[j]) - abs(want)))
            assert worst <= 1e-14 * f0, k
            assert worst_abs <= 1e-14 * f0, k

    def test_order_and_domain(self):
        seq = build_sequence(_window_ctx(100.0, 30.0), "prime_log")
        idx = np.array([7, 0, 999, 7])
        got = grid_sums(seq, 3, 1000, idx)
        assert got.tolist() == [grid_sums(seq, 3, 1000, [j])[0] for j in idx.tolist()]
        assert grid_sums(seq, 3, 1000, []).shape == (0,)
        for bad in ([-1], [1000]):
            with pytest.raises(ParameterDomain):
                grid_sums(seq, 3, 1000, bad)
        with pytest.raises(ParameterDomain):
            grid_sums(seq, 0, 1000, [1])
        with pytest.raises(ParameterDomain, match="need grid_size >= 1") as err:
            grid_sums(seq, 3, 0, [])
        assert err.value.code == "parameter-domain"

    def test_budget_covers_the_measured_peak(self):
        # every grid scan, its index array included, peaks within the
        # charge (give or take a few interpreter objects) and above 27
        # of its 36 bytes per point; grid_sums over a whole smaller grid
        # peaks within its charge and above 24 of its 32 bytes per
        # support point and point
        seq = build_sequence(CTX_800K, "prime_log")
        params = ArcParams.from_context(CTX_800K)
        arcs = ArcDecomposition.build(params)
        m = len(seq)
        G = 2 ** 18
        g = 2 ** 12
        scans = {
            "grid_sums": (lambda: grid_sums(seq, 2, g, np.arange(g)),
                          24 * m * g, 36 * g + 24 * m + 32 * m * g),
            "sup_scan": (lambda: sup_scan(seq, 2, arcs, "full", G), 27 * G, 36 * G + 24 * m),
            "arc_profile": (lambda: arc_profile(CTX_800K, params, G), 27 * G, 36 * G + 24 * m),
            "minor_arc_moment": (lambda: minor_arc_moment(CTX_800K, params, 4, G, "full"),
                                 27 * G, 36 * G + 24 * m),
        }
        for name, (scan, floor, charge) in scans.items():
            tracemalloc.start()
            try:
                scan()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert floor < peak <= charge + 2 ** 13, name

    def test_budget_refuses_before_allocating(self):
        # 2^27 points need 4.5 GiB, over the budget, and 2^26 fit; the
        # largest grid admitted keeps every index product
        # j * (n^k mod G) inside int64.  A grid_sums block of 2^24 points
        # over the support is refused on its own charge
        seq = build_sequence(CTX_800K, "prime_log")
        params = ArcParams.from_context(CTX_800K)
        arcs = ArcDecomposition.build(params)
        G = 2 ** 27
        require_grid_budget(G // 2, len(seq))
        assert (_GRID_BYTES // 36) ** 2 < 2 ** 63
        many = np.broadcast_to(np.int64(1), (2 ** 24,))  # no memory behind it
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded, match="grid budget"):
                grid_sums(seq, 2, G, [1])
            with pytest.raises(MemoryBudgetExceeded, match="grid budget"):
                grid_sums(seq, 2, 1000, many)
            with pytest.raises(MemoryBudgetExceeded):
                sup_scan(seq, 2, arcs, "minor", G)
            with pytest.raises(MemoryBudgetExceeded):
                arc_profile(CTX_800K, params, G)
            with pytest.raises(MemoryBudgetExceeded):
                minor_arc_moment(CTX_800K, params, 2, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _random_sequence(m, seed):
    """m ascending support points up to 10^6 with weights in [1, 15)."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(np.arange(2, 10 ** 6), size=m, replace=False))
    return WeightedSequence(support=support, weights=1 + 14 * rng.random(m))


class TestReductionOrder:
    """Blocks are laid out (support, alphas); every column must still be
    the pointwise left-to-right sum, bit for bit, whether the block has
    one column (summed by running sums) or several (summed row by row).
    Supports past 2^13 points, one column per block, are in
    `TestBatchedPhases.test_wide_windows_sum_left_to_right`."""

    @pytest.mark.parametrize("m", [7, 8, 38, 1500])
    @pytest.mark.parametrize("cols", [1, 2, 3, 5, 7])
    def test_eval_and_grid_sums_left_to_right(self, m, cols):
        seq = _random_sequence(m, seed=m + cols)
        pw = PhasePowers(seq.support, 2)
        alphas = np.random.default_rng(cols).random(cols)
        want = [_sum_left_to_right(seq.weights, pw.phases(a)) for a in alphas.tolist()]
        assert np.array_equal(_bits(eval_sums(seq, 2, alphas)), _bits(np.array(want)))
        G = 12347
        js = np.random.default_rng(m).integers(0, G, cols)
        R = seq.support ** 2 % G
        table = np.exp((2j * np.pi) * (np.arange(G) / G))
        want = [_sum_left_to_right(seq.weights, table[j * R % G]) for j in js.tolist()]
        assert np.array_equal(_bits(grid_sums(seq, 2, G, js)), _bits(np.array(want)))

    def test_refuses_a_transposed_view(self):
        seq = _random_sequence(38, seed=1)
        block = PhasePowers(seq.support, 2).phases([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="C-contiguous"):
            _reduce(seq.weights, block.T)
        assert _reduce(seq.weights, np.ascontiguousarray(block.T)).shape == (3,)

    def test_empty_sequence_gives_one_zero_per_alpha(self):
        empty = WeightedSequence(support=np.zeros(0, dtype=np.int64), weights=np.zeros(0))
        assert eval_sums(empty, 2, [0.1, 0.2, 0.3]).tolist() == [0j] * 3
        assert grid_sums(empty, 2, 100, [1, 2, 3, 4]).tolist() == [0j] * 4
        assert _reduce(np.zeros(0), np.zeros((0, 5), dtype=np.complex128)).shape == (5,)


def _rule_nodes(params, panels, region):
    """The quadrature's nodes interval by interval, each from its own
    `gauss_legendre_panels` call, as (panels, 16) rows."""
    if region == "major":
        arcs = ArcDecomposition.build(params).intervals
        intervals = [(m.center - m.half_width, m.center + m.half_width) for m in arcs]
    elif region == "full":
        intervals = [(0.0, 1.0)]
    else:
        intervals = [(-1.0 / params.Q, 1.0 / params.Q)]
    rows = []
    for lo, hi in intervals:
        half, mid, x, _ = gauss_legendre_panels(lo, hi, panels)
        rows.append(mid[:, None] + half * x)
    return np.concatenate(rows)


def _unit_nodes(panels):
    """PanelNodes of composite Gauss-Legendre on [0, 1]."""
    half, mid, x, _ = gauss_legendre_panels(0.0, 1.0, panels)
    return PanelNodes.build(mid, np.full(panels, half), x)


class TestPanelSums:
    """f on the quadrature's panel layout against `eval_sums` at the same
    nodes, and e(n alpha) against the limb route."""

    SETS = [("major", 2, 1.0), ("major", 4, 2.0), ("full", 16, 1.0), ("zero_arc", 4, 1.0)]

    @staticmethod
    def _nodes(region, panels, A):
        params = ArcParams.from_context(CTX_800K, A=A)
        return _arc_integrand(CTX_800K, params, panels, region)[0], params

    @pytest.mark.parametrize("region, panels, A", SETS)
    def test_nodes_are_the_rules(self, region, panels, A):
        nodes, params = self._nodes(region, panels, A)
        want = _rule_nodes(params, panels, region)
        assert np.array_equal(_bits(nodes.alphas()), _bits(want))
        # one offset row per half width, each row read, at most one per interval
        assert np.array_equal(np.unique(nodes.table), np.arange(len(nodes.offsets)))
        assert len(nodes.offsets) <= nodes.mid.size // panels

    @pytest.mark.parametrize("region, panels, A", SETS)
    def test_matches_eval_sums_at_every_node(self, region, panels, A):
        nodes, _ = self._nodes(region, panels, A)
        seq = build_sequence(CTX_800K, "prime_log")
        got = panel_sums(seq, 2, nodes)
        want = eval_sums(seq, 2, nodes.alphas().ravel()).reshape(got.shape)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(seq.weights)

    @pytest.mark.parametrize("region, panels, A", SETS)
    def test_remainder_is_exact(self, region, panels, A):
        nodes, params = self._nodes(region, panels, A)
        alphas = _rule_nodes(params, panels, region)
        rng = np.random.default_rng(panels)
        rows = np.concatenate([[0, nodes.mid.size - 1], rng.integers(0, nodes.mid.size, 40)])
        for i in rows.tolist():
            off = nodes.offsets[nodes.table[i]]
            for j in range(16):
                exact = Fraction(nodes.mid[i]) + Fraction(off[j]) - Fraction(nodes.err[i, j])
                assert exact == Fraction(alphas[i, j]), (i, j)
        if region == "zero_arc":  # the midpoints change sign across the origin
            assert nodes.mid.min() < 0 < nodes.mid.max()

    def test_order_two_context(self, monkeypatch):
        # p^3 >= 3.4e9: t = 2 pi max|err| max p^k needs the u^2 term,
        # and without it f misses the oracle by more than 1e-13 W
        seq = build_sequence(ProblemContext.from_parts(3, 2, 1500.0, 100.0), "prime_log")
        nodes = _unit_nodes(64)
        t = 2 * np.pi * np.max(np.abs(nodes.err)) * float(seq.support[-1]) ** 3
        assert expsums._taylor_order(t) >= 2
        want = eval_sums(seq, 3, nodes.alphas().ravel()).reshape(64, 16)
        W = np.sum(seq.weights)
        assert np.max(np.abs(panel_sums(seq, 3, nodes) - want)) <= 1e-13 * W
        real = expsums._taylor_order
        monkeypatch.setattr(expsums, "_taylor_order", lambda t: min(real(t), 1))
        assert np.max(np.abs(panel_sums(seq, 3, nodes) - want)) > 1e-13 * W

    def test_past_the_series_takes_eval_sums(self):
        # p^3 near 8e15: t > 1, where the series would cancel, so every
        # block takes the limb route, bit for bit
        seq = build_sequence(ProblemContext.from_parts(3, 2, 2e5, 60.0), "prime_log")
        nodes = _unit_nodes(8)
        assert 2 * np.pi * np.max(np.abs(nodes.err)) * float(seq.support[0]) ** 3 > 1
        want = eval_sums(seq, 3, nodes.alphas().ravel()).reshape(8, 16)
        assert np.array_equal(_bits(panel_sums(seq, 3, nodes)), _bits(want))

    def test_small_blocks_share_offset_rows(self, monkeypatch):
        # blocks of one to three panels, most of them starting inside an
        # offset row that an earlier block began
        monkeypatch.setattr(expsums, "_PANEL_NODES", 48)
        nodes, _ = self._nodes("major", 4, 1.0)
        seq = build_sequence(CTX_800K, "prime_log")
        want = eval_sums(seq, 2, nodes.alphas().ravel()).reshape(-1, 16)
        assert np.max(np.abs(panel_sums(seq, 2, nodes) - want)) <= 1e-13 * np.sum(seq.weights)

    def test_empty_sequence_gives_zeros(self):
        empty = WeightedSequence(support=np.zeros(0, dtype=np.int64), weights=np.zeros(0))
        assert not panel_sums(empty, 2, _unit_nodes(3)).any()

    @pytest.mark.parametrize("region, panels, A", SETS)
    def test_target_phases_match_the_limb_route(self, region, panels, A):
        nodes, _ = self._nodes(region, panels, A)
        alphas = nodes.alphas()
        for n in (801125, 848261, 2 ** 40 + 1, 2 ** 48):
            want = PhasePowers(np.array([n]), 1).phases(alphas)[..., 0]
            # each of the three factors, and the oracle itself, is good to about 2 pi 2^-53
            assert np.max(np.abs(nodes.phases(n) - want)) <= 4e-15, n

    def test_read_only(self):
        nodes = _unit_nodes(2)
        for a in (nodes.mid, nodes.table, nodes.offsets, nodes.err):
            with pytest.raises(ValueError):
                a[0] = 0


class TestDichotomy:
    def _ctx(self):
        return ProblemContext.from_parts(2, 2, 1000.0, 900.0)

    def test_aligned_phase(self):
        rep = dichotomy_report(self._ctx(), 0.25, 0.0)
        assert rep.observed == pytest.approx(900.0)
        assert rep.approx is not None
        assert (rep.approx.a, rep.approx.q) == (0, 1)
        assert rep.bound_k3 == pytest.approx(900.0)  # unit weight, beta = 0
        assert rep.bound_k1 == pytest.approx(900.0 ** 0.75)

    def test_half_cancellation(self):
        # e(n^2 / 2) alternates sign with n, and the window holds an even
        # count of integers, so the sum cancels completely
        rep = dichotomy_report(self._ctx(), 0.25, 0.5)
        assert rep.observed == pytest.approx(0.0, abs=1e-9)
        assert rep.approx is not None
        assert (rep.approx.a, rep.approx.q) == (1, 2)
        assert rep.bound_k3 == pytest.approx(math.sqrt(2) * 900.0)

    def test_generic_point_outside_approx_regime(self):
        rep = dichotomy_report(self._ctx(), 0.05, math.sqrt(2) - 1.0)
        assert rep.approx is None
        assert rep.bound_k3 == float("inf")
        assert rep.observed <= 900.0
        assert rep.bound_k1 == pytest.approx(900.0 ** 0.95)

    def test_rho_domain(self):
        with pytest.raises(ParameterDomain):
            dichotomy_report(self._ctx(), 0.6, 0.1)  # above 1/t(2)
        with pytest.raises(ParameterDomain):
            dichotomy_report(self._ctx(), 0.0, 0.1)
        ctx3 = ProblemContext.from_parts(3, 3, 1000.0, 900.0)
        with pytest.raises(ParameterDomain):
            dichotomy_report(ctx3, 0.2, 0.1)  # above 1/t(3) = 1/7

    def test_theta_domain(self):
        # rho = 0.5 forces theta = 1, this context has theta < 1
        with pytest.raises(ParameterDomain):
            dichotomy_report(self._ctx(), 0.5, 0.1)

    def test_alpha_domain(self):
        with pytest.raises(ParameterDomain):
            dichotomy_report(self._ctx(), 0.25, 1.0)

    def test_window_without_integers(self):
        # y < 1 can leave (x, x + y] without an integer; theta is then
        # set by hand, since the window's own exponent is negative
        ctx = ProblemContext(k=2, s=2, theta=0.8, N=220, x=10.5, y=0.4)
        with pytest.raises(EmptyWindow, match="no integers") as err:
            dichotomy_report(ctx, 0.25, 0.1)
        assert err.value.code == "empty-window"

    def test_window_charge_covers_the_measured_peak(self):
        ctx = _window_ctx(1e5, 1e5 ** 0.8)
        points = math.floor(ctx.x + ctx.y) - math.floor(ctx.x)
        tracemalloc.start()
        try:
            dichotomy_report(ctx, 0.05, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 188 * points

    def test_window_budget_refuses_before_allocating(self, monkeypatch):
        # `wglab dichotomy --x 1e12`: 4.0e9 integers, 29.7 GiB of support alone
        ctx = _window_ctx(1e12, 1e12 ** 0.8)
        monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("allocated"))
        with pytest.raises(MemoryBudgetExceeded, match="over the 4 GiB dichotomy budget"):
            dichotomy_report(ctx, 0.05, 0.3)
