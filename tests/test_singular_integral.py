import math
from fractions import Fraction

import numpy as np
import pytest

from wglab.arith import ProblemContext
from wglab.errors import (
    ConvolutionTooLarge,
    EmptyWindow,
    ParameterDomain,
    PrecisionOverflow,
)
from wglab.singular_integral import (
    WeightSeq,
    j_array,
    j_integral,
    oscillatory_I,
    v_eval,
)


class TestWeightSeq:
    def test_window_bounds(self):
        ws = WeightSeq.from_context(ProblemContext.from_parts(2, 2, 10.0, 2.0))
        assert (ws.lo, ws.hi) == (64, 144)
        assert len(ws) == 81

    def test_total_tracks_window_length(self):
        # sum of (1/k) m^(1/k - 1) over the image window is a Riemann sum
        # for the integral of the density, which is exactly 2y
        for k, x, y in [(2, 1000.0, 10.0), (3, 400.0, 4.0), (2, 5000.0, 50.0)]:
            ws = WeightSeq.from_context(ProblemContext.from_parts(k, 2, x, y))
            assert ws.total() == pytest.approx(2 * y, rel=1e-2)

    def test_empty_power_window(self):
        with pytest.raises(EmptyWindow):
            WeightSeq.from_context(ProblemContext.from_parts(2, 2, 1.2, 0.01))

    def test_shape_guard(self):
        with pytest.raises(ParameterDomain):
            WeightSeq(k=2, lo=10, hi=12, weights=np.ones(5))


class TestVEval:
    def _ws(self):
        return WeightSeq.from_context(ProblemContext.from_parts(2, 2, 100.0, 10.0))

    def test_zero_offset_is_total(self):
        ws = self._ws()
        val = v_eval(ws, 0.0)
        assert val.imag == 0.0
        assert val.real == ws.total()
        assert val.real == pytest.approx(2 * 10.0, abs=0.1)

    def test_conjugate_symmetry(self):
        ws = self._ws()
        for beta in (1e-6, 3.7e-4, 0.123):
            assert v_eval(ws, -beta) == pytest.approx(
                v_eval(ws, beta).conjugate(), abs=1e-10
            )

    def test_triangle_bound(self):
        ws = self._ws()
        cap = ws.total() * (1 + 1e-12)
        rng = np.random.default_rng(11)
        for beta in rng.uniform(-0.5, 0.5, 100):
            assert abs(v_eval(ws, float(beta))) <= cap

    def test_matches_exact_scalar_oracle(self):
        # small window, per-term phases reduced through Fraction so the
        # oracle shares no code with the blockwise recurrence
        ws = WeightSeq.from_context(ProblemContext.from_parts(2, 2, 30.0, 3.0))
        beta = 0.123456789
        b_ex = Fraction(beta)
        acc = 0.0 + 0.0j
        for i, m in enumerate(range(ws.lo, ws.hi + 1)):
            frac = float((b_ex * m) % 1)
            acc += ws.weights[i] * complex(
                math.cos(2 * math.pi * frac), math.sin(2 * math.pi * frac)
            )
        assert v_eval(ws, beta) == pytest.approx(acc, abs=1e-12 * ws.total())

    def test_recurrence_spans_blocks(self):
        # window longer than one 2^10 re-anchor block
        ws = WeightSeq.from_context(ProblemContext.from_parts(2, 2, 60.0, 30.0))
        assert len(ws) == 7201
        beta = 0.25  # dyadic, so frac(beta * m) cycles through quarters
        val = v_eval(ws, beta)
        m = np.arange(ws.lo, ws.hi + 1)
        expect = complex(np.dot(ws.weights, np.exp(2j * np.pi * ((m % 4) / 4.0))))
        assert val == pytest.approx(expect, abs=1e-10)


class TestJIntegral:
    def test_outside_support_is_zero(self):
        ctx = ProblemContext.from_parts(2, 2, 10.0, 2.0)
        assert j_integral(100, ctx) == 0.0  # below 2 * 64
        assert j_integral(289, ctx) == 0.0  # above 2 * 144

    def test_two_fold_against_double_loop(self):
        ctx = ProblemContext.from_parts(2, 2, 10.0, 2.0)
        def c(m):
            return 0.5 * m ** -0.5
        for n in (128, 200, 288):
            expect = sum(
                c(m) * c(n - m)
                for m in range(64, 145)
                if 64 <= n - m <= 144
            )
            assert j_integral(n, ctx) == pytest.approx(expect, rel=1e-12)

    def test_array_form_matches_scalar(self):
        ctx = ProblemContext.from_parts(2, 3, 100.0, 5.0)
        off, tab = j_array(ctx)
        for n in (off, off + 1234, off + tab.size - 1):
            assert j_integral(n, ctx) == tab[n - off]

    def test_positivity(self):
        ctx = ProblemContext.from_parts(2, 3, 100.0, 5.0)
        _, tab = j_array(ctx)
        assert np.all(tab >= 0.0)

    def test_near_symmetry_with_low_side_skew(self):
        # density weights decrease in m, so the lower flank is heavier;
        # the profile is close to symmetric about the support center
        ctx = ProblemContext.from_parts(2, 3, 100.0, 5.0)
        center = 3 * (9025 + 11025) // 2
        ratio = j_integral(center + 500, ctx) / j_integral(center - 500, ctx)
        assert 0.90 < ratio < 1.0

    def test_fft_route_matches_direct_convolution(self):
        # window length 13201 exceeds the direct-route cutoff of 10^4
        ctx = ProblemContext.from_parts(2, 2, 110.0, 30.0)
        ws = WeightSeq.from_context(ctx)
        assert len(ws) > 10 ** 4
        off, tab = j_array(ctx)
        oracle = np.convolve(ws.weights, ws.weights)
        assert tab.shape == oracle.shape
        scale = float(oracle.max())
        assert float(np.max(np.abs(tab - oracle))) <= 1e-12 * scale

    def test_direct_route_matches_repeated_convolve(self):
        ctx = ProblemContext.from_parts(2, 3, 60.0, 30.0)
        ws = WeightSeq.from_context(ctx)
        assert len(ws) <= 10 ** 4
        _, tab = j_array(ctx)
        oracle = np.convolve(np.convolve(ws.weights, ws.weights), ws.weights)
        assert np.array_equal(tab, oracle)

    def test_convolution_cache_is_bounded(self):
        # cap + 1 distinct windows: the oldest is dropped, the newest is
        # served from the cache
        import wglab.singular_integral as si

        with si._conv_lock:
            si._conv_cache.clear()
        cap = si._CONV_CACHE_CAP
        ctxs = [ProblemContext.from_parts(2, 2, 30.0 + i, 3.0) for i in range(cap + 1)]
        tabs = [j_array(ctx)[1] for ctx in ctxs]
        assert len(si._conv_cache) == cap
        assert j_array(ctxs[-1])[1] is tabs[-1]
        assert j_array(ctxs[0])[1] is not tabs[0]

    def test_convolution_ceiling(self):
        ctx = ProblemContext.from_parts(2, 100_000, 100.0, 10.0)
        with pytest.raises(ConvolutionTooLarge):
            j_integral(10 ** 9, ctx)


class TestOscillatoryI:
    def _ctx(self):
        return ProblemContext.from_parts(2, 2, 100.0, 10.0)

    def test_zero_offset_is_window_length(self):
        assert oscillatory_I(0.0, self._ctx()) == pytest.approx(20.0, rel=1e-13)

    def test_conjugate_symmetry(self):
        for beta in (1e-4, 0.01, 0.3):
            lhs = oscillatory_I(-beta, self._ctx())
            rhs = oscillatory_I(beta, self._ctx()).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_first_derivative_decay(self):
        # no stationary point in (90, 110): the phase derivative is at
        # least 2 * beta * 90, giving the classical 1/(pi * lambda) cap
        beta = 0.05
        val = abs(oscillatory_I(beta, self._ctx()))
        assert val <= 1.0 / (math.pi * 2 * beta * 90.0)
        assert val <= 20.0

    def test_matches_quadrature_oracle(self):
        # plain midpoint rule at high resolution as an independent check
        ctx = self._ctx()
        beta = 0.003
        g = np.linspace(90.0, 110.0, 2_000_001)
        mid = 0.5 * (g[1:] + g[:-1])
        step = g[1] - g[0]
        oracle = complex(np.sum(np.exp(2j * np.pi * beta * mid ** 2)) * step)
        assert oscillatory_I(beta, ctx) == pytest.approx(oracle, abs=1e-7)

    def test_precision_ceiling(self):
        ctx = ProblemContext.from_parts(2, 2, 1e9, 10.0)
        with pytest.raises(PrecisionOverflow):
            oscillatory_I(1.0, ctx)
