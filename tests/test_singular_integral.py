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
    require_conv_budget,
    v_eval,
    wrap_length,
    wrapped_convolution,
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


def _linear_power(w, s):
    acc = w
    for _ in range(s - 1):
        acc = np.convolve(acc, w)
    return acc


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestWrappedConvolution:
    def test_shortest_smooth_length(self):
        for R, s, a, b in [(41, 2, 0, 5), (6, 3, 15, 15), (100, 5, 200, 260), (7, 4, 3, 20)]:
            need = max(b + 1, s * (R - 1) - a + 1)
            L = wrap_length(R, s, a, b)
            assert L >= need and _is_5_smooth(L)
            assert not any(_is_5_smooth(n) for n in range(need, L))

    @pytest.mark.parametrize(
        "R,s,a,b,L",
        [
            (41, 2, 0, 5, 81),  # s(R - 1) - a + 1 binds; 80 would alias entry 80 onto 0
            (6, 3, 15, 15, 16),  # b + 1 binds; 15 would fold entry 15 onto 0
        ],
    )
    def test_length_rule_is_tight(self, R, s, a, b, L):
        # both L and L - 1 are 5-smooth, so a rule one short would give
        # L - 1 and a wrong window
        assert wrap_length(R, s, a, b) == L
        w = np.random.default_rng(R).uniform(0.5, 1.5, size=R)
        oracle = _linear_power(w, s)[a : b + 1]
        got = wrapped_convolution(w, s, a, b)
        assert got.shape == oracle.shape
        assert np.allclose(got, oracle, rtol=1e-12, atol=0.0)
        short = np.fft.irfft(np.fft.rfft(w, L - 1) ** s, L - 1)[a : b + 1]
        assert short.shape != oracle.shape or not np.allclose(short, oracle, rtol=1e-6)

    def test_windows_match_linear_convolution(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.0, 1.0, size=300)
        full = _linear_power(w, 4)
        scale = float(full.max())
        for a, b in [(0, 4 * 299), (0, 10), (500, 700), (1190, 1196), (598, 598)]:
            got = wrapped_convolution(w, 4, a, b)
            assert got.shape == (b - a + 1,)
            assert float(np.max(np.abs(got - full[a : b + 1]))) <= 1e-13 * scale

    def test_budget_counts_four_arrays(self):
        # 32 L bytes against 4 GiB: L = 2^27 fits, one more does not
        require_conv_budget(2 ** 27)
        with pytest.raises(ConvolutionTooLarge, match="GiB"):
            require_conv_budget(2 ** 27 + 1)

    def test_window_matches_full_table(self):
        # an FFT-route window (13201 weights): the scan-window table
        # against the whole-support one
        ctx = ProblemContext.from_parts(2, 3, 110.0, 30.0)
        assert len(WeightSeq.from_context(ctx)) > 10 ** 4
        off0, full = j_array(ctx)
        lo = math.floor(ctx.N) + 1
        hi = math.floor(ctx.N + ctx.window_width)
        off, tab = j_array(ctx, lo, hi)
        assert off == lo and tab.size == hi - lo + 1
        ref = full[off - off0 : off - off0 + tab.size]
        assert np.all(np.abs(tab - ref) <= 1e-13 * ref)
        # a window running past the support is clipped to it
        top = off0 + full.size - 1
        off, tab = j_array(ctx, top - 5, top + 50)
        assert (off, tab.size) == (top - 5, 6)
        assert j_array(ctx, top + 1, top + 9)[1].size == 0

    def test_direct_route_window_is_the_whole_table(self):
        # up to 10^4 weights the window is served from the direct table
        ctx = ProblemContext.from_parts(2, 3, 60.0, 30.0)
        off0, full = j_array(ctx)
        off, tab = j_array(ctx, off0 + 100, off0 + 200)
        assert off == off0 and tab is full

    def test_stepped_length_rule(self):
        # L = step M with M the shortest 5-smooth length covering need
        for R, s, a, b, step in [(300, 4, 1, 1190, 24), (97, 3, 5, 200, 2), (41, 5, 0, 160, 3)]:
            need = max(b + 1, s * (R - 1) - a + 1)
            L = wrap_length(R, s, a, b, step)
            M = L // step
            assert L == step * M and step * M >= need and _is_5_smooth(M)
            assert not any(_is_5_smooth(m) for m in range(-(-need // step), M))

    @pytest.mark.parametrize("step", [1, 2, 3, 24])
    def test_stepped_entries_match_repeated_convolve(self, step):
        # windows whose start a and length b - a are off the step, windows
        # touching either end of the support [0, S], and cyclic lengths
        # L = step M with M both odd and even
        rng = np.random.default_rng(step)
        parities = set()
        for R, s in [(300, 4), (97, 3), (41, 5), (20, 2)]:
            w = rng.uniform(0.0, 1.0, size=R)
            full = _linear_power(w, s)
            S = full.size - 1
            scale = float(full.max())
            for a, b in [(0, S), (1, S), (0, S - 1), (S // 3 + 1, 2 * S // 3),
                         (S - 30, S), (5, 5), (S, S), (7, 7 + step)]:
                got = wrapped_convolution(w, s, a, b, step)
                ref = full[a : b + 1 : step]
                assert got.shape == ref.shape
                assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale
                L = wrap_length(R, s, a, a + step * (ref.size - 1), step)
                parities.add(L // step % 2)
        assert parities == {0, 1}

    def test_step_one_keeps_the_unstepped_bits(self):
        # the unit step is the plain route: rfft, power, irfft, slice
        w = np.random.default_rng(5).uniform(0.0, 1.0, size=300)
        for a, b in [(0, 4 * 299), (500, 700), (3, 3)]:
            L = wrap_length(300, 4, a, b)
            spec = np.fft.rfft(w, L)
            spec **= 4
            want = np.fft.irfft(spec, L)[a : b + 1]
            assert wrapped_convolution(w, 4, a, b).tobytes() == want.tobytes()
            assert wrapped_convolution(w, 4, a, b, 1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [2, 3, 24])
    def test_direct_route_step_slices_the_whole_table(self, step):
        ctx = ProblemContext.from_parts(2, 3, 60.0, 30.0)
        off0, full = j_array(ctx)
        for n_lo in (off0 - 7, off0 + 101):
            off, tab = j_array(ctx, n_lo, n_lo + 500, step)
            assert (off - n_lo) % step == 0 and off0 <= off < off0 + step
            assert tab.tobytes() == full[off - off0 :: step].tobytes()

    @pytest.mark.parametrize("step", [2, 3, 24])
    def test_fft_route_step_matches_unit_step(self, step):
        ctx = ProblemContext.from_parts(2, 3, 110.0, 30.0)
        off0, full = j_array(ctx)
        top = off0 + full.size - 1
        lo = math.floor(ctx.N) + 1
        hi = math.floor(ctx.N + ctx.window_width)
        # the scan window, relative to each entry
        off, tab = j_array(ctx, lo + 5, hi, step)
        assert off == lo + 5 and tab.size == (hi - lo - 5) // step + 1
        ref = full[off - off0 :: step][: tab.size]
        assert np.all(np.abs(tab - ref) <= 1e-13 * ref)
        # windows over either end of the support, against its peak
        scale = float(full.max())
        for n_lo, n_hi in [(off0 - 5, off0 + 300), (top - 400, top + 9)]:
            off, tab = j_array(ctx, n_lo, n_hi, step)
            assert (off - n_lo) % step == 0 and off >= off0
            ref = full[off - off0 :: step][: tab.size]
            assert tab.size == ref.size == (min(n_hi, top) - off) // step + 1
            assert float(np.max(np.abs(tab - ref))) <= 1e-13 * scale

    def test_step_domain(self):
        with pytest.raises(ParameterDomain):
            j_array(ProblemContext.from_parts(2, 3, 60.0, 30.0), 0, 10, 0)


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
