import math
from fractions import Fraction

import numpy as np
import pytest

import wglab.singular_integral as si
from wglab.arith import ProblemContext
from wglab.errors import (
    ConvolutionTooLarge,
    EmptyWindow,
    MemoryBudgetExceeded,
    NoConvergence,
    ParameterDomain,
    PrecisionOverflow,
)
from wglab.experiment import _admissible_targets
from wglab.singular_integral import (
    density_sequence,
    j_array,
    j_integral,
    oscillatory_I,
    require_conv_budget,
    require_node_budget,
    v_eval,
    wrap_length,
    wrapped_convolution,
)


class TestDensitySequence:
    def test_window_bounds(self):
        seq = density_sequence(ProblemContext.from_parts(2, 2, 10.0, 2.0))
        assert (seq.support[0], seq.support[-1]) == (64, 144)
        assert len(seq) == 81

    def test_total_tracks_window_length(self):
        # sum of (1/k) m^(1/k - 1) over the image window is a Riemann sum
        # for the integral of the density, which is exactly 2y
        for k, x, y in [(2, 1000.0, 10.0), (3, 400.0, 4.0), (2, 5000.0, 50.0)]:
            seq = density_sequence(ProblemContext.from_parts(k, 2, x, y))
            assert float(np.sum(seq.weights)) == pytest.approx(2 * y, rel=1e-2)

    def test_empty_power_window(self):
        with pytest.raises(EmptyWindow):
            density_sequence(ProblemContext.from_parts(2, 2, 1.2, 0.01))


class TestVEval:
    _CTX = ProblemContext.from_parts(2, 2, 100.0, 10.0)

    def test_zero_offset_is_total(self):
        val = v_eval(self._CTX, 0.0)
        assert val.imag == 0.0
        assert val.real == float(np.sum(density_sequence(self._CTX).weights))
        assert val.real == pytest.approx(2 * 10.0, abs=0.1)

    def test_conjugate_symmetry(self):
        for beta in (1e-6, 3.7e-4, 0.123):
            assert v_eval(self._CTX, -beta) == pytest.approx(
                v_eval(self._CTX, beta).conjugate(), abs=1e-10
            )

    def test_triangle_bound(self):
        cap = float(np.sum(density_sequence(self._CTX).weights)) * (1 + 1e-12)
        rng = np.random.default_rng(11)
        for beta in rng.uniform(-0.5, 0.5, 100):
            assert abs(v_eval(self._CTX, float(beta))) <= cap

    def test_matches_exact_scalar_oracle(self):
        # small window, per-term phases reduced through Fraction so the
        # oracle shares no code with the blockwise recurrence
        ctx = ProblemContext.from_parts(2, 2, 30.0, 3.0)
        seq = density_sequence(ctx)
        beta = 0.123456789
        b_ex = Fraction(beta)
        acc = 0.0 + 0.0j
        for c, m in zip(seq.weights, seq.support.tolist()):
            frac = float((b_ex * m) % 1)
            acc += c * complex(math.cos(2 * math.pi * frac), math.sin(2 * math.pi * frac))
        assert v_eval(ctx, beta) == pytest.approx(acc, abs=1e-12 * float(np.sum(seq.weights)))

    def test_recurrence_spans_blocks(self):
        # window longer than one 2^10 re-anchor block
        ctx = ProblemContext.from_parts(2, 2, 60.0, 30.0)
        seq = density_sequence(ctx)
        assert len(seq) == 7201
        beta = 0.25  # dyadic, so frac(beta * m) cycles through quarters
        val = v_eval(ctx, beta)
        expect = complex(np.dot(seq.weights, np.exp(2j * np.pi * ((seq.support % 4) / 4.0))))
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
        # j_integral asks for a one-entry table, j_array for the whole
        # support; both read the one transform of the support
        ctx = ProblemContext.from_parts(2, 3, 100.0, 5.0)
        off, tab = j_array(ctx)
        for n in (off, off + 1234, off + tab.size - 1):
            assert j_integral(n, ctx) == tab[n - off]

    def test_just_above_the_bottom_of_the_support(self):
        # s lo + d, d = 1..25, lies within 4h of the support's bottom, where
        # the interpolant reads grid nodes below it; j there is within the
        # FFT's absolute error (eps times the peak of j) of the exact value
        # at d = 1, s c_lo^(s-1) c_(lo+1) ~ 6.6e-16
        ctx = ProblemContext.from_parts(2, 5, 1000.0, 1000.0 ** 0.8)
        lo, hi = si._power_window(ctx)
        c_lo, c_next = si._weights(2, lo, lo + 1)
        exact = 5 * c_lo ** 4 * c_next
        err = np.finfo(float).eps * j_integral(5 * (lo + hi) // 2, ctx)
        for d in range(1, 26):
            j = j_integral(5 * lo + d, ctx)
            assert math.isfinite(j) and j >= 0.0
            assert abs(j - exact) <= err

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
        # the whole support, 13201 weights at unit width
        ctx = ProblemContext.from_parts(2, 2, 110.0, 30.0)
        w = density_sequence(ctx).weights
        off, tab = j_array(ctx)
        oracle = np.convolve(w, w)
        assert tab.shape == oracle.shape
        scale = float(oracle.max())
        assert float(np.max(np.abs(tab - oracle))) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "parts",
        [(2, 3, 60.0, 60.0), (3, 3, 30.0, 28.0), (2, 3, 60.0, 30.0)],
        ids=["k2-theta1", "k3-x30-y28", "k2-x60-y30"],
    )
    def test_wide_window_j_matches_the_exact_convolution(self, parts):
        # wide windows reach down to lo = 1 (theta = 1) and lo = 8, where
        # unit cells that held the integral of c, not the weights, were
        # off by 1.9e-4 and 4.5e-8 relative at the targets
        ctx = ProblemContext.from_parts(*parts)
        seq = density_sequence(ctx)
        n_lo, n_hi = math.floor(ctx.N) + 1, math.floor(ctx.N + ctx.window_width)
        base = ctx.s * int(seq.support[0])
        want = _convolve_window(seq.weights, ctx.s, n_lo - base, n_hi - base)
        off, tab = j_array(ctx, n_lo, n_hi)
        assert off == n_lo and tab.size == want.size
        assert float(np.max(np.abs(tab - want) / want)) <= 1e-13
        # j at the targets, from the table on their class
        ns, g = _scan_targets(ctx)
        off, tab = j_array(ctx, int(ns[0]), int(ns[-1]), g)
        got = tab[(ns - off) // g]
        want = want[ns - n_lo]
        assert float(np.max(np.abs(got - want) / want)) <= 1e-13

    def test_convolution_ceiling(self, monkeypatch):
        # 4001 weights take the plain transform at unit width, whose cyclic
        # length 4e8 is 12 GiB at 32 bytes an entry
        ctx = ProblemContext.from_parts(2, 100_000, 100.0, 10.0)
        monkeypatch.setattr(si, "_weights", lambda *args: pytest.fail("allocated"))
        monkeypatch.setattr(np.fft, "rfft", lambda *args: pytest.fail("allocated"))
        with pytest.raises(ConvolutionTooLarge):
            j_integral(10 ** 9, ctx)


def _linear_power(w, s):
    acc = w
    for _ in range(s - 1):
        acc = np.convolve(acc, w)
    return acc


def _convolve_window(w, s, a, b):
    """Entries a..b of the s-fold self-convolution of w by repeated
    np.convolve: each stage keeps the entries up to b, the only ones the
    window reads, and the last computes a..b alone ("valid" over a
    zero-padded prefix)."""
    w = w[: b + 1]
    acc = w
    for _ in range(s - 2):
        acc = np.convolve(acc, w)[: b + 1]
    pad = np.concatenate((np.zeros(w.size - 1), acc))
    return np.convolve(pad[a : b + w.size], w, "valid")


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _stepped_length(R, s, a, b, step):
    """step M, M the shortest 5-smooth length with step M >= the unit-step need."""
    need = max(b + 1, s * (R - 1) - a + 1)
    M = -(-need // step)
    while not _is_5_smooth(M):
        M += 1
    return step * M


def _exact_wrapped(w, s, a, b, step):
    """Entries a, a + step, ..., up to b of the s-fold self-convolution of
    w from one real FFT of length L = step M, the spectrum folded onto the
    class a (mod step) before one inverse FFT of length M: with
    a = q step + r, entry r + step t of the cyclic convolution is
    irfft(Y, M)[t] / step, where

        Y[f1] = e(f1 r / L) * sum over f2 < step of e(f2 r / step) X[f1 + M f2]

    for f1 <= M/2, bins past L/2 being the conjugates of the mirrored ones.
    This is the exact route j took before cell integrals; it is the
    oracle the cell route is held to."""
    T = (b - a) // step + 1
    L = _stepped_length(len(w), s, a, a + step * (T - 1), step)
    spec = np.fft.rfft(w, L)
    spec **= s
    if step == 1:
        return np.fft.irfft(spec, L)[a : b + 1].copy()
    M = L // step
    q, r = divmod(a, step)
    K = M // 2 + 1
    half = L // 2
    folded = np.zeros(K, dtype=np.complex128)
    for f2 in range(step):
        lo = M * f2  # X[lo + f1] for f1 in [0, K)
        row = np.empty(K, dtype=np.complex128)
        direct = min(max(half - lo + 1, 0), K)  # f1 with lo + f1 <= L/2
        row[:direct] = spec[lo : lo + direct]
        # X[f] = conj(X[L - f]) past L/2, walking down from L - lo - direct
        np.conjugate(spec[L - lo - K + 1 : L - lo - direct + 1][::-1], out=row[direct:])
        if r:
            row *= np.exp(2j * np.pi * (f2 * r % step) / step)
        folded += row
    if r:
        folded *= np.exp((2j * np.pi * r / L) * np.arange(K))
    return np.fft.irfft(folded, M)[q : q + T] / step


def _exact_j(ctx, n_lo, n_hi, step):
    """(offset, j at offset, offset + step, ..., up to n_hi) by the exact
    oracle, for a window inside the support."""
    seq = density_sequence(ctx)
    base = ctx.s * int(seq.support[0])
    a, b = n_lo - base, n_hi - base
    return n_lo, _exact_wrapped(seq.weights, ctx.s, a, b - (b - a) % step, step)


def _scan_targets(ctx):
    ns = _admissible_targets(ctx, math.floor(ctx.N) + 1, math.floor(ctx.N + ctx.window_width))
    return ns, int(np.gcd.reduce(np.diff(ns)))


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
        # the scan-window table against the whole-support one, at 13201
        # and at 2001 weights
        for parts in [(2, 3, 110.0, 30.0), (2, 3, 100.0, 5.0)]:
            ctx = ProblemContext.from_parts(*parts)
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

    def test_stepped_length_rule(self):
        # L = step M with M the shortest 5-smooth length covering need
        for R, s, a, b, step in [(300, 4, 1, 1190, 24), (97, 3, 5, 200, 2), (41, 5, 0, 160, 3)]:
            need = max(b + 1, s * (R - 1) - a + 1)
            L = _stepped_length(R, s, a, b, step)
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
                got = _exact_wrapped(w, s, a, b, step)
                ref = full[a : b + 1 : step]
                assert got.shape == ref.shape
                assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale
                L = _stepped_length(R, s, a, a + step * (ref.size - 1), step)
                parities.add(L // step % 2)
        assert parities == {0, 1}

    def test_step_one_keeps_the_unstepped_bits(self):
        # the unit step is the plain route: rfft, power, irfft, slice; the
        # oracle at step 1 is the package's wrapped convolution, bit for bit
        w = np.random.default_rng(5).uniform(0.0, 1.0, size=300)
        for a, b in [(0, 4 * 299), (500, 700), (3, 3)]:
            L = wrap_length(300, 4, a, b)
            spec = np.fft.rfft(w, L)
            spec **= 4
            want = np.fft.irfft(spec, L)[a : b + 1]
            assert wrapped_convolution(w, 4, a, b).tobytes() == want.tobytes()
            assert _exact_wrapped(w, 4, a, b, 1).tobytes() == want.tobytes()

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


_CRITERION_06 = [
    (2, 2, 10.0, 2.0),
    (2, 2, 30.0, 4.0),
    (3, 2, 8.0, 1.5),
    (2, 3, 12.0, 1.0),
    (3, 3, 5.0, 0.5),
    (2, 4, 20.0, 0.35),
    (2, 5, 50.0, 0.06),
]


class TestCells:
    @pytest.mark.parametrize(
        "ctx",
        [
            ProblemContext.from_scale(2, 5, 0.8, 800_000),
            ProblemContext.from_parts(2, 5, 1000.0, 1000.0 ** 0.8),
            ProblemContext.from_parts(3, 7, 60.0, 60.0 ** 0.8),
        ],
        ids=["k2-N800000", "k2-x1000", "k3-s7-x60"],
    )
    def test_cells_match_the_exact_oracle(self, ctx):
        # the scan's targets' class, relative at every entry
        ns, g = _scan_targets(ctx)
        off, tab = j_array(ctx, int(ns[0]), int(ns[-1]), g)
        want_off, want = _exact_j(ctx, int(ns[0]), int(ns[-1]), g)
        assert off == want_off and tab.shape == want.shape
        assert np.all(want > 0)
        assert float(np.max(np.abs(tab - want) / want)) <= 1e-13

    @pytest.mark.parametrize("parts", _CRITERION_06)
    def test_criterion_06_supports_match_the_exact_oracle(self, parts):
        # supports of a few dozen weights, j on every n of them
        ctx = ProblemContext.from_parts(*parts)
        off, tab = j_array(ctx)
        want_off, want = _exact_j(ctx, off, off + tab.size - 1, 1)
        assert off == want_off and tab.shape == want.shape
        assert float(np.max(np.abs(tab - want) / want)) <= 1e-13

    @pytest.mark.parametrize(
        "parts", [(2, 7, 50.0, 50.0 ** 0.8), (3, 7, 12.0, 12.0 ** 0.8)], ids=["k2", "k3"]
    )
    def test_whole_support_matches_repeated_convolve(self, parts, monkeypatch):
        # 4573 and 7086 weights in cells of width 2 (the first with a
        # partial last cell); at the ends, where j falls towards 0, the
        # FFT's error is eps-level against the peak, not against j
        ctx = ProblemContext.from_parts(*parts)
        widths = []
        interpolate = si._interpolate
        monkeypatch.setattr(
            si, "_interpolate", lambda grid, h, *args: (widths.append(h), interpolate(grid, h, *args))[1]
        )
        w = density_sequence(ctx).weights
        off, tab = j_array(ctx)
        want = _linear_power(w, ctx.s)
        assert widths == [2] and tab.shape == want.shape
        assert float(np.max(np.abs(tab - want))) <= 1e-14 * float(want.max())

    def test_step_does_not_change_j(self):
        # h and the grid do not depend on the entries asked for, so the
        # class table is the unit-step table's class bit for bit
        ctx = ProblemContext.from_parts(2, 5, 700.0, 700.0 ** 0.8)
        ns, g = _scan_targets(ctx)
        off, tab = j_array(ctx, int(ns[0]), int(ns[-1]), g)
        off1, full = j_array(ctx, int(ns[0]), int(ns[-1]))
        assert off == off1 and tab.tobytes() == full[::g].tobytes()

    def test_j_is_one_number_whatever_the_window(self):
        # h and the grid depend on (k, s, lo, hi) alone, and an entry's
        # interpolant sums the same terms in the same order in any table:
        # j(n) from a one-entry table is the scan table's entry, bit for bit
        ctx = ProblemContext.from_parts(3, 7, 60.0, 60.0 ** 0.8)
        ns, g = _scan_targets(ctx)
        off, tab = j_array(ctx, int(ns[0]), int(ns[-1]), g)
        picks = ns[:: -(-ns.size // 20)]
        scan = tab[(picks - off) // g]
        alone = np.array([j_integral(n, ctx) for n in picks.tolist()])
        assert scan.size == 20 and alone.tobytes() == scan.tobytes()

    def test_j_integral_asks_for_n_alone(self, monkeypatch):
        # the grid spans the support, but only n is interpolated
        ctx = ProblemContext.from_parts(2, 5, 1000.0, 1000.0 ** 0.8)
        sizes = []
        interpolate = si._interpolate
        monkeypatch.setattr(
            si, "_interpolate", lambda *args: (sizes.append(args[-1]), interpolate(*args))[1]
        )
        n = 5 * 1000 ** 2
        got = j_integral(n, ctx)
        assert sizes == [1]
        _, want = _exact_j(ctx, n, n, 1)
        assert abs(got - float(want[0])) <= 1e-13 * float(want[0])

    def test_width_does_not_depend_on_the_window(self, monkeypatch):
        # windows at either end, in the middle and over the whole support
        # take the same width, in one pass: 32, below the cap of 64
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        lo, hi = si._power_window(ctx)
        assert si._cell_width(ctx.k, ctx.s, lo, hi) == 32
        widths = []
        grid = si._grid
        monkeypatch.setattr(
            si, "_grid", lambda *args: (widths.append(args[4]), grid(*args))[1]
        )
        for n_lo, n_hi in [(None, 5 * lo + 300), (5 * hi - 300, None), (800_001, 800_001),
                           (None, None)]:
            widths.clear()
            j_array(ctx, n_lo, n_hi)
            assert widths == [32]

    @pytest.mark.parametrize("parts", [
        (2, 5, 400.0, 0.8), (2, 5, 1000.0, 0.8), (2, 5, 2000.0, 0.8), (2, 5, 4000.0, 0.8),
        (3, 7, 60.0, 0.8), (3, 7, 100.0, 0.8), (3, 7, 150.0, 0.8), (2, 5, 1000.0, 0.5),
        (3, 7, 30.0, 0.95), (2, 3, 1000.0, 0.8), (3, 3, 30.0, 0.8),
    ], ids=lambda p: "k{}-s{}-x{:g}-t{:g}".format(*p))
    def test_width_rule_is_the_widest_that_passes(self, parts):
        # the estimate's width passes the band check, and twice it, when
        # still within the cap of 2^11 cells, fails it
        k, s, x, theta = parts
        lo, hi = si._power_window(ProblemContext.from_parts(k, s, x, x ** theta))
        h = si._cell_width(k, s, lo, hi)
        S = s * (hi - lo)

        def passes(h):
            return si._grid(k, s, lo, hi, h, si._smooth_at_least(-(-(S + 1) // h) + 8)) is not None

        assert h == 1 or passes(h)
        if 2 * h <= (hi - lo + 1) // si._MIN_CELLS:
            assert not passes(2 * h)

    def test_cell_moments_match_the_weights(self):
        # closed-form moments (Taylor series of c against the exact offset
        # power sums) against sums over each cell's own weights, also at
        # lo = 1 (theta = 1), where the first cells are summed directly
        for parts, h in [((2, 3, 60.0, 60.0), 2), ((3, 7, 30.0, 30.0 ** 0.8), 8),
                         ((2, 5, 1000.0, 1000.0 ** 0.8), 256)]:
            ctx = ProblemContext.from_parts(*parts)
            seq = density_sequence(ctx)
            lo, hi = int(seq.support[0]), int(seq.support[-1])
            mom = si._cell_moments(ctx.k, lo, hi, h)
            pad = -len(seq) % h
            w = np.concatenate((seq.weights, np.zeros(pad))).reshape(-1, h)
            delta = (np.arange(h) - (h - 1) / 2) / h
            assert mom.shape == (si._TAYLOR + 1, w.shape[0])
            for j in range(si._TAYLOR + 1):
                want = np.sum(w * delta ** j, axis=1) / math.factorial(j)
                scale = np.sum(w, axis=1) * 2.0 ** -j / math.factorial(j)
                assert float(np.max(np.abs(mom[j] - want) / scale)) <= 1e-14

    def test_offset_power_sums_are_exact(self):
        for h in (1, 2, 8, 64):
            delta = [Fraction(2 * i - h + 1, 2 * h) for i in range(h)]
            want = [float(sum(d ** q for d in delta)) for q in range(12)]
            assert si._offset_power_sums(h, 11) == want

    @pytest.mark.parametrize("h,s,a,step,T", [(8, 3, 101, 3, 40), (8, 3, 101, 24, 7), (16, 7, 300, 1, 50)])
    def test_interpolant_is_exact_on_degree_7(self, h, s, a, step, T):
        # eight nodes reproduce a polynomial of degree 7 in the grid index:
        # offset t reads it at (t - s(h - 1)/2) / h
        def poly(u):
            return ((u - 20.0) / 20.0) ** 7 + 0.5 * ((u - 20.0) / 20.0) ** 2 + 1.0

        grid = poly(np.arange(100, dtype=np.float64))
        got = si._interpolate(grid, h, s, a, step, T)
        t = a + step * np.arange(T)
        want = poly((t - s * (h - 1) / 2) / h)
        assert float(np.max(np.abs(got - want))) <= 1e-13

    def test_coarse_start_is_refined(self, monkeypatch):
        # a start of 2^6 cells is far too coarse: the band check halves h
        # one step at a time until X = W^s is eps-small from Mp / 8 on,
        # and the result holds the oracle's 1e-13
        ctx = ProblemContext.from_parts(2, 5, 1000.0, 1000.0 ** 0.8)
        ns, g = _scan_targets(ctx)
        lo, hi = si._power_window(ctx)
        widths = []
        grid = si._grid
        monkeypatch.setattr(
            si, "_grid", lambda *args: (widths.append(args[4]), grid(*args))[1]
        )
        start = 1 << ((hi - lo + 1) // 2 ** 6).bit_length() - 1
        monkeypatch.setattr(si, "_cell_width", lambda *args: start)
        off, tab = j_array(ctx, int(ns[0]), int(ns[-1]), g)
        assert widths[0] == start and widths[-1] <= start // 16
        assert widths == [start >> i for i in range(len(widths))]
        _, want = _exact_j(ctx, int(ns[0]), int(ns[-1]), g)
        assert float(np.max(np.abs(tab - want) / want)) <= 1e-13

    def test_oversized_context_is_refused_before_allocating(self, monkeypatch):
        # 13201 weights in cells of width 4: at s = 20000 the whole
        # support's table alone is 2.6e8 entries, and at s = 100000 the
        # grid for one entry is 3.3e8 long
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("_cell_moments", "_weights", "_grid"):
            monkeypatch.setattr(si, name, refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np.fft, "rfft", refuse)
        for s, n in [(20_000, None), (100_000, 10 ** 9)]:
            ctx = ProblemContext.from_parts(2, s, 110.0, 30.0)
            with pytest.raises(ConvolutionTooLarge, match="convolution budget"):
                j_array(ctx, n, n)


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

    def test_degenerate_window(self):
        # y = x puts the window's left end at 0
        with pytest.raises(ParameterDomain, match="degenerate window") as err:
            oscillatory_I(0.1, ProblemContext.from_parts(2, 2, 10.0, 10.0))
        assert err.value.code == "parameter-domain"

    def test_no_convergence(self, monkeypatch):
        # one refinement has nothing to compare with
        monkeypatch.setattr(si, "_MAX_DOUBLINGS", 1)
        with pytest.raises(NoConvergence, match="did not stabilize") as err:
            oscillatory_I(0.0, self._ctx())
        assert err.value.code == "no-convergence"

    def test_precision_ceiling(self):
        ctx = ProblemContext.from_parts(2, 2, 1e9, 10.0)
        with pytest.raises(PrecisionOverflow):
            oscillatory_I(1.0, ctx)

    def test_rule_is_numpys_leggauss(self):
        # the written-out 16-point rule, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert si._GL_NODES.tobytes() == nodes.tobytes()
        assert si._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_node_budget(self):
        # 128 bytes per node against 4 GiB: 2,097,152 panels of 16 nodes
        require_node_budget(2_097_152)
        with pytest.raises(MemoryBudgetExceeded, match="33554448 Gauss-Legendre nodes"):
            require_node_budget(2_097_153)

    def test_refused_before_the_first_panels(self, monkeypatch):
        # phase span 4e7: 4e7 + 1 panels, 4.77 GiB of nodes alone
        monkeypatch.setattr(si, "gauss_legendre_panels", lambda *a: pytest.fail("allocated"))
        with pytest.raises(MemoryBudgetExceeded, match="quadrature budget"):
            oscillatory_I(1.0, ProblemContext.from_parts(2, 2, 1e4, 1e3))

    def test_refused_before_a_doubling(self, monkeypatch):
        # a budget of 4 panels: beta = 0 would converge at the second step
        monkeypatch.setattr(si, "_NODE_BYTES", 128 * 16 * 4)
        with pytest.raises(MemoryBudgetExceeded, match="128 Gauss-Legendre nodes"):
            oscillatory_I(0.0, self._ctx())
