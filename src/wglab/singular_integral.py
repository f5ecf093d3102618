"""The archimedean factor: density weights, their s-fold convolution, and
the oscillatory window integral.

The window (x - y, x + y] transported through the k-th power map covers
the integers m in [ceil((x-y)^k), floor((x+y)^k)], each carrying the
density weight c_m = (1/k) m^(1/k - 1); `density_sequence` returns them
as an `expsums.WeightedSequence`.  Two derived quantities matter:

* v(beta) = sum c_m e(beta m), the weighted linear exponential sum, and
* j(n)    = the s-fold convolution of the weights evaluated at n, which
  is the discrete stand-in for the continuous window integral and the
  archimedean factor in the main-term prediction.

j takes one route at every size, through cells: cells of width h cover
[lo - 1/2, hi + 1/2], each holding the sum of its weights (at h = 1 the
weights themselves, wider cells from the integral of c), one FFT
(`wrapped_convolution`, which also serves rho in `representations`)
convolves the sums s-fold, and j(n) is interpolated between them, with h
chosen a posteriori.  Every FFT checks a byte budget before allocating.

Accuracy: the walk over h holds its error estimate within 2e-10
relative at the entries it probes.  Near the ends of the support, where
j falls towards 0, the FFT's absolute error (about eps times the peak of
j) dominates instead: against repeated `np.convolve`, the whole-support
table of (k, s, x, y) = (3, 3, 30, 28) reads 1.4e-4 relative at its last
entry, where j is 1.5e-12 of its peak.  No scan window or golden output
reads entries that far below the peak, and at the ends of acceptance
criterion 06's small supports the error stays within 4.0e-12; on the
scan windows of (2, 3, 60, 60), (3, 3, 30, 28) and (2, 2, 10, 4) the
tables agree with `np.convolve` within 1.1e-15 relative.

The oscillatory integral I(beta) over the original window uses composite
Gauss-Legendre panels with doubling until the change falls below
1e-8 * y, with the panel count seeded above the oscillation count so
every period sees at least 16 nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import ProblemContext
from .errors import (
    ConvolutionTooLarge,
    EmptyWindow,
    NoConvergence,
    ParameterDomain,
    PrecisionOverflow,
    require_bytes,
)
from .expsums import WeightedSequence, exact_phase

_CONV_BYTES = 4 * 2 ** 30
_NODE_BYTES = 4 * 2 ** 30  # quadrature budget, see require_node_budget
_J_RTOL = 2e-10  # j's error estimate, relative at every probed entry
_START_CELLS = 2 ** 16
_OSC_TOL_FACTOR = 1e-8
_MAX_DOUBLINGS = 18


_REFRESH = 1 << 10  # recurrence length before an exact phase re-anchor


def _power_window(ctx: ProblemContext) -> tuple[int, int]:
    """(lo, hi): the image window [ceil((x-y)^k), floor((x+y)^k)], lo >= 1."""
    lo = max(math.ceil((ctx.x - ctx.y) ** ctx.k), 1)
    hi = math.floor((ctx.x + ctx.y) ** ctx.k)
    if hi < lo:
        raise EmptyWindow(f"power window [{lo}, {hi}] of ({ctx.x} -+ {ctx.y})^{ctx.k} is empty")
    return lo, hi


def _weights(k: int, lo: int, hi: int) -> np.ndarray:
    """c_m = (1/k) m^(1/k - 1) for m = lo, ..., hi."""
    m = np.arange(lo, hi + 1, dtype=np.int64).astype(np.float64)
    return (1.0 / k) * m ** (1.0 / k - 1.0)


def density_sequence(ctx: ProblemContext) -> WeightedSequence:
    """The density weights c_m on the image window, m = lo, ..., hi."""
    lo, hi = _power_window(ctx)
    return WeightedSequence(np.arange(lo, hi + 1, dtype=np.int64), _weights(ctx.k, lo, hi))


def v_eval(ctx: ProblemContext, beta: float) -> complex:
    """v(beta) = sum of c_m e(beta m) over `density_sequence(ctx)`,
    phases by blockwise recurrence.

    Within a block of 2^10 consecutive m the phase advances by repeated
    multiplication with e(beta); each block is re-anchored at an exactly
    reduced phase (integer arithmetic on beta's dyadic ratio), so drift
    stays below ~10^-13 regardless of beta * m magnitude.
    """
    seq = density_sequence(ctx)
    lo, R = int(seq.support[0]), len(seq)
    num, den = float(beta).as_integer_ratio()
    step = np.exp(2j * np.pi * (num % den) / den)
    ladder = step ** np.arange(min(_REFRESH, R))
    total = 0.0 + 0.0j
    for start in range(0, R, _REFRESH):
        stop = min(start + _REFRESH, R)
        anchor = exact_phase(beta, lo + start)
        block = seq.weights[start:stop]
        total += anchor * np.dot(block, ladder[: stop - start])
    return complex(total)


def _smooth_at_least(need: int) -> int:
    """Shortest 5-smooth length >= need."""
    best = 1 << max(need - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << max(-(-need // p35) - 1, 0).bit_length()
            best = min(best, p35 * p2)
            p35 *= 3
        p5 *= 5
    return best


def wrap_length(R: int, s: int, a: int, b: int) -> int:
    """The shortest 5-smooth L >= max(b + 1, s(R - 1) - a + 1).

    Entry i of the cyclic convolution of length L is the sum of the
    linear entries i + tL over integers t.  The linear support is
    [0, s(R - 1)], so entries a..b see only t = 0 exactly when
    a + L > s(R - 1) and b < L.
    """
    return _smooth_at_least(max(b + 1, s * (R - 1) - a + 1))


def require_conv_budget(L: int) -> None:
    """Refuse a cyclic FFT of length L before any of it is allocated.

    Four real arrays of length L are alive at once inside `irfft`: the
    charge is 32 L bytes against 4 GiB, which admits L up to 1.3e8.  At
    k=2, s=5, theta=0.8, x = 16000 rho's lattice needs L = 1.7e7, and a
    scan's `j_array` raises the peak (VmHWM, numpy 2.4.6) by 75 MB, most
    of it arrays over the 1.5e6 targets (12 MB at x = 1000).
    """
    require_bytes(32 * L, _CONV_BYTES, "convolution",
                  f"a cyclic FFT of length {L} needs", ConvolutionTooLarge)


def wrapped_convolution(w: np.ndarray, s: int, a: int, b: int) -> np.ndarray:
    """Entries a..b of the s-fold self-convolution of w, as float64, from
    one real FFT of the cyclic length `wrap_length(len(w), s, a, b)`;
    a = 0, b = s(len(w) - 1) is the plain linear convolution."""
    L = wrap_length(len(w), s, a, b)
    require_conv_budget(L)
    spec = np.fft.rfft(w, L)
    spec **= s
    return np.fft.irfft(spec, L)[a : b + 1].copy()


def _cell_masses(k: int, lo: int, hi: int, h: int) -> np.ndarray:
    """The sums of c_m over the cells [lo - 1/2 + i h, lo - 1/2 + (i + 1) h),
    the last cut at hi + 1/2.  At h = 1 they are the weights c_m
    themselves.  A wider cell takes the integral of c, v^(1/k) - u^(1/k)
    taken as (v - u) / sum_i v^(i/k) u^((k-1-i)/k) so that nothing
    cancels, less the midpoint Euler-Maclaurin term (c'(v) - c'(u)) / 24.
    The next term, 7/5760 of the difference of c's third derivative, is
    left out: `_cell_table`'s floor.  On a unit cell at k = 2 it would be
    1.2e-2 of the weight at m = 1 and 4.8e-10 at m = 64, which is why
    unit cells take the weights."""
    if h == 1:
        return _weights(k, lo, hi)
    edges = lo - 0.5 + h * np.arange(-(-(hi - lo + 1) // h) + 1, dtype=np.float64)
    edges[-1] = hi + 0.5
    root = edges ** (1.0 / k)
    u, v = root[:-1], root[1:]
    den = sum(v ** i * u ** (k - 1 - i) for i in range(k))
    slope = ((1.0 - k) / k ** 2) * edges ** (1.0 / k - 2.0)  # c'
    return np.diff(edges) / den - np.diff(slope) / 24


def _cells(k: int, s: int, lo: int, hi: int, h: int, a: int, b: int):
    """n -> j at float offsets n in [a, b] from s lo, from the s-fold
    convolution of the width-h cell masses: sum I is centred at
    s(lo - 1/2) + (I + s/2) h, so offset n sits at u = (n + s/2) / h - s/2,
    and j interpolates the sums at floor(u) and floor(u) + 1, over h."""
    count = -(-(hi - lo + 1) // h)
    first = math.floor((a + s / 2) / h - s / 2)
    last = math.floor((b + s / 2) / h - s / 2) + 1
    lo_c, hi_c = max(first, 0), min(last, s * (count - 1))
    if lo_c > hi_c:  # every sum the window reads lies past an end: j is 0
        return np.zeros_like
    require_conv_budget(wrap_length(count, s, lo_c, hi_c))
    nu = np.zeros(last - first + 1)  # sums outside the support stay 0
    nu[lo_c - first : hi_c - first + 1] = wrapped_convolution(
        _cell_masses(k, lo, hi, h), s, lo_c, hi_c
    )
    np.maximum(nu, 0.0, out=nu)  # clip FFT noise below true zero

    def at(n: np.ndarray) -> np.ndarray:
        if h == 1:  # unit cells: the sums are j itself, u = n exactly
            return nu[n.astype(np.int64) - first]
        u = (n + s / 2) / h - s / 2
        below = np.floor(u)
        u -= below
        i = below.astype(np.int64) - first
        return ((1.0 - u) * nu[i] + u * nu[i + 1]) / h

    return at


def _cell_table(ctx: ProblemContext, lo: int, hi: int, a: int, b: int, step: int) -> np.ndarray:
    """j at offsets a, a + step, ..., b from s lo, from cells of width h.

    h starts at the largest power of two up to R / 2^16 (1 for a window
    reaching an end of the support, where j tends to 0 and no h > 1
    holds) and halves until the error estimate, the difference of the
    tables at h and 2h plus a floor no h > 1 removes (s times the wide
    masses' relative Euler-Maclaurin remainder (7/5760) |c''''/c| at
    lo - 1/2), holds 2e-10 relative at a, b and every centre and midpoint
    of the width-h sums between, where the interpolation error peaks.
    These probes do not depend on the step, so neither does j(n).  They
    do depend on [a, b]: two windows holding n can stop at different h,
    so j(n) from `j_integral` (a one-entry window) and from a scan's
    table differ within the tolerance, 7.1e-11 relative at k = 3, x = 60.
    At h = 1 the masses are the weights and the walk ends.
    """
    k, s = ctx.k, ctx.s
    h = 1 << max(((hi - lo + 1) // _START_CELLS).bit_length() - 1, 0)
    if a == 0 or b == s * (hi - lo):
        h = 1
    floor = s * 7 / 5760 * abs(math.prod(1 / k - i for i in range(1, 5))) / (lo - 0.5) ** 4
    coarse = _cells(k, s, lo, hi, 2 * h, a, b) if h > 1 else None
    fine = _cells(k, s, lo, hi, h, a, b)
    while h > 1:
        half = np.arange(math.ceil(2 * (a + s / 2) / h), math.floor(2 * (b + s / 2) / h) + 1)
        probe = np.concatenate(([a, b], half * (h / 2) - s / 2))
        want = fine(probe)
        if np.all(np.abs(want - coarse(probe)) <= (_J_RTOL - floor) * want):
            break
        coarse, h = fine, h // 2
        fine = _cells(k, s, lo, hi, h, a, b)
    return fine(np.arange(a, b + 1, step, dtype=np.float64))


def j_array(
    ctx: ProblemContext,
    n_lo: int | None = None,
    n_hi: int | None = None,
    step: int = 1,
) -> tuple[int, np.ndarray]:
    """(offset, table) with j(offset + step i) = table[i].

    Without a window the table is the whole support [s lo, s hi] and
    offset = s lo.  With one, it covers exactly the n = n_lo (mod step)
    of [n_lo, n_hi] inside the support; a window outside the support
    gives an empty table.  Every table comes from `_cell_table`.
    """
    if step < 1:
        raise ParameterDomain(f"need step >= 1, got {step}")
    lo, hi = _power_window(ctx)
    base = ctx.s * lo
    S = ctx.s * (hi - lo)
    a = 0 if n_lo is None else int(n_lo) - base
    if a < 0:
        a %= step  # the first entry of the class inside the support
    b = S if n_hi is None else min(int(n_hi) - base, S)
    if a > b:
        return base + a, np.zeros(0)
    b -= (b - a) % step
    return base + a, _cell_table(ctx, lo, hi, a, b, step)


def j_integral(n: int, ctx: ProblemContext) -> float:
    """The window convolution j(n); zero outside [s*lo, s*hi].  Only n is
    asked for, so the table holds one entry, not the support."""
    offset, conv = j_array(ctx, n, n)
    i = int(n) - offset
    return float(conv[i]) if 0 <= i < conv.size else 0.0


# 16-point Gauss-Legendre on [-1, 1], `numpy.polynomial.legendre.leggauss(16)`
# bit for bit (a test pins it) without importing numpy.polynomial.  That
# rule is exactly symmetric, so its upper half, written out, is mirrored.
_GL_UPPER_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_UPPER_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES = np.concatenate([-_GL_UPPER_NODES[::-1], _GL_UPPER_NODES])
_GL_WEIGHTS = np.concatenate([_GL_UPPER_WEIGHTS[::-1], _GL_UPPER_WEIGHTS])


def require_node_budget(panels: int) -> None:
    """Refuse composite 16-point Gauss-Legendre over `panels` panels in
    all, before any node is allocated.

    The charge is 120 bytes per node against 4 GiB, which admits 3.6e7
    nodes.  Tracemalloc peaks per node: 120 bytes for a cold
    `experiment.major_arc_rho_numeric` (every interval's nodes and
    weights, their concatenation, f and f^s), 88 on a memo hit, and 48
    for one refinement of `oscillatory_I`.
    """
    nodes = 16 * panels
    require_bytes(120 * nodes, _NODE_BYTES, "quadrature", f"{nodes} Gauss-Legendre nodes need")


def gauss_legendre_panels(lo: float, hi: float, panels: int):
    """(half, nodes, weights) of composite 16-point Gauss-Legendre on
    [lo, hi]; the integral of g is half * np.dot(g(nodes), weights)."""
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    return half, nodes, np.tile(_GL_WEIGHTS, panels)


def oscillatory_I(beta: float, ctx: ProblemContext) -> complex:
    """I(beta) = integral of e(beta * g^k) dg over (x - y, x + y).

    Composite 16-point Gauss-Legendre with panel doubling; converged when
    successive refinements differ by at most 1e-8 * y in modulus.
    """
    a = ctx.x - ctx.y
    b = ctx.x + ctx.y
    if not (b > a > 0):
        raise ParameterDomain(f"degenerate window ({a}, {b})")
    phase_span = abs(beta) * (b ** ctx.k - a ** ctx.k)
    if abs(beta) * b ** ctx.k > 2.0 ** 52:
        raise PrecisionOverflow(
            "phase beta * (x+y)^k exceeds the exact double range"
        )
    panels = max(4, math.ceil(phase_span) + 1)
    tol = _OSC_TOL_FACTOR * ctx.y
    prev: complex | None = None
    for _ in range(_MAX_DOUBLINGS):
        require_node_budget(panels)
        half, pts, weights = gauss_legendre_panels(a, b, panels)
        vals = np.exp((2j * np.pi * beta) * pts ** ctx.k)
        cur = complex(half * np.dot(vals, weights))
        if prev is not None and abs(cur - prev) <= tol:
            return cur
        prev = cur
        panels *= 2
    raise NoConvergence(
        f"oscillatory integral did not stabilize within {_MAX_DOUBLINGS} doublings"
    )
