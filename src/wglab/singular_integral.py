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

j takes one route at every size.  The weights are cut into cells of
width h, a power of two that depends on (k, s, lo, hi) alone (1 below
2^12 weights); each cell gives the low band of the weights' spectrum
through its moments of order 0 to 8 about its centre, in closed form
from the Taylor series of c, and nine short FFTs of the moment columns,
combined by Horner and raised to the s-th power, give X = W^s; one inverse FFT
gives j on a grid of step h over the whole support, and 8-point
Lagrange interpolation reads the targets off it (`_j_table`).  At h = 1
the table is the plain transform of the weights (`wrapped_convolution`,
which also serves rho in `representations`).  So j(n) is one number,
whatever window a table spans.  Every transform checks a byte budget
before allocating.

Accuracy: eps-level against the exact convolution.  On the scan
windows of k = 2, x = 400 to 4000 and k = 3, x = 60 to 150 the
tables agree with the unit-width transform within 2.5e-15 relative;
over whole supports, within 1.5e-15 of the peak against repeated
`np.convolve`.  Near the ends of the support, where j falls towards 0,
that absolute error (about eps times the peak of j) dominates: at the
ends of acceptance criterion 06's small supports the relative error
against the exact convolution is up to 4.0e-12.  No scan window or
golden output reads entries that far below the peak.

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
_TAYLOR = 8  # the order in z of a cell's spectrum, see _grid
_MIN_CELLS = 2 ** 11  # the widest cells leave at least this many
_BAND = 8  # X must be below _EPS |X(0)| from f = Mp / _BAND on
_EPS = 2.0 ** -52  # float64 eps
_NODES = 8  # Lagrange nodes, -3..4 about the grid point below
_BLOCK = 1 << 15  # table entries per interpolation block
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
    k=2, s=5, theta=0.8, x = 16000 rho's lattice needs L = 1.7e7; a
    scan's `j_array` there, on the grid route, raises the peak (VmHWM,
    numpy 2.4.6) by 11 MB over the 1.5e6 targets (1.4 MB at x = 1000).
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


def _offset_power_sums(h: int, top: int) -> list[float]:
    """sum over the offsets delta of a width-h cell from its centre of
    (delta / h)^q, for q = 0..top, each rounded once from exact integers.

    The doubled offsets 2 delta of a width-2w cell are those of width w
    shifted by -w and by +w, and width 1 has the one offset 0; h is a
    power of two.  Odd sums are 0 by symmetry."""
    t = [1] + [0] * top
    w = 1
    while w < h:
        t = [2 * sum(math.comb(q, r) * t[r] * w ** (q - r) for r in range(q % 2, q + 1, 2))
             for q in range(top + 1)]
        w *= 2
    return [t[q] / (2 * h) ** q for q in range(top + 1)]


def _cell_moments(k: int, lo: int, hi: int, h: int) -> np.ndarray:
    """Row j, column I: mu_j(I) / j!, where mu_j(I) is the sum over the
    members m of cell I of c_m ((m - centre) / h)^j, j = 0.._TAYLOR.

    Cell I holds m = lo + I h, ..., lo + I h + h - 1 (the last cut at
    hi) around the centre lo + I h + (h - 1) / 2.  A full cell whose
    centre lies at 4h or more takes its moments in closed form from the
    Taylor series of c about the centre, c(mu + delta) = c(mu) times the
    sum of binom(1/k - 1, r) (delta / mu)^r, against the exact
    `_offset_power_sums`; the series stops at the first r with
    (h / 2 mu)^r <= 2^-56, which bounds every later term relative to the
    cell's mass.  Any other cell, the last partial one among them, is
    summed from its own weights."""
    R = hi - lo + 1
    count = -(-R // h)
    alpha = 1.0 / k - 1.0
    centre = lo + (h - 1) / 2 + h * np.arange(count, dtype=np.float64)
    taylor = centre >= 4 * h
    taylor[-1] &= R % h == 0
    direct = np.flatnonzero(~taylor).tolist()
    mu = centre[taylor]
    mom = np.empty((_TAYLOR + 1, count))
    if mu.size:
        terms = math.ceil(56 / math.log2(2 * float(mu[0]) / h))
        sums = _offset_power_sums(h, _TAYLOR + terms)
        binom = [1.0]
        for r in range(1, terms + 1):
            binom.append(binom[-1] * (alpha - r + 1) / r)
        rho = h / mu
        rho2 = rho * rho
        c = (1.0 / k) * mu ** alpha
        for j in range(_TAYLOR + 1):
            coef = [binom[r] * sums[j + r] / math.factorial(j)
                    for r in range(j % 2, terms + 1, 2)]
            acc = np.full(mu.size, coef[-1])
            for b in coef[-2::-1]:
                acc *= rho2
                acc += b
            acc *= c
            if j % 2:
                acc *= rho
            mom[j, taylor] = acc
    for i in direct:
        m0 = lo + i * h
        m1 = min(m0 + h - 1, hi)
        term = _weights(k, m0, m1)
        delta = (np.arange(m1 - m0 + 1) - (h - 1) / 2) / h
        for j in range(_TAYLOR + 1):
            mom[j, i] = np.sum(term)  # of c_m delta^j / j!
            term *= delta / (j + 1)
    return mom


def _cell_width(k: int, s: int, lo: int, hi: int) -> int:
    """The widest power of two h, at most the widest leaving _MIN_CELLS
    cells, at which X = W^s is estimated to pass `_grid`'s band check:
    summed by parts, W at the band edge (frequency 1/(8h)) is about
    (c(lo) + c(hi)) / (2 sin(pi/8h)), against W(0) = hi^(1/k) -
    (lo - 1)^(1/k), and h is kept once that ratio's s-th power <= eps."""
    h = 1 << max(((hi - lo + 1) // _MIN_CELLS).bit_length() - 1, 0)
    edge = (lo ** (1 / k - 1) + hi ** (1 / k - 1)) / k
    mass = hi ** (1 / k) - (lo - 1) ** (1 / k)
    while h > 1 and edge / (2 * mass * math.sin(math.pi / (_BAND * h))) > _EPS ** (1 / s):
        h //= 2
    return h


def _require_j_budget(count: int, Mp: int, h: int, a: int, b: int, step: int) -> None:
    """Refuse j's grid route at width h before any of it is allocated.

    The charge: the moment columns (8 (_TAYLOR + 1) bytes a cell); the
    spectra and the grid, 40 bytes per grid entry (the Horner
    accumulator, one moment's transform and its zero-padded input, the
    phases z, the irfft's work); the grid nodes the table reads with
    their indices, 16 bytes each, at most 2 (b - a) / h + 9 of them; and
    `_interpolate`'s table, its block and its weights.  tracemalloc
    peaks of `j_array` read 0.38 to 0.69 of it on scan windows, one-entry
    windows and whole supports at k = 2, x = 400 to 4000 and k = 3,
    x = 60 and 150."""
    T = (b - a) // step + 1
    g = math.gcd(step, h)
    P = min(h // g, T)
    cols = min(step // g, (b - a) // h + 1) + _NODES
    need = (8 * (_TAYLOR + 1) * count + 40 * Mp + 16 * (2 * (b - a) // h + _NODES + 1)
            + 8 * (2 * T + _BLOCK + (cols + 16) * P))
    require_bytes(need, _CONV_BYTES, "convolution",
                  f"j from {count} cells on a grid of {Mp} needs", ConvolutionTooLarge)


def _grid(k: int, s: int, lo: int, hi: int, h: int, Mp: int) -> np.ndarray | None:
    """j at s(h - 1)/2 + I h for I = 0..Mp - 1 (periodic in Mp) from the
    width-h cells, or None when X = W^s exceeds eps |X(0)| anywhere on
    f >= Mp / 8, leaving the interpolant too little room.

    W is the weights' spectrum at period h Mp, on f = 0..Mp/2, each
    cell's phase taken at its centre less (h - 1) / 2: the sum over j of
    A_j(f) z^j by Horner, A_j the rfft of row j of `_cell_moments` and
    z = -2 pi i f / Mp."""
    mom = _cell_moments(k, lo, hi, h)
    z = (-2j * np.pi / Mp) * np.arange(Mp // 2 + 1)
    spec = np.fft.rfft(mom[_TAYLOR], Mp)
    for j in range(_TAYLOR - 1, -1, -1):
        spec *= z
        spec += np.fft.rfft(mom[j], Mp)
    spec **= s
    if np.max(np.abs(spec[-(-Mp // _BAND):])) > _EPS * abs(spec[0]):
        return None
    grid = np.fft.irfft(spec, Mp)
    grid /= h  # h is a power of two: exact
    return grid


def _lagrange_weights(phi: np.ndarray) -> np.ndarray:
    """Row r: the weight of node r - 3 in the 8-point Lagrange
    interpolant at phi, nodes -3..4.  Elementwise in phi, so the same
    phi gets the same bits in any array."""
    out = np.empty((_NODES, phi.size))
    for r in range(_NODES):
        num = np.ones_like(phi)
        den = 1
        for q in range(_NODES):
            if q != r:
                num *= phi - (q - 3)
                den *= r - q
        out[r] = num / den
    return out


def _interpolate(grid: np.ndarray, h: int, s: int, a: int, step: int, T: int) -> np.ndarray:
    """j at offsets a, a + step, ..., a + (T - 1) step from the grid
    (grid[I] = j at s(h - 1)/2 + I h, periodic in len(grid)), 8-point
    Lagrange, polyphase.

    Offset t sits at 2t - s(h - 1) = 2h I + rem: between nodes I and
    I + 1, at phi = rem / 2h, which repeats every P = h / gcd(step, h)
    entries while I moves on D = step / gcd(step, h).  The table is cut
    into rows of P entries; row q reads the (at most D + 8) columns of
    nodes from I_0 - 3 + qD, and each column adds its node times its
    weight for every phase, one multiply-add over a block of rows, in
    column order.  An entry's nonzero terms come in node order whatever
    the window, and a zero weight adds an exact zero, so j(n) has the
    same bits in every table that holds n.  No BLAS, so no thread count
    changes them."""
    g = math.gcd(step, h)
    P = min(h // g, T)
    D = step // g
    num = 2 * a - s * (h - 1) + 2 * step * np.arange(P, dtype=np.int64)
    node, rem = np.divmod(num, 2 * h)
    rel = node - node[0]
    cols = int(rel[-1]) + _NODES
    weight = np.zeros((cols, P))
    lagrange = _lagrange_weights(rem / (2 * h))
    for r in range(_NODES):
        weight[rel + r, np.arange(P)] = lagrange[r]
    rows = -(-T // P)
    first = int(node[0]) - 3
    nodes = grid[np.arange(first, first + (rows - 1) * D + cols) % grid.size]
    view = np.lib.stride_tricks.sliding_window_view(nodes, cols)[::D]
    out = np.zeros((rows, P))
    block = max(_BLOCK // P, 1)  # rows of a block, which stays in cache
    term = np.empty((min(block, rows), P))
    for q in range(0, rows, block):
        part, src = out[q : q + block], view[q : q + block]
        for c in range(cols):
            np.multiply(src[:, c, None], weight[c], out=term[: len(part)])
            part += term[: len(part)]
    return out.ravel()[:T]


def _j_table(k: int, s: int, lo: int, hi: int, a: int, b: int, step: int) -> np.ndarray:
    """j at offsets a, a + step, ..., b from s lo.

    h depends on (k, s, lo, hi) alone: `_cell_width`'s estimate, halved
    while `_grid` still finds X = W^s above eps |X(0)| on f >= Mp / 8,
    so the grid holds j's band with room for the interpolant.  At h = 1
    the table is the plain transform of the weights over the whole
    support.  Either way j(n) is one number, whatever the window.
    """
    R = hi - lo + 1
    S = s * (R - 1)
    T = (b - a) // step + 1
    h = _cell_width(k, s, lo, hi)
    while h > 1:
        # the period h Mp passes the support [0, S] by 8 cells, so no
        # interpolation node, all within 4h of it, reads a wrapped image
        Mp = _smooth_at_least(-(-(S + 1) // h) + 8)
        _require_j_budget(-(-R // h), Mp, h, a, b, step)
        grid = _grid(k, s, lo, hi, h, Mp)
        if grid is not None:
            table = _interpolate(grid, h, s, a, step, T)
            break
        h //= 2
    else:
        require_conv_budget(wrap_length(R, s, 0, S))
        require_bytes(8 * T, _CONV_BYTES, "convolution", f"a table of {T} entries needs",
                      ConvolutionTooLarge)
        table = wrapped_convolution(_weights(k, lo, hi), s, 0, S)[a : b + 1 : step].copy()
    np.maximum(table, 0.0, out=table)  # clip FFT noise below true zero
    return table


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
    gives an empty table.  Every table comes from `_j_table`.
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
    return base + a, _j_table(ctx.k, ctx.s, lo, hi, a, b, step)


def j_integral(n: int, ctx: ProblemContext) -> float:
    """The window convolution j(n); zero outside [s*lo, s*hi].  Only n is
    asked for, so the table holds one entry, with the bits the same n has
    in any other table."""
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

    The charge is 128 bytes per node against 4 GiB, which admits 3.4e7
    nodes.  Tracemalloc peaks per node at N = 800,000: 121 bytes for a
    cold `experiment.major_arc_rho_numeric` (the kept nodes and weighted
    f^s, 24, and the target's phases e(n alpha)), 96 on a memo hit (the
    phases alone), and 56 for one refinement of `oscillatory_I`.
    """
    nodes = 16 * panels
    require_bytes(128 * nodes, _NODE_BYTES, "quadrature", f"{nodes} Gauss-Legendre nodes need")


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
