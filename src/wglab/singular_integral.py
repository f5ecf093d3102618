"""The archimedean factor: density weights, their s-fold convolution, and
the oscillatory window integral.

The window (x - y, x + y] transported through the k-th power map covers
the integers m in [ceil((x-y)^k), floor((x+y)^k)], each carrying the
density weight c_m = (1/k) m^(1/k - 1).  Two derived quantities matter:

* v(beta) = sum c_m e(beta m), the weighted linear exponential sum, and
* j(n)    = the s-fold convolution of the weights evaluated at n, which
  is the discrete stand-in for the continuous window integral and the
  archimedean factor in the main-term prediction.

j is computed exactly as a convolution.  A window of at most 10^4
weights is convolved directly with `np.convolve`.  A longer one goes
through `wrapped_convolution`, which returns only the entries a, a + step,
..., up to b of the s-fold self-convolution from one cyclic real FFT of
the shortest length, step times a 5-smooth one, that aliases nothing into
[a, b]: the whole support when no target window is given, about 0.56 of
it for a scan's window.  A scan's targets lie in one class mod R(k), so
it asks for that class alone (step 24 at k = 2, 2 at k = 3): the
spectrum is folded onto the class and inverted at 1/step of the length.
The same helper, at step 1, computes rho over a scan window in
`representations`, on the
lattice of step g = gcd(p^k - p_min^k) that holds the prime powers (24
at k = 2), and takes it over the meet-in-the-middle join when the join's
estimated pair count m^s (b - a + 1) / (s(R - 1) + 1), counted in steps
of g, exceeds the FFT's L log2 L.
Tables are cached per (k, s, window, target entries, step) for the few
most recent requests, and every FFT checks a byte budget before
allocating.

The oscillatory integral I(beta) over the original window uses composite
Gauss-Legendre panels with doubling until the change falls below
1e-8 * y, with the panel count seeded above the oscillation count so
every period sees at least 16 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import ProblemContext
from .errors import (
    ConvolutionTooLarge,
    EmptyWindow,
    NoConvergence,
    ParameterDomain,
    PrecisionOverflow,
)
from .expsums import exact_phase

_CONV_BYTES = 4 * 2 ** 30
_DIRECT_CONV_LIMIT = 10 ** 4
_OSC_TOL_FACTOR = 1e-8
_MAX_DOUBLINGS = 18


_REFRESH = 1 << 10  # recurrence length before an exact phase re-anchor


def _power_window(ctx: ProblemContext) -> tuple[int, int]:
    """(lo, hi): the image window [ceil((x-y)^k), floor((x+y)^k)], lo >= 1."""
    lo = math.ceil((ctx.x - ctx.y) ** ctx.k)
    hi = math.floor((ctx.x + ctx.y) ** ctx.k)
    return max(lo, 1), hi


@dataclass(eq=False)
class WeightSeq:
    """Density weights c_m on the image window [lo, hi]."""

    k: int
    lo: int
    hi: int
    weights: np.ndarray

    def __post_init__(self):
        if self.hi < self.lo:
            raise EmptyWindow(f"no integers in [{self.lo}, {self.hi}]")
        if self.weights.shape != (self.hi - self.lo + 1,):
            raise ParameterDomain("weight vector does not match window length")

    @classmethod
    def from_context(cls, ctx: ProblemContext) -> "WeightSeq":
        lo, hi = _power_window(ctx)
        if hi < lo:
            raise EmptyWindow(
                f"power window [({ctx.x}-{ctx.y})^{ctx.k}, ({ctx.x}+{ctx.y})^{ctx.k}] "
                "contains no integers"
            )
        m = np.arange(lo, hi + 1, dtype=np.int64)
        w = (1.0 / ctx.k) * m.astype(np.float64) ** (1.0 / ctx.k - 1.0)
        return cls(k=ctx.k, lo=int(lo), hi=int(hi), weights=w)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def total(self) -> float:
        return float(np.sum(self.weights))


def v_eval(ws: WeightSeq, beta: float) -> complex:
    """v(beta) = sum of c_m e(beta m), phases by blockwise recurrence.

    Within a block of 2^10 consecutive m the phase advances by repeated
    multiplication with e(beta); each block is re-anchored at an exactly
    reduced phase (integer arithmetic on beta's dyadic ratio), so drift
    stays below ~10^-13 regardless of beta * m magnitude.
    """
    num, den = float(beta).as_integer_ratio()
    R = len(ws)
    step = np.exp(2j * np.pi * (num % den) / den)
    ladder = step ** np.arange(min(_REFRESH, R))
    total = 0.0 + 0.0j
    for start in range(0, R, _REFRESH):
        stop = min(start + _REFRESH, R)
        anchor = exact_phase(beta, ws.lo + start)
        block = ws.weights[start:stop]
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


def wrap_length(R: int, s: int, a: int, b: int, step: int = 1) -> int:
    """step * M, M the shortest 5-smooth length with step * M >=
    max(b + 1, s(R - 1) - a + 1).

    Entry i of the cyclic convolution of length L is the sum of the
    linear entries i + tL over integers t.  The linear support is
    [0, s(R - 1)], so entries a..b see only t = 0 exactly when
    a + L > s(R - 1) and b < L.  The factor step lets the inverse
    transform run at length M on the class a (mod step).
    """
    need = max(b + 1, s * (R - 1) - a + 1)
    return step * _smooth_at_least(-(-need // step))


def require_conv_budget(L: int) -> None:
    """Refuse a cyclic FFT of length L before any of it is allocated.

    Measured by VmHWM in a fresh process (numpy 2.4.6), a k=2, s=5,
    theta=0.8 scan's `j_array` raises the peak by 32 L bytes at x = 1000
    and 26 L at x = 4000 on the unit step, where four real arrays of
    length L are alive at once inside `irfft`.  The folded route of a
    step > 1 never inverts at length L and peaks inside `rfft`: 24 L at
    x = 1000 and 18 L at x = 4000 (step 24), the weights included.  The
    charge stays 32 L for every step.  The budget is 4 GiB, which admits
    L up to 1.3e8; the k=2, s=5, theta=0.8 scan window at x = 8000 needs
    L = 1.15e8.
    """
    need = 32 * L
    if need > _CONV_BYTES:
        raise ConvolutionTooLarge(
            f"a cyclic FFT of length {L} needs {need / 2 ** 30:.1f} GiB, "
            f"over the {_CONV_BYTES / 2 ** 30:.0f} GiB convolution budget"
        )


def wrapped_convolution(w: np.ndarray, s: int, a: int, b: int, step: int = 1) -> np.ndarray:
    """Entries a, a + step, ..., up to b of the s-fold self-convolution of
    w, as float64.

    One real FFT of the cyclic length L = `wrap_length(len(w), s, a, last,
    step)`, last the final entry returned; a = 0, b = s(len(w) - 1),
    step = 1 is the plain linear convolution.  For step > 1, L = step M and
    the spectrum X = rfft(w, L)^s is folded onto the class before one
    inverse FFT of length M: with a = q step + r (0 <= r < step), entry
    r + step t of the cyclic convolution is irfft(Y, M)[t] / step, where

        Y[f1] = e(f1 r / L) * sum over f2 < step of e(f2 r / step) X[f1 + M f2]

    for f1 <= M/2.  Bins past L/2 are the conjugates of the mirrored ones,
    so each row of the sum is a slice of the half spectrum, reversed and
    conjugated where needed; no complex array of length L is built.
    """
    T = (b - a) // step + 1
    L = wrap_length(len(w), s, a, a + step * (T - 1), step)
    require_conv_budget(L)
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


def j_route(ctx: ProblemContext) -> str:
    """"direct" or "fft": the route `j_array` takes for this context."""
    lo, hi = _power_window(ctx)
    return "direct" if hi - lo + 1 <= _DIRECT_CONV_LIMIT else "fft"


# the most recent windows' tables; the oldest is dropped first
_CONV_CACHE_CAP = 4
_conv_cache: dict[tuple[int, int, int, int, int, int, int], np.ndarray] = {}


def _convolution(
    ctx: ProblemContext, ws: WeightSeq, a: int, b: int, step: int
) -> tuple[int, np.ndarray]:
    """(a', entries a', a' + step, ... of the s-fold convolution) covering
    the entries of a..b on the class a (mod step).

    A window of at most 10^4 weights gets the whole direct table on that
    class (a' = a mod step) whatever a..b is asked for; a longer one gets
    exactly a, a + step, ..., up to b.
    """
    R = len(ws)
    S = ctx.s * (R - 1)
    direct = j_route(ctx) == "direct"
    key = (ctx.k, ctx.s, ws.lo, ws.hi) + ((0, S, 1) if direct else (a, b, step))
    acc = _conv_cache.get(key)
    if acc is None:
        if direct:
            # the direct table is as long as the whole-support FFT; same budget
            require_conv_budget(wrap_length(R, ctx.s, 0, S))
            acc = ws.weights
            for _ in range(ctx.s - 1):
                acc = np.convolve(acc, ws.weights)
        else:
            acc = wrapped_convolution(ws.weights, ctx.s, a, b, step)
            np.maximum(acc, 0.0, out=acc)  # clip FFT noise below true zero
        _conv_cache[key] = acc
        while len(_conv_cache) > _CONV_CACHE_CAP:
            del _conv_cache[next(iter(_conv_cache))]
    if not direct:
        return a, acc
    a %= step
    return a, acc if step == 1 else acc[a::step]


def j_array(
    ctx: ProblemContext,
    n_lo: int | None = None,
    n_hi: int | None = None,
    step: int = 1,
) -> tuple[int, np.ndarray]:
    """(offset, table) with j(offset + step i) = table[i].

    Without a window the table is the whole support [s lo, s hi] and
    offset = s lo.  With one, the table covers at least the n = n_lo
    (mod step) of [n_lo, n_hi] inside the support; a window outside the
    support gives an empty table.  A step > 1 inverts only that class
    (`wrapped_convolution`), which is all a scan needs: its targets lie
    in one class mod R(k).
    """
    if step < 1:
        raise ParameterDomain(f"need step >= 1, got {step}")
    ws = WeightSeq.from_context(ctx)
    base = ctx.s * ws.lo
    S = ctx.s * (len(ws) - 1)
    a = 0 if n_lo is None else int(n_lo) - base
    if a < 0:
        a %= step  # the first entry of the class inside the support
    b = S if n_hi is None else min(int(n_hi) - base, S)
    if a > b:
        return base + a, np.zeros(0)
    b -= (b - a) % step
    a, table = _convolution(ctx, ws, a, b, step)
    return base + a, table


def j_integral(n: int, ctx: ProblemContext) -> float:
    """The window convolution j(n); zero outside [s*lo, s*hi]."""
    offset, conv = j_array(ctx)
    i = int(n) - offset
    return float(conv[i]) if 0 <= i < conv.size else 0.0


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
