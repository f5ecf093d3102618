"""The archimedean factor: density weights, their s-fold convolution, and
the oscillatory window integral.

The window (x - y, x + y] transported through the k-th power map covers
the integers m in [ceil((x-y)^k), floor((x+y)^k)], each carrying the
density weight c_m = (1/k) m^(1/k - 1).  Two derived quantities matter:

* v(beta) = sum c_m e(beta m), the weighted linear exponential sum, and
* j(n)    = the s-fold convolution of the weights evaluated at n, which
  is the discrete stand-in for the continuous window integral and the
  archimedean factor in the main-term prediction.

j is computed exactly as a convolution (direct for small windows, real
FFT power for large ones; the crossover is regression-tested), cached per
(k, s, window) for the few most recent windows.  The oscillatory
integral I(beta) over the original window uses composite Gauss-Legendre
panels with doubling until the change falls below 1e-8 * y, with the
panel count seeded above the oscillation count so every period sees at
least 16 nodes.
"""

from __future__ import annotations

import math
import threading
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

_CONV_CEILING = 10 ** 8
_DIRECT_CONV_LIMIT = 10 ** 4
_OSC_TOL_FACTOR = 1e-8
_MAX_DOUBLINGS = 18


_REFRESH = 1 << 10  # recurrence length before an exact phase re-anchor


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
        lo = math.ceil((ctx.x - ctx.y) ** ctx.k)
        hi = math.floor((ctx.x + ctx.y) ** ctx.k)
        lo = max(lo, 1)
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


# the most recent windows' tables; the oldest is dropped first
_CONV_CACHE_CAP = 4
_conv_cache: dict[tuple[int, int, int, int], np.ndarray] = {}
_conv_lock = threading.Lock()


def _convolution(ctx: ProblemContext, ws: WeightSeq) -> np.ndarray:
    """s-fold self-convolution of the weight vector, cached per window."""
    key = (ctx.k, ctx.s, ws.lo, ws.hi)
    with _conv_lock:
        hit = _conv_cache.get(key)
    if hit is not None:
        return hit
    R = len(ws)
    out_len = ctx.s * (R - 1) + 1
    if R * ctx.s > _CONV_CEILING:
        raise ConvolutionTooLarge(
            f"window length {R} times s={ctx.s} exceeds {_CONV_CEILING}"
        )
    if R <= _DIRECT_CONV_LIMIT:
        acc = ws.weights
        for _ in range(ctx.s - 1):
            acc = np.convolve(acc, ws.weights)
    else:
        nfft = 1
        while nfft < out_len:
            nfft *= 2
        spec = np.fft.rfft(ws.weights, nfft)
        acc = np.fft.irfft(spec ** ctx.s, nfft)[:out_len]
        np.maximum(acc, 0.0, out=acc)  # clip FFT noise below true zero
    with _conv_lock:
        acc = _conv_cache.setdefault(key, acc)
        while len(_conv_cache) > _CONV_CACHE_CAP:
            del _conv_cache[next(iter(_conv_cache))]
        return acc


def j_array(ctx: ProblemContext) -> tuple[int, np.ndarray]:
    """(offset, table) with j(n) = table[n - offset]; offset = s * lo."""
    ws = WeightSeq.from_context(ctx)
    return ctx.s * ws.lo, _convolution(ctx, ws)


def j_integral(n: int, ctx: ProblemContext) -> float:
    """The window convolution j(n); zero outside [s*lo, s*hi]."""
    n = int(n)
    ws = WeightSeq.from_context(ctx)
    if n < ctx.s * ws.lo or n > ctx.s * ws.hi:
        return 0.0
    conv = _convolution(ctx, ws)
    return float(conv[n - ctx.s * ws.lo])


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
