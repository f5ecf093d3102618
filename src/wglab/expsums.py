"""Weighted exponential sums over short intervals.

The central object is f(alpha) = sum of w(n) * e(alpha * n^k) over a
weighted support sequence, where e(t) = exp(2*pi*i*t).  Supports are short
windows (x - y, x + y]; `build_sequence` gives the primes there, each
with weight log p.

Phase accuracy
--------------
Evaluating e(alpha * n^k) naively in doubles loses all phase information
once alpha * n^k reaches 2^52, which happens immediately at the scales of
interest (n^k ~ 10^12 and beyond).  Off the circle grid (see below),
phases are therefore reduced exactly: n^k, an exact Python integer, is
cut into base-2^26 limbs L_j, and frac(alpha * n^k) is assembled limb by
limb with integer arithmetic modulo 2^53 plus a float tail.  The result
is the true fractional part up to ~2^-53 regardless of the size of
alpha * n^k, and every evaluation is bit-reproducible.  `exact_phase`
gives the scalar e(alpha * m) from the big-integer oracle
`phase_fraction_exact`.

The per-limb step: write frac(alpha * 2^(26 j)) = (a_j + tail_j)/2^53
with a_j integer.  Both come from exact float operations: the fraction
part f of alpha * 2^(26 j) is a float (f_0 = alpha - trunc(alpha), then
f_j = the fraction part of f_(j-1) * 2^26), g = f * 2^53,
a_j = floor(g) mod 2^53 and tail_j = g - floor(g).  Multiplying by
L_j < 2^26 and summing modulo 2^53 needs only int64 operations once a_j
is split into high and low halves.  `PhasePowers.fractions` runs this
loop over a whole (alphas x support) block at once; one alpha is the
one-row case.

Circle points
-------------
`grid_points` lists the indices j of the grid points j/G in a region.
At alpha = j/G the phase is exact in integers: frac(alpha * n^k) =
(j * R(n) mod G)/G with R(n) = n^k mod G, and no limb loop runs.
`grid_magnitudes` bins the weights by R (one `np.bincount`), so f(j/G)
is the conjugate of the j-th entry of their FFT, at every j at once in
O(len(support) + G log G); the weights are real, so |f| at j and G - j
agree and one `np.fft.rfft` covers the grid, to a few 1e-16 of
W = sum w(n) >= |f|.  `grid_sums`, the oracle, takes f at chosen j as
the left-to-right sum of the phases e(r/G), r = j * R mod G; at a
power-of-two G the limb route gives exactly r/G, so the two agree bit
for bit.  |f| ties exactly (at every j/8 when k = 2 and the support is
odd), so `sup_scan` re-evaluates by `grid_sums` the points within
1e-12 W of the transform's maximum.  A byte budget
(`require_grid_budget`) refuses both grid routes before allocating and
keeps j * R inside int64.
`eval_sums` takes f at arbitrary float alphas (the arc quadrature, the
pointwise reports) through `PhasePowers`, for blocks of about 2^13
phases.  Both it and `grid_sums` lay phases out (support, alphas) and
reduce them with `_reduce`, strictly left to right, so every f is the
pointwise left-to-right sum bit for bit.  In that layout numpy adds a
block of two or more columns one support row at a time, in a fifth of
the time of a running sum along the support; a one-column block, which
numpy would sum pairwise, keeps the running sum.  Major/minor labels of the
grid come from `major_mask`, also on the exact rational j/G: the point is
on the arc |alpha - a/q| <= 1/(qQ), q <= floor(P), exactly when the
integer |qj - aG| is at most G/Q, so every arc is an integer index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import arith
from .arcs import (ArcDecomposition, ArcParams, RationalPoint, dirichlet_approx,
                   require_arc_budget, w_k)
from .arith import ProblemContext
from .errors import EmptyRegion, EmptyWindow, ParameterDomain, RangeTooLarge, require_bytes

_M26 = (1 << 26) - 1
_M53 = (1 << 53) - 1

_BLOCK_PHASES = 1 << 13  # phases per block in eval_sums
_GRID_BYTES = 4 * 2 ** 30  # grid scan budget, see require_grid_budget
_DICHOTOMY_BYTES = 4 * 2 ** 30  # dichotomy window budget, see dichotomy_report


class PhasePowers:
    """Base-2^26 limb decomposition of n^k over a support array.

    n^k is computed exactly as a Python integer and cut into limbs, up
    to the highest limb that is nonzero anywhere in the support.  Built
    once per (support, k); the phases of a block of B alphas cost
    O(limbs * B * len(support)) int64 operations and O(limbs) numpy calls.
    """

    def __init__(self, support: np.ndarray, k: int):
        support = np.asarray(support, dtype=np.int64)
        if support.size and int(support.max()) > arith.SIEVE_CEILING:
            raise RangeTooLarge("support entries exceed 2**48")
        if support.size and int(support.min()) < 0:
            raise ParameterDomain("support entries must be nonnegative")
        if k < 1:
            raise ParameterDomain(f"need k >= 1, got {k}")
        self.k = int(k)
        self.size = support.size
        powers = support.astype(object) ** self.k  # exact Python integers
        count = max(1, -(-int(powers.max(initial=0)).bit_length() // 26))
        limbs = [(powers >> (26 * j)) & _M26 for j in range(count)]
        self._limbs = np.stack(limbs, axis=1).astype(np.int64)
        self._limbs_f = self._limbs.astype(np.float64)

    def fractions(self, alpha) -> np.ndarray:
        """frac(alpha * n^k) for every n in the support, to ~2^-53.

        alpha is a float or an array of floats; the result has shape
        alpha.shape + (len(support),), so a scalar alpha gives one row.
        """
        alpha = np.asarray(alpha, dtype=np.float64)
        if not np.all(np.isfinite(alpha)):
            raise ParameterDomain("alpha must be finite")
        rows = alpha.reshape(-1, 1)
        acc = np.zeros((rows.shape[0], self.size), dtype=np.int64)
        tail = np.zeros(acc.shape, dtype=np.float64)
        # f is the signed fractional part of alpha * 2^(26 j), exact in
        # doubles: the fraction part of a float is a float, and scaling by
        # a power of two is exact below overflow, which |f| < 1 rules out
        f = rows - np.trunc(rows)
        for j in range(self._limbs.shape[1]):
            if j:
                f = np.ldexp(f, 26)
                f -= np.trunc(f)
            g = np.ldexp(f, 53)
            a = np.floor(g)
            tail_j = g - a
            # a in (-2^53, 2^53); & keeps it modulo 2^53 in two's complement
            a_j = a.astype(np.int64) & _M53
            a_hi, a_lo = a_j >> 27, a_j & ((1 << 27) - 1)
            L = self._limbs[:, j]
            acc = (acc + (((a_hi * L) & _M26) << 27) + a_lo * L) & _M53
            tail += self._limbs_f[:, j] * (tail_j * 2.0 ** -53)
        frac = acc.astype(np.float64) * 2.0 ** -53 + tail
        frac -= np.floor(frac)
        return frac.reshape(alpha.shape + (self.size,))

    def phases(self, alpha) -> np.ndarray:
        """e(alpha * n^k) as complex128, shaped like `fractions`."""
        return np.exp((2j * np.pi) * self.fractions(alpha))


def phase_fraction_exact(alpha: float, n: int, k: int) -> float:
    """Scalar reference route: frac(alpha * n^k) via big-integer arithmetic.

    Kept deliberately independent of PhasePowers so the two can be checked
    against each other.
    """
    num, den = float(alpha).as_integer_ratio()
    r = (num * int(n) ** k) % den
    return r / den


def exact_phase(alpha: float, m: int) -> complex:
    """e(alpha * m) for one integer m; alpha * m may exceed 2^52."""
    frac = phase_fraction_exact(alpha, m, 1)
    return complex(math.cos(2 * math.pi * frac), math.sin(2 * math.pi * frac))


@dataclass(eq=False)
class WeightedSequence:
    """Support points, strictly ascending, with positive weights."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.support.shape != self.weights.shape or self.support.ndim != 1:
            raise ParameterDomain("support and weights must be equal-length vectors")
        if self.support.size:
            if np.any(np.diff(self.support) <= 0):
                raise ParameterDomain("support must be strictly ascending")
            if np.any(self.weights <= 0):
                raise ParameterDomain("weights must be strictly positive")

    def __len__(self) -> int:
        return int(self.support.size)


def build_sequence(ctx: ProblemContext, kind: str) -> WeightedSequence:
    """The primes p with x - y < p <= x + y, each weighted log p; kind
    must be ``prime_log``, the one weighting.

    Raises empty-window when the window holds no prime.
    """
    if kind != "prime_log":
        raise ParameterDomain(f"unknown sequence kind {kind!r}")
    win = arith.prime_window(ctx.x, ctx.y)
    if not win.primes:
        raise EmptyWindow(f"no {kind} support in ({ctx.x - ctx.y}, {ctx.x + ctx.y}]")
    return WeightedSequence(support=win.primes, weights=win.weights)


def _reduce(w: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum over i of w[i] * B[i, j], left to right, for every column j of B.

    B holds one row of phases per support point and one column per
    alpha, C-contiguous, and is scaled in place.  With two or more
    columns, `np.add.reduce` over the rows adds row after row into the
    column sums, so each column is the pointwise left-to-right sum bit
    for bit.  A one-column block is contiguous along the support, which
    `np.add.reduce` sums pairwise from 8 terms up, so it takes the last
    running sum of `np.add.accumulate`, strictly left to right at any
    shape.  A block that is not C-contiguous, such as a `.T` view, is
    refused: numpy would sum it pairwise too.
    """
    if not B.flags.c_contiguous:
        raise ValueError("_reduce needs a C-contiguous (support, alphas) block")
    if not w.size:
        return np.zeros(B.shape[1], dtype=np.complex128)
    B *= w[:, None]
    if B.shape[1] == 1:
        return np.add.accumulate(B, axis=0)[-1]
    return np.add.reduce(B, axis=0)


def eval_sums(seq: WeightedSequence, k: int, alphas) -> np.ndarray:
    """f(alpha) for each alpha in order, as complex128.

    Phases come from one `PhasePowers(seq.support, k)`, built per call,
    for blocks of about _BLOCK_PHASES entries at a time, each block
    transposed to (support, alphas) and reduced by `_reduce`.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    out = np.zeros(alphas.size, dtype=np.complex128)
    pw = PhasePowers(seq.support, k)
    rows = max(1, _BLOCK_PHASES // max(pw.size, 1))
    for start in range(0, alphas.size, rows):
        block = np.ascontiguousarray(pw.phases(alphas[start : start + rows]).T)
        out[start : start + block.shape[1]] = _reduce(seq.weights, block)
    return out


def require_grid_budget(grid_size: int, support_size: int, points: int = 0) -> None:
    """Refuse a grid scan before any of it is allocated.

    The charge, against 4 GiB, is 36 bytes per grid point: a scan's int64
    grid indices and |f| (16), and at any one time at most 20 more: the
    bins and the transform's half spectrum (16), or |f| on half the grid
    and the mirror indices (12), or `major_mask`'s running sum and mask
    (9), or `arc_profile`'s alphas and mask (9).
    n^k mod G adds 24 bytes per support point.  `grid_sums` at `points`
    grid points adds 32 bytes per support point and point for its one
    block (the residues, their fractions and the phases).  This admits
    grid sizes up to 1.19e8: 2^26 fits, 2^27 does not.
    """
    need = 36 * grid_size + 24 * support_size + 32 * support_size * points
    require_bytes(need, _GRID_BYTES, "grid", f"a grid of {grid_size} points needs")


def _residues(support: np.ndarray, k: int, G: int) -> np.ndarray:
    """n^k mod G for every n in the support, as int64."""
    if k < 1:
        raise ParameterDomain(f"need k >= 1, got {k}")
    base = support % G
    R = base
    for _ in range(k - 1):
        R = (R * base) % G
    return R


def grid_sums(seq: WeightedSequence, k: int, grid_size: int, idx) -> np.ndarray:
    """f(j / grid_size) for each grid index j in idx, in order, as complex128.

    The oracle of `grid_magnitudes`, and `sup_scan`'s evaluator of its
    argmax candidates.  The phase e(j n^k / G) is e(r/G) at r = j * R mod G,
    R = n^k mod G, so every point is the exact rational j/G, and f is
    summed left to right by `_reduce`.  Raises memory-budget before
    allocating when the grid and the one (support, idx) block exceed the
    grid budget.
    """
    G = int(grid_size)
    if G < 1:
        raise ParameterDomain(f"need grid_size >= 1, got {grid_size}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= G):
        raise ParameterDomain(f"grid indices must lie in [0, {G})")
    require_grid_budget(G, len(seq), idx.size)
    R = _residues(seq.support, k, G)
    # j and R lie below G < 2^27 on an admitted grid, so j * R < 2^54
    z = (2j * np.pi) * ((R[:, None] * idx % G) / G)
    return _reduce(seq.weights, np.exp(z, out=z))


def eval_sum(seq: WeightedSequence, k: int, alpha: float) -> complex:
    """f(alpha) = sum w(n) e(alpha n^k) with exactly reduced phases."""
    return complex(eval_sums(seq, k, [alpha])[0])


def major_mask(params: ArcParams, grid_size: int) -> np.ndarray:
    """For each grid point j/grid_size, True when the exact rational
    j/grid_size lies on an arc |alpha - a/q| <= 1/(qQ) with q <= floor(P).

    That is the label `classify` gives the float j/grid_size wherever the
    float is exact, as at a power-of-two grid_size (its minimal Dirichlet
    witness is then at most that q).  The arcs are listed here, not taken
    from `ArcDecomposition.build`, so overlapping parameters work too.
    With Q = num/den, j/G is on the arc at a/q exactly when the integer
    |qj - aG| is at most G/Q, i.e. at most T = (G * den) // num, so each
    arc is the index range ceil((aG - T)/q) .. floor((aG + T)/q).
    """
    G = grid_size
    num, den = float(params.Q).as_integer_ratio()
    T = (G * den) // num
    inside = np.zeros(G + 1, dtype=np.int64)  # +1/-1 at starts/ends of arc ranges
    for q in range(1, require_arc_budget(math.floor(params.P)) + 1):
        a = np.arange(q + 1, dtype=np.int64)
        aG = a[np.gcd(a, q) == 1] * G
        start = np.clip(-((T - aG) // q), 0, G)
        stop = np.clip((aG + T) // q + 1, 0, G)
        keep = start < stop
        np.add.at(inside, start[keep], 1)
        np.add.at(inside, stop[keep], -1)
    return np.cumsum(inside, out=inside)[:G] > 0


def grid_points(params: ArcParams, region: str, grid_size: int) -> np.ndarray:
    """The indices j of the grid points j/grid_size in a region, ascending,
    as int64; membership is the arc label of the exact rational
    j/grid_size (see `major_mask`), except that "full" keeps every point."""
    if region not in ("major", "minor", "full"):
        raise ParameterDomain(f"unknown region {region!r}")
    if region == "full":
        return np.arange(grid_size, dtype=np.int64)
    return np.flatnonzero(major_mask(params, grid_size) == (region == "major"))


def grid_magnitudes(
    seq: WeightedSequence, k: int, params: ArcParams, region: str, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(idx, |f|) at the grid points j/grid_size of a region: idx from
    `grid_points`, |f| from one real FFT of the weights binned by
    n^k mod grid_size, taken by `np.hypot`.  Refuses a grid over the
    budget before the indices are listed.
    """
    if grid_size < 2:
        raise ParameterDomain(f"need grid_size >= 2, got {grid_size}")
    require_grid_budget(grid_size, len(seq))
    idx = grid_points(params, region, grid_size)
    f = np.fft.rfft(np.bincount(_residues(seq.support, k, grid_size), seq.weights, grid_size))
    f = np.hypot(f.real, f.imag)  # |f(j/G)| for j <= G/2; frees the spectrum
    half = grid_size - idx  # |f| at j is |f| at G - j
    np.minimum(idx, half, out=half)
    return idx, f[half]


@dataclass(frozen=True)
class SupScanReport:
    """Grid supremum of |f| over one region of the circle."""

    region: str
    grid_size: int
    points_in_region: int
    sup_abs: float
    argmax_alpha: float
    nearest_rational: RationalPoint


def sup_scan(
    seq: WeightedSequence,
    k: int,
    arcs: "ArcDecomposition",
    region: str,
    grid_size: int,
) -> SupScanReport:
    """Scan |f| over the grid points j/grid_size lying in a region.

    Region membership is the arc label of the exact rational j/grid_size
    on the decomposition's parameters, read by `major_mask` off the arcs'
    integer index ranges; it is the label of `arcs.classify`, the minimal
    Dirichlet witness.  |f| comes from `grid_magnitudes` at the same
    rationals; the points within 1e-12 W (W = the sum of the weights,
    which bounds |f|) of its maximum are re-evaluated by `grid_sums`, and
    the first maximum among them is reported, with its |f| by `hypot`.
    The reported argmax is its float j/grid_size, and the witness is the
    rational point attached to it.

    Raises empty-region when no grid point falls in the region.
    """
    idx, mags = grid_magnitudes(seq, k, arcs.params, region, grid_size)
    if not idx.size:
        raise EmptyRegion(f"no grid points in region {region!r}")
    near = idx[mags >= mags.max() - 1e-12 * float(np.sum(seq.weights))]
    f = grid_sums(seq, k, grid_size, near)
    mags = np.hypot(f.real, f.imag)  # Python's abs(complex), bit for bit
    best = int(np.argmax(mags))  # the first maximum
    alpha = int(near[best]) / grid_size
    return SupScanReport(
        region=region,
        grid_size=grid_size,
        points_in_region=int(idx.size),
        sup_abs=float(mags[best]),
        argmax_alpha=alpha,
        nearest_rational=dirichlet_approx(alpha, arcs.params.Q),
    )


@dataclass(eq=False)
class ArcProfile:
    """|f| sampled on the circle grid, True in `major` at a major point."""

    alphas: np.ndarray
    magnitudes: np.ndarray
    major: np.ndarray


def arc_profile(ctx: ProblemContext, params: ArcParams, grid_size: int) -> ArcProfile:
    """|f| at every grid point j/grid_size, taken by `grid_magnitudes` at
    the exact rational j/grid_size, with that rational's arc label from
    `major_mask`; `alphas` holds the floats j/grid_size."""
    seq = build_sequence(ctx, "prime_log")
    idx, mags = grid_magnitudes(seq, ctx.k, params, "full", grid_size)
    major = major_mask(params, grid_size)  # before alphas: its running sum is transient
    return ArcProfile(alphas=idx / grid_size, magnitudes=mags, major=major)


def _t_exponent(k: int) -> int:
    return 2 if k == 2 else k * k - k + 1


@dataclass(frozen=True)
class DichotomyReport:
    """Observed short unit-weight sum against the two regime bounds.

    ``approx`` is the rational witness at level x^(k-1) * y^(1 - k*rho)
    when its denominator stays below y^(k*rho), else None; ``bound_k3``
    applies in that approximable regime and ``bound_k1`` always.  Both are
    diagnostics: the regime inequalities carry unspecified constants, so
    nothing here passes or fails.
    """

    alpha: float
    rho: float
    observed: float
    bound_k1: float
    bound_k3: float
    approx: Optional[RationalPoint]
    q_bound: float


def dichotomy_report(ctx: ProblemContext, rho: float, alpha: float) -> DichotomyReport:
    """Compare |sum over x < n <= x + y of e(alpha n^k)| with regime bounds.

    Preconditions: 0 < rho <= 1/t(k) with t(2) = 2, t(k) = k^2 - k + 1
    otherwise, and the context exponent theta must satisfy
    1/(2 - t(k) * rho) <= theta <= 1.  The window is refused before
    allocation past 4 GiB at 188 bytes per integer, the tracemalloc peak
    at k = 2, x = 10^8 (the support, its weights and `PhasePowers`' exact
    powers and limbs): windows over 2.3e7 integers.
    """
    k = ctx.k
    t_k = _t_exponent(k)
    if not (0 < rho <= 1.0 / t_k):
        raise ParameterDomain(f"need 0 < rho <= 1/{t_k}, got {rho}")
    lo_theta = 1.0 / (2.0 - t_k * rho)
    if not (lo_theta <= ctx.theta <= 1.0):
        raise ParameterDomain(
            f"need theta in [{lo_theta}, 1], got theta={ctx.theta}"
        )
    if not (0 <= alpha < 1):
        raise ParameterDomain(f"need alpha in [0, 1), got {alpha}")
    x, y = ctx.x, ctx.y
    lo = math.floor(x) + 1
    hi = math.floor(x + y)
    if hi < lo:
        raise EmptyWindow(f"no integers in ({x}, {x + y}]")
    require_bytes(188 * (hi - lo + 1), _DICHOTOMY_BYTES, "dichotomy",
                  f"a window of {hi - lo + 1} integers needs")
    support = np.arange(lo, hi + 1, dtype=np.int64)
    seq = WeightedSequence(support=support, weights=np.ones(support.size))
    observed = abs(eval_sum(seq, k, alpha))
    q_bound = x ** (k - 1) * y ** (1.0 - k * rho)
    pt = dirichlet_approx(alpha, q_bound)
    q_ceiling = y ** (k * rho)
    approx = pt if pt.q <= q_ceiling else None
    bound_k1 = y ** (1.0 - rho)
    if approx is not None:
        bound_k3 = w_k(k, pt.q) * y / (1.0 + y * x ** (k - 1) * abs(pt.beta))
    else:
        bound_k3 = float("inf")
    return DichotomyReport(
        alpha=alpha,
        rho=rho,
        observed=float(observed),
        bound_k1=float(bound_k1),
        bound_k3=float(bound_k3),
        approx=approx,
        q_bound=float(q_bound),
    )
