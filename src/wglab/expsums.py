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
`grid_points` lists the indices j of the grid points j/G in a region, and
`grid_sums` returns f at those points.  At alpha = j/G the phase is exact
in integers: frac(alpha * n^k) = (j * R(n) mod G)/G with R(n) = n^k mod G,
so the phases are gathered from one table E[r] = e(r/G) at
(j * R) mod G, and no limb loop runs.  The table, f, the grid indices
and one block must fit a byte budget (`require_grid_budget`), which
also keeps j * R inside int64.  At a
power-of-two G the limb route gives exactly r/G and E applies the same
expression to it, so the two routes agree bit for bit; elsewhere
`grid_sums` evaluates the exact rational j/G, not its float.
`eval_sums` takes f at arbitrary float alphas (the arc quadrature, the
pointwise reports) through `PhasePowers`.  Both build phases for blocks
of about 2^13 entries, laid out (support, alphas), and reduce each block
with `_reduce`, strictly left to right, so every f is the pointwise
left-to-right sum bit for bit.  In that layout numpy adds a block of two
or more columns one support row at a time, in a fifth of the time of a
running sum along the support; a one-column block, which numpy would sum
pairwise, keeps the running sum.  `sup_scan`, `arc_profile` and
`minor_arc_moment` take the grid indices of their region and |f| there
from `grid_magnitudes`, which keeps its last result, so scans of one
grid take |f| once.  Major/minor labels of the
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

_BLOCK_PHASES = 1 << 13  # phases per block in eval_sums and grid_sums
_GRID_BYTES = 4 * 2 ** 30  # grid scan budget, see require_grid_budget
_DICHOTOMY_BYTES = 4 * 2 ** 30  # dichotomy window budget, see dichotomy_report
_GRID_MEMO: dict = {}  # grid_magnitudes' last result, at most one entry


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


def require_grid_budget(grid_size: int, support_size: int) -> int:
    """Refuse a grid scan before any of it is allocated; returns the
    rows per block of `grid_sums`.

    The charge, against 4 GiB, is 40 bytes per grid point: the phase
    table and f at up to every point (16 bytes each; the 8-byte
    fractions the table is built from are freed before f is allocated)
    and the caller's int64 grid indices.  One block's phases and their
    running sums add 32 bytes per entry (its 8-byte gather indices are
    freed first), and n^k mod G 16 bytes per support point.  The scans'
    other per-point arrays are never live next to the table and fit
    under the same charge: `major_mask` needs at most 17 bytes per
    point, `grid_magnitudes`' |f| 8, and `arc_profile`'s alphas and
    labels 16 more.  After a scan, `grid_magnitudes` keeps its indices
    and |f|, 16 bytes per point (and its key, 16 per support point),
    until the next miss drops them before anything is allocated.
    This admits grid sizes up to 1.07e8: 2^26 fits, 2^27 does not.
    Every index j and residue n^k mod G is then below 2^27, so their
    product stays below 2^54 < 2^63.
    """
    rows = max(1, _BLOCK_PHASES // max(support_size, 1))
    need = 40 * grid_size + 32 * rows * support_size + 16 * support_size
    require_bytes(need, _GRID_BYTES, "grid", f"a grid of {grid_size} points needs")
    return rows


def grid_sums(seq: WeightedSequence, k: int, grid_size: int, idx) -> np.ndarray:
    """f(j / grid_size) for each grid index j in idx, in order, as complex128.

    The phase e(j n^k / G) is E[(j * R) mod G] with R = n^k mod G and
    E[r] = e(r/G), so every point is the exact rational j/G.  Raises
    memory-budget before allocating when the table E and one index
    block exceed the grid budget.
    """
    G = int(grid_size)
    if G < 1:
        raise ParameterDomain(f"need grid_size >= 1, got {grid_size}")
    if k < 1:
        raise ParameterDomain(f"need k >= 1, got {k}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= G):
        raise ParameterDomain(f"grid indices must lie in [0, {G})")
    rows = require_grid_budget(G, len(seq))
    table = (2j * np.pi) * (np.arange(G) / G)
    np.exp(table, out=table)
    base = seq.support % G
    R = base
    for _ in range(k - 1):
        R = (R * base) % G
    out = np.zeros(idx.size, dtype=np.complex128)
    for start in range(0, idx.size, rows):
        j = idx[start : start + rows]
        out[start : start + j.size] = _reduce(seq.weights, table[(R[:, None] * j) % G])
    return out


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
    return np.cumsum(inside[:G]) > 0


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
    `grid_points`, f from `grid_sums`.  Refuses a grid over the budget
    before the indices are listed.

    The last result is kept, read-only, keyed by the sequence's support
    and weights, k, params, region and grid_size, so `sup_scan` and
    `minor_arc_moment` on one grid take |f| once.  A miss drops the kept
    result before it computes, so the grid budget's charge stays the
    whole peak.
    """
    if grid_size < 2:
        raise ParameterDomain(f"need grid_size >= 2, got {grid_size}")
    if not isinstance(region, str):  # the key must hash; grid_points checks the name
        raise ParameterDomain(f"unknown region {region!r}")
    key = (seq.support.tobytes(), seq.weights.tobytes(), k, params, region, grid_size)
    hit = _GRID_MEMO.get(key)
    if hit is not None:
        return hit
    _GRID_MEMO.clear()
    require_grid_budget(grid_size, len(seq))
    idx = grid_points(params, region, grid_size)
    # |f| by hypot, the routine Python's abs(complex) uses: np.abs differs
    # from it in the last bit, and the scan_sup.json golden's tied maxima
    # pick their argmax by those bits
    f = grid_sums(seq, k, grid_size, idx)
    mags = np.hypot(f.real, f.imag)
    for a in (idx, mags):
        a.flags.writeable = False
    _GRID_MEMO[key] = idx, mags
    return idx, mags


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
    Dirichlet witness.  f is taken by `grid_sums` at the same rational;
    the reported argmax is its float j/grid_size, and the witness is the
    rational point attached to it.

    Raises empty-region when no grid point falls in the region.
    """
    idx, mags = grid_magnitudes(seq, k, arcs.params, region, grid_size)
    if not idx.size:
        raise EmptyRegion(f"no grid points in region {region!r}")
    best = int(np.argmax(mags))  # the first maximum
    alpha = int(idx[best]) / grid_size
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
    """|f| sampled on the circle grid, each point labeled major/minor."""

    alphas: np.ndarray
    magnitudes: np.ndarray
    labels: tuple[str, ...]


def arc_profile(ctx: ProblemContext, params: ArcParams, grid_size: int) -> ArcProfile:
    """|f| at every grid point j/grid_size, taken by `grid_sums` at the
    exact rational j/grid_size, with that rational's arc label from
    `major_mask`; `alphas` holds the floats j/grid_size."""
    seq = build_sequence(ctx, "prime_log")
    idx, mags = grid_magnitudes(seq, ctx.k, params, "full", grid_size)
    labels = tuple("major" if m else "minor" for m in major_mask(params, grid_size).tolist())
    return ArcProfile(alphas=idx / grid_size, magnitudes=mags, labels=labels)


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
