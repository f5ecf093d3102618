"""Desk-scale experiment pipeline: main-term prediction, arc quadrature,
the exceptional-set scan, and minor-arc moment diagnostics.

The headline object is the exceptional-set report for a window
(N, N + x^(k-1) y]: every admissible n in the window gets its exact
weighted representation count rho(n) (one meet-in-the-middle join or two
wrapped FFTs on the lattice of the prime powers, whichever the cost rule
in `representations` finds cheaper), its main-term prediction
sigma(n, Q0) * j(n), and a two-sided deviation flag at threshold
y^(s-1) x^(1-k) / log x.  j is read from one table over the targets'
span on their residue class, whose step is the gcd g of the target
differences (24 at k = 2, 2 at k = 3).  The table also holds entries of
that class that are no target (k = 3 skips n = 0 mod 9), so each target
is looked up at (n - offset) / g.

With a cache directory the scan keeps its computed columns (n, rho,
tuple_count, sigma, jay) as one `scan` entry of `wglab.cache`, keyed by
everything that picks their bits (`_scan_key`: the window and targets,
q0, the partial floor, the rho route, numpy's version).  A rerun
whose key and stored targets match reads the columns and computes no
rho, sigma or j; the ratios, flags and summary are derived afresh.

The deviation test here is |rho - prediction| >= threshold.  A one-sided
reading (only an excess counts) is also tallied and reported alongside,
since the two counts differ materially at desk scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cache, singular_series
from .arcs import ArcDecomposition, ArcParams, major_measure
from .arith import ProblemContext, admissible, admissible_rule, modulus_R
from .errors import (EmptyRegion, EmptyWindow, MemoryBudgetExceeded, OverlapDetected,
                     ParameterDomain, RangeTooLarge)
from .expsums import PhasePowers, build_sequence, eval_sums, grid_magnitudes
from .representations import rho_route, rho_scan
from .singular_integral import gauss_legendre_panels, j_array, j_integral
from .singular_series import sigma_batch, truncated_sigma

_SCAN_BYTES = 4 * 2 ** 30  # exceptional-scan budget, see _admissible_targets


@dataclass(frozen=True)
class MajorArcPrediction:
    """Main-term factors for one target n."""

    n: int
    sigma: float
    jay: float
    main_term: float
    admissible: bool


def predict(n: int, ctx: ProblemContext, q0: int) -> MajorArcPrediction:
    """sigma(n, q0) * j(n); computed whether or not n is admissible."""
    sigma = truncated_sigma(n, ctx, q0).value
    jay = j_integral(n, ctx)
    return MajorArcPrediction(
        n=int(n),
        sigma=sigma,
        jay=jay,
        main_term=sigma * jay,
        admissible=admissible(int(n), ctx.k, ctx.s),
    )


def major_arc_rho_numeric(
    n: int,
    ctx: ProblemContext,
    params: ArcParams,
    nodes_per_arc: int = 32,
    region: str = "major",
) -> float:
    """Quadrature of the integral of f^s e(-n alpha) over a region.

    region selects the domain: "major" integrates over the enumerated
    major intervals, "full" over the whole circle [0, 1), "zero_arc" over
    the single glued arc at the origin.  Composite 16-point Gauss-Legendre
    per interval; the nodes of every interval go through one `eval_sums`
    call, e(-n alpha) comes from one `PhasePowers` block, and f^s e(-n
    alpha) is one array power and one array product.  Emits a
    warning when the phase of f^s jumps by more than pi/4 between
    adjacent nodes (under-resolution).

    Returns the real part; the integrand's imaginary parts cancel over
    any region symmetric under alpha -> 1 - alpha.
    """
    if nodes_per_arc < 8:
        raise ParameterDomain(f"need nodes_per_arc >= 8, got {nodes_per_arc}")
    n = int(n)
    seq = build_sequence(ctx, "prime_log")

    if region == "major":
        decomp = ArcDecomposition.build(params)
        intervals = [
            (m.center - m.half_width, m.center + m.half_width) for m in decomp.intervals
        ]
    elif region == "full":
        intervals = [(0.0, 1.0)]
    elif region == "zero_arc":
        hw = 1.0 / params.Q
        intervals = [(-hw, hw)]
    else:
        raise ParameterDomain(f"unknown region {region!r}")

    panels = max(1, math.ceil(nodes_per_arc / 16))
    quads = [gauss_legendre_panels(lo, hi, panels) for lo, hi in intervals]
    alphas = np.concatenate([pts for _, pts, _ in quads])
    fs = eval_sums(seq, ctx.k, alphas) ** ctx.s
    # e(-n alpha) is the conjugate of the exactly reduced e(n alpha)
    c = PhasePowers(np.array([n], dtype=np.int64), 1).phases(alphas)[:, 0].conj()
    vals = fs * c
    total = 0.0 + 0.0j
    worst_jump = 0.0
    start = 0
    for half, pts, weights in quads:
        stop = start + pts.size
        f_arc = fs[start:stop]
        jumps = np.abs(np.angle(f_arc[1:] * np.conj(f_arc[:-1])))
        worst_jump = max(worst_jump, float(np.max(jumps)))
        total += half * np.dot(vals[start:stop], weights)
        start = stop
    if worst_jump > math.pi / 4:
        warnings.warn(
            f"arc quadrature under-resolved: adjacent-node phase jump "
            f"{worst_jump:.3f} rad exceeds pi/4; increase nodes_per_arc",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(total.real)


@dataclass(frozen=True)
class RatioSummary:
    min: float
    median: float
    max: float


@dataclass(eq=False)
class PerNDetail:
    """Column arrays for the per-n detail stream of a scan."""

    n: np.ndarray
    rho: np.ndarray
    tuple_count: np.ndarray
    sigma: np.ndarray
    jay: np.ndarray
    ratio: np.ndarray
    flagged: np.ndarray


@dataclass(eq=False)
class ExceptionalReport:
    """Outcome of one exceptional-set scan."""

    ctx: ProblemContext
    q0: int
    window: tuple[int, int]  # integer targets searched, both ends inclusive
    scanned: int
    exceptional: int
    exceptional_one_sided: int
    threshold: float
    ratios: Optional[RatioSummary]
    per_n: Optional[PerNDetail]

    def exceptional_fraction(self) -> float:
        return self.exceptional / self.scanned if self.scanned else 0.0


def _admissible_targets(ctx: ProblemContext, n_lo: int, n_hi: int) -> np.ndarray:
    """The admissible n in [n_lo, n_hi]: the class s (mod R(k)), less
    what the rest of `admissible_rule` drops (9 | n at (k, s) = (3, 7)).

    Refused before allocation: range-too-large past int64, memory-budget
    over 4 GiB at 96 bytes per member of the class.  At once
    `exceptional_scan` holds n, rho, tuple_count, sigma, jay, the main
    term, deviation and ratio, two flag masks and a sorted masked copy of
    the finite ratios: 83 bytes counted, 90 by tracemalloc (k = 2, 3).
    rho and j charge their half-sum and FFT tables to their own budgets.
    """
    if n_hi >= 2 ** 63:
        raise RangeTooLarge(f"targets up to {n_hi} are past the int64 range")
    R = modulus_R(ctx.k)
    first = n_lo + (ctx.s - n_lo) % R
    need = 96 * ((n_hi - first) // R + 1)
    if need > _SCAN_BYTES:
        raise MemoryBudgetExceeded(
            f"{need // 96} targets need {need / 2 ** 30:.1f} GiB, "
            f"over the {_SCAN_BYTES / 2 ** 30:.0f} GiB scan budget"
        )
    ns = np.arange(first, n_hi + 1, R, dtype=np.int64)
    return ns[admissible_rule(ns, ctx.k, ctx.s)]


def _sorted_median(v: np.ndarray) -> float:
    """The median of the sorted, non-empty v, bit for bit as `np.median`
    gives it, without the `numpy.ma` import that `np.median` pulls in."""
    h = v.size // 2
    return float(v[h] if v.size % 2 else (v[h - 1] + v[h]) / 2)


def exceptional_scan(
    ctx: ProblemContext,
    q0: int,
    cache_dir: Optional[str] = None,
) -> ExceptionalReport:
    """Scan every admissible n in (N, N + x^(k-1) y] for main-term failure.

    rho comes from `rho_scan` over the whole window (one join or two
    lattice FFTs), sigma from the vectorized singular-series batch, jay
    from the convolution table on the targets' class; with cache_dir all four
    columns are read from, or written to, one `scan` cache entry.  Flags
    use the two-sided threshold; the one-sided count (excess only) is
    recorded alongside.

    Raises parameter-domain when x <= 1, where the threshold's log x is
    not positive, and empty-window when the window contains no integers
    at all; a window with integers but no admissible ones yields
    scanned=0.
    """
    if not ctx.x > 1:
        raise ParameterDomain(f"need x > 1 for the threshold's log x, got x={ctx.x}")
    N = ctx.N
    n_lo = math.floor(N) + 1
    n_hi = math.floor(N + ctx.window_width)
    if n_hi < n_lo:
        raise EmptyWindow(f"no integers in ({N}, {N + ctx.window_width}]")
    threshold = ctx.y ** (ctx.s - 1) * ctx.x ** (1 - ctx.k) / math.log(ctx.x)
    ns = _admissible_targets(ctx, n_lo, n_hi)
    if ns.size == 0:
        return ExceptionalReport(
            ctx=ctx, q0=q0, window=(n_lo, n_hi), scanned=0, exceptional=0,
            exceptional_one_sided=0, threshold=threshold, ratios=None, per_n=None,
        )

    cols = _scan_columns(ns, ctx, q0, n_lo, n_hi, cache_dir)
    rho, sigma, jay = cols["rho"], cols["sigma"], cols["jay"]

    main = sigma * jay
    dev = rho - main
    flagged = np.abs(dev) >= threshold
    one_sided = dev >= threshold

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(main > 0, rho / main, np.nan)
    finite = np.sort(ratio[np.isfinite(ratio)])
    ratios = (
        RatioSummary(
            min=float(finite[0]), median=_sorted_median(finite), max=float(finite[-1])
        )
        if finite.size
        else None
    )
    return ExceptionalReport(
        ctx=ctx,
        q0=q0,
        window=(n_lo, n_hi),
        scanned=int(ns.size),
        exceptional=int(np.count_nonzero(flagged)),
        exceptional_one_sided=int(np.count_nonzero(one_sided)),
        threshold=threshold,
        ratios=ratios,
        per_n=PerNDetail(
            n=ns, rho=rho, tuple_count=cols["tuple_count"], sigma=sigma,
            jay=jay, ratio=ratio, flagged=flagged,
        ),
    )


_SCAN_COLUMNS = ("rho", "tuple_count", "sigma", "jay")


def _compute_columns(ns: np.ndarray, ctx: ProblemContext, q0: int) -> dict[str, np.ndarray]:
    rho, tuples = rho_scan(ns, ctx)
    sigma = sigma_batch(ns, ctx, q0)
    # the targets lie on one class mod g; j is computed on that class only
    g = int(np.gcd.reduce(np.diff(ns))) if ns.size > 1 else 1
    offset, table = j_array(ctx, int(ns[0]), int(ns[-1]), g)
    jay = np.zeros(ns.size)
    idx = (ns - offset) // g
    inside = (idx >= 0) & (idx < table.size)
    jay[inside] = table[idx[inside]]
    return {"rho": rho, "tuple_count": tuples, "sigma": sigma, "jay": jay}


def _scan_key(ns: np.ndarray, ctx: ProblemContext, q0: int, n_lo: int, n_hi: int) -> dict:
    """Everything that picks the bits of the scan's columns: [n_lo, n_hi]
    is the integer window the targets are drawn from; j is computed on
    the targets' class over their span."""
    first, last = int(ns[0]), int(ns[-1])
    return {
        "k": ctx.k,
        "s": ctx.s,
        "x": ctx.x,
        "y": ctx.y,
        "q0": int(q0),
        "window": [int(n_lo), int(n_hi)],
        "n_lo": first,
        "n_hi": last,
        "count": int(ns.size),
        "floor": singular_series._PARTIAL_FLOOR,
        "rho_route": rho_route(ctx, first, last),
        "numpy": np.__version__,
    }


def _scan_columns(
    ns: np.ndarray,
    ctx: ProblemContext,
    q0: int,
    n_lo: int,
    n_hi: int,
    cache_dir: Optional[str],
) -> dict[str, np.ndarray]:
    """rho, tuple_count, sigma and jay at the targets; read from the
    `scan` cache entry when one with the same key and targets exists."""
    if cache_dir is None:
        return _compute_columns(ns, ctx, q0)
    key = _scan_key(ns, ctx, q0, n_lo, n_hi)
    try:
        hit = cache.load(cache_dir, "scan", key)
        if set(hit) == {"n", *_SCAN_COLUMNS} and np.array_equal(hit["n"], ns):
            return {name: hit[name] for name in _SCAN_COLUMNS}
    except (cache.CacheMiss, cache.CacheVersionMismatch):
        pass
    cols = _compute_columns(ns, ctx, q0)
    cache.store(cache_dir, "scan", key, {"n": ns, **cols})
    return cols


def minor_arc_moment(
    ctx: ProblemContext,
    params: ArcParams,
    t: int,
    grid_size: int,
    region: str = "minor",
) -> float:
    """Riemann estimate of the integral of |f|^t over the minor arcs.

    f is taken by `grid_sums` at the exact rationals j/grid_size of the
    region.  region="full" integrates over the whole grid instead (used
    to calibrate the grid against the exact even moments).  When no grid
    point is minor and the arc family provably blankets the circle, the
    minor contribution is 0; an uncovered empty grid raises empty-region,
    and a sum past the largest float range-too-large.
    """
    if grid_size < 10 ** 3:
        raise ParameterDomain(f"need grid_size >= 1000, got {grid_size}")
    if t < 1:
        raise ParameterDomain(f"need t >= 1, got {t}")
    if region not in ("minor", "full"):
        raise ParameterDomain(f"unknown region {region!r}")
    seq = build_sequence(ctx, "prime_log")
    idx, mags = grid_magnitudes(seq, ctx.k, params, region, grid_size)
    if not idx.size:
        try:
            covered = major_measure(params) >= 0.999
        except OverlapDetected:
            covered = True  # arcs overlap: the major family blankets the grid
        if covered:
            return 0.0
        raise EmptyRegion("no minor grid points; refine the grid")
    with np.errstate(over="ignore"):
        total = float(np.sum(mags ** t))
    if not math.isfinite(total):
        raise RangeTooLarge(f"the sum of |f|^{t} over the grid is past the float range")
    return total / grid_size
