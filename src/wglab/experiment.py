"""Desk-scale experiment pipeline: the exceptional-set scan, arc
quadrature, and minor-arc moment diagnostics.

The headline object is the exceptional-set report for a window
(N, N + x^(k-1) y]: every admissible n in the window gets its exact
weighted representation count rho(n) (one meet-in-the-middle join or two
wrapped FFTs on the lattice of the prime powers, whichever the cost rule
in `representations` finds cheaper), its main-term prediction
sigma(n, Q0) * j(n), and a two-sided deviation flag at threshold
y^(s-1) x^(1-k) / log x.  sigma and j are both taken over the targets'
span on their residue class, whose step is the gcd g of the target
differences (24 at k = 2, 2 at k = 3): sigma adds one period pattern
per modulus across that progression (`singular_series.sigma_batch`),
and j is read from one table over it.  The progression also holds
entries of that class that are no target (k = 3 skips n = 0 mod 9,
an eighth more entries than targets), so each target is looked up at
(n - offset) / g; the scan's per-target charge covers sigma's 8 bytes
per entry.  One target's main term is
`truncated_sigma(n, ctx, q0).value * j_integral(n, ctx)`, whose j is the
scan's bit for bit: j(n) does not depend on the window a table spans.

With a cache directory the scan keeps its computed columns (n, rho,
tuple_count, sigma, jay) as one `scan` entry of `wglab.cache`, keyed by
the scan's inputs (`_scan_key`: the context, q0 and numpy's version)
and stamped with the digest of the code that computed it.  A rerun
whose key, code and stored targets match reads the columns and computes
no rho, sigma or j; the ratios, flags and summary are derived afresh.

The arc quadrature `major_arc_rho_numeric` computes f^s at its nodes,
times each node's Gauss-Legendre weight and half panel width, and the
phase-jump check on f^s, once per (context, arcs, node count, region)
and reuses them across targets; each target adds only its e(-n alpha)
block and one dot.

The deviation test here is |rho - prediction| >= threshold.  A one-sided
reading (only an excess counts) is also tallied and reported alongside,
since the two counts differ materially at desk scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import cache
from .arcs import ArcDecomposition, ArcParams, major_measure
from .arith import ProblemContext, admissible_rule, modulus_R
from .errors import (EmptyRegion, EmptyWindow, OverlapDetected, ParameterDomain, RangeTooLarge,
                     require_bytes)
from .expsums import PhasePowers, build_sequence, eval_sums, grid_magnitudes
from .representations import rho_scan
from .singular_integral import gauss_legendre_panels, j_array, require_node_budget
from .singular_series import sigma_batch

_SCAN_BYTES = 4 * 2 ** 30  # exceptional-scan budget, see _admissible_targets
_TARGET_BYTES = 400  # the scan's charge per target, see _admissible_targets

_REGIONS = ("major", "full", "zero_arc")
_ARC_MEMO: dict = {}  # _arc_integrand's last result, at most one entry


def _arc_integrand(ctx: ProblemContext, params: ArcParams, panels: int, region: str):
    """The part of `major_arc_rho_numeric` that does not depend on n.

    Returns (alphas, fw, worst_jump): every interval's Gauss-Legendre
    nodes in order, f^s at them times each node's weight and its
    interval's half panel width, and the largest phase jump of f^s
    between adjacent nodes of one interval.  The last result is kept,
    read-only, and shared by every later call with the same key; a miss
    drops it before it computes, so the node budget charges only the
    new set.
    """
    key = (ctx, params, panels, region)
    hit = _ARC_MEMO.get(key)
    if hit is not None:
        return hit
    _ARC_MEMO.clear()
    if region == "major":
        decomp = ArcDecomposition.build(params)
        intervals = [
            (m.center - m.half_width, m.center + m.half_width) for m in decomp.intervals
        ]
    elif region == "full":
        intervals = [(0.0, 1.0)]
    else:
        hw = 1.0 / params.Q
        intervals = [(-hw, hw)]
    require_node_budget(len(intervals) * panels)
    quads = [gauss_legendre_panels(lo, hi, panels) for lo, hi in intervals]
    alphas = np.concatenate([pts for _, pts, _ in quads])
    fw = eval_sums(build_sequence(ctx, "prime_log"), ctx.k, alphas) ** ctx.s
    # the jumps are taken on f^s, before the weights go in; the product is
    # formed in place, since one more whole-array temporary shows in peak RSS
    per_arc = fw.reshape(len(quads), -1)
    jumps = np.conj(per_arc[:, :-1])
    jumps *= per_arc[:, 1:]
    worst_jump = float(np.max(np.abs(np.angle(jumps))))
    fw *= np.concatenate([half * weights for half, _, weights in quads])
    for a in (alphas, fw):
        a.flags.writeable = False
    _ARC_MEMO[key] = alphas, fw, worst_jump
    return _ARC_MEMO[key]


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
    call, e(-n alpha) comes from one `PhasePowers` block, and the whole
    quadrature is one dot of it with the weighted f^s.  Emits a warning
    when the phase of f^s jumps by more than pi/4 between adjacent nodes
    (under-resolution).

    The weighted f^s and the phase-jump check do not depend on n: they
    are computed once per (context, arcs, node count, region) by
    `_arc_integrand`, which keeps the last such set (dropped before a
    new key computes), and reused across targets.  A run of targets at
    one setting pays for f^s once; each target adds one e(-n alpha)
    block and one dot.  The warning fires on every call, cached or not.

    Known defect: region "major" integrates the origin arc twice.
    `ArcDecomposition.build` lists 0/1 and 1/1, each with the full
    half-width 1/Q, so (-1/Q, 1/Q) and (1 - 1/Q, 1 + 1/Q), the same arc
    mod 1, are both integrated.  The "full" and "zero_arc" regions are
    unaffected.

    Returns the real part; the integrand's imaginary parts cancel over
    any region symmetric under alpha -> 1 - alpha.
    """
    if not isinstance(region, str) or region not in _REGIONS:
        raise ParameterDomain(f"unknown region {region!r}")
    if not isinstance(nodes_per_arc, (int, np.integer)) or nodes_per_arc < 8:
        raise ParameterDomain(f"need an integer nodes_per_arc >= 8, got {nodes_per_arc!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomain(f"need an integer target n >= 1, got {n!r}")
    panels = max(1, math.ceil(nodes_per_arc / 16))
    alphas, fw, worst_jump = _arc_integrand(ctx, params, panels, region)
    # np.vdot conjugates the exactly reduced e(n alpha) into e(-n alpha)
    total = np.vdot(PhasePowers(np.array([n], dtype=np.int64), 1).phases(alphas), fw)
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
    over 4 GiB at _TARGET_BYTES per member of the class.  That covers the
    scan's per-target columns, flag masks and sorted ratios (90 bytes),
    rho's per-target arrays and sigma's accumulator (8 bytes a member).
    Whole-scan tracemalloc peaks per target, warm in-process caches: 83
    bytes at k = 3, x = 60, 100 and 150 on the join route, 262 and 257 at
    k = 2, x = 1000 and 4000 on the lattice; rho sets every one of them
    (j's grid peaks at 104 bytes a target at x = 1000, 54 or less
    elsewhere).  The charge keeps its margin over the largest, 262.  The
    FFTs also check their own budgets (`singular_integral.require_conv_budget`
    and `_require_j_budget`).
    """
    if n_hi >= 2 ** 63:
        raise RangeTooLarge(f"targets up to {n_hi} are past the int64 range")
    R = modulus_R(ctx.k)
    first = n_lo + (ctx.s - n_lo) % R
    count = (n_hi - first) // R + 1
    require_bytes(_TARGET_BYTES * count, _SCAN_BYTES, "scan", f"{count} targets need")
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

    cols = _scan_columns(ns, ctx, q0, cache_dir)
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


def _scan_key(ctx: ProblemContext, q0: int) -> dict:
    """What a scan takes: the window and targets follow from the context,
    and numpy's FFTs set the last bits of rho and j."""
    return {"ctx": asdict(ctx), "q0": int(q0), "numpy": np.__version__}


def _scan_columns(
    ns: np.ndarray, ctx: ProblemContext, q0: int, cache_dir: Optional[str]
) -> dict[str, np.ndarray]:
    """rho, tuple_count, sigma and jay at the targets; read from the
    `scan` cache entry when one with the same key, code and targets exists."""
    if cache_dir is None:
        return _compute_columns(ns, ctx, q0)
    key = _scan_key(ctx, q0)
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

    |f| is taken by `grid_magnitudes` at the exact rationals j/grid_size
    of the region.  region="full" integrates over the whole grid instead
    (used to calibrate the grid against the exact even moments).  When no grid
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
