"""Counting weighted representations n = p_1^k + ... + p_s^k.

rho(n) is the log-weighted count: the sum of log(p_1)...log(p_s) over
ordered s-tuples of primes from the window (x - y, x + y] whose k-th
powers sum to n.  Three routes are provided:

* `rho_naive`  - direct nested enumeration with range pruning; the
  reference implementation, exponential in s.
* `rho_mitm`   - meet-in-the-middle: aggregate all ceil(s/2)-fold and
  floor(s/2)-fold sums into sorted unique tables, then join them once
  over the whole target set, whether one target or a scan window.
  Table values are int64, or Python ints in an object array once the
  sums can reach 2^62; the same code serves both.  The answer is a
  `RepresentationTable` of three arrays (n, values, counts) in input
  order, which reads as a sequence of `RepresentationRecord`.
* the lattice route - rho is the s-fold convolution of the weights
  log p placed at p^k, and the tuple count that of the 0/1 indicator of
  the same points.  Every p^k lies in the class p_min^k (mod g), g the
  gcd of the p^k - p_min^k (24 at k = 2 once every prime is >= 5), so
  the points sit on the lattice of step g from p_min^k to p_max^k.  One
  wrapped FFT each (`singular_integral.wrapped_convolution`) on that
  lattice gives both over the targets' span; a target off the lattice
  counts zero.  Counts are rounded under an a-priori error estimate and
  an a-posteriori check on the computed counts.

`rho_scan` takes a sorted target array, returns (values, counts)
arrays and picks between the last two by one cost rule: the lattice
when the estimated join pairs m^s (b - a + 1) / (s(R - 1) + 1) exceed
L log2 L, where m is the number of primes, R the lattice length, [a, b]
the lattice indices of the targets' span and L the wrapped FFT length,
all in steps of g; meet-in-the-middle otherwise.  At k = 2 every
ladder window from N = 800,000 up takes the FFT; k = 3 at x = 60
(g = 2) and the three-prime window of the x = 10 goldens keep the join.

All routes count ordered tuples; they must agree exactly up to float
associativity, and the tests pin that.  Targets are integers: a float
or bool target is refused as parameter-domain, and one past int64
counts zero.

The even moment of the window exponential sum comes out of the same
table machinery: the mean of |f|^(2t) over the circle equals the sum of
the squared aggregated t-fold weights (orthogonality of characters),
computed here without touching any alpha grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .arith import ProblemContext
from .errors import (
    EnumerationTooLarge,
    ParameterDomain,
    PrecisionOverflow,
    require_bytes,
)
from .expsums import build_sequence
from .singular_integral import require_conv_budget, wrap_length, wrapped_convolution

_ENUM_CEILING = 10 ** 8
_TABLE_BYTES = 2 * 2 ** 30
_COUNT_GAP = 1e-3


@dataclass(frozen=True)
class RepresentationRecord:
    n: int
    value: float
    tuple_count: int


@dataclass(frozen=True)
class MomentValue:
    t: int
    value: float


def _window_powers(ctx: ProblemContext) -> tuple[list[int], list[float]]:
    """p^k and log p over the window's primes; empty-window when it has none."""
    seq = build_sequence(ctx, "prime_log")
    return [p ** ctx.k for p in seq.support.tolist()], seq.weights.tolist()


def _is_integer(v) -> bool:
    """v is a Python or numpy integer and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def rho_naive(n: int, ctx: ProblemContext) -> RepresentationRecord:
    """rho(n) by full nested enumeration over ordered tuples.

    Pruned by the running min/max of what the remaining slots can still
    contribute; the guard rejects windows where the unpruned tuple space
    exceeds 10^8.  A float or bool n is refused as parameter-domain.
    """
    if not _is_integer(n):
        raise ParameterDomain(f"rho needs an integer target, got {n!r}")
    n = int(n)
    pk, logs = _window_powers(ctx)
    m, s = len(pk), ctx.s
    if m ** s > _ENUM_CEILING:
        raise EnumerationTooLarge(f"{m}^{s} ordered tuples exceed {_ENUM_CEILING}")
    lo_pk, hi_pk = pk[0], pk[-1]
    log_of = dict(zip(pk, logs))
    total = 0.0
    tuples = 0

    def descend(depth: int, remaining: int, weight: float) -> None:
        nonlocal total, tuples
        slots = s - depth
        if remaining < slots * lo_pk or remaining > slots * hi_pk:
            return
        if depth == s - 1:
            # final slot must hit remaining exactly
            if remaining in log_of:
                total += weight * log_of[remaining]
                tuples += 1
            return
        for i in range(m):
            v = pk[i]
            if v > remaining - (slots - 1) * lo_pk:
                break
            descend(depth + 1, remaining - v, weight * logs[i])

    descend(0, n, 1.0)
    return RepresentationRecord(n=n, value=total, tuple_count=tuples)


@dataclass(eq=False)
class HalfSumTable:
    """Aggregated fold-sums: unique values, total weights, tuple counts."""

    values: np.ndarray  # ascending unique; int64, or Python ints past 2^62
    weights: np.ndarray  # float64, summed products of logs
    counts: np.ndarray  # int64, ordered tuple counts


def _fold_table(pk: list[int], logs: list[float], fold: int, top: int) -> HalfSumTable:
    """All ordered fold-sums of pk, aggregated by value.

    top is the largest sum in play; from 2^62 on the values are held as
    Python ints in an object array, so no sum can wrap.  The last fold
    holds five 8-byte arrays of m^fold entries (sums, weights, counts,
    and np.unique's order and inverse); their 40 m^fold bytes must fit
    the 2 GiB table budget, checked before anything is allocated.
    """
    m = len(pk)
    require_bytes(40 * m ** fold, _TABLE_BYTES, "table", f"{m}^{fold} half-sums need")
    base_v = np.array(pk, dtype=np.int64 if top < 2 ** 62 else object)
    base_w = np.asarray(logs, dtype=np.float64)
    vals, wts, cnt = base_v, base_w, np.ones(m, dtype=np.int64)
    for _ in range(fold - 1):
        raw = (vals[:, None] + base_v[None, :]).ravel()
        rw = (wts[:, None] * base_w[None, :]).ravel()
        rc = np.repeat(cnt, m)
        vals, inv = np.unique(raw, return_inverse=True)
        wts = np.bincount(inv, weights=rw)
        cnt = np.bincount(inv, weights=rc).astype(np.int64)
    return HalfSumTable(values=vals, weights=wts, counts=cnt)


@dataclass(frozen=True, eq=False)
class RepresentationTable:
    """`rho_mitm`'s answer, one row per target in input order: n the
    targets (int64, or Python ints in an object array once one does not
    fit), values rho (float64) and counts the ordered tuple counts
    (int64).  It reads as a sequence of `RepresentationRecord`, each
    built when it is indexed or iterated."""

    n: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return self.n.size

    def __getitem__(self, i: int) -> RepresentationRecord:
        i = operator.index(i)
        return RepresentationRecord(
            int(self.n[i]), float(self.values[i]), int(self.counts[i])
        )

    def __iter__(self) -> Iterator[RepresentationRecord]:
        rows = zip(self.n.tolist(), self.values.tolist(), self.counts.tolist())
        return (RepresentationRecord(*row) for row in rows)


def _target_array(n_values) -> np.ndarray:
    """n_values as a flat integer array in input order: int64 when every
    target fits, Python ints in an object array otherwise.  A float or
    bool target is refused as parameter-domain, not truncated; anything
    but an integer ndarray is checked element by element, since
    np.asarray folds [True, 5] into int64."""
    arr = n_values if isinstance(n_values, np.ndarray) else np.array(n_values, dtype=object)
    arr = np.atleast_1d(arr).ravel()
    if arr.dtype.kind == "u":
        arr = arr.astype(object)  # uint64 past 2^63 must not wrap
    if arr.dtype.kind == "O":
        bad = [v for v in arr.tolist() if not _is_integer(v)]
        if bad:
            raise ParameterDomain(f"rho needs integer targets, got {bad[0]!r}")
        try:
            return arr.astype(np.int64)
        except OverflowError:
            return np.array([int(v) for v in arr.tolist()], dtype=object)
    if arr.dtype.kind != "i":
        raise ParameterDomain(f"rho needs integer targets, got a {arr.dtype} array")
    return arr.astype(np.int64, copy=False)


def rho_mitm(n_values, ctx: ProblemContext) -> RepresentationTable:
    """rho over any set of targets by one meet-in-the-middle join.

    T1 holds the ceil(s/2)-fold sums and T2 the floor(s/2)-fold sums.
    The join runs once over the sorted unique targets in [s p_min^k,
    s p_max^k]: for each row v of T2, in ascending order, the slice of
    T1 that lands in [min target, max target] is matched against them
    and its hits are added.  np.unique's inverse scatters the sums back,
    so the table keeps the input order and its duplicates; targets
    outside the span read (0.0, 0).
    """
    ns = _target_array(n_values)
    pk, logs = _window_powers(ctx)
    s1 = (ctx.s + 1) // 2
    s2 = ctx.s - s1  # >= 1 since s >= 2
    top = ctx.s * pk[-1]
    t1 = _fold_table(pk, logs, s1, top)
    t2 = t1 if s2 == s1 else _fold_table(pk, logs, s2, top)

    values = np.zeros(ns.size)
    counts = np.zeros(ns.size, dtype=np.int64)
    in_span = (ns >= ctx.s * pk[0]) & (ns <= top)
    if in_span.any():
        targets, back = np.unique(ns[in_span].astype(t1.values.dtype), return_inverse=True)
        lo, hi = int(targets[0]), int(targets[-1])
        wsum = np.zeros(targets.size)
        csum = np.zeros(targets.size, dtype=np.int64)
        last = targets.size - 1
        for v, w2, c2 in zip(t2.values.tolist(), t2.weights.tolist(), t2.counts.tolist()):
            i = int(np.searchsorted(t1.values, lo - v))
            j = int(np.searchsorted(t1.values, hi - v, side="right"))
            if i == j:
                continue
            need = t1.values[i:j] + v
            pos = np.minimum(np.searchsorted(targets, need), last)
            ok = targets[pos] == need
            # T1 values are unique, so no target repeats within one row
            wsum[pos[ok]] += w2 * t1.weights[i:j][ok]
            csum[pos[ok]] += c2 * t1.counts[i:j][ok]
        values[in_span] = wsum[back]
        counts[in_span] = csum[back]
    return RepresentationTable(ns, values, counts)


class _LatticePlan(NamedTuple):
    """The lattice of step g that holds every p^k - p_min^k, and the
    targets' offsets n - s p_min^k as a..b of that step."""

    pk: list[int]
    logs: list[float]
    g: int  # gcd of the p^k - p_min^k; 1 for a single prime
    R: int  # lattice length, (p_max^k - p_min^k)/g + 1
    a: int  # first and last lattice index of the targets' span
    b: int
    L: int  # wrapped FFT length for a..b


def _lattice_window(ctx: ProblemContext, n_lo: int, n_hi: int) -> _LatticePlan | None:
    """The lattice plan for targets in [n_lo, n_hi], or None when no
    lattice point lies between them.

    Every p^k lies in the class p_min^k (mod g), g = gcd(p^k - p_min^k);
    at k = 2, g = 24 once every prime is >= 5, and g = 1 when the window
    holds 2 or 3.  The weights sit at (p^k - p_min^k)/g on a vector of
    length R = (p_max^k - p_min^k)/g + 1, whose s-fold convolution puts
    the sums at (n - s p_min^k)/g.  The targets' offsets [a0, b0] from
    s p_min^k, clipped to [0, s (p_max^k - p_min^k)], become the lattice
    indices a = ceil(a0/g)..b = floor(b0/g), and L = `wrap_length`(R, s,
    a, b).  A target whose offset g does not divide has no
    representation.
    """
    pk, logs = _window_powers(ctx)
    base = ctx.s * pk[0]
    S = ctx.s * (pk[-1] - pk[0])
    g = math.gcd(*(v - pk[0] for v in pk)) or 1
    a = -(-max(n_lo - base, 0) // g)
    b = min(n_hi - base, S) // g
    if a > b:
        return None
    R = (pk[-1] - pk[0]) // g + 1
    return _LatticePlan(pk, logs, g, R, a, b, wrap_length(R, ctx.s, a, b))


def _lattice_pays(ctx: ProblemContext, plan: _LatticePlan | None) -> bool:
    """The cost rule of the module docstring on a `_lattice_window` plan,
    with R, a, b and L all counted in steps of g."""
    if plan is None:
        return False
    share = (plan.b - plan.a + 1) / (ctx.s * (plan.R - 1) + 1)
    # m^s can overflow a float, so the pair count is compared in logs
    log_pairs = ctx.s * math.log(len(plan.pk)) + math.log(share)
    return log_pairs > math.log(max(plan.L * math.log2(plan.L), 1.0))


def rho_route(ctx: ProblemContext, n_lo: int, n_hi: int) -> str:
    """"lattice" or "mitm": the route `rho_scan` takes for targets
    spanning [n_lo, n_hi]."""
    plan = _lattice_window(ctx, int(n_lo), int(n_hi))
    return "lattice" if _lattice_pays(ctx, plan) else "mitm"


def _rho_lattice(
    ns: np.ndarray, ctx: ProblemContext, plan: _LatticePlan
) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts) of rho at sorted int64 targets by two wrapped FFTs
    over a `_lattice_window` plan of their span.

    Both FFTs run on the lattice of step g, entries a..b; a target off
    that lattice gets rho = 0.0 and count 0 without a lookup.  The
    counts are the rounded FFT convolution of the 0/1 lattice.  Two
    checks guard the rounding.  The a-priori one is an estimate derived
    from the radix-2 complex FFT: for a nonnegative vector w with sum W
    and 2-norm |w|, the computed s-fold power of its length-L DFT,
    transformed back, is off by at most c eps log2(L) W^(s-1) |w| in
    every entry, with c = 8 s + 5: the forward and inverse FFT
    contribute c1 eps log2(L) each relative to the 2-norm (c1 = 5,
    Higham, Accuracy and Stability, thm. 24.2, which covers radix 2
    only; numpy's mixed-radix real transforms carry other constants),
    the power multiplies the first by s, its own s - 1 products add
    3 s eps, and sum |A_k|^(2s) <= W^(2s-2) sum |A_k|^2 turns every term
    into W^(s-1)|w|.  On the 0/1 lattice W = m, |w| = sqrt(m), so the
    estimate is c eps log2(L) m^(s - 1/2); one >= 1/2 raises
    precision-overflow before any FFT array is allocated.  The
    a-posteriori one reads the computed counts over the whole window
    and raises precision-overflow when any is further than
    `_COUNT_GAP` = 1e-3 from an integer.  rho is set to exactly 0.0
    wherever the count is 0.
    """
    pk, logs, g, R, a, b, L = plan
    m, s = len(pk), ctx.s
    log2_bound = (
        math.log2((8 * s + 5) * np.finfo(float).eps * max(math.log2(L), 1.0))
        + (s - 0.5) * math.log2(m)
    )
    if log2_bound >= -1:
        raise PrecisionOverflow(
            f"FFT count error bound 2^{log2_bound:.1f} for {m} primes at s={s}, "
            f"length {L}, is not below 1/2"
        )
    require_conv_budget(L)
    values = np.zeros(ns.size)
    counts = np.zeros(ns.size, dtype=np.int64)
    off = ns - (s * pk[0] + g * a)
    inside = (off >= 0) & (off <= g * (b - a)) & (off % g == 0)
    idx = off[inside] // g
    w = np.zeros(R)
    spots = (np.array(pk, dtype=np.int64) - pk[0]) // g
    w[spots] = 1.0
    raw = wrapped_convolution(w, s, a, b)
    rounded = np.rint(raw)
    gap = float(np.max(np.abs(raw - rounded)))
    if gap > _COUNT_GAP:
        raise PrecisionOverflow(
            f"FFT counts for {m} primes at s={s}, length {L}, lie up to {gap:.2g} "
            f"from an integer"
        )
    counts[inside] = rounded[idx].astype(np.int64)
    del raw, rounded  # window-long; not kept through the second FFT
    w[spots] = logs
    values[inside] = wrapped_convolution(w, s, a, b)[idx]
    values[counts == 0] = 0.0
    return values, counts


def rho_scan(ns: np.ndarray, ctx: ProblemContext) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts) of rho at sorted int64 targets, by the route the
    cost rule picks for their span.  The join side returns the arrays of
    `rho_mitm`'s table as they are."""
    plan = _lattice_window(ctx, int(ns[0]), int(ns[-1])) if ns.size else None
    if _lattice_pays(ctx, plan):
        return _rho_lattice(ns, ctx, plan)
    table = rho_mitm(ns, ctx)
    return table.values, table.counts


def moment(t: int, ctx: ProblemContext) -> MomentValue:
    """Mean of |f|^(2t) over the circle, via aggregated t-fold sums.

    Exactly sum over v of W_t(v)^2 where W_t aggregates the weight of
    the ordered t-tuples with power-sum v.
    """
    if t < 1:
        raise ParameterDomain(f"need t >= 1, got {t}")
    pk, logs = _window_powers(ctx)
    if len(pk) ** t > _ENUM_CEILING:
        raise EnumerationTooLarge(f"{len(pk)}^{t} tuples exceed {_ENUM_CEILING}")
    tbl = _fold_table(pk, logs, t, t * pk[-1])
    return MomentValue(t=t, value=float(np.dot(tbl.weights, tbl.weights)))
