"""Counting weighted representations n = p_1^k + ... + p_s^k.

rho(n) is the log-weighted count: the sum of log(p_1)...log(p_s) over
ordered s-tuples of primes from the window (x - y, x + y] whose k-th
powers sum to n.  Two routes are provided:

* `rho_naive` - direct nested enumeration with range pruning; the
  reference implementation, exponential in s.
* `rho_mitm`  - meet-in-the-middle: aggregate all ceil(s/2)-fold and
  floor(s/2)-fold sums into sorted unique tables, then join them once
  over the whole target set, whether one target or a scan window.
  Table values are int64, or Python ints in an object array once the
  sums can reach 2^62; the same code serves both.

Both count ordered tuples; they must agree exactly up to float
associativity, and the tests pin that.

The even moment of the window exponential sum comes out of the same
table machinery: the mean of |f|^(2t) over the circle equals the sum of
the squared aggregated t-fold weights (orthogonality of characters),
computed here without touching any alpha grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import ProblemContext, prime_window
from .errors import EmptyWindow, EnumerationTooLarge, MemoryBudgetExceeded, ParameterDomain

_ENUM_CEILING = 10 ** 8
_TABLE_BYTES = 2 * 2 ** 30


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
    win = prime_window(ctx.x, ctx.y)
    if not win.primes:
        raise EmptyWindow(f"no primes in ({ctx.x - ctx.y}, {ctx.x + ctx.y}]")
    pk = [p ** ctx.k for p in win.primes]
    return pk, list(win.weights)


def rho_naive(n: int, ctx: ProblemContext) -> RepresentationRecord:
    """rho(n) by full nested enumeration over ordered tuples.

    Pruned by the running min/max of what the remaining slots can still
    contribute; the guard rejects windows where the unpruned tuple space
    exceeds 10^8.
    """
    n = int(n)
    pk, logs = _window_powers(ctx)
    m, s = len(pk), ctx.s
    if m ** s > _ENUM_CEILING:
        raise EnumerationTooLarge(f"{m}^{s} ordered tuples exceed {_ENUM_CEILING}")
    lo_pk, hi_pk = pk[0], pk[-1]
    total = 0.0
    tuples = 0

    def descend(depth: int, remaining: int, weight: float) -> None:
        nonlocal total, tuples
        slots = s - depth
        if remaining < slots * lo_pk or remaining > slots * hi_pk:
            return
        if depth == s - 1:
            # final slot must hit remaining exactly
            i = _bisect(pk, remaining)
            if i >= 0:
                total += weight * logs[i]
                tuples += 1
            return
        for i in range(m):
            v = pk[i]
            if v > remaining - (slots - 1) * lo_pk:
                break
            descend(depth + 1, remaining - v, weight * logs[i])

    descend(0, n, 1.0)
    return RepresentationRecord(n=n, value=total, tuple_count=tuples)


def _bisect(sorted_list: list[int], target: int) -> int:
    import bisect

    i = bisect.bisect_left(sorted_list, target)
    if i < len(sorted_list) and sorted_list[i] == target:
        return i
    return -1


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
    need = 40 * m ** fold
    if need > _TABLE_BYTES:
        raise MemoryBudgetExceeded(
            f"{m}^{fold} half-sums need {need / 2 ** 30:.1f} GiB, "
            f"over the {_TABLE_BYTES / 2 ** 30:.0f} GiB table budget"
        )
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


def rho_mitm(n_values, ctx: ProblemContext) -> list[RepresentationRecord]:
    """rho over any set of targets by one meet-in-the-middle join.

    T1 holds the ceil(s/2)-fold sums and T2 the floor(s/2)-fold sums.
    For each row v of T2, the slice of T1 that lands in [min target,
    max target] is matched against the sorted unique targets and its
    hits are added, rows taken in ascending order.  Records come back in
    input order, duplicates repeated; targets outside [s p_min^k,
    s p_max^k] count zero.
    """
    ns = [int(v) for v in np.atleast_1d(np.asarray(n_values)).tolist()]
    pk, logs = _window_powers(ctx)
    s1 = (ctx.s + 1) // 2
    s2 = ctx.s - s1  # >= 1 since s >= 2
    top = ctx.s * pk[-1]
    t1 = _fold_table(pk, logs, s1, top)
    t2 = t1 if s2 == s1 else _fold_table(pk, logs, s2, top)

    inside = sorted({n for n in ns if ctx.s * pk[0] <= n <= top})
    found: dict[int, tuple[float, int]] = {}
    if inside:
        targets = np.array(inside, dtype=t1.values.dtype)
        wsum = np.zeros(targets.size)
        csum = np.zeros(targets.size, dtype=np.int64)
        last = targets.size - 1
        for v, w2, c2 in zip(t2.values.tolist(), t2.weights.tolist(), t2.counts.tolist()):
            i = int(np.searchsorted(t1.values, inside[0] - v))
            j = int(np.searchsorted(t1.values, inside[-1] - v, side="right"))
            if i == j:
                continue
            need = t1.values[i:j] + v
            pos = np.minimum(np.searchsorted(targets, need), last)
            ok = targets[pos] == need
            # T1 values are unique, so no target repeats within one row
            wsum[pos[ok]] += w2 * t1.weights[i:j][ok]
            csum[pos[ok]] += c2 * t1.counts[i:j][ok]
        found = dict(zip(inside, zip(wsum.tolist(), csum.tolist())))
    return [RepresentationRecord(n, *found.get(n, (0.0, 0))) for n in ns]


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
