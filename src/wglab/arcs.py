"""Farey dissection of the unit circle into major and minor arcs.

The dissection is controlled by two cutoffs: P bounds the denominators of
the rational centers, and Q sets the arc half-width 1/(qQ) around each
center a/q.  Given a window scale (x, y) and an exponent A, the canonical
choice is

    P = (log x)^A,        Q = x * y^(k-1) / P.

Rational approximation of a point alpha on the circle is done exactly:
floats are converted to integer ratios and the continued-fraction
convergents are scanned in increasing denominator order, so the witness
returned by `dirichlet_approx` is the one with the smallest denominator,
deterministically.

`arc_table` lists the family of centers a/q, q <= floor(P), once, for
`ArcDecomposition`, `expsums.major_mask` and the arc quadrature.  Its
disjointness has a sharp criterion, checked only by
`ArcDecomposition.build` and `major_measure`.  Consecutive centers
a/q < a'/q' are Farey neighbours of order floor(P), so a'q - aq' = 1
and the gap between them is 1/(qq').  Their arcs, of half-widths 1/(qQ)
and 1/(q'Q), overlap exactly when Q <= q + q'.  Neighbours of order
floor(P) >= 2 have distinct denominators, both at most floor(P), so the
largest such sum is 2*floor(P) - 1, reached at 0/1 and 1/floor(P).  The
family is pairwise disjoint if and only if Q > 2*floor(P) - 1.  At
floor(P) = 1 the only arcs are the glued halves at 0/1 and 1/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .arith import ProblemContext, euler_phi, factorize
from .errors import OverlapDetected, ParameterDomain, require_bytes

_ARC_BYTES = 2 * 2 ** 30  # arc-family budget, see require_arc_budget


def w_k(k: int, q: int) -> float:
    """Multiplicative arc weight attached to the denominator q.

    On a prime power p^e with e = k*u + v, 1 <= v <= k, the value is
    k * p^(-u - 1/2) when v = 1 and p^(-u - 1) otherwise; w_k(1) = 1.
    """
    if k < 2:
        raise ParameterDomain(f"need k >= 2, got {k}")
    if q < 1:
        raise ParameterDomain(f"need q >= 1, got {q}")
    out = 1.0
    for p, e in factorize(q):
        u = (e - 1) // k
        v = e - k * u
        if v == 1:
            out *= k * float(p) ** (-u - 0.5)
        else:
            out *= float(p) ** (-u - 1.0)
    return out


@dataclass(frozen=True)
class RationalPoint:
    """A reduced fraction a/q on the circle plus the offset beta = alpha - a/q."""

    a: int
    q: int
    beta: float

    def __post_init__(self):
        if self.q < 1 or not (0 <= self.a <= self.q):
            raise ParameterDomain(f"need 0 <= a <= q, q >= 1, got a={self.a}, q={self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise ParameterDomain(f"a/q must be reduced, got {self.a}/{self.q}")


@dataclass(frozen=True)
class ArcParams:
    """Cutoff pair (P, Q) for a dissection; A is the exponent of
    P = (log x)^A when the pair comes from a context, else None."""

    P: float
    Q: float
    A: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.P) and math.isfinite(self.Q)):
            raise ParameterDomain(f"need finite P and Q, got P={self.P}, Q={self.Q}")
        if not (self.P >= 1):
            raise ParameterDomain(f"need P >= 1, got P={self.P}")
        if not (self.Q > self.P):
            raise ParameterDomain(f"need Q > P, got P={self.P}, Q={self.Q}")

    @classmethod
    def from_context(cls, ctx: ProblemContext, A: float = 1.0) -> "ArcParams":
        if A <= 0:
            raise ParameterDomain(f"need A > 0, got {A}")
        P = math.log(ctx.x) ** A
        if P < 1:
            raise ParameterDomain(f"(log x)^A = {P} < 1; x too small for this A")
        Q = ctx.x * ctx.y ** (ctx.k - 1) / P
        return cls(P=P, Q=Q, A=float(A))

    @classmethod
    def explicit(cls, P: float, Q: float) -> "ArcParams":
        return cls(P=float(P), Q=float(Q))


def dirichlet_approx(alpha: float, q_bound: float) -> RationalPoint:
    """Smallest-denominator rational a/q with |q*alpha - a| <= 1/q_bound.

    By Dirichlet's theorem such a witness with q <= q_bound always exists.
    The scan over continued-fraction convergents is exact (integer
    arithmetic on the float's dyadic representation), so ties and
    boundary cases are decided without rounding.
    """
    if not (0 <= alpha < 1):
        raise ParameterDomain(f"need alpha in [0, 1), got {alpha}")
    if q_bound < 1:
        raise ParameterDomain(f"need q_bound >= 1, got {q_bound}")
    num, den = float(alpha).as_integer_ratio()
    qb_num, qb_den = float(q_bound).as_integer_ratio()
    # Convergent recurrences.  alpha in [0, 1) means the zeroth coefficient
    # is 0, so the first convergent is 0/1 and the Euclid state starts at
    # (den, num).  h/q then runs over the best approximations of alpha.
    h_prev, h = 1, 0
    q_prev, q = 0, 1
    n, d = den, num
    while True:
        # |q*alpha - h| = |q*num - h*den| / den ; compare against 1/qb exactly
        err_num = abs(q * num - h * den)
        if err_num * qb_num <= den * qb_den:
            return RationalPoint(a=h, q=q, beta=alpha - h / q)
        step = n // d
        n, d = d, n - step * d
        h_prev, h = h, step * h + h_prev
        q_prev, q = q, step * q + q_prev


def classify(alpha: float, params: ArcParams) -> tuple[str, RationalPoint]:
    """Label alpha as 'major' or 'minor' under the dissection params.

    alpha is major exactly when its minimal Dirichlet witness at level Q
    has denominator q <= P.
    """
    pt = dirichlet_approx(alpha, params.Q)
    label = "major" if pt.q <= params.P else "minor"
    return label, pt


@dataclass(frozen=True)
class MajorArc:
    q: int
    a: int
    center: float
    half_width: float


def arc_table(params: ArcParams) -> tuple[np.ndarray, np.ndarray]:
    """Every reduced a/q with q <= floor(P) and 0 <= a <= q (so q = 1
    gives 0/1 and 1/1), as read-only int64 arrays (q, a), ascending in
    a/q: distinct centers are at least 1/floor(P)^2 apart, so the floats
    a/q sort exactly.  Refused by `require_arc_budget` before anything
    is enumerated; disjointness is not checked."""
    q, a = np.tril_indices(require_arc_budget(math.floor(params.P)) + 1)
    keep = np.gcd(a, q) == 1  # drops row q = 0 too: gcd(0, 0) = 0
    q, a = q[keep], a[keep]
    order = np.argsort(a / q)
    q, a = q[order], a[order]
    q.flags.writeable = a.flags.writeable = False
    return q, a


@dataclass(frozen=True, eq=False)
class ArcDecomposition:
    """The major arcs a/q +- 1/(qQ) for (P, Q), by ascending center from
    `arc_table`.  The half-arcs at 0/1 and 1/1 are the wrap-around halves
    of one glued arc at the origin, exempt from disjointness with each other."""

    params: ArcParams
    q: np.ndarray
    a: np.ndarray

    @classmethod
    def build(cls, params: ArcParams) -> "ArcDecomposition":
        _require_disjoint(math.floor(params.P), params.Q)
        return cls(params, *arc_table(params))

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) = a/q -/+ 1/(qQ), every arc's ends as float arrays."""
        center, half = self.a / self.q, 1.0 / (self.q * self.params.Q)
        return center - half, center + half

    @cached_property
    def intervals(self) -> tuple[MajorArc, ...]:
        """One `MajorArc` per arc; shared int and half-width objects keep it in budget."""
        ints = list(range(math.floor(self.params.P) + 1))
        half = [1.0 / (q * self.params.Q) if q else 0.0 for q in ints]
        return tuple(MajorArc(ints[q], ints[a], ints[a] / ints[q], half[q])
                     for q, a in zip(self.q, self.a))

    def measure(self) -> float:
        return major_measure(self.params)

    def covers(self, alpha: float) -> bool:
        """Whether alpha, alpha + 1 or alpha - 1 is on an arc; no classify()."""
        lo, hi = self.bounds
        return any(np.any((lo <= t) & (t <= hi)) for t in (alpha, alpha + 1.0, alpha - 1.0))


def require_arc_budget(pmax: int, per_arc: int = 280) -> int:
    """Refuse the arcs with q <= pmax before any is enumerated; returns pmax.

    There are 1 + sum over q <= pmax of phi(q), about 3/pi^2 pmax^2 + 1,
    of them: 2,736,189 at pmax = 3000, where the tracemalloc peak per arc
    is 44 bytes in `arc_table` and `ArcDecomposition.build`, 48 in
    `expsums.major_mask`, and 154 in `build` plus its lazy `intervals`.
    The charge is per_arc bytes per arc against 2 GiB; the default 280
    admits pmax up to about 5000.  `arc_table` and `major_measure` take it.
    """
    arcs = round(3 / math.pi ** 2 * pmax ** 2) + 1
    require_bytes(per_arc * arcs, _ARC_BYTES, "arc", f"the arcs with q <= {pmax} need")
    return pmax


def _require_disjoint(pmax: int, Q: float) -> None:
    if pmax >= 2 and not (Q > 2 * pmax - 1):
        raise OverlapDetected(
            f"arcs overlap: Q={Q} <= 2*floor(P)-1 = {2 * pmax - 1}"
        )


@lru_cache(maxsize=256)
def _phi_partial_sums(pmax: int) -> float:
    return float(sum(euler_phi(q) / q for q in range(1, pmax + 1)))


def major_measure(params: ArcParams) -> float:
    """Total length of the major arcs: sum over q <= P of phi(q) * 2/(qQ).

    Raises overlap-detected when the family is not pairwise disjoint, since
    the formula then no longer measures the union.
    """
    pmax = math.floor(params.P)
    _require_disjoint(pmax, params.Q)
    return 2.0 / params.Q * _phi_partial_sums(require_arc_budget(pmax))
