"""Gauss sums and the truncated singular series.

For a modulus q and exponent k the complete Gauss sum over units is

    S(q, a) = sum over b in (Z/q)* of e(a b^k / q),

and the arithmetic coefficient attached to a target n is

    A(q, n) = phi(q)^(-s) * sum over units a of S(q, a)^s * e(-a n / q).

The truncated singular series sigma(n, Q0) is the partial sum of A(q, n)
over q <= Q0 (the q = 1 term is 1).  A(q, n) is multiplicative in q, so
each term is a product of prime-power table columns.  One route computes
the terms, for one target (`truncated_sigma`) or many (`sigma_batch`).

Computation uses the discrete Fourier transform twice: the row
(S(q, a))_a is the conjugate DFT of the histogram of b^k mod q over
units, and the row (A(q, n mod q))_n is a DFT of the masked s-th powers
of that row.  Everything is cached per (q, k) and (q, k, s).  Direct
summation over the unit group (`a_coefficient_direct`) remains the
oracle; the test suite holds the table route to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .arith import ProblemContext, euler_phi, factorize, sieve_interval
from .errors import ImaginaryResidue, NotCoprime, ParameterDomain, RangeTooLarge, require_bytes

_Q_CEILING = 200_000
_SIGMA_BYTES = 2 * 2 ** 30  # prime-power table budget, see _live_q
_IMAG_TOL = 1e-8
_PARTIAL_FLOOR = 1e-12
_SIGMA_BLOCK = 2 ** 13  # targets per block: 97 columns at q_max = 400 are 6 MiB

# the live moduli: (q, its prime powers in `factorize` order), ascending in q
Live = tuple[tuple[int, tuple[int, ...]], ...]


@cache
def _unit_mask(q: int) -> np.ndarray:
    r = np.arange(q, dtype=np.int64)
    return np.gcd(r, q) == 1


@cache
def _gauss_row(q: int, k: int) -> np.ndarray:
    """(S(q, a)) for a = 0..q-1, as one conjugated DFT of the k-th power
    histogram over units."""
    b = np.arange(q, dtype=np.int64)[_unit_mask(q)]
    res = np.ones_like(b)
    for _ in range(k):
        res = (res * b) % q
    hist = np.bincount(res, minlength=q).astype(np.float64)
    return np.conj(np.fft.fft(hist))


@dataclass(frozen=True)
class GaussSumValue:
    """S(q, a) together with the inputs that produced it."""

    q: int
    a: int
    k: int
    value: complex


def gauss_sum(q: int, a: int, k: int) -> GaussSumValue:
    """S(q, a) for gcd(a, q) = 1, by direct summation over units.

    Each b^k is reduced mod q by modular exponentiation, so the phases
    e(a b^k / q) are exact rationals of denominator q before the final
    complex sum.  This is the reference route; the table machinery below
    reaches the same values through FFTs and is tested against it.

    Raises not-coprime when gcd(a, q) > 1.
    """
    q, a, k = int(q), int(a), int(k)
    if q < 1:
        raise ParameterDomain(f"need q >= 1, got {q}")
    if k < 2:
        raise ParameterDomain(f"need k >= 2, got {k}")
    if q > _Q_CEILING:
        raise RangeTooLarge(f"q={q} exceeds modulus ceiling {_Q_CEILING}")
    if math.gcd(a % q if q > 1 else 1, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) > 1")
    if q == 1:
        return GaussSumValue(q=1, a=a, k=k, value=1.0 + 0.0j)
    total = 0.0 + 0.0j
    for b in range(1, q):
        if math.gcd(b, q) == 1:
            r = (a * pow(b, k, q)) % q
            total += complex(math.cos(2 * math.pi * r / q), math.sin(2 * math.pi * r / q))
    return GaussSumValue(q=q, a=a, k=k, value=total)


def a_coefficient_direct(q: int, n: int, k: int, s: int) -> float:
    """A(q, n) by direct summation over the unit group.

    Phases e(-a n / q) are built from the exact residue (a * n) mod q, so
    the only floating-point steps are the DFT row and the final sum.
    """
    q, n, k, s = int(q), int(n), int(k), int(s)
    if q < 1 or n < 0:
        raise ParameterDomain(f"need q >= 1, n >= 0, got q={q}, n={n}")
    if s < 2 or k < 2:
        raise ParameterDomain(f"need k >= 2, s >= 2, got k={k}, s={s}")
    if q == 1:
        return 1.0
    if q > _Q_CEILING:
        raise RangeTooLarge(f"q={q} exceeds modulus ceiling {_Q_CEILING}")
    row = _gauss_row(q, k)
    units = np.flatnonzero(_unit_mask(q))
    res = (units * (n % q)) % q
    phases = np.exp((-2j * np.pi / q) * res)
    total = np.sum(row[units] ** s * phases)
    phi = euler_phi(q)
    val = total / float(phi) ** s
    if abs(val.imag) > _IMAG_TOL:
        raise ImaginaryResidue(
            f"A({q}, {n}) has imaginary residue {val.imag:.3e}"
        )
    return float(val.real)


@cache
def _pp_table(pp: int, k: int, s: int) -> np.ndarray:
    """A(pp, r) for r = 0..pp-1 at a prime power pp, via a second DFT.

    With g(a) = S(pp, a)^s on units (0 elsewhere), the DFT of g evaluated
    at index r equals sum_a g(a) e(-a r / pp), which is phi^s * A(pp, r).
    """
    row = _gauss_row(pp, k)
    g = np.where(_unit_mask(pp), row ** s, 0.0 + 0.0j)
    vals = np.fft.fft(g) / float(euler_phi(pp)) ** s
    worst = float(np.max(np.abs(vals.imag)))
    if worst > _IMAG_TOL:
        raise ImaginaryResidue(
            f"A-table at modulus {pp} has imaginary residue {worst:.3e}"
        )
    return vals.real.copy()


@dataclass(frozen=True)
class SeriesTruncation:
    """sigma(n, q0) together with the partial terms that were kept."""

    n: int
    k: int
    s: int
    q0: int
    value: float
    partials: tuple[tuple[int, float], ...]  # (q, A(q, n)) with |A| > 1e-12

    def trajectory(self) -> list[tuple[int, float]]:
        """Running partial sums (q, sigma up to q) over the kept terms."""
        out = []
        acc = 0.0
        for q, a in self.partials:
            acc += a
            out.append((q, acc))
        return out


def _prime_powers(q_max: int) -> set[int]:
    """The prime powers pp <= q_max, as a set: `_live_q` builds their
    tables in set order, and building them by ascending pp raised the
    maxrss of `wglab sigma --q0 20000` from 570 to 696 MB."""
    out = set()
    for p in sieve_interval(0, q_max):
        pp = p
        while pp <= q_max:
            out.add(pp)
            pp *= p
    return out


@lru_cache(maxsize=64)
def _live_q(q_max: int, k: int, s: int) -> Live:
    """(q, its prime powers in `factorize` order) for each 2 <= q <= q_max
    whose term can pass the floor at some n, ascending in q.  Memoised,
    so a loop of `truncated_sigma` calls builds it once.

    Refused before the first table is built when the tables of every
    prime power pp <= q_max, 25 bytes per residue (`_unit_mask` 1,
    `_gauss_row` 16, `_pp_table` 8, kept by unbounded caches), are over
    2 GiB.  25 bytes times the sum of pp is 513 MiB at q_max = 20000 and
    2907 MiB at 50000, where `wglab sigma` peaked at 570 and 2865 MB of
    maxrss; the budget admits q_max up to 41592.
    """
    if q_max < 1:
        raise ParameterDomain(f"need q_max >= 1, got {q_max}")
    if q_max > _Q_CEILING:
        raise RangeTooLarge(f"q_max={q_max} exceeds modulus ceiling {_Q_CEILING}")
    pp_all = _prime_powers(q_max)
    require_bytes(25 * sum(pp_all), _SIGMA_BYTES, "sigma table",
                  f"the prime-power tables up to {q_max} need")
    factors = [tuple(p ** e for p, e in factorize(q)) for q in range(2, q_max + 1)]
    peak = {pp: float(np.max(np.abs(_pp_table(pp, k, s)))) for pp in pp_all}
    # |term| <= the product of its tables' peaks, (1 + eps) per factor: a q
    # under half the floor there is floored to 0 at every n
    return tuple(
        (q, pps)
        for q, pps in enumerate(factors, start=2)
        if math.prod(peak[pp] for pp in pps) > _PARTIAL_FLOOR / 2
    )


def _terms(block: np.ndarray, live: Live, k: int, s: int):
    """Yield (q, A(q, n) over the block) for each live q: the product of
    its columns A(pp, n mod pp) in `factorize` order.  Each distinct pp's
    column is gathered once per block."""
    used = {pp for _, pps in live for pp in pps}
    cols = {pp: _pp_table(pp, k, s)[block % pp] for pp in used}
    for q, pps in live:
        yield q, math.prod(cols[pp] for pp in pps)


def truncated_sigma(n: int, ctx: ProblemContext, q_max: int) -> SeriesTruncation:
    """Partial singular series sum over q <= q_max, ascending in q.

    Terms with |A(q, n)| <= 1e-12 are dropped from the records and from
    the sum.  The terms are `sigma_batch`'s on a block of one target, so
    the value equals `sigma_batch([n], ctx, q_max)` bit for bit.
    """
    n = int(n)
    if n < 0:
        raise ParameterDomain(f"need n >= 0, got {n}")
    if n > np.iinfo(np.int64).max:
        raise RangeTooLarge(f"n={n} exceeds the int64 range")
    live = _live_q(q_max, ctx.k, ctx.s)
    partials: list[tuple[int, float]] = [(1, 1.0)]
    value = 1.0
    for q, term in _terms(np.array([n], dtype=np.int64), live, ctx.k, ctx.s):
        a = float(term[0])
        if abs(a) > _PARTIAL_FLOOR:
            partials.append((q, a))
            value += a
    return SeriesTruncation(
        n=n, k=ctx.k, s=ctx.s, q0=int(q_max), value=value, partials=tuple(partials)
    )


def sigma_batch(n_values: np.ndarray, ctx: ProblemContext, q_max: int) -> np.ndarray:
    """sigma(n, q_max) for a vector of targets.

    The targets go in blocks of 2^13, and each live q's term is added in
    ascending q, as `truncated_sigma` does, so the two agree bit for bit.
    The partial sums at some q < q_max are `sigma_batch` at q_max = q:
    the same terms in the same order.
    """
    n_values = np.asarray(n_values, dtype=np.int64)
    if n_values.size and int(n_values.min()) < 0:
        raise ParameterDomain("targets must be nonnegative")
    k, s = ctx.k, ctx.s
    live = _live_q(q_max, k, s)
    values = np.ones(n_values.size, dtype=np.float64)
    for start in range(0, n_values.size, _SIGMA_BLOCK):
        block = n_values[start : start + _SIGMA_BLOCK]
        acc = values[start : start + block.size]
        for _, term in _terms(block, live, k, s):
            # a term at or under the floor adds exactly 0.0
            np.add(acc, term, out=acc, where=np.abs(term) > _PARTIAL_FLOOR)
    return values
