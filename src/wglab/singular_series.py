"""Gauss sums and the truncated singular series.

For a modulus q and exponent k the complete Gauss sum over units is

    S(q, a) = sum over b in (Z/q)* of e(a b^k / q),

and the arithmetic coefficient attached to a target n is

    A(q, n) = phi(q)^(-s) * sum over units a of S(q, a)^s * e(-a n / q).

The truncated singular series sigma(n, Q0) is the partial sum of A(q, n)
over q <= Q0 (the q = 1 term is 1).  A(q, n) is multiplicative in q, so
each term is a product of prime-power table entries.  One route computes
the terms, for one target (`truncated_sigma`) or many (`sigma_batch`).

Many targets are summed over the arithmetic progression that covers
them, first + step i with step the gcd of their differences (24 for a
k = 2 scan, 2 at k = 3, where the progression also holds the n = 0 mod 9
that the (3, 7) rule drops).  A(q, n) reads n only mod q, so along the
progression it repeats with period q / gcd(q, step): each q builds one
period pattern of at most a few hundred entries and adds it across an
accumulator over the progression, and each target reads its entry.  The
bits are those of summing each target on its own, since every term is
the same operands multiplied in the same order and every target's adds
run in ascending q (see `sigma_batch`).  The accumulator is 8 bytes per
progression entry, refused over 1 GiB before it is allocated.

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

from .arith import ProblemContext, euler_phi, sieve_interval
from .errors import ImaginaryResidue, NotCoprime, ParameterDomain, RangeTooLarge, require_bytes

_Q_CEILING = 200_000
_SIGMA_BYTES = 2 * 2 ** 30  # prime-power table budget, see _live_q
_IMAG_TOL = 1e-8
_PARTIAL_FLOOR = 1e-12
_PROGRESSION_BYTES = 2 ** 30  # sigma_batch's accumulator budget, see there
_PATTERN_MIN = 256  # least entries of a period pattern, see _terms

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
    so a loop of `truncated_sigma` calls builds it once.  Each q is
    factored from a smallest-prime-factor sieve: q = p^e m with p its
    least prime and m < q already factored, so p^e leads m's powers.

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
    spf = np.zeros(q_max + 1, dtype=np.int64)
    for p in sieve_interval(0, math.isqrt(q_max)):
        multiples = spf[p::p]
        multiples[multiples == 0] = p
    least = np.where(spf == 0, np.arange(q_max + 1), spf).tolist()
    factors: list[tuple[int, ...]] = [()] * (q_max + 1)
    for q in range(2, q_max + 1):
        p = pp = least[q]
        m = q // p
        while m % p == 0:
            m //= p
            pp *= p
        factors[q] = (pp, *factors[m])
    peak = {pp: float(np.max(np.abs(_pp_table(pp, k, s)))) for pp in pp_all}
    # |term| <= the product of its tables' peaks, (1 + eps) per factor: a q
    # under half the floor there is floored to 0 at every n
    return tuple(
        (q, factors[q])
        for q in range(2, q_max + 1)
        if math.prod(peak[pp] for pp in factors[q]) > _PARTIAL_FLOOR / 2
    )


def _terms(first: int, step: int, count: int, live: Live, k: int, s: int):
    """Yield (q, pattern) for each live q, where pattern[i] is A(q, n)
    at n = first + step i, set to +0.0 where |A| <= 1e-12.

    A(q, n) reads n only mod q, so along the progression it repeats with
    period q / gcd(q, step) <= q, and entry i of a progression of `count`
    takes pattern[i % len(pattern)].  The pattern holds the fewest whole
    periods that reach _PATTERN_MIN entries, cut at `count`: numpy adds
    a pattern across the progression one row of the reshape at a time,
    and rows of a few entries made the adds at x = 16000 about a fifth
    slower.  Each entry is the product of the prime-power table entries
    A(pp, n mod pp) in `factorize` order.  Nothing is kept across q but
    the progression's head, at most q_max + 255 entries.
    """
    widths = {}
    for q, _ in live:
        period = q // math.gcd(q, step)
        widths[q] = min(count, period * -(-_PATTERN_MIN // period))
    head = first + step * np.arange(max(widths.values(), default=0), dtype=np.int64)
    for q, pps in live:
        part = head[: widths[q]]
        term = math.prod(_pp_table(pp, k, s)[part % pp] for pp in pps)
        term[np.abs(term) <= _PARTIAL_FLOOR] = 0.0
        yield q, term


def truncated_sigma(n: int, ctx: ProblemContext, q_max: int) -> SeriesTruncation:
    """Partial singular series sum over q <= q_max, ascending in q.

    Terms with |A(q, n)| <= 1e-12 are dropped from the records and from
    the sum.  The terms are `sigma_batch`'s on a progression of one
    target, so the value equals `sigma_batch([n], ctx, q_max)` bit for
    bit.
    """
    n = int(n)
    if n < 0:
        raise ParameterDomain(f"need n >= 0, got {n}")
    if n > np.iinfo(np.int64).max:
        raise RangeTooLarge(f"n={n} exceeds the int64 range")
    live = _live_q(q_max, ctx.k, ctx.s)
    partials: list[tuple[int, float]] = [(1, 1.0)]
    value = 1.0
    for q, term in _terms(n, 1, 1, live, ctx.k, ctx.s):
        a = float(term[0])
        if a:
            partials.append((q, a))
            value += a
    return SeriesTruncation(
        n=n, k=ctx.k, s=ctx.s, q0=int(q_max), value=value, partials=tuple(partials)
    )


def sigma_batch(n_values: np.ndarray, ctx: ProblemContext, q_max: int) -> np.ndarray:
    """sigma(n, q_max) for a vector of targets, in input order.

    The targets lie on the progression first + step i, 0 <= i < count,
    with first their least, step the gcd of their differences (1 for a
    single target), and count reaching their greatest.  One accumulator
    of ones spans the progression, and each live q adds its period
    pattern (`_terms`) across it in ascending q; each target reads its
    entry.  Every target sees the same term, the same operands
    multiplied in the same order, as `truncated_sigma` on it alone, and
    the same adds in the same order: a floored term adds +0.0, which
    leaves the accumulator as it was, since the accumulator starts at
    1.0 and a sum is -0.0 only when both addends are.  So the two agree
    bit for bit.  The partial sums at some q < q_max are `sigma_batch`
    at q_max = q: the same terms in the same order.

    Refused with memory-budget, before the accumulator or any table is
    built, when its 8 bytes per progression entry are over 1 GiB, as
    for sparse targets such as [1, 2, 2^40].  A scan is never refused
    here: its charge of 400 bytes per member of the class s mod R(k),
    against 4 GiB, admits progressions of at most 86 MB.
    """
    n_values = np.asarray(n_values, dtype=np.int64)
    first = int(n_values.min()) if n_values.size else 0
    if first < 0:
        raise ParameterDomain("targets must be nonnegative")
    offsets = n_values - first
    step = int(np.gcd.reduce(offsets)) or 1
    count = int(offsets.max(initial=-1)) // step + 1
    require_bytes(8 * count, _PROGRESSION_BYTES, "sigma progression",
                  f"the targets' progression of {count} entries needs")
    k, s = ctx.k, ctx.s
    live = _live_q(q_max, k, s)
    acc = np.ones(count, dtype=np.float64)
    if not count:
        return acc
    for _, pattern in _terms(first, step, count, live, k, s):
        width = pattern.size
        whole = count - count % width
        rows = acc[:whole].reshape(-1, width)
        rows += pattern
        acc[whole:] += pattern[: count - whole]
    return acc[offsets // step]
