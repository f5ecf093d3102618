"""Integer utilities and congruence machinery.

Provides interval sieving, factorization, the totient, the ramification
exponents (tau, eta) attached to a power k at a prime p, the composite
congruence modulus R(k) built from them, and the admissibility test that
singles out the residue classes a sum of s k-th powers of primes can occupy.

Conventions
-----------
* ``sieve_interval(lo, hi)`` returns the primes in the half-open interval
  (lo, hi], ascending.
* All logarithms elsewhere in the package are natural logs in IEEE double
  precision; this module only deals in exact integers.
* Inputs are capped at ``SIEVE_CEILING`` (2**48) so that downstream modules
  can rely on products of two sieved integers fitting in 128 bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyRange, ParameterDomain, RangeTooLarge, require_bytes

SIEVE_CEILING = 1 << 48

_TRIAL_LIMIT = 10 ** 6

# Deterministic Miller-Rabin witness set: correct for every n < 3.3 * 10**24,
# far above SIEVE_CEILING.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SEGMENT = 1 << 20

_WINDOW_BYTES = 4 * 2 ** 30  # prime-window budget, see prime_window


@lru_cache(maxsize=8)
def _base_primes(limit: int) -> np.ndarray:
    """Primes up to ``limit`` via a plain boolean sieve (built once, shared)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def sieve_interval(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p <= hi, ascending.

    Parameters
    ----------
    lo, hi : int
        Positive interval endpoints; the interval is half-open (lo, hi].

    Returns
    -------
    list of int

    Raises
    ------
    EmptyRange
        If lo >= hi.
    RangeTooLarge
        If hi exceeds SIEVE_CEILING.
    """
    lo, hi = int(lo), int(hi)
    if lo >= hi:
        raise EmptyRange(f"need lo < hi, got ({lo}, {hi}]")
    if hi > SIEVE_CEILING:
        raise RangeTooLarge(f"hi={hi} exceeds ceiling 2**48")
    if lo < 0:
        raise ParameterDomain("endpoints must be positive")
    base = _base_primes(max(2, math.isqrt(hi)))
    out: list[int] = []
    start = lo + 1
    while start <= hi:
        stop = min(start + _SEGMENT - 1, hi)
        seg = np.ones(stop - start + 1, dtype=bool)
        if start <= 1:
            seg[: min(2 - start, len(seg))] = False
        for p in base.tolist():
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            if first <= stop:
                seg[first - start :: p] = False
        # base primes themselves may fall inside the segment
        out.extend(int(v) for v in np.flatnonzero(seg) + start)
        start = stop + 1
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(r - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def _trial_divisors():
    """2, 3, then every 6i - 1 and 6i + 1: all primes, some composites."""
    yield 2
    yield 3
    for d in itertools.count(5, 6):
        yield d
        yield d + 2


def factorize(q: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of q as ((p1, e1), (p2, e2), ...), p ascending.

    factorize(1) is the empty tuple.  Trial division runs over 2, 3 and
    the numbers 6i +- 1 up to min(isqrt(rem), 10**6); a composite divisor
    never divides rem, since its prime factors were removed before it.
    Cofactors that survive are accepted only if prime (deterministic
    Miller-Rabin); a composite cofactor is outside this module's contract
    and is reported as an error rather than silently mis-factored.
    """
    q = int(q)
    if q < 1:
        raise ParameterDomain(f"factorize needs q >= 1, got {q}")
    if q > SIEVE_CEILING:
        raise RangeTooLarge(f"q={q} exceeds ceiling 2**48")
    out: list[tuple[int, int]] = []
    rem = q
    for d in _trial_divisors():
        if d > _TRIAL_LIMIT or d * d > rem:
            break
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            out.append((d, e))
    if rem > 1:
        if not _is_prime(rem):
            raise ParameterDomain(f"composite cofactor {rem} beyond trial bound")
        out.append((rem, 1))
    return tuple(out)


def euler_phi(q: int) -> int:
    """Count of 1 <= b <= q with gcd(b, q) = 1."""
    out = 1
    for p, e in factorize(q):
        out *= p ** (e - 1) * (p - 1)
    return out


def tau_eta(k: int, p: int) -> tuple[int, int]:
    """The exponent tau = max{t : p^t | k} and its lift eta.

    eta = tau + 2 when p = 2 and tau > 0, else tau + 1.
    """
    if k < 2:
        raise ParameterDomain(f"need k >= 2, got {k}")
    if not _is_prime(p):
        raise ParameterDomain(f"p={p} is not prime")
    tau = 0
    kk = k
    while kk % p == 0:
        kk //= p
        tau += 1
    eta = tau + 2 if (p == 2 and tau > 0) else tau + 1
    return tau, eta


def modulus_R(k: int) -> int:
    """Product of p^eta over the primes p with (p - 1) | k."""
    if k < 2:
        raise ParameterDomain(f"need k >= 2, got {k}")
    out = 1
    for d in range(1, k + 1):
        if k % d == 0 and _is_prime(d + 1):
            _, eta = tau_eta(k, d + 1)
            out *= (d + 1) ** eta
    return out


def admissible_rule(n, k: int, s: int):
    """n == s (mod R(k)), and 9 does not divide n when (k, s) = (3, 7);
    elementwise on an int or an int64 array."""
    R = modulus_R(k)
    ok = n % R == s % R
    if k == 3 and s == 7:
        ok = ok & (n % 9 != 0)
    return ok


def admissible(n: int, k: int, s: int) -> bool:
    """n >= 1 lies in the residue classes reachable by s k-th powers of
    primes (see `admissible_rule`)."""
    if n < 1:
        raise ParameterDomain(f"need n >= 1, got {n}")
    return bool(admissible_rule(n, k, s))


@dataclass(frozen=True)
class ProblemContext:
    """The parameter tuple (k, s, theta, N) with derived scales x and y.

    x = (N/s)^(1/k) is the center of the prime window and y = x^theta its
    half-width.  Constructed either from the target scale N (`from_scale`)
    or from an explicit window (`from_parts`), in which case N is derived
    and theta is the implied exponent log y / log x.
    """

    k: int
    s: int
    theta: float
    N: int
    x: float
    y: float

    def __post_init__(self):
        if self.k < 2 or self.s < 2:
            raise ParameterDomain(f"need k >= 2 and s >= 2, got k={self.k}, s={self.s}")
        if self.N < 1:
            raise ParameterDomain(f"need N >= 1, got N={self.N}")
        if not (0 < self.y <= self.x):
            raise ParameterDomain(f"need 0 < y <= x, got x={self.x}, y={self.y}")

    @classmethod
    def from_scale(cls, k: int, s: int, theta: float, N: int) -> "ProblemContext":
        if not (0 < theta <= 1):
            raise ParameterDomain(f"need theta in (0, 1], got {theta}")
        if not (1 <= N < math.inf):
            raise ParameterDomain(f"need finite N >= 1, got {N}")
        x = (N / s) ** (1.0 / k)
        y = x ** theta
        return cls(k=int(k), s=int(s), theta=float(theta), N=int(N), x=x, y=y)

    @classmethod
    def from_parts(cls, k: int, s: int, x: float, y: float) -> "ProblemContext":
        # theta here is informational; windows narrower than y = 1 give a
        # nonpositive exponent and remain valid for diagnostics.
        if not (1 < x < math.inf):
            raise ParameterDomain(f"need finite x > 1, got {x}")
        theta = math.log(y) / math.log(x) if y > 0 else float("-inf")
        try:
            N = round(s * float(x) ** k)
        except OverflowError:
            raise RangeTooLarge(f"N = s x^k is out of float range at x={x}, k={k}") from None
        return cls(k=int(k), s=int(s), theta=theta, N=int(N), x=float(x), y=float(y))

    @property
    def window_width(self) -> float:
        """Length of the scan window attached to this context: x^(k-1) * y."""
        return self.x ** (self.k - 1) * self.y


@dataclass(frozen=True)
class PrimeWindow:
    """The primes p in (x - y, x + y] with natural-log weights."""

    x: float
    y: float
    primes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.primes) != len(self.weights):
            raise ParameterDomain("primes and weights must have equal length")


def prime_window(x: float, y: float) -> PrimeWindow:
    """Sieve the window (x - y, x + y] and attach log-weights.

    The window may be empty; callers that need support raise on emptiness
    themselves.  Refused before sieving when its primes may need over
    4 GiB: at most 8 in 30 consecutive integers are prime to 30, and
    2, 3 and 5 add 3 more, each charged 81 bytes (the tracemalloc peak
    per prime at x = 10^7 and 10^8).  That admits windows of 2e8 integers.
    """
    if not (0 < y <= x):
        raise ParameterDomain(f"need 0 < y <= x, got x={x}, y={y}")
    lo = max(1, math.floor(x - y))
    hi = math.floor(x + y)
    require_bytes(81 * (8 * -(-(hi - lo) // 30) + 3), _WINDOW_BYTES, "prime window",
                  f"the primes of a window of {hi - lo} integers need")
    ps = sieve_interval(lo, hi) if hi > lo else []
    return PrimeWindow(
        x=float(x),
        y=float(y),
        primes=tuple(ps),
        weights=tuple(math.log(p) for p in ps),
    )
