import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wglab.arith as arith
from wglab.arith import (
    ProblemContext,
    admissible,
    admissible_rule,
    euler_phi,
    factorize,
    modulus_R,
    prime_window,
    sieve_interval,
    tau_eta,
)
from wglab.errors import EmptyRange, MemoryBudgetExceeded, ParameterDomain, RangeTooLarge


def _trial_primes(lo, hi):
    out = []
    for n in range(max(lo + 1, 2), hi + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


class TestSieve:
    def test_example_interval(self):
        assert sieve_interval(10, 30) == [11, 13, 17, 19, 23, 29]

    def test_single_element_range(self):
        assert sieve_interval(2, 3) == [3]

    def test_empty_result(self):
        assert sieve_interval(24, 28) == []

    def test_against_trial_division(self):
        for lo, hi in [(0, 100), (89, 120), (9990, 10100), (1, 2)]:
            assert sieve_interval(lo, hi) == _trial_primes(lo, hi)

    def test_segmentation_invariance(self):
        M = 3000
        whole = sieve_interval(0, M)
        for cuts in ([1000, 2000], [7, 1500, 2999], [1]):
            edges = [0] + cuts + [M]
            glued = []
            for a, b in zip(edges, edges[1:]):
                glued.extend(sieve_interval(a, b))
            assert glued == whole

    def test_bad_range(self):
        with pytest.raises(EmptyRange):
            sieve_interval(30, 10)
        with pytest.raises(EmptyRange):
            sieve_interval(5, 5)

    def test_ceiling(self):
        with pytest.raises(RangeTooLarge):
            sieve_interval(2 ** 48 + 1, 2 ** 48 + 100)

    def test_negative_lo(self):
        with pytest.raises(ParameterDomain):
            sieve_interval(-5, 10)


class TestFactorize:
    def test_unit(self):
        assert factorize(1) == ()

    def test_composite(self):
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))

    def test_prime(self):
        assert factorize(97) == ((97, 1),)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_reconstruction(self, q):
        fac = factorize(q)
        prod = 1
        for p, e in fac:
            assert e >= 1
            assert factorize(p) == ((p, 1),)  # p really is prime
            prod *= p ** e
        assert prod == q
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})

    def test_matches_plain_trial_division(self):
        def oracle(q):
            out, d = [], 2
            while d * d <= q:
                e = 0
                while q % d == 0:
                    q //= d
                    e += 1
                if e:
                    out.append((d, e))
                d += 1
            return tuple(out + [(q, 1)] if q > 1 else out)

        for q in range(1, 20_000):
            assert factorize(q) == oracle(q)

    def test_large_prime_cofactor(self):
        # trial division stops at 1e6; the cofactor is certified prime
        p = 1_000_003
        assert factorize(7 * p) == ((7, 1), (p, 1))

    def test_composite_cofactor_is_refused(self):
        # both primes lie past the 1e6 trial bound, so their product is
        # left whole and Miller-Rabin must reject it
        with pytest.raises(ParameterDomain, match="composite cofactor"):
            factorize(1_000_003 * 1_000_033)

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            factorize(0)
        with pytest.raises(RangeTooLarge):
            factorize(2 ** 48 + 3)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(97) == 96

    def test_direct_count_small(self):
        for q in range(1, 1000):
            direct = sum(1 for b in range(1, q + 1) if math.gcd(b, q) == 1)
            assert euler_phi(q) == direct

    @given(st.integers(min_value=1, max_value=10 ** 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_factorization_formula(self, q):
        expect = 1
        for p, e in factorize(q):
            expect *= p ** (e - 1) * (p - 1)
        assert euler_phi(q) == expect


class TestCongruenceLayer:
    def test_tau_eta_examples(self):
        assert tau_eta(2, 2) == (1, 3)
        assert tau_eta(3, 2) == (0, 1)
        assert tau_eta(4, 3) == (0, 1)

    def test_tau_eta_refuses_a_non_prime(self):
        for p in (0, 1):
            with pytest.raises(ParameterDomain):
                tau_eta(2, p)

    def test_k_below_two_refused(self):
        # modulus_R(1) would reach tau_eta's check; modulus_R(0) reaches none
        for call in (lambda: tau_eta(1, 2), lambda: modulus_R(0)):
            with pytest.raises(ParameterDomain, match="need k >= 2") as err:
                call()
            assert err.value.code == "parameter-domain"

    def test_admissible_refuses_n_below_one(self):
        with pytest.raises(ParameterDomain, match="need n >= 1") as err:
            admissible(0, 2, 5)
        assert err.value.code == "parameter-domain"

    def test_tau_eta_odd_k_at_two(self):
        for k in range(3, 100, 2):
            assert tau_eta(k, 2) == (0, 1)

    def test_modulus_examples(self):
        assert modulus_R(2) == 24
        assert modulus_R(3) == 2
        assert modulus_R(4) == 240

    def test_modulus_even(self):
        for k in range(2, 51):
            assert modulus_R(k) % 2 == 0

    def test_modulus_against_definition(self):
        # direct product over primes p with (p-1) | k of p^eta(k, p)
        for k in range(2, 13):
            prod = 1
            for p in _trial_primes(1, k + 1):
                if k % (p - 1) == 0:
                    _, eta = tau_eta(k, p)
                    prod *= p ** eta
            assert modulus_R(k) == prod

    def test_admissible_examples(self):
        assert admissible(29, 2, 5) is True
        assert admissible(30, 2, 5) is False
        assert admissible(27, 3, 7) is False  # passes mod 2 but 9 | 27

    def test_cube_clause_only_for_seven_cubes(self):
        # the 9-divisibility exclusion applies at (k, s) = (3, 7) only
        assert admissible(27, 3, 5) is True  # 27 and 5 agree mod R(3) = 2
        assert admissible(61, 3, 7) is True  # odd, not divisible by 9

    def test_rule_is_elementwise(self):
        ns = np.arange(1, 500, dtype=np.int64)
        for k, s in ((2, 5), (3, 7), (3, 5)):
            mask = admissible_rule(ns, k, s)
            assert mask.tolist() == [admissible(int(n), k, s) for n in ns]


class TestProblemContext:
    def test_from_scale_derivations(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        assert ctx.x == pytest.approx((800_000 / 5) ** 0.5)
        assert ctx.y == pytest.approx(ctx.x ** 0.8)
        assert ctx.N == 800_000
        assert ctx.window_width == pytest.approx(ctx.x * ctx.y)

    def test_from_parts_round_trip(self):
        ctx = ProblemContext.from_parts(3, 4, 50.0, 10.0)
        assert ctx.N == round(4 * 50.0 ** 3)
        assert ctx.theta == pytest.approx(math.log(10) / math.log(50))
        assert ctx.window_width == pytest.approx(50.0 ** 2 * 10.0)

    def test_scale_consistency(self):
        # s * x^k reconstructs N up to rounding
        ctx = ProblemContext.from_scale(2, 2, 0.6, 200)
        assert ctx.s * ctx.x ** ctx.k == pytest.approx(200, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ParameterDomain):
            ProblemContext.from_scale(1, 5, 0.8, 100)
        with pytest.raises(ParameterDomain):
            ProblemContext.from_scale(2, 1, 0.8, 100)
        with pytest.raises(ParameterDomain):
            ProblemContext.from_scale(2, 5, 1.5, 100)
        with pytest.raises(ParameterDomain):
            ProblemContext.from_scale(2, 5, 0.8, 0)
        with pytest.raises(ParameterDomain):
            ProblemContext.from_parts(2, 5, 10.0, 11.0)  # y > x
        # from_scale refuses N < 1 itself; the constructor checks it too
        with pytest.raises(ParameterDomain, match="need N >= 1") as err:
            ProblemContext(k=2, s=5, theta=0.8, N=0, x=10.0, y=4.0)
        assert err.value.code == "parameter-domain"


class TestPrimeWindow:
    def test_reference_window(self):
        win = prime_window(10.0, 4.0)
        assert win.primes == (7, 11, 13)
        assert win.weights == tuple(math.log(p) for p in (7, 11, 13))
        assert tuple(zip(win.primes, win.weights)) == ((7, math.log(7)), (11, math.log(11)), (13, math.log(13)))

    def test_half_open_boundaries(self):
        # (x - y, x + y]: left end excluded, right end included
        win = prime_window(10.0, 3.0)
        assert win.primes == (11, 13)
        win = prime_window(9.0, 2.0)
        assert win.primes == (11,)

    def test_one_weight_per_prime(self):
        with pytest.raises(ParameterDomain, match="equal length") as err:
            arith.PrimeWindow(10.0, 4.0, (7, 11, 13), (1.0, 2.0))
        assert err.value.code == "parameter-domain"

    def test_empty_window_allowed(self):
        win = prime_window(10.0, 0.5)
        assert win.primes == ()

    @staticmethod
    def _bound(lo, hi):
        """At most 8 of 30 consecutive integers are prime to 30; 2, 3, 5 add 3."""
        return 8 * -(-(hi - lo) // 30) + 3

    def test_prime_count_bound(self):
        for lo, hi in [(0, 1), (0, 30), (1, 100), (10 ** 6, 10 ** 6 + 3000), (7, 37)]:
            assert len(sieve_interval(lo, hi)) <= self._bound(lo, hi)

    def test_window_charge_covers_the_measured_peak(self):
        x = 1e6
        y = x ** 0.8
        tracemalloc.start()
        try:
            win = prime_window(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 81 * len(win.primes) * 1.05  # 81 bytes a prime, measured
        assert peak <= 81 * self._bound(math.floor(x - y), math.floor(x + y))

    def test_window_budget_refuses_before_sieving(self, monkeypatch):
        # 81 bytes per possible prime: (10^6 -+ 1500] holds 3000 integers
        budget = arith._WINDOW_BYTES
        monkeypatch.setattr(arith, "_WINDOW_BYTES", 81 * self._bound(0, 3000))
        assert len(prime_window(1e6, 1500.0).primes) > 0
        monkeypatch.setattr(arith, "sieve_interval", lambda *a: pytest.fail("sieved"))
        with pytest.raises(MemoryBudgetExceeded, match="3002 integers need"):
            prime_window(1e6, 1501.0)
        monkeypatch.setattr(arith, "_WINDOW_BYTES", budget)
        with pytest.raises(MemoryBudgetExceeded, match="over the 4 GiB prime window budget"):
            prime_window(1e11, 1e11 ** 0.8)  # `wglab rho --x 1e11`, 1.26e9 integers

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            prime_window(10.0, -1.0)
        with pytest.raises(ParameterDomain):
            prime_window(10.0, 20.0)

    @pytest.mark.parametrize(
        "x, y",
        [
            (10.0, 3.0), (12.0, 1.0), (13.0, 2.0), (100.0, 3.0),  # integer ends
            (6.5, 4.5), (11.5, 0.5), (8.000001, 0.999999),
            (5.0, 4.5), (3.0, 2.5), (1.5, 1.0), (2.0, 1.5),  # x - y < 1
            (1.0, 1.0), (2.0, 2.0), (17.0, 17.0), (30.5, 30.5),  # y = x
        ],
    )
    def test_edge_windows_match_a_primality_filter(self, x, y):
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        expect = tuple(n for n in range(1, math.floor(x + y) + 1) if x - y < n and is_prime(n))
        assert prime_window(x, y).primes == expect

    @given(
        st.floats(min_value=20.0, max_value=5000.0),
        st.floats(min_value=1.0, max_value=19.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_is_exact(self, x, y):
        win = prime_window(x, y)
        for p in win.primes:
            assert x - y < p <= x + y
        # no prime missing: check against a direct sieve of the hull
        hull = sieve_interval(math.floor(x - y) - 1, math.floor(x + y) + 1)
        expect = tuple(p for p in hull if x - y < p <= x + y)
        assert win.primes == expect
