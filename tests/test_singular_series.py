import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import wglab.singular_series as ss
from wglab.arith import ProblemContext, euler_phi, factorize
from wglab.experiment import _admissible_targets
from wglab.errors import (
    ImaginaryResidue, MemoryBudgetExceeded, NotCoprime, ParameterDomain, RangeTooLarge,
)
from wglab.singular_series import (
    a_coefficient_direct,
    gauss_sum,
    sigma_batch,
    truncated_sigma,
)

CTX = ProblemContext.from_scale(2, 5, 0.8, 800_000)


def _gauss_oracle(q, a, k):
    # direct double loop; deliberately reimplements nothing from the package
    total = 0.0 + 0.0j
    for b in range(1, q + 1):
        if math.gcd(b, q) == 1:
            total += cmath.exp(2j * cmath.pi * ((a * pow(b, k, q)) % q) / q)
    return total


class TestGaussSum:
    def test_trivial_modulus(self):
        assert gauss_sum(1, 1, 2).value == 1.0 + 0.0j

    def test_four_squares(self):
        val = gauss_sum(4, 1, 2).value
        assert val == pytest.approx(2j)

    def test_three_squares(self):
        val = gauss_sum(3, 1, 2).value
        assert val == pytest.approx(-1 + math.sqrt(3) * 1j)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            gauss_sum(4, 2, 2)
        with pytest.raises(NotCoprime):
            gauss_sum(9, 6, 3)

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            gauss_sum(0, 1, 2)
        with pytest.raises(ParameterDomain):
            gauss_sum(5, 1, 1)
        with pytest.raises(RangeTooLarge):
            gauss_sum(300_000, 1, 2)

    def test_against_direct_oracle(self):
        for q, a, k in [(7, 3, 2), (12, 5, 2), (27, 2, 3), (64, 63, 4), (97, 10, 5)]:
            got = gauss_sum(q, a, k).value
            assert got == pytest.approx(_gauss_oracle(q, a, k), abs=1e-10)

    def test_magnitude_cap(self):
        for q in (2, 9, 16, 45, 100):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert abs(gauss_sum(q, a, 2).value) <= euler_phi(q) + 1e-9

    def test_conjugate_pairing(self):
        # S(q, q - a) is the conjugate of S(q, a)
        for q, a in [(7, 2), (11, 3), (20, 9)]:
            s1 = gauss_sum(q, a, 2).value
            s2 = gauss_sum(q, q - a, 2).value
            assert s2 == pytest.approx(s1.conjugate(), abs=1e-12)


def _table_term(q, n):
    # A(q, n) at k=2, s=5 as the table route records it in the partials; a
    # q it leaves out must be one the oracle puts at or under the floor
    kept = dict(truncated_sigma(n, CTX, q).partials)
    if q in kept:
        return kept[q]
    assert abs(a_coefficient_direct(q, n, 2, 5)) <= 1e-12
    return 0.0


class TestACoefficient:
    def test_unit_modulus(self):
        assert _table_term(1, 10) == 1.0
        assert a_coefficient_direct(1, 10, 2, 5) == 1.0

    def test_modulus_two_parity(self):
        # A(2, n) = (-1)^(n + s) for k = 2
        assert _table_term(2, 5) == pytest.approx(1.0)
        assert _table_term(2, 4) == pytest.approx(-1.0)

    def test_table_matches_direct(self):
        for q in (2, 3, 4, 8, 9, 12, 25, 49, 60, 81):
            for n in (0, 5, 53, 54):
                assert _table_term(q, n) == pytest.approx(
                    a_coefficient_direct(q, n, 2, 5), abs=1e-9
                )

    def test_multiplicative(self):
        pairs = [(3, 4), (5, 8), (9, 25), (7, 12), (16, 27)]
        for q1, q2 in pairs:
            assert math.gcd(q1, q2) == 1
            for n in (53, 54, 100):
                lhs = a_coefficient_direct(q1 * q2, n, 2, 5)
                rhs = a_coefficient_direct(q1, n, 2, 5) * a_coefficient_direct(q2, n, 2, 5)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_local_factors_match_unit_tuple_counts(self):
        # sum over t <= j of A(p^t, n) equals p^j N_j(n) / phi(p^j)^s, with
        # N_j(n) the unit 5-tuples mod p^j whose squares sum to n, counted
        # directly.  A(p^t, n) vanishes past p^j (checked at t = j + 1), so
        # these are the whole local factors chi_p(n) of the k=2, s=5 series.
        k, s = 2, 5
        chi = {}
        for p, j in [(2, 3), (3, 1), (5, 1), (7, 1)]:
            q = p ** j
            powers = [pow(b, k, q) for b in range(q) if math.gcd(b, q) == 1]
            counts = [0] * q
            for tup in itertools.product(powers, repeat=s):
                counts[sum(tup) % q] += 1
            chi[p] = [Fraction(q * c, len(powers) ** s) for c in counts]
            for n in range(q):
                got = math.fsum(a_coefficient_direct(p ** t, n, k, s) for t in range(j + 1))
                assert got == pytest.approx(float(chi[p][n]), abs=1e-9)
                assert a_coefficient_direct(p ** (j + 1), n, k, s) == pytest.approx(0.0, abs=1e-9)
        # admissible residues n = 5 mod 24: chi_2 chi_3 = 24
        assert chi[2] == [0, 0, 0, 0, 0, 8, 0, 0]
        assert chi[3] == [0, 0, 3]
        assert chi[5] == [Fraction(5, 16), Fraction(25, 16), Fraction(25, 32),
                          Fraction(25, 32), Fraction(25, 16)]

    def test_direct_domain(self):
        cases = [
            (ParameterDomain, "parameter-domain", "q >= 1, n >= 0", (0, 10, 2, 5)),
            (ParameterDomain, "parameter-domain", "q >= 1, n >= 0", (3, -1, 2, 5)),
            (ParameterDomain, "parameter-domain", "k >= 2, s >= 2", (3, 10, 2, 1)),
            (ParameterDomain, "parameter-domain", "k >= 2, s >= 2", (3, 10, 1, 5)),
            (RangeTooLarge, "range-too-large", "exceeds modulus ceiling",
             (ss._Q_CEILING + 1, 10, 2, 5)),
        ]
        for error, code, message, args in cases:
            with pytest.raises(error, match=message) as err:
                a_coefficient_direct(*args)
            assert err.value.code == code

    def test_imaginary_residue_refused(self, monkeypatch):
        # a negative tolerance refuses even an exactly real value; the
        # (modulus, k, s) of the table is one no other test builds, since
        # _pp_table keeps what it built
        monkeypatch.setattr(ss, "_IMAG_TOL", -1.0)
        with pytest.raises(ImaginaryResidue, match="A\\(5, 3\\) has imaginary residue") as err:
            a_coefficient_direct(5, 3, 2, 5)
        assert err.value.code == "imaginary-residue"
        with pytest.raises(ImaginaryResidue, match="A-table at modulus 13") as err:
            ss._pp_table(13, 4, 9)
        assert err.value.code == "imaginary-residue"

    def test_size_bound(self):
        # |A(q, n)| <= phi(q)^(1-s) * max_a |S(q, a)|^s
        s = 5
        for q in (2, 3, 8, 15, 32, 77, 100):
            phi = euler_phi(q)
            smax = max(
                abs(gauss_sum(q, a, 2).value)
                for a in range(1, q + 1)
                if math.gcd(a, q) == 1
            )
            cap = phi ** (1 - s) * smax ** s + 1e-9
            for n in (1, 13, 54):
                assert abs(_table_term(q, n)) <= cap


class TestTruncatedSigma:
    def test_first_term_only(self):
        t = truncated_sigma(29, CTX, 1)
        assert t.value == 1.0
        assert t.partials == ((1, 1.0),)

    def test_admissible_target_frozen(self):
        # frozen from the direct double-loop oracle (oracle ran first):
        # sigma(53, q0=200) = 19.432947423177446
        t = truncated_sigma(53, CTX, 200)
        assert t.value == pytest.approx(19.432947423177446, rel=1e-12)

    def test_inadmissible_target_frozen(self):
        # frozen oracle value: sigma(54, q0=200) = -0.014168808571464936;
        # the series is heading to zero here but the q0=200 truncation
        # genuinely sits at -0.0142, not within 1e-6 of it
        t = truncated_sigma(54, CTX, 200)
        assert t.value == pytest.approx(-0.014168808571464936, abs=1e-12)

    def test_partials_resum_to_value(self):
        t = truncated_sigma(53, CTX, 200)
        acc = 0.0
        for _, a in t.partials:
            acc += a
        assert acc == t.value  # same floats in the same order
        assert t.trajectory()[-1][1] == t.value

    def test_partials_floor(self):
        t = truncated_sigma(53, CTX, 200)
        assert all(abs(a) > 1e-12 for _, a in t.partials)
        qs = [q for q, _ in t.partials]
        assert qs == sorted(qs)

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            truncated_sigma(-1, CTX, 10)
        with pytest.raises(ParameterDomain):
            truncated_sigma(5, CTX, 0)
        with pytest.raises(RangeTooLarge):
            truncated_sigma(5, CTX, 10 ** 9)
        with pytest.raises(RangeTooLarge):
            truncated_sigma(2 ** 63, CTX, 10)

    def test_table_budget(self, monkeypatch):
        # 25 bytes per residue of every prime-power table against 2 GiB:
        # 38 MiB at q0 = 5000 (ROADMAP item 2); 41592 fits, 41593 not
        for q_max in (1, 2, 10, 360):
            factored = {p ** e for q in range(2, q_max + 1) for p, e in factorize(q)}
            assert sorted(ss._prime_powers(q_max)) == sorted(factored)
        assert 25 * sum(ss._prime_powers(5000)) < 40 * 2 ** 20
        assert 25 * sum(ss._prime_powers(41592)) <= ss._SIGMA_BYTES
        assert 25 * sum(ss._prime_powers(41593)) > ss._SIGMA_BYTES
        monkeypatch.setattr(ss, "_pp_table", lambda *a: pytest.fail("built a table"))
        with pytest.raises(MemoryBudgetExceeded, match="up to 50000 need 2.8 GiB"):
            truncated_sigma(1000, CTX, 50000)


def _sigma_per_q(n_values, ctx, q_max, checkpoint=None):
    # one pass over all targets per q: the term is the product of the
    # prime-power table entries in factorize order, floored, then added
    values = np.ones(n_values.size)
    snapshot = values.copy() if checkpoint == 1 else None
    for q in range(2, q_max + 1):
        term = np.ones(n_values.size)
        for p, e in factorize(q):
            term *= ss._pp_table(p ** e, ctx.k, ctx.s)[n_values % p ** e]
        term[np.abs(term) <= ss._PARTIAL_FLOOR] = 0.0
        values = values + term
        if q == checkpoint:
            snapshot = values.copy()
    return values, snapshot


class TestSigmaBatch:
    def test_matches_scalar_bitwise(self):
        cases = [
            (CTX, [29, 53, 54, 77, 101]),
            # 27, 54, 81 and 1,512,009 are 0 mod 9, which the (3, 7) rule excludes
            (ProblemContext.from_parts(3, 7, 60.0, 20.0), [27, 53, 54, 81, 1_512_001, 1_512_009]),
        ]
        for ctx, targets in cases:
            vals = sigma_batch(np.array(targets), ctx, 200)
            for n, v in zip(targets, vals.tolist()):
                assert v == truncated_sigma(n, ctx, 200).value
                assert sigma_batch(np.array([n]), ctx, 200)[0] == v

    def test_no_targets(self):
        out = sigma_batch(np.zeros(0, dtype=np.int64), CTX, 200)
        assert out.dtype == np.float64 and out.shape == (0,)

    @pytest.mark.parametrize(
        "k,s,checkpoint", [(2, 5, None), (2, 5, 37), (2, 5, 16), (3, 7, 1), (3, 7, 60)]
    )
    def test_columns_match_the_per_q_oracle(self, k, s, checkpoint):
        # 20,011 consecutive targets, every residue; values byte for byte,
        # and the partial sums at q = checkpoint are sigma_batch with
        # q_max = checkpoint
        ctx = ProblemContext.from_parts(k, s, 60.0, 20.0)
        targets = np.arange(1_000_003, 1_000_003 + 20_011, dtype=np.int64)
        assert targets.size > 2 * 2 ** 13
        want_vals, want_snap = _sigma_per_q(targets, ctx, 120, checkpoint)
        assert sigma_batch(targets, ctx, 120).tobytes() == want_vals.tobytes()
        if checkpoint is None:
            return
        if checkpoint in (16, 60):
            # a checkpoint with no live term: the partial sum is the sum up
            # to the last live q below it, as the per-q loop leaves it
            assert checkpoint not in [q for q, _ in ss._live_q(120, k, s)]
        snap = sigma_batch(targets, ctx, checkpoint)
        assert snap.tobytes() == want_snap.tobytes()
        for n, v in zip(targets[::4001].tolist(), snap[::4001].tolist()):
            assert v == truncated_sigma(n, ctx, checkpoint).value

    def test_live_moduli_built_once(self):
        # memoised: a loop of truncated_sigma calls reuses one tuple, and
        # the values stay those of sigma_batch
        ss._live_q.cache_clear()
        live = ss._live_q(200, CTX.k, CTX.s)
        assert isinstance(live, tuple) and all(isinstance(pps, tuple) for _, pps in live)
        for n in (53, 54, 1_000_003):
            assert truncated_sigma(n, CTX, 200).value == sigma_batch(np.array([n]), CTX, 200)[0]
        assert ss._live_q(200, CTX.k, CTX.s) is live
        assert ss._live_q.cache_info().misses == 1
        with pytest.raises(ParameterDomain):
            ss._live_q(0, CTX.k, CTX.s)

    def test_tables_built_once_per_prime_power(self):
        # unbounded caches: sigma reads the tables that _live_q built, and
        # none is built again at any count of prime powers (a bounded cache
        # rebuilt every table past it)
        for cached in (ss._unit_mask, ss._gauss_row, ss._pp_table, ss._live_q):
            cached.cache_clear()
        targets = np.arange(1_000_003, 1_000_003 + 3 * 2 ** 13, dtype=np.int64)
        sigma_batch(targets, CTX, 300)
        count = len(ss._prime_powers(300))
        for table in (ss._unit_mask, ss._gauss_row, ss._pp_table):
            info = table.cache_info()
            assert info.maxsize is None and info.misses == info.currsize == count

    def test_checkpoint_domain(self):
        with pytest.raises(ParameterDomain):
            sigma_batch(np.array([-3]), CTX, 100)

    def test_full_step_24_progression(self):
        # the k=2 x=400 scan's targets: every n = 5 mod 24 in the window
        ns = _admissible_targets(CTX, 800_001, math.floor(800_000 + CTX.window_width))
        assert np.all(np.diff(ns) == 24)
        want, _ = _sigma_per_q(ns, CTX, 400)
        assert sigma_batch(ns, CTX, 400).tobytes() == want.tobytes()

    def test_progression_with_gaps(self):
        # the k=3 x=60 scan's targets: step 2, less every n = 0 mod 9, so
        # the progression has 9/8 of their count
        ctx = ProblemContext.from_scale(3, 7, 0.8, 7 * 60 ** 3)
        ns = _admissible_targets(ctx, ctx.N + 1, math.floor(ctx.N + ctx.window_width))
        assert set(np.diff(ns).tolist()) == {2, 4} and not np.any(ns % 9 == 0)
        want, _ = _sigma_per_q(ns, ctx, 400)
        assert sigma_batch(ns, ctx, 400).tobytes() == want.tobytes()

    def test_unsorted_targets_with_duplicates(self):
        # criterion 05's draw, reversed in part and repeated: each value
        # comes back at its own position
        rng = np.random.default_rng(2026)
        ns = (5 + 24 * rng.integers(0, 50_000, size=100)).astype(np.int64)
        ns = np.concatenate([ns, ns[::-3], ns[:5]])
        for q_max in (200, 400):
            want, _ = _sigma_per_q(ns, CTX, q_max)
            assert sigma_batch(ns, CTX, q_max).tobytes() == want.tobytes()

    @pytest.mark.parametrize("q_max", [1, 50, 400])
    def test_one_target(self, q_max):
        for n in (53, 54, 1_000_003, 2 ** 62 + 5):
            got = sigma_batch(np.array([n]), CTX, q_max)
            want, _ = _sigma_per_q(np.array([n]), CTX, q_max)
            assert got.tobytes() == want.tobytes()
            assert got[0] == truncated_sigma(n, CTX, q_max).value

    def test_progression_budget(self, monkeypatch):
        # 8 bytes per entry of the progression against 1 GiB: sparse
        # targets span 2^40 entries and are refused
        with pytest.raises(MemoryBudgetExceeded, match="progression of 1099511627776 entries"):
            sigma_batch(np.array([1, 2, 2 ** 40]), CTX, 400)
        # 2^20 entries, one byte over: refused before the accumulator or
        # the live moduli are built
        ns = np.array([2 ** 20, 1, 2], dtype=np.int64)
        monkeypatch.setattr(ss, "_PROGRESSION_BYTES", 8 * 2 ** 20 - 1)
        monkeypatch.setattr(ss, "_live_q", lambda *a: pytest.fail("built the live moduli"))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded):
                sigma_batch(ns, CTX, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16
        monkeypatch.undo()
        monkeypatch.setattr(ss, "_PROGRESSION_BYTES", 8 * 2 ** 20)
        want, _ = _sigma_per_q(ns, CTX, 50)
        assert sigma_batch(ns, CTX, 50).tobytes() == want.tobytes()

