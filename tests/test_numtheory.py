"""Primality, factorisation, symbols, families, and the counting layer."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramcirc.errors import DEFAULT_BUDGET, BudgetExceededError, ValidationError
from ramcirc.numtheory import (
    Factorization,
    avoids_candidate_set,
    count_p2_ratio,
    count_poly,
    factorize,
    family_eval,
    family_scan,
    hardy_littlewood_constant,
    is_distinct_semiprime,
    isqrt_array,
    is_prime,
    jacobi,
    landau_normalizer,
    least_prime_factor,
    least_prime_split,
    poly_eval,
    root_count_mod_p,
    sieve_primes,
)
from ramcirc import golden
from ramcirc.classify import count_exceptionals


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def twelve_base_prime(n: int) -> bool:
    """Reference primality for 0 <= n < 2**64: Miller-Rabin over the first
    twelve primes, which is deterministic below 3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


## Sinclair's seven bases, as numtheory uses them
SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def legendre_euler(a: int, p: int) -> int:
    e = pow(a % p, (p - 1) // 2, p)
    return 0 if e == 0 else (1 if e == 1 else -1)


class TestPrimality:
    def test_small_range_matches_trial_division(self):
        for n in range(50000):
            assert is_prime(n) == trial_division_prime(n)
        primes = set(sieve_primes(10 ** 6).tolist())
        for n in range(10 ** 6):
            assert is_prime(n) == (n in primes), n

    def test_strong_pseudoprimes_rejected(self):
        ## composite survivors of small witness sets: the least strong
        ## pseudoprime to all of the first k prime bases, for k = 1 to 11
        ## (k = 7, 8 share one, and k = 9 to 11 another), and the least
        ## to the bases 2, 7 and 61, 4759123141 = 48781 * 97561
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  4759123141):
            assert not twelve_base_prime(n)
            assert not is_prime(n)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_matches_twelve_bases(self, n):
        assert is_prime(n) == twelve_base_prime(n)

    def test_divisors_of_the_bases(self):
        ## a base that n divides reduces to 0 and is skipped, as for
        ## 14089 = 73 * 193, which divides 28178
        assert 28178 % 14089 == 0 and not is_prime(14089)
        divisors = {d for a in SINCLAIR_BASES
                    for e in range(1, math.isqrt(a) + 1) if a % e == 0
                    for d in (e, a // e)}
        assert 14089 in divisors
        for n in divisors:
            assert is_prime(n) == twelve_base_prime(n), n

    def test_base_set_edges(self):
        ## is_prime switches base sets at these two bounds, each the least
        ## strong pseudoprime to the smaller set
        assert 48781 * 97561 == 4759123141
        for edge in (4759123141, 3474749660383):
            for n in range(edge - 10 ** 4, edge + 10 ** 4 + 1, 2):
                assert is_prime(n) == twelve_base_prime(n), n

    def test_largest_odd_below_2_64(self):
        for n in range(2 ** 64 - 1, 2 ** 64 - 4001, -2):
            assert is_prime(n) == twelve_base_prime(n), n

    def test_large_primes_accepted(self):
        assert is_prime(2 ** 61 - 1)
        assert is_prime(18446744073709551557)  # largest prime below 2**64

    @given(st.integers(min_value=2, max_value=10 ** 12))
    def test_factorize_roundtrip(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n

    def test_factorization_views(self):
        fac = factorize(360)
        assert fac.factors == ((2, 3), (3, 2), (5, 1))
        assert fac.prime_list() == [2, 2, 2, 3, 3, 5]
        assert not fac.is_prime
        assert fac.distinct_semiprime is None
        assert factorize(15).distinct_semiprime == (3, 5)
        assert factorize(25).distinct_semiprime is None
        assert factorize(2 ** 61 - 1).is_prime

    def test_from_primes_validates(self):
        assert Factorization.from_primes(45, [3, 3, 5]).factors == ((3, 2), (5, 1))
        with pytest.raises(ValidationError):
            Factorization.from_primes(45, [3, 15])

    def test_every_constructor_checks_the_product(self):
        fac = Factorization(12, ((2, 2), (3, 1)))
        for build in (lambda: Factorization(12, ((2, 1),)),
                      lambda: fac._replace(n=13),
                      lambda: fac._replace(factors=((2, 1),)),
                      lambda: Factorization._make((12, ((2, 1),)))):
            with pytest.raises(ValidationError):
                build()
        assert fac._replace(n=18, factors=((2, 1), (3, 2))) == Factorization(18, ((2, 1), (3, 2)))


def korselt(n: int) -> bool:
    """Korselt's criterion: n is a Carmichael number."""
    fac = factorize(n)
    return (len(fac.factors) >= 2 and all(e == 1 for _, e in fac.factors)
            and all((n - 1) % (p - 1) == 0 for p, _ in fac.factors))


class TestLeastPrimeFactor:
    @given(st.integers(min_value=2, max_value=2 ** 64 - 1))
    def test_matches_factorize(self, n):
        p = least_prime_factor(n)
        assert p == factorize(n).factors[0][0]
        assert least_prime_split(n) == (p, is_prime(n // p))

    def test_every_n_below_10_5(self):
        ## is_distinct_semiprime and count_poly's semiprime mode read the
        ## least prime factor and one primality test instead of factorize
        for n in range(2, 10 ** 5):
            fac = factorize(n)
            p = fac.factors[0][0]
            assert least_prime_factor(n) == p, n
            assert least_prime_split(n) == (p, is_prime(n // p)), n
            assert is_distinct_semiprime(n) == (fac.distinct_semiprime is not None), n

    def test_no_prime_factor_below_1000(self):
        cases = {
            ## prime squares; 1009^2 is the smallest composite of this kind
            1009 ** 2: 1009,
            (2 ** 31 - 1) ** 2: 2 ** 31 - 1,
            ## products of three primes
            1009 * 1013 * 1019: 1009,
            2097169 * 2097211 * 2097223: 2097169,
            ## the smallest product of two distinct primes above 1000
            1009 * 1013: 1009,
            ## the largest prime below 2**64
            18446744073709551557: 18446744073709551557,
        }
        for n, p in cases.items():
            assert n < 2 ** 64
            assert least_prime_factor(n) == p == factorize(n).factors[0][0], n
        assert is_distinct_semiprime(1009 * 1013)
        assert not is_distinct_semiprime(1009 ** 2)
        assert not is_distinct_semiprime(18446744073709551557)

    def test_carmichael_numbers(self):
        ## composites that pass the Fermat test to every coprime base; the
        ## last two (1171 * 2341 * 3511 and 1439047 * 2878093 * 4317139)
        ## have no prime factor below 1000
        cases = {561: 3, 1105: 5, 1729: 7, 41041: 7, 825265: 5,
                 3215031751: 151, 9624742921: 1171,
                 17880342505193141569: 1439047}
        for n, p in cases.items():
            assert korselt(n) and not is_prime(n)
            assert least_prime_factor(n) == p == factorize(n).factors[0][0], n
            assert least_prime_split(n) == (p, is_prime(n // p)), n
            assert not is_distinct_semiprime(n)

    def test_rejects_out_of_range(self):
        for n in (-7, 0, 1, 2 ** 64, 2.0):
            with pytest.raises(ValidationError):
                least_prime_factor(n)
            with pytest.raises(ValidationError):
                least_prime_split(n)


class TestJacobi:
    def test_against_euler_criterion(self):
        for p in [int(q) for q in sieve_primes(311)[1:]]:
            for a in range(p):
                assert jacobi(a, p) == legendre_euler(a, p)

    @given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 6).map(lambda n: 2 * n + 1))
    def test_multiplicative_in_numerator(self, a, b, n):
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(st.integers(min_value=1, max_value=10 ** 6).map(lambda n: 2 * n + 1),
           st.integers(min_value=1, max_value=10 ** 6).map(lambda n: 2 * n + 1))
    def test_quadratic_reciprocity(self, a, b):
        if math.gcd(a, b) != 1:
            return
        sign = -1 if (a % 4 == 3 and b % 4 == 3) else 1
        assert jacobi(a, b) * jacobi(b, a) == sign

    def test_rejects_even_modulus(self):
        with pytest.raises(ValidationError):
            jacobi(3, 10)


class TestResidueTest:
    def test_first_five_avoiding_primes(self):
        found = []
        p = 2
        while len(found) < 5:
            p += 1
            if is_prime(p) and avoids_candidate_set(p):
                found.append(p)
        assert tuple(found) == golden.AVOIDS_FIRST5 == (97, 577, 827, 853, 947)

    def test_definition_unfolds(self):
        for p in (97, 577):
            assert all(jacobi(cp, p) == -1 for cp in (45, 37, 29, 21, 13, 5))

    def test_avoiding_prime_divides_no_member(self):
        ## corroboration on actual candidate values
        from ramcirc.bounds import in_candidate_set
        for m in range(31, 200000, 2):
            if in_candidate_set(m).member:
                for p in golden.AVOIDS_FIRST5:
                    assert m % p != 0

    def test_rejects_composite(self):
        with pytest.raises(ValidationError):
            avoids_candidate_set(91)


class TestSieve:
    def test_prime_counts(self):
        assert len(sieve_primes(10)) == 4
        assert len(sieve_primes(10 ** 6)) == 78498

    def test_agrees_with_trial_division(self):
        assert [int(p) for p in sieve_primes(50)] == [
            n for n in range(51) if trial_division_prime(n)]

    def test_limit_over_budget_raises_before_allocating(self):
        with pytest.raises(BudgetExceededError) as info:
            sieve_primes(DEFAULT_BUDGET + 1)
        assert (info.value.required, info.value.budget) == (
            DEFAULT_BUDGET + 1, DEFAULT_BUDGET)


class TestIsqrtArray:
    def test_around_squares_near_2_pow_21(self):
        ## 4m + c' stays below 2^42 for m < 2^40, so its root is near 2^21
        s = np.arange((1 << 21) - 64, (1 << 21) + 64, dtype=np.int64)
        for d in (-1, 0, 1):
            x = s * s + d
            assert isqrt_array(x).tolist() == [math.isqrt(v) for v in x.tolist()]

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 52) - 1),
                    min_size=1, max_size=50))
    def test_matches_math_isqrt(self, xs):
        got = isqrt_array(np.array(xs, dtype=np.int64))
        assert got.tolist() == [math.isqrt(v) for v in xs]


class TestFamily:
    @given(st.integers(min_value=1, max_value=100),
           st.integers(min_value=-10 ** 4, max_value=10 ** 4),
           st.sampled_from((-5, -3, -1, 1, 3, 5)))
    def test_product_identity(self, a, y, c):
        pt = family_eval(a, y, c)
        assert pt.p * pt.q == pt.k * pt.k + 5 * pt.k + c

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=200),
           st.sampled_from((-5, -3, -1, 1, 3, 5)))
    def test_products_join_candidate_set(self, a, y, c):
        from ramcirc.bounds import in_candidate_set
        pt = family_eval(a, y, c)
        if pt.p > 1 and pt.q > 1 and pt.k >= (19 if c == -5 else 4):
            assert in_candidate_set(pt.m).member

    def test_reference_points(self):
        pt = family_eval(1, 7, -5)
        assert (pt.p, pt.q) == (109, 181)
        pt6 = family_eval(64, 39, 5)
        assert (pt6.p, pt6.q) == (103507276549, 407634920449)
        assert pt6.ratio_limit == pytest.approx(2 - 2 / 129)

    def test_scan_prime_filter_reproduces_row_set(self):
        ys = [pt.y for pt in family_scan(1, -5, 110)]
        assert ys == [7, 17, 25, 35, 40, 62, 82, 104]
        assert len(family_scan(1, -5, 110, require_prime=False)) == 105

    def test_rejects_bad_offset(self):
        with pytest.raises(ValidationError):
            family_eval(1, 7, -7)
        with pytest.raises(ValidationError):
            family_eval(0, 7, -5)


class TestCounting:
    def test_poly_eval_horner(self):
        assert poly_eval((1, 5, 5), 4) == 41
        assert poly_eval((2, 0, -1), 3) == 17

    def test_root_counts(self):
        assert root_count_mod_p(5, (1, 0, 1)) == 2
        assert root_count_mod_p(7, (1, 0, 1)) == 0
        assert root_count_mod_p(2, (1, 5, 5)) == 0
        ## 1 + (cp/p) for odd p not dividing the discriminant
        for p in (3, 7, 11, 13):
            for c, cp in ((-5, 45), (-3, 37), (5, 5)):
                if cp % p:
                    assert root_count_mod_p(p, (1, 5, c)) == 1 + jacobi(cp, p)

    def test_count_poly_reference_values(self):
        assert count_poly((1, 0, 1), 10, "prime") == 5
        assert count_poly((1, 0, 1), 10, "semiprime_distinct") == 4
        assert count_poly((1, 5, 5), 4, "prime") == 4
        with pytest.raises(ValidationError):
            count_poly((1, 0, 1), 10, "semiprime")

    def test_distinct_semiprime_predicate(self):
        assert is_distinct_semiprime(15)
        assert not is_distinct_semiprime(9)
        assert not is_distinct_semiprime(30)
        assert not is_distinct_semiprime(13)

    def test_p2_reference_values(self):
        assert count_p2_ratio(4, 100) == 13
        assert count_p2_ratio(2, 30) == 2

    def test_p2_matches_double_loop(self):
        def brute(a, x):
            ps = [int(p) for p in sieve_primes(x // 2)]
            return sum(1 for i, p in enumerate(ps) for q in ps[i + 1:]
                       if q < a * p and p * q <= x)
        assert count_p2_ratio(3, 5000) == brute(3, 5000) == 157
        assert count_p2_ratio(4, 100) == brute(4, 100)
        assert count_p2_ratio(1.5, 3000) == brute(1.5, 3000)

    def test_p2_non_finite_ratios(self):
        ## a ratio bound past x leaves only p*q <= x; nan is not above 1
        assert count_p2_ratio(math.inf, 1000) == count_p2_ratio(1e308, 1000) \
            == count_p2_ratio(1000, 1000) == 288
        for a in (math.nan, -math.inf, 1):
            with pytest.raises(ValidationError):
                count_p2_ratio(a, 1000)

    def test_p2_normalized_count_stays_bounded(self):
        ## the ratio-constrained semiprime count grows like x/(log x)^2
        vals = []
        for x in (10 ** 6, 10 ** 7, 10 ** 8):
            n = count_p2_ratio(4, x)
            vals.append(n * math.log(x) ** 2 / x)
        assert all(2.0 < v < 4.0 for v in vals)
        assert max(vals) - min(vals) < 0.2

    def test_exceptional_buckets(self):
        b = count_exceptionals(-5, 50)
        assert b.type_i == (21, 24, 27, 28, 33, 34, 36, 37, 46, 48)
        assert b.type_ii == (22, 39, 43)
        assert b.type_iii == ()
        b1 = count_exceptionals(-1, 10)
        assert (b1.type_i, b1.type_ii, b1.type_iii) == ((7, 8, 10), (4, 6), (5,))

    def test_landau_normalizer(self):
        x = 10 ** 6
        assert landau_normalizer(x) == pytest.approx(
            x * math.log(math.log(x)) / math.log(x))
        with pytest.raises(ValidationError):
            landau_normalizer(2.0)


class TestSingularSeries:
    def test_matches_independent_euler_product(self):
        ## same product, no shared code: Euler-criterion symbols, plain loop
        limit = 10 ** 5
        ps = [int(p) for p in sieve_primes(limit)[1:]]
        for c, cp in ((-5, 45), (-3, 37), (-1, 29), (1, 21), (3, 13), (5, 5)):
            prod = 1.0
            for p in ps:
                prod *= 1.0 - legendre_euler(cp, p) / (p - 1)
            est = hardy_littlewood_constant(c, limit)
            assert est.value == pytest.approx(prod, rel=1e-9)

    def test_pinned_constants(self):
        for c in (-5, -3, 5):
            est = hardy_littlewood_constant(c, 10 ** 6)
            assert abs(est.value - golden.HL_CONSTANTS[c]) < golden.HL_TOLERANCE
            assert est.oscillation < 0.01

    def test_minus3_differs_from_minus5(self):
        ## distinct discriminants (37 vs 45) force distinct products; the
        ## p = 3 factor alone is 1/2 vs 1
        a = hardy_littlewood_constant(-3, 10 ** 5).value
        b = hardy_littlewood_constant(-5, 10 ** 5).value
        assert abs(a - b) > 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            hardy_littlewood_constant(-7, 10 ** 5)
        with pytest.raises(ValidationError):
            hardy_littlewood_constant(-5, 50)
