"""Primality, factorisation, quadratic residues, the polynomial families
that generate semiprime candidates, and the counting functions behind the
census experiments.

Primality is trial division by the primes up to 37, then a
deterministic Miller-Rabin whose bases are sized to n: (2, 7, 61) below
4,759,123,141 and the first six primes below 3,474,749,660,383, the
least strong pseudoprimes to those sets (Jaeschke 1993), and Sinclair's
seven bases up to 2**64.  Factorisation, the least prime factor and
least_prime_split share one trial-division table, the primes below 1000,
and one gcd against their product skips it for an input none of them
divides; what is left is split with Brent's cycle-finding variant of
Pollard rho, proving each prime it meets once.  least_prime_split reads
the cofactor's primality from that one gcd wherever the cofactor holds a
table prime, and runs Miller-Rabin only on a cofactor free of them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .bounds import CPRIMES, check_offset
from .errors import (
    InternalInvariantError,
    ValidationError,
    check_budget,
    lazy_numpy,
)

np = lazy_numpy()

## is_prime trial-divides by these before its Miller-Rabin rounds
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
## Miller-Rabin bases by size of n: each set is deterministic below its
## bound, the least strong pseudoprime to all of its bases (Jaeschke
## 1993); Sinclair's bases, reduced mod n, are deterministic below 2**64
## (checked against Feitsma's list of base-2 strong pseudoprimes)
_MR_TIERS = ((4759123141, (2, 7, 61)),
             (3474749660383, (2, 3, 5, 7, 11, 13)),
             (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)))

## the trial-division table: every prime below 1000, and their product
_SMALL_PRIMES = (2,) + tuple(p for p in range(3, 1000, 2)
                             if all(p % d for d in range(3, isqrt(p) + 1, 2)))
_SMALL_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Trial division by the primes up to 37, then strong-probable-prime
    rounds to the bases (2, 7, 61) below 4,759,123,141, the first six
    primes below 3,474,749,660,383 (Jaeschke 1993), and Sinclair's seven
    bases above.
    """
    if not isinstance(n, int) or n < 0 or n >= 1 << 64:
        raise ValidationError("primality testing is limited to 64-bit inputs")
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    for a in bases:
        a %= n
        if a == 0:
            continue
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


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n (n odd, no small factors)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m_batch, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m_batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m_batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise InternalInvariantError(f"factor search failed for {n}")


def _large_primes(n: int) -> list[int]:
    """The prime factors of n > 1, with multiplicity and unsorted, for n
    free of primes below 1000: each part is proven prime, or split by
    Brent rho, exactly once."""
    out = []
    stack = [n]
    while stack:
        v = stack.pop()
        if is_prime(v):
            out.append(v)
        else:
            d = _brent_rho(v)
            stack += (d, v // d)
    return out


class _FactorizationFields(NamedTuple):
    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending


class Factorization(_FactorizationFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n, factors):
        prod = 1
        for p, e in factors:
            prod *= p ** e
        if prod != n:
            raise ValidationError("factor list does not multiply back to n")
        return super().__new__(cls, n, factors)

    @classmethod
    def from_primes(cls, n: int, primes) -> "Factorization":
        """Build from a multiset of prime factors, verifying primality."""
        counts: dict[int, int] = {}
        for p in primes:
            if not is_prime(p):
                raise ValidationError(f"{p} is not prime")
            counts[p] = counts.get(p, 0) + 1
        return cls(n, tuple(sorted(counts.items())))

    def prime_list(self) -> list[int]:
        return [p for p, e in self.factors for _ in range(e)]

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def distinct_semiprime(self) -> tuple[int, int] | None:
        if len(self.factors) == 2 and all(e == 1 for _, e in self.factors):
            return self.factors[0][0], self.factors[1][0]
        return None


def factorize(n: int) -> Factorization:
    """Full factorisation for 1 <= n < 2**64."""
    if not isinstance(n, int) or n < 1 or n >= 1 << 64:
        raise ValidationError("factorisation is limited to 64-bit inputs")
    factors: dict[int, int] = {}
    ## g holds the small primes that divide n and are not yet divided out
    rest, g = n, gcd(n, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while rest % p == 0:
                factors[p] = factors.get(p, 0) + 1
                rest //= p
    if rest > 1:
        for q in _large_primes(rest):
            factors[q] = factors.get(q, 0) + 1
    return Factorization(n, tuple(sorted(factors.items())))


def least_prime_factor(n: int) -> int:
    """The least prime factor of 2 <= n < 2**64.

    Only an n with no prime factor below 1000 is factorised; the others
    take one gcd and at most a scan of the table.
    """
    p = _least_small(n)[1]
    return p or min(_large_primes(n))


def least_prime_split(n: int) -> tuple[int, bool]:
    """The least prime factor p of 2 <= n < 2**64, and whether n/p is prime.

    For p below 1000 the one gcd g of n with the table product decides
    the cofactor t = n/p whenever t holds a table prime, that is when
    g != p or p divides t: then t is prime exactly when it is a table
    prime.  Only a t free of table primes takes a primality test.  For
    larger p, t's primality is read from the prime factors that proved n
    prime or split it, so no prime is proven twice.
    """
    g, p = _least_small(n)
    if not p:
        primes = _large_primes(n)
        return min(primes), len(primes) == 2
    t = n // p
    if g != p or t % p == 0:
        return p, t in _SMALL_SET
    return p, is_prime(t)


def _least_small(n: int) -> tuple[int, int]:
    """g = gcd(n, product of the table primes) and the least table prime
    dividing n, 0 when there is none, for 2 <= n < 2**64."""
    if not isinstance(n, int) or n < 2 or n >= 1 << 64:
        raise ValidationError("least prime factors are limited to 2 <= n < 2**64")
    g = gcd(n, _SMALL_PRODUCT)
    if g == 1:
        return g, 0
    if g in _SMALL_SET:
        return g, g
    for p in _SMALL_PRIMES:
        if g % p == 0:
            return g, p


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValidationError("Jacobi symbol needs an odd positive lower argument")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def avoids_candidate_set(p: int) -> bool:
    """Whether the prime p divides no member of the quadratic candidate set.

    True exactly when every discriminant 25 - 4c is a quadratic non-residue
    mod p, i.e. the six polynomials k^2 + 5k + c have no root mod p; then
    no multiple of p beyond the finite small window can be exceptional.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return all(jacobi(cp, p) == -1 for cp in CPRIMES.values())


@lru_cache(maxsize=8)
def _sieve_cached(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached; do not mutate).

    The sieve holds one byte per integer, so a limit above DEFAULT_BUDGET
    raises BudgetExceededError before anything is allocated.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    check_budget(limit, "sieve entries")
    return _sieve_cached(int(limit))


def isqrt_array(x: np.ndarray) -> np.ndarray:
    """Elementwise math.isqrt of an int64 array with 0 <= x < 2**52.

    A double holds every such x exactly and its square root is correctly
    rounded, so the truncated float root is off by at most one; one
    integer correction each way makes it exact.
    """
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


## ---------------------------------------------------------------- families

class FamilyPoint(NamedTuple):
    """One member of the two-parameter family of semiprime candidates.

    For every a >= 1, y and admissible c the three integer polynomials
    below satisfy p*q = k^2 + 5k + c identically, so whenever p and q are
    both prime the product lands in the candidate set with ratio
    sqrt(q/p) tending to 2 - 2/(2a+1) as y grows.
    """

    a: int
    y: int
    c: int
    p: int
    q: int
    k: int

    @property
    def m(self) -> int:
        return self.p * self.q

    @property
    def in_domain(self) -> bool:
        return self.p > 0 and self.q > 0

    @property
    def ratio_sqrt(self) -> float | None:
        if not self.in_domain:
            return None
        return math.sqrt(self.q / self.p)

    @property
    def ratio_limit(self) -> float:
        return 2.0 - 2.0 / (2 * self.a + 1)


def family_eval(a: int, y: int, c: int) -> FamilyPoint:
    """Evaluate the family polynomials at (a, y, c), exactly."""
    check_offset(c)
    if not isinstance(a, int) or a < 1:
        raise ValidationError("family parameter a must be a positive integer")
    b = 2 * a + 1
    p = a * a * b * b * y * y - a * b * (8 * a + 5) * y \
        + (4 * c - 9) * a * a + (4 * c - 5) * a + c
    q = 16 * a ** 4 * y * y - 8 * a * a * (8 * a + 1) * y \
        + 4 * (4 * c - 9) * a * a + 16 * a + 1
    k = 4 * a ** 3 * b * y * y - a * (32 * a * a + 20 * a + 1) * y \
        + 2 * (4 * c - 9) * a * a + (4 * c - 1) * a
    if p * q != k * k + 5 * k + c:
        raise InternalInvariantError(
            f"family identity failed at a={a}, y={y}, c={c}")
    return FamilyPoint(a, y, c, p, q, k)


def family_scan(a: int, c: int, y_max: int,
                require_prime: bool = True) -> list[FamilyPoint]:
    """Family points for 1 <= y <= y_max with positive p and q.

    With require_prime, keeps only points where both p and q are prime
    (so the product is a semiprime candidate of known factorisation).
    """
    if y_max < 1:
        raise ValidationError("y_max must be at least 1")
    check_budget(y_max, "family points")
    out = []
    for y in range(1, y_max + 1):
        pt = family_eval(a, y, c)
        if not pt.in_domain:
            continue
        if require_prime and not (is_prime(pt.p) and is_prime(pt.q)):
            continue
        out.append(pt)
    return out


## ---------------------------------------------------------------- counting

def poly_eval(coeffs, x: int) -> int:
    """Evaluate an integer polynomial (coefficients highest degree first)."""
    acc = 0
    for a in coeffs:
        acc = acc * x + a
    return acc


def root_count_mod_p(p: int, coeffs) -> int:
    """Number of roots of the polynomial mod p, by direct evaluation."""
    if not is_prime(p) or p >= 10 ** 6:
        raise ValidationError("root counting needs a prime p < 10**6")
    cs = [a % p for a in coeffs]
    return sum(1 for x in range(p) if poly_eval(cs, x) % p == 0)


class SeriesEstimate(NamedTuple):
    value: float
    oscillation: float
    prime_limit: int


def hardy_littlewood_constant(c: int, prime_limit: int = 10 ** 7) -> SeriesEstimate:
    """Truncated singular series prod_{3 <= p <= limit} (1 - (c'/p)/(p-1)).

    c' = 25 - 4c.  Because every c' here is 1 mod 4, (c'/p) equals the
    Jacobi symbol (p mod c' / c'), so the factor per prime is a table
    lookup.  The spread of the partial products over the last decade of
    the truncation range is reported as the oscillation estimate.
    """
    check_offset(c)
    if prime_limit < 100:
        raise ValidationError("prime_limit must be at least 100")
    cp = CPRIMES[c]
    odd_primes = sieve_primes(prime_limit)[1:]
    table = np.array([jacobi(r, cp) for r in range(cp)], dtype=np.int64)
    sym = table[odd_primes % cp]
    terms = 1.0 - sym / (odd_primes.astype(np.float64) - 1.0)
    partial = np.cumprod(terms)
    tail = partial[odd_primes > prime_limit // 10]
    osc = float(tail.max() - tail.min()) if tail.size else 0.0
    return SeriesEstimate(float(partial[-1]), osc, prime_limit)


def count_p2_ratio(a: float, x: int) -> int:
    """Count m <= x of the form m = p*q, p < q < a*p, p and q prime.

    The prime 2 participates.  Counting is done with one sieve to x/2 and
    binary searches, so x up to 10**8 stays comfortable.
    """
    if not a > 1:
        raise ValidationError(f"ratio bound a must exceed 1, got {a}")
    if x < 6:
        return 0
    primes = sieve_primes(x // 2)
    total = 0
    for p in primes[primes <= isqrt(x)]:
        p = int(p)
        ## q < a*p strictly; the epsilon guards against float round-up, and
        ## a*p past x (an infinite a too) leaves only q <= x // p
        hi = x // p if a * p > x else min(math.ceil(a * p - 1e-9) - 1, x // p)
        if hi <= p:
            continue
        lo_idx = np.searchsorted(primes, p, side="right")
        hi_idx = np.searchsorted(primes, hi, side="right")
        total += int(hi_idx - lo_idx)
    return total


def is_distinct_semiprime(n: int) -> bool:
    """Whether n = p*q with p < q prime: the cofactor over the least prime
    p is a prime other than p."""
    if n < 6:
        return False
    p, t_prime = least_prime_split(n)
    return t_prime and n != p * p


def count_poly(coeffs, x: int, mode: str = "prime") -> int:
    """Count 1 <= k <= x with f(k) prime, or a distinct-prime semiprime."""
    if mode not in ("prime", "semiprime_distinct"):
        raise ValidationError("mode must be 'prime' or 'semiprime_distinct'")
    check_budget(x, "polynomial values")
    total = 0
    for k in range(1, x + 1):
        n = poly_eval(coeffs, k)
        if n < 0:
            raise ValidationError(f"polynomial is negative at k={k}")
        if mode == "prime":
            total += n >= 2 and is_prime(n)
        else:
            total += is_distinct_semiprime(n)
    return total


def landau_normalizer(x: float) -> float:
    """x * log(log x) / log x, the classical two-prime normalizer."""
    if x <= math.e:
        raise ValidationError("normalizer needs x > e")
    return x * math.log(math.log(x)) / math.log(x)
