"""Deciding the edge-removal bound for a single odd order.

For odd m >= 15 the bound is hat_l = l0 + eps with eps in {0, 2}; m is
called exceptional when eps = 2 and ordinary otherwise (for 3 <= m <= 13
every class is Ramanujan and hat_l = m - 2, outside the dichotomy).  An
exceptional m must lie in the candidate set and be of one of three
arithmetic kinds:

  I    m prime (every prime in the candidate set is exceptional),
  II   m = p*q with p < q <= 4p - 5, decided by comparing three
       closed-form candidate maxima against the Ramanujan bound,
  III  m in {25, 49}.

Any other composite member of the candidate set (cofactor at least
4p - 3 over its least prime p) is ordinary via an explicit witness whose
eigenvalue is exactly l0 + 2.  Orders outside the candidate set are
ordinary because the window excess is positive.

So a member of the candidate set needs no full factorisation: its least
prime p and whether the cofactor t = m/p is prime fix the kind (m = p is
kind I, t = p makes m a prime square, and any other prime t makes m a
distinct semiprime), and numtheory.least_prime_split factorises only
the composites without a prime factor below 2^14 (trial division takes
the primes below 1000, then those in (1000, 2^14)), proving each prime
once.  Nor does a quadratic member k^2 + 5k + c need a second square root
for l0: it lies in band k, so l0 = 2k + 1, read from its witness.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from . import precision
from .bounds import (
    CPRIMES,
    C_OFFSETS,
    K_MIN,
    NOT_IN_J,
    CandidateWitness,
    check_offset,
    in_candidate_set,
    trivial_bound,
    trivial_bound_unchecked,
    window_margin_unchecked,
)
from .errors import InternalInvariantError, ValidationError, check_budget, lazy_numpy
from .numtheory import (
    Factorization,
    is_prime,
    least_prime_factor,
    least_prime_split,
)
from .precision import AUTO_EXTENDED_THRESHOLD, decide, mp_cos2pi_frac, start_digits
from .spectra import CayleySet, check_modulus, ramanujan_bound, window_eigenvalue_unchecked

np = lazy_numpy()

## arithmetic kinds, as serialized
KIND_SMALL = "small"
KIND_I = "I"
KIND_II = "II"
KIND_III = "III"
KIND_OUTSIDE = "outside_J"
KIND_OTHER = "other_composite"

VERDICT_ORDINARY = "ordinary"
VERDICT_EXCEPTIONAL = "exceptional"
VERDICT_ALL_RAMANUJAN = "all_ramanujan"


class Verdict(NamedTuple):
    """Outcome of classifying one odd order.

    mu_hat is the decisive eigenvalue magnitude where the decision is
    numeric (candidate maximum for kinds I/II, window value outside the
    candidate set, the exact integer l0 + 2 for kind "other"); it stays
    None for kind III and for m <= 13.  epsilon is None for m <= 13.
    An immutable NamedTuple record: read it by attribute, not position.
    """

    m: int
    l0: int
    witness: CandidateWitness
    kind: str
    verdict: str
    epsilon: int | None
    hat_l: int
    p: int | None = None
    q: int | None = None
    mu_hat: float | None = None
    rb: float | None = None
    margin: float | None = None
    near_threshold: bool | None = None

    def to_json_dict(self) -> dict:
        w = self.witness
        return {
            "m": self.m,
            "l0": self.l0,
            "inJ": {"member": w.member, "source": w.source, "c": w.c, "k": w.k},
            "kind": self.kind,
            "p": self.p,
            "q": self.q,
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "hatl": self.hat_l,
            "mu_hat": self.mu_hat,
            "rb": self.rb,
            "margin": self.margin,
            "near_threshold": self.near_threshold,
        }


def semiprime_candidates(p: int, q: int, digits: int | None = None):
    """The three candidate class maxima for m = p*q, p < q <= 4p - 5.

    mu0 is the window value at covalency l0 + 2, l0 = trivial_bound(p*q);
    mu1 and mu2 come from complements packed into residue classes mod p
    and mod q.  mu2 has an integer branch test: the single-class shape
    applies while l0 + 2 <= 3p, the two-class shape beyond.  With digits
    set, all three are mpmath values at that precision.
    """
    if p % 2 == 0 or q % 2 == 0 or p < 3:
        raise ValidationError("factors must be odd and at least 3")
    if p == q:
        raise ValidationError("factors must be distinct")
    if q < p:
        raise ValidationError("factors must be ordered p < q")
    if q > 4 * p - 5:
        raise ValidationError(
            f"q={q} exceeds 4p-5={4 * p - 5}; the candidate maxima do not apply")
    check_modulus(p * q)
    return _semiprime_candidates(p, q, digits)


def _semiprime_candidates(p: int, q: int, digits: int | None = None):
    """semiprime_candidates for a (p, q) it would accept, unchecked: one
    body, with cos2pi(a, b) = cos(2*pi*a/b) in doubles or in mpmath."""
    m = p * q
    C = trivial_bound_unchecked(m) + 2

    def candidates(cos2pi):
        mu0 = -window_eigenvalue_unchecked(m, C, 1, digits)
        mu1 = q + (C - q) * cos2pi(1, p)
        if C <= 3 * p:
            mu2 = p + (C - p) * cos2pi(1, q)
        else:
            mu2 = p + 2 * p * cos2pi(1, q) + (C - 3 * p) * cos2pi(2, q)
        return mu0, mu1, mu2

    if digits is None:
        return candidates(lambda a, b: math.cos(a * math.tau / b))
    import mpmath as mp
    with mp.workdps(digits):
        return candidates(mp_cos2pi_frac)


def candidate_margins(p: int, q: int, digits: int | None = None):
    """mu_i - rb for the three semiprime_candidates of m = p*q, rb the bound
    2*sqrt(m - l0 - 3) at l0 + 2: doubles, or with digits set mpmath at that precision."""
    mus = semiprime_candidates(p, q, digits)
    m = p * q
    l0 = trivial_bound_unchecked(m)
    if digits is None:
        rb = ramanujan_bound(m, l0 + 2)
        return tuple(mu - rb for mu in mus)
    import mpmath as mp
    with mp.workdps(digits):
        rb = 2 * mp.sqrt(m - l0 - 3)
        return tuple(mu - rb for mu in mus)


def _near_threshold(p: int, q: int, c: int | None) -> bool | None:
    """Whether sqrt(q/p) falls between the analytic threshold pair for c."""
    if c is None:
        return None
    th = thresholds()
    x = math.sqrt(q / p)
    return th.xbar1[c] < x < th.xunder2[c]


def classify(m: int, factors=None) -> Verdict:
    """Classify one odd order and compute its edge-removal bound.

    factors optionally supplies the prime factorisation (a Factorization
    or an iterable of primes with multiplicity); it is required above
    2**64 where the built-in factoriser refuses.  Orders m <= 13 and
    orders outside the candidate set carry the shared witness NOT_IN_J.
    in_candidate_set checks m, once; every later step takes it unchecked.
    """
    w = in_candidate_set(m)
    ## a quadratic member k^2 + 5k + c sits in band k, so l0 = 2k + 1
    l0 = trivial_bound_unchecked(m) if w.k is None else 2 * w.k + 1
    if m <= 13:
        return Verdict(m, l0, NOT_IN_J, KIND_SMALL,
                       VERDICT_ALL_RAMANUJAN, None, m - 2)
    if not w.member:
        d = window_margin_unchecked(m, l0 + 2)
        if d.margin >= 0:
            raise InternalInvariantError(
                f"positive window excess expected outside the candidate set, m={m}")
        return Verdict(m, l0, w, KIND_OUTSIDE, VERDICT_ORDINARY, 0, l0,
                       mu_hat=d.mu_max, rb=d.rb, margin=d.margin)

    ## the least prime p and whether the cofactor t = m/p is prime
    if factors is None:
        if m >= 1 << 64:
            raise ValidationError(
                "orders at or above 2**64 need an explicit factorisation")
        p, t_prime = least_prime_split(m)
    else:
        fac = (factors if isinstance(factors, Factorization)
               else Factorization.from_primes(m, factors))
        if fac.n != m:
            raise ValidationError("supplied factorisation does not match m")
        p = fac.factors[0][0]
        t_prime = len(fac.prime_list()) == 2
    t = m // p

    if t == 1:
        d = window_margin_unchecked(m, l0 + 2)
        if d.margin < 0:
            raise InternalInvariantError(
                f"prime candidate {m} shows a positive window excess")
        return Verdict(m, l0, w, KIND_I, VERDICT_EXCEPTIONAL, 2, l0 + 2,
                       mu_hat=d.mu_max, rb=d.rb, margin=d.margin)

    if t == p:
        if m not in (25, 49):
            raise InternalInvariantError(
                f"unexpected prime square {m} inside the candidate set")
        return Verdict(m, l0, w, KIND_III, VERDICT_EXCEPTIONAL, 2, l0 + 2,
                       p=p, q=p)

    ## from here on, m = p*t is a distinct semiprime exactly when t is prime
    if t_prime and t <= 4 * p - 5:
        q = t
        d = decide(m, l0 + 2, lambda: max(_semiprime_candidates(p, q)),
                   lambda digits: max(_semiprime_candidates(p, q, digits)))
        return Verdict(
            m, l0, w, KIND_II,
            VERDICT_EXCEPTIONAL if d.is_ramanujan else VERDICT_ORDINARY,
            2 if d.is_ramanujan else 0,
            l0 + 2 if d.is_ramanujan else l0,
            p=p, q=q, mu_hat=d.mu_max, rb=d.rb, margin=d.margin,
            near_threshold=_near_threshold(p, q, w.c))

    ## remaining composites: cofactor t = m/p over the least prime p is
    ## at least 4p - 3, so the multiples-of-p witness pins hat_l = l0
    if t < 4 * p - 3 or l0 + 2 > t:
        raise InternalInvariantError(
            f"no qualifying witness decomposition for m={m}")
    if (l0 + 4) ** 2 <= 4 * m:
        raise InternalInvariantError(
            f"witness eigenvalue l0+2 failed to beat the bound at m={m}")
    rb = ramanujan_bound(m, l0 + 2)
    return Verdict(m, l0, w, KIND_OTHER, VERDICT_ORDINARY, 0, l0,
                   p, t if t_prime else None, float(l0 + 2), rb, rb - (l0 + 2))


class OrdinaryWitness(NamedTuple):
    """A complement packed into multiples of p with an exact eigenvalue.

    At index j = m/p every removed residue contributes 1, so the
    eigenvalue is exactly -(l0 + 2), and (l0 + 2)^2 > 4(m - l0 - 3) holds
    as an integer inequality, certifying the class non-Ramanujan.
    """

    cayley: CayleySet
    index: int
    value: int


def ordinary_witness(m: int, p: int | None = None) -> OrdinaryWitness:
    """Build the multiples-of-p witness for a qualifying composite m."""
    check_modulus(m)
    if m < 15:
        raise ValidationError("witness construction applies from m = 15 on")
    if p is None:
        p = least_prime_factor(m)
        if p == m:
            raise ValidationError(f"{m} is prime; no composite witness exists")
    if m % p or p == m or not is_prime(p):
        raise ValidationError(f"{p} is not a proper prime divisor of {m}")
    t = m // p
    if t < 4 * p - 3:
        raise ValidationError(
            f"cofactor {t} is below 4p-3={4 * p - 3}; no qualifying witness")
    l0 = trivial_bound(m)
    if l0 + 2 > t:
        raise InternalInvariantError(
            f"window l0+2={l0 + 2} does not fit the {t} multiples of {p}")
    if (l0 + 4) ** 2 <= 4 * m:
        raise InternalInvariantError(
            f"witness value l0+2 fails to beat the bound at m={m}")
    cayley = CayleySet.from_pairs(m, (j * p for j in range(1, (l0 + 1) // 2 + 1)))
    return OrdinaryWitness(cayley, t, l0 + 2)


## --------------------------------------------------------------- thresholds

def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Thresholds(NamedTuple):
    """Analytic constants controlling the ratio x = sqrt(q/p) in (1, 2).

    gamma1..gamma4 are the roots in (1, 2) of four fixed cubics/sextics
    reordering the candidate maxima; gamma5[c] is where mu1 crosses the
    Ramanujan bound for offset c.  xbar1[c] and xunder2[c] bracket the
    region where the exceptional/ordinary outcome genuinely depends on
    finer terms; x1/x2 are their extremes over c, xi1/xi2 the squares
    (bounds on the ratio q/p itself).
    """

    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    gamma5: dict[int, float]
    xbar1: dict[int, float]
    xunder2: dict[int, float]
    x1: float
    x2: float
    xi1: float
    xi2: float


@lru_cache(maxsize=1)
def thresholds() -> Thresholds:
    pi2 = math.pi * math.pi
    g1 = _bisect(lambda x: 2 * x ** 3 - 6 * x + 3, 1.0, 2.0)
    g2 = _bisect(lambda x: x ** 3 - 12 * x + 15, 1.0, 2.0)
    g3 = _bisect(lambda x: x ** 6 - 2 * x ** 5 + 8 * x - 10, 1.0, 2.0)
    g4 = _bisect(lambda x: 3 * x ** 3 - 6 * x * x + 2, 1.0, 2.0)
    g5 = {c: _bisect(lambda x, cp=CPRIMES[c]:
                     8 * pi2 * x ** 3 - 16 * pi2 * x * x + cp, 1.0, 2.0)
          for c in C_OFFSETS}
    xbar1 = {c: 2 - CPRIMES[c] / (8 * pi2) for c in C_OFFSETS}
    xunder2 = {c: 2 - CPRIMES[c] / (32 * pi2) for c in C_OFFSETS}
    x1 = min(xbar1.values())
    x2 = max(xunder2.values())
    return Thresholds(g1, g2, g3, g4, g5, xbar1, xunder2,
                      x1, x2, x1 * x1, x2 * x2)


## the ascending candidate order per regime of x = sqrt(q/p)
REGIME_ORDERS = {
    1: ("mu1", "mu2", "mu0", "rb"),
    2: ("mu1", "mu0", "mu2", "rb"),
    3: ("mu1", "mu2", "mu0", "rb"),
    4: ("mu2", "mu1", "mu0", "rb"),
    5: ("mu2", "mu0", "mu1", "rb"),
    6: ("mu2", "mu0", "rb", "mu1"),
}


class SpectralOrdering(NamedTuple):
    p: int
    q: int
    c: int
    x: float
    regime: int
    predicted: tuple[str, ...]
    computed: tuple[str, ...]
    matches: bool


def spectral_ordering(p: int, q: int, c: int | None = None) -> SpectralOrdering:
    """Predicted vs computed ordering of the candidate maxima for m = p*q.

    The offset c is taken from the quadratic membership witness of p*q
    when not supplied; orders without one are rejected since the regime
    boundaries depend on c.  The computed order ranks the candidate_margins
    and 0, the bound, in mpmath above AUTO_EXTENDED_THRESHOLD.
    """
    m = p * q
    if c is None:
        c = in_candidate_set(m).c
        if c is None:
            raise ValidationError(
                f"m={m} has no quadratic candidate witness; pass c explicitly")
    check_offset(c)
    x = math.sqrt(q / p)
    th = thresholds()
    cuts = (th.gamma1, th.gamma2, th.gamma3, th.gamma4, th.gamma5[c])
    regime = 1 + sum(x > b for b in cuts)
    digits = None if m <= AUTO_EXTENDED_THRESHOLD else start_digits(m)
    ranked = sorted(zip((*candidate_margins(p, q, digits), 0),
                        ("mu0", "mu1", "mu2", "rb")))
    computed = tuple(name for _, name in ranked)
    predicted = REGIME_ORDERS[regime]
    return SpectralOrdering(p, q, c, x, regime, predicted, computed,
                            predicted == computed)


## ----------------------------------------------------------------- profiles

class ProfilePoint(NamedTuple):
    """Asymptotic candidate maxima along the ratio x = sqrt(q/p)."""

    c: int
    k: int
    x: float
    mu0: float
    mu1: float
    mu2: float
    rb: float
    d0: float
    d1: float
    d2: float


def profile_point(c: int, k: int, x: float) -> ProfilePoint:
    """Evaluate the profile at ratio x in (1, 2), branch point excluded."""
    check_offset(c)
    if k < 1:
        raise ValidationError("band index k must be positive")
    if not 0 <= k * k + 3 * k + c - 4 < 1 << 1022:
        raise ValidationError(
            "k*k + 3k + c - 4 must lie in [0, 2**1022) to evaluate in doubles")
    if not 1.0 < x < 2.0:
        raise ValidationError("ratio x must lie strictly inside (1, 2)")
    if x == 1.5:
        raise ValidationError("x = 3/2 is the branch point of mu2; perturb x")
    rb = 2.0 * math.sqrt(k * k + 3 * k + c - 4)
    B = math.sqrt(k * k + 5 * k + c)
    C = 2 * k + 3
    mu0 = math.sin(math.pi * C / (B * B)) / math.sin(math.pi / (B * B))
    mu1 = B * x + (C - B * x) * math.cos(math.tau * x / B)
    y = B / x
    if x < 1.5:
        mu2 = y + (C - y) * math.cos(math.tau / (B * x))
    else:
        mu2 = (y + 2 * y * math.cos(math.tau / (B * x))
               + (C - 3 * y) * math.cos(2 * math.tau / (B * x)))
    return ProfilePoint(c, k, x, mu0, mu1, mu2, rb,
                        mu0 - rb, mu1 - rb, mu2 - rb)


## ------------------------------------------------------------------- census

## the batched scan covers odd 31 <= m < AUTO_EXTENDED_THRESHOLD (the
## orders below 31 are either tiny or in the small window) in chunks of
## this many orders, so its arrays stay a few MiB whatever the range
_SCAN_FROM = 31
_SCAN_CHUNK = 1 << 16


def _scan_chunk(lo: int, hi: int) -> list[Verdict]:
    """classify(m) for odd m in [lo, hi], 31 <= lo, hi < 2**40.

    Band j is the odd m in [j^2 + 3j + 3, j^2 + 5j + 5], all with
    l0 = 2j + 1; its members of J are j^2 + 5j + c, one for each of the
    six c with j >= K_MIN[c], and it has no others, since the small
    window ends below band 4, which starts at 31.  A walk over the bands
    gives the l0 column as runs and the members' positions.
    Every other order whose window margin (as window_eigenvalue and
    ramanujan_bound compute it; l < m, so l mod 2m is l) is at most
    -ESCALATION_MARGIN gets a record from the numpy columns, holding the
    shared witness NOT_IN_J.  The rest go through classify, in ascending
    order, which also raises on a non-negative margin outside J.
    """
    ms = range(lo, hi + 1, 2)
    l0s, ls, runs, members = [], [], [], []
    j, start = (trivial_bound_unchecked(lo) - 1) // 2, lo
    while start <= hi:
        base = j * j + 5 * j
        n = (min(hi, base + 5) - start) // 2 + 1
        l0s += [2 * j + 1] * n
        ls.append(2 * j + 3)
        runs.append(n)
        members += [(base + c - lo) // 2 for c in C_OFFSETS
                    if j >= K_MIN[c] and lo <= base + c <= hi]
        start, j = base + 7, j + 1
    m = np.arange(lo, hi + 1, 2, dtype=np.int64)
    l = np.repeat(ls, runs)
    mu = np.sin(math.pi * l / m) / np.sin(math.pi / m)
    rb = 2.0 * np.sqrt(m - l - 1)
    margin = rb - mu
    slow = margin > -precision.ESCALATION_MARGIN
    slow[members] = True
    ## every record is filled by tuple.__new__ from columns, in C, with
    ## no per-order Python frame; the slow orders' records are then
    ## replaced by classify's
    none = repeat(None)
    verdicts = list(map(tuple.__new__, repeat(Verdict), zip(
        ms, l0s, repeat(NOT_IN_J), repeat(KIND_OUTSIDE), repeat(VERDICT_ORDINARY),
        repeat(0), l0s, none, none, mu.tolist(), rb.tolist(), margin.tolist(),
        none)))
    for i in np.flatnonzero(slow).tolist():
        verdicts[i] = classify(ms[i])
    return verdicts


def scan_range(lo: int, hi: int) -> list[Verdict]:
    """Classify every odd order m >= 3 in [lo, hi]; raise if there is none.

    In [31, 2**40) it walks the bands j, whose orders share l0 = 2j + 1
    and hold J's members j^2 + 5j + c (from 31 on J has no others);
    orders outside J are decided in numpy batches, the rest by classify,
    with output identical to calling classify on each order.
    """
    lo = max(3, lo | 1)  # the first odd order >= max(lo, 3)
    if lo > hi:
        raise ValidationError("empty scan range")
    fast_lo = max(lo, _SCAN_FROM)
    fast_hi = min(hi, AUTO_EXTENDED_THRESHOLD - 1)
    verdicts = [classify(m) for m in range(lo, min(hi, fast_lo - 2) + 1, 2)]
    for start in range(fast_lo, fast_hi + 1, 2 * _SCAN_CHUNK):
        verdicts += _scan_chunk(start, min(fast_hi, start + 2 * _SCAN_CHUNK - 2))
    verdicts += [classify(m) for m in range(max(lo, fast_hi + 2), hi + 1, 2)]
    return verdicts


def exceptional_orders(x: int) -> list[int]:
    """All exceptional orders m <= x (the census behind the density counts).

    The first exceptional order is 15, so below it the list is empty.
    """
    if x < 15:
        return []
    return [v.m for v in scan_range(15, x)
            if v.verdict == VERDICT_EXCEPTIONAL]


def rho_e(x: int) -> int:
    """Number of exceptional orders up to x."""
    return len(exceptional_orders(x))


class ExceptionalBuckets(NamedTuple):
    """k values (4 <= k <= k_max) whose family value is exceptional."""

    c: int
    k_max: int
    type_i: tuple[int, ...]
    type_ii: tuple[int, ...]
    type_iii: tuple[int, ...]


def count_exceptionals(c: int, k_max: int) -> ExceptionalBuckets:
    """Classify k^2 + 5k + c for 4 <= k <= k_max and bucket by type."""
    check_offset(c)
    check_budget(k_max, "family values")
    buckets: dict[str, list[int]] = {KIND_I: [], KIND_II: [], KIND_III: []}
    for k in range(4, k_max + 1):
        v = classify(k * k + 5 * k + c)
        if v.verdict == VERDICT_EXCEPTIONAL:
            buckets[v.kind].append(k)
    return ExceptionalBuckets(c, k_max, tuple(buckets[KIND_I]),
                              tuple(buckets[KIND_II]), tuple(buckets[KIND_III]))
