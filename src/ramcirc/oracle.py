"""Exhaustive verification of edge-removal bounds by direct enumeration.

A complement class is the set of all negation-closed complements of odd
size l containing 0.  Enumeration runs over index combinations of the
(m - 1)/2 negation pairs, with eigenvalues evaluated in vectorised
chunks against a shared cosine pair table.  Raw class sizes grow as
C((m-1)/2, (l-1)/2), so every scan is gated by an explicit budget.

Everything here is deliberately independent of the closed-form route:
no window formulas, no candidate-set reasoning, just brute force.  The
one shortcut is provable on its own: covalencies l <= l0 satisfy
(l + 2)^2 <= 4m, hence mu <= l <= 2*sqrt(m - l - 1), so those classes
are Ramanujan without scanning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .bounds import trivial_bound
from .errors import (  # DEFAULT_BUDGET stays importable from here
    DEFAULT_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    ValidationError,
)
from .numtheory import factorize
from .precision import DEFAULT_POLICY, NumericPolicy
from .spectra import (
    CayleySet,
    check_modulus,
    is_ramanujan,
    ramanujan_bound,
    window_complement,
)

## chunk size for the vectorised scans, in doubles of the largest
## intermediate (the rows x pairs x spectrum gather)
_CHUNK_FLOATS = 8_000_000

## |mu| within this of the bound gets re-decided at extended precision
_BORDER_TOL = 1e-9


def _check_class(m: int, l: int) -> None:
    check_modulus(m)
    if l % 2 == 0 or not 1 <= l <= m - 2:
        raise ValidationError(f"covalency must be odd in [1, m-2], got l={l}")


def class_size(m: int, l: int) -> int:
    """Raw number of negation-closed size-l complements containing 0.

    This is the combinatorial count C((m-1)/2, (l-1)/2); complements
    whose kept set fails to generate are included here (the budget is
    charged for them) but skipped during enumeration.
    """
    _check_class(m, l)
    return comb((m - 1) // 2, (l - 1) // 2)


def _generation_filter_active(m: int, l: int) -> bool:
    ## the kept set can only fall inside a proper subgroup when its
    ## m - l elements fit among the m/spf - 1 nonzero ones available
    spf = factorize(m).factors[0][0]
    return m - l <= m // spf - 1


def _budget_check(m: int, l: int, budget: int) -> int:
    size = class_size(m, l)
    if size > budget:
        raise BudgetExceededError(size, budget)
    return size


def enumerate_class(m: int, l: int, budget: int = DEFAULT_BUDGET):
    """Yield every valid complement in the class, smallest pairs first."""
    _budget_check(m, l, budget)
    h = (m - 1) // 2
    r = (l - 1) // 2
    filtering = _generation_filter_active(m, l)
    for combo in itertools.combinations(range(1, h + 1), r):
        if filtering:
            chosen = set(combo)
            g = 0
            for a in range(1, h + 1):
                if a not in chosen:
                    g = gcd(g, a)
                    if g == 1:
                        break
            if gcd(g, m) != 1:
                continue
        yield CayleySet.from_pairs(m, combo)


def _pair_cos_table(m: int) -> np.ndarray:
    """P[i, j] = 2*cos(2*pi*(i+1)*(j+1)/m), both axes over pair reps."""
    h = (m - 1) // 2
    a = np.arange(1, h + 1, dtype=np.int64)
    return 2.0 * np.cos((2.0 * math.pi / m) * (np.outer(a, a) % m))


def _iter_chunks(m: int, l: int, budget: int):
    """Yield (index_rows, absmax) over the class in vectorised chunks.

    index_rows holds 0-based pair indices (residue = index + 1); absmax
    is the per-row maximum of |mu_j| over the nontrivial characters.
    """
    _budget_check(m, l, budget)
    h = (m - 1) // 2
    r = (l - 1) // 2
    P = _pair_cos_table(m)
    filtering = _generation_filter_active(m, l)
    rows = max(1, _CHUNK_FLOATS // max(1, h * max(1, r)))
    combos = itertools.combinations(range(h), r)
    while True:
        chunk = list(itertools.islice(combos, rows))
        if not chunk:
            return
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), r)
        if filtering:
            keep = np.ones(len(idx), dtype=bool)
            for i, row in enumerate(idx):
                chosen = set(int(a) + 1 for a in row)
                g = 0
                for a in range(1, h + 1):
                    if a not in chosen:
                        g = gcd(g, a)
                        if g == 1:
                            break
                keep[i] = gcd(g, m) == 1
            idx = idx[keep]
            if idx.shape[0] == 0:
                continue
        mu = -(1.0 + P[idx].sum(axis=1))
        yield idx, np.abs(mu).max(axis=1)


@dataclass(frozen=True)
class ClassMax:
    """Largest |mu_j| over a whole complement class, with its witness."""

    m: int
    l: int
    mu: float
    rb: float
    witness: CayleySet


def class_max(m: int, l: int, budget: int = DEFAULT_BUDGET) -> ClassMax:
    """Scan the entire class and report the extremal complement."""
    best = -math.inf
    best_row = None
    for idx, absmax in _iter_chunks(m, l, budget):
        i = int(np.argmax(absmax))
        if absmax[i] > best:
            best = float(absmax[i])
            best_row = idx[i]
    if best_row is None:
        raise InternalInvariantError(f"class m={m}, l={l} has no valid sets")
    witness = CayleySet.from_pairs(m, (int(a) + 1 for a in best_row))
    return ClassMax(m, l, best, ramanujan_bound(m, l), witness)


def _suspects(m: int, l: int) -> list[CayleySet]:
    """Likely extremal complements, examined before the full scan.

    The contiguous window set, and for composite m the sets packed into
    multiples of each prime divisor; the latter hit eigenvalue -l
    exactly at index m/p whenever they fit below m/2.
    """
    out = [window_complement(m, l)]
    r = (l - 1) // 2
    fac = factorize(m)
    if not fac.is_prime:
        for p, _ in fac.factors:
            if r * p <= (m - 1) // 2:
                out.append(CayleySet.from_pairs(m, (j * p for j in range(1, r + 1))))
    seen: set[frozenset] = set()
    uniq = []
    for s in out:
        if s.complement not in seen:
            seen.add(s.complement)
            uniq.append(s)
    return uniq


def class_all_ramanujan(m: int, l: int, budget: int = DEFAULT_BUDGET,
                        policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Whether every complement in the class keeps the Ramanujan bound.

    Suspected extremal sets are decided first, so violating classes
    answer quickly; the full scan then covers everything.  Rows within
    1e-9 of the bound are re-decided at extended precision.  An empty
    class (everything filtered as non-generating) counts as True.
    """
    _check_class(m, l)
    for s in _suspects(m, l):
        if not is_ramanujan(s, policy=policy).is_ramanujan:
            return False
    rb = ramanujan_bound(m, l)
    for idx, absmax in _iter_chunks(m, l, budget):
        if np.any(absmax > rb + _BORDER_TOL):
            return False
        for i in np.nonzero(absmax > rb - _BORDER_TOL)[0]:
            s = CayleySet.from_pairs(m, (int(a) + 1 for a in idx[i]))
            if not is_ramanujan(s, policy=policy).is_ramanujan:
                return False
    return True


def hat_l_exhaustive(m: int, budget: int = DEFAULT_BUDGET,
                     policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Edge-removal bound by direct search, independent of the theory.

    For m <= 13 the classes are climbed from covalency 1 until the
    first violation.  From m = 15 on, classes up to l0 are Ramanujan
    for free, so only l0 + 2 and l0 + 4 are scanned; a clean l0 + 4
    would contradict the window set breaking the bound there and is
    reported as an internal error.
    """
    check_modulus(m)
    if m <= 13:
        hat = None
        for l in range(1, m - 1, 2):
            if not class_all_ramanujan(m, l, budget, policy):
                break
            hat = l
        if hat is None:
            raise InternalInvariantError(f"no Ramanujan class at all for m={m}")
        return hat
    l0 = trivial_bound(m)
    if not class_all_ramanujan(m, l0 + 2, budget, policy):
        return l0
    if not class_all_ramanujan(m, l0 + 4, budget, policy):
        return l0 + 2
    raise InternalInvariantError(
        f"class at covalency l0+4 came out clean for m={m}")


## ------------------------------------------------------- semiprime families

def _packed_complement(m: int, d: int, l: int) -> CayleySet:
    """Every multiple of d, then the smallest pairs from the residue
    classes +-1 mod d, +-2 mod d, ... until covalency l is reached."""
    if m % d or d == m or d == 1:
        raise ValidationError(f"{d} is not a proper divisor of {m}")
    r = (l - 1) // 2
    pairs = [j * d for j in range(1, (m // d - 1) // 2 + 1)]
    if len(pairs) > r:
        raise ValidationError(
            f"multiples of {d} alone overflow covalency {l} in Z_{m}")
    h = (m - 1) // 2
    e = 1
    while len(pairs) < r:
        if e > d // 2:
            raise InternalInvariantError(
                f"packed family exhausted the residue classes mod {d}")
        for x in range(1, h + 1):
            if x % d in (e, d - e):
                pairs.append(x)
                if len(pairs) == r:
                    break
        e += 1
    return CayleySet.from_pairs(m, pairs)


def _unit_orbit_match(witness: CayleySet, target: CayleySet) -> bool:
    """Whether some unit multiplier carries witness onto target.

    Multiplication by a unit permutes the characters, so orbit members
    are isospectral; the extremal witness is only ever pinned down up
    to this action.
    """
    t = target.complement
    m = witness.m
    for u in range(1, m):
        if gcd(u, m) != 1:
            continue
        if frozenset(u * x % m for x in witness.complement) == t:
            return True
    return False


@dataclass(frozen=True)
class CrosscheckReport:
    """Closed-form class maximum vs the exhaustive scan for m = p*q."""

    m: int
    p: int
    q: int
    l: int
    mu_closed: float
    mu_exhaustive: float
    delta: float
    rb: float
    family: str | None
    agrees: bool
    witness: CayleySet


def semiprime_crosscheck(m: int, budget: int = DEFAULT_BUDGET,
                         policy: NumericPolicy = DEFAULT_POLICY) -> CrosscheckReport:
    """Validate the three-candidate formula on one semiprime order.

    Scans the full class at covalency l0 + 2, compares its maximum
    against max(mu0, mu1, mu2), and identifies the extremal set as one
    of the predicted families up to a unit multiplier.
    """
    from .classify import semiprime_candidates

    fac = factorize(m)
    pq = fac.distinct_semiprime
    if pq is None:
        raise ValidationError(f"m={m} is not a product of two distinct primes")
    p, q = pq
    if q > 4 * p - 5:
        raise ValidationError(
            f"q={q} exceeds 4p-5={4 * p - 5}; the candidate formula does not apply")
    l0 = trivial_bound(m)
    l = l0 + 2
    mu_closed = float(max(semiprime_candidates(p, q, l0)))
    cm = class_max(m, l, budget)
    delta = abs(cm.mu - mu_closed)
    families = {
        "window": window_complement(m, l),
        "p_multiples": _packed_complement(m, p, l),
        "q_multiples": _packed_complement(m, q, l),
    }
    family = next((name for name, s in families.items()
                   if _unit_orbit_match(cm.witness, s)), None)
    return CrosscheckReport(m, p, q, l, mu_closed, cm.mu, delta, cm.rb,
                            family, delta <= 1e-9 and family is not None,
                            cm.witness)
