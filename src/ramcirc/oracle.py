"""Exhaustive verification of edge-removal bounds by direct enumeration.

A complement class is the set of all negation-closed complements of odd
size l containing the identity.  One engine enumerates it for any odd
abelian group, given by its invariant factors (Z_m is the rank-1 case
(m,)), against one table of pair characters, since chi and -chi agree
on a symmetric set.  The removed pairs are combined in lexicographic
order, in numpy chunks with shared prefixes: a set's character sums
are its prefix's sums plus one table row, and a chunk bounds
combinations x characters at one level.  Raw class sizes grow as
C((|G|-1)/2, (l-1)/2), so every scan is gated by an explicit budget.

Everything here is deliberately independent of the closed-form route:
no window formulas, no candidate-set reasoning, no factorisation, just
brute force.  The one shortcut is provable on its own: covalencies
l <= l0 satisfy (l + 2)^2 <= 4m, hence mu <= l <= 2*sqrt(m - l - 1), so
those classes are Ramanujan without scanning.  Two suspect sets may end
a class early, but is_ramanujan decides them like any scanned row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from . import precision
from .bounds import trivial_bound
from .classify import semiprime_candidates
from .errors import (  # DEFAULT_BUDGET stays importable from here
    DEFAULT_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    ValidationError,
)
from .numtheory import is_prime, least_prime_factor
from .spectra import (
    CayleySet,
    check_covalency,
    check_modulus,
    is_ramanujan,
    pair_characters,
    phase_table,
    ramanujan_bound,
    window_complement,
)

## chunk size for the vectorised scans, in doubles of one level's sums
## (combinations x characters); a scan holds r such levels at once
_CHUNK_FLOATS = 1 << 17


def class_size(m: int, l: int) -> int:
    """Raw number of negation-closed size-l complements containing 0.

    This is the combinatorial count C((m-1)/2, (l-1)/2); complements
    whose kept set fails to generate are included here (the budget is
    charged for them) but skipped during enumeration.
    """
    check_covalency(m, l)
    return comb((m - 1) // 2, (l - 1) // 2)


def scan_class(orders: tuple[int, ...], l: int, budget: int = DEFAULT_BUDGET):
    """Yield (reps, absmax) chunks over the connected covalency-l class.

    G has invariant factors orders and l is an odd covalency in
    [1, |G| - 2]; callers validate both.  Each negation pair is
    represented by its first element in product order (for Z_m, i + 1),
    and the same representatives index the pair characters in
    spectra.phase_table: phases[i, j] = <rep_j, rep_i> in units of
    1/exponent.  reps[k] holds one complement's removed representatives
    and absmax[k] its largest |lambda_chi|.  Every proper subgroup lies
    in a character kernel, so a complement that removes every pair
    outside some kernel leaves a kept set that does not generate G; such
    rows are dropped.
    """
    h, r = (math.prod(orders) - 1) // 2, (l - 1) // 2
    size = comb(h, r)
    if size > budget:
        raise BudgetExceededError(size, budget)
    R = pair_characters(orders)
    phases = phase_table(orders, R, R)
    P = 2.0 * np.cos((2.0 * math.pi / orders[-1]) * phases)
    outside = phases != 0
    ## r removed pairs can cover only kernels with at most r pairs outside
    cover = outside[:, outside.sum(axis=0) <= r]
    cover_size = cover.sum(axis=0)
    ## phases is symmetric, so column i of P is pair i's character row
    for idx, S in _combo_sums(P, r, max(1, _CHUNK_FLOATS // h)):
        ## fl(x + 1) is monotone in x, so this is max |S + 1| bit for bit
        absmax = np.maximum(S.max(axis=0) + 1.0, -(S.min(axis=0) + 1.0))
        if cover.shape[1]:
            keep = ~(cover[idx].sum(axis=1) == cover_size).any(axis=1)
            if not keep.any():
                continue
            idx, absmax = idx[keep], absmax[keep]
        yield R[idx], absmax


def _combo_sums(P: np.ndarray, r: int, rows: int):
    """Yield (idx, S) chunks over every r-combination of the columns of P.

    The combinations idx[k] = (i0, ..., i_{r-1}) come in lexicographic
    order, and S[:, k] = ((P[:, i0] + P[:, i1]) + ...) + P[:, i_{r-1}].
    They grow one index at a time with shared prefixes (Knuth, TAOCP
    7.2.1.3): a j-combination ending at c has the children c + 1 ..
    h - r + j, each costing its parent's sums plus one column of P.
    Each level holds at most max(rows, h) combinations at once; sums
    are kept one combination per column, so that reducing over the
    characters runs along contiguous rows.
    """
    h = P.shape[1]
    if r == 0:
        yield np.empty((1, 0), dtype=np.intp), np.zeros((len(P), 1))
        return

    def grow(idx, S):
        j = len(idx)
        if j == r:
            yield idx.T, S
            return
        last = idx[-1]
        kids = h - r + j - last
        ends = np.cumsum(kids)
        shift = last + 1 - (ends - kids)
        lo = 0
        while lo < len(last):
            start = int(ends[lo] - kids[lo])
            hi = max(lo + 1, int(np.searchsorted(ends, start + rows, side="right")))
            pid = np.repeat(np.arange(lo, hi), kids[lo:hi])
            child = np.arange(start, int(ends[hi - 1])) + shift[pid]
            yield from grow(np.concatenate((idx.take(pid, axis=1), child[None])),
                            S.take(pid, axis=1) + P.take(child, axis=1))
            lo = hi

    top = np.arange(h - r + 1)
    yield from grow(top[None, :], P[:, : h - r + 1])


def _suspects(group, l: int) -> list[CayleySet]:
    """Two complements likely to break the bound, with r = (l - 1)/2: the
    window +-1 .. +-r along the last cyclic factor, when 2r < L (the
    exponent), and the first r pairs in product order of the character
    kernel H = {x : p | x_last}, p the least prime of L, when H holds that
    many; on Z_m these are the window and p, 2p, ..., rp."""
    orders = (group,) if isinstance(group, int) else group.orders
    L, r = orders[-1], (l - 1) // 2
    p = next((d for d in range(3, math.isqrt(L) + 1, 2) if L % d == 0), L)
    if isinstance(group, int):
        window, packed = range(1, r + 1), range(p, p * r + 1, p)
    else:
        lead = (0,) * (len(orders) - 1)
        window = [lead + (j,) for j in range(1, r + 1)]
        H = itertools.product(*map(range, orders[:-1]), range(0, L, p))
        packed = itertools.islice((x for x in H if x < group.negate(x)), r)
    fits = (2 * r < L, l * p <= math.prod(orders))
    return [CayleySet.from_pairs(group, reps)
            for reps, ok in zip((window, packed), fits) if ok]


def class_clean(group, l: int, budget: int) -> bool:
    """Whether no connected complement of covalency l breaks the bound.

    group is Z_m's modulus or an AbelianGroup, as in spectra.CayleySet.
    The _suspects are decided first, before the budget is charged; then
    rows of the scan within precision.ESCALATION_MARGIN of
    2*sqrt(|G| - l - 1) are re-decided by is_ramanujan.  An empty class
    counts as clean.
    """
    for s in _suspects(group, l):
        if not is_ramanujan(s).is_ramanujan:
            return False
    orders = (group,) if isinstance(group, int) else group.orders
    rb = 2.0 * math.sqrt(math.prod(orders) - l - 1)
    tol = precision.ESCALATION_MARGIN
    for reps, absmax in scan_class(orders, l, budget):
        if np.any(absmax > rb + tol):
            return False
        for i in np.nonzero(absmax > rb - tol)[0]:
            if not is_ramanujan(_cayley(group, reps[i])).is_ramanujan:
                return False
    return True


def climb(m: int, l_max: int, clean) -> int:
    """The largest l <= l_max with clean(l') for every l' in l0+2..l.

    Classes up to l0 = trivial_bound(m) are Ramanujan outright, so the
    climb starts at l0 + 2; it returns l0 when that class is not clean.
    """
    hat = trivial_bound(m)
    for l in range(hat + 2, min(l_max, m - 2) + 1, 2):
        if not clean(l):
            break
        hat = l
    return hat


def _cayley(group, reps: np.ndarray) -> CayleySet:
    return CayleySet.from_pairs(
        group, reps[:, 0].tolist() if isinstance(group, int) else reps)


def enumerate_class(m: int, l: int, budget: int = DEFAULT_BUDGET):
    """Yield every valid complement in the class, smallest pairs first."""
    check_covalency(m, l)
    for reps, _ in scan_class((m,), l, budget):
        for row in reps:
            yield _cayley(m, row)


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
    check_covalency(m, l)
    best = -math.inf
    best_row = None
    for reps, absmax in scan_class((m,), l, budget):
        i = int(np.argmax(absmax))
        if absmax[i] > best:
            best = float(absmax[i])
            best_row = reps[i]
    if best_row is None:
        raise InternalInvariantError(f"class m={m}, l={l} has no valid sets")
    return ClassMax(m, l, best, ramanujan_bound(m, l), _cayley(m, best_row))


def class_all_ramanujan(m: int, l: int, budget: int = DEFAULT_BUDGET) -> bool:
    """class_clean on Z_m, after validating the covalency."""
    check_covalency(m, l)
    return class_clean(m, l, budget)


def hat_l_exhaustive(m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Edge-removal bound by direct search, independent of the theory.

    For m <= 13 the classes from l0 + 2 up to m - 2 are climbed.  From
    m = 15 on, only l0 + 2 and l0 + 4 are scanned; a clean l0 + 4 would contradict
    the window set breaking the bound there and is reported as an
    internal error.
    """
    check_modulus(m)
    l0 = trivial_bound(m)
    hat = climb(m, m - 2 if m <= 13 else l0 + 4,
                lambda l: class_all_ramanujan(m, l, budget))
    if m >= 15 and hat == l0 + 4:
        raise InternalInvariantError(
            f"class at covalency l0+4 came out clean for m={m}")
    return hat


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


def semiprime_crosscheck(m: int, budget: int = DEFAULT_BUDGET) -> CrosscheckReport:
    """Validate the three-candidate formula on one semiprime order.

    Scans the full class at covalency l0 + 2, compares its maximum
    against max(mu0, mu1, mu2), and identifies the extremal set as one
    of the predicted families up to a unit multiplier.
    """
    p = least_prime_factor(m)
    q = m // p
    if q == p or not is_prime(q):
        raise ValidationError(f"m={m} is not a product of two distinct primes")
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
