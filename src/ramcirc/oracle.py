"""Exhaustive verification of edge-removal bounds, one table row per character.

A complement class is the set of all negation-closed complements of odd
size l = 2r + 1 containing the identity, on any odd abelian group given
by its invariant factors (Z_m is the rank-1 case (m,)).  Removing the r
pairs T leaves the character chi the eigenvalue

    mu_chi(T) = -1 - sum_{b in T} 2*cos(2*pi*<chi, b>/L),

which is linear in T, and chi and -chi agree on a symmetric set.  So
over the class, |mu_chi| is largest at the r largest or the r smallest
entries of chi's row of the pair table, and the class maximum is the
largest of those row extremes: one sorted row per pair character
instead of C(h, r) sets, h = (|G| - 1)/2.  A kept set in a proper
subgroup lies in a character kernel, so T holds every pair outside it,
at least |G|/3 pairs; below r = |G|/3 every set of the class generates
G and the row maximum is the class maximum.  The budget is charged for
the h^2 table entries, built in blocks of rows.

scan_class, the enumeration engine, is the fallback for the classes
where generation can bind and no violating row's extreme set generates
(none of those that hat_l_exhaustive climbs for odd m <= 3001, or
abelian_oracle for the odd groups of order at most 1001), and the
reference the tests hold the rows against.  It combines the removed
pairs in lexicographic order, in numpy chunks with shared prefixes: a
set's character sums are its prefix's sums plus one table row.  Class
sizes grow as C(h, r), so it is gated by a budget in sets.

Everything here is deliberately independent of the closed-form route:
no window formulas, no candidate-set reasoning, no factorisation, just
the definition of the spectrum.  The one shortcut is provable on its
own: covalencies l <= l0 satisfy (l + 2)^2 <= 4m, hence
mu <= l <= 2*sqrt(m - l - 1), so those classes are Ramanujan without a
table.  A row extreme or a scanned row within
precision.ESCALATION_MARGIN of 2*sqrt(|G| - l - 1) is decided from its
exact phases by precision.decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, gcd

import mpmath as mp
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
from .precision import mp_cos2pi_frac
from .spectra import (
    _BLOCK,
    CayleySet,
    _cos2,
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


def _row_extremes(orders: tuple[int, ...], r: int, budget: int):
    """Yield (K, absmax, from_top) over blocks of consecutive pair characters.

    K holds the block's rows of the pair table, phases against every
    pair in the order of spectra.pair_characters, folded to
    min(k, L - k) as spectra._cos2 folds them.  With top and bottom the
    sums of the r largest and the r smallest entries 2*cos(2*pi*k/L) of
    a row, absmax is max(1 + top, -1 - bottom), the row's largest |mu|
    over the class, and from_top whether 1 + top attains it.  The cosine
    falls as a folded phase grows, so both sums are read off the sorted
    phases, and rows with one multiset of phases (a unit orbit) give the
    same bits.  The budget is charged for the h^2 table entries, h the
    number of pairs.
    """
    h, L = (math.prod(orders) - 1) // 2, orders[-1]
    if h * h > budget:
        raise BudgetExceededError(h * h, budget, "table entries")
    R = pair_characters(orders)
    cos2 = _cos2(L, np.arange(L // 2 + 1))
    step = max(1, _BLOCK // h)
    for lo in range(0, h, step):
        K = phase_table(orders, R[lo:lo + step], R)
        K = np.minimum(K, L - K)
        S = np.sort(K, axis=1)
        top = 1.0 + cos2[S[:, :r]].sum(axis=1)
        bottom = -(1.0 + cos2[S[:, h - r:]].sum(axis=1))
        yield K, np.maximum(top, bottom), top >= bottom


def _mp_row_max(k: np.ndarray, r: int, L: int):
    """The absmax of the folded row k in mpmath, from its exact phases."""
    s = np.sort(k).tolist()
    return max(abs(1 + mp.fsum(2 * mp_cos2pi_frac(x, L) for x in side))
               for side in (s[:r], s[len(s) - r:]))


def _extreme_reps(orders: tuple[int, ...], k: np.ndarray, r: int,
                  from_top: bool) -> np.ndarray:
    """The pairs of the r largest (from_top) or the r smallest entries of
    the folded row k, ties in index order."""
    order = np.argsort(k if from_top else -k, kind="stable")
    return pair_characters(orders)[order[:r]]


def class_size(m: int, l: int) -> int:
    """Raw number of negation-closed size-l complements containing 0.

    This is the combinatorial count C((m-1)/2, (l-1)/2); complements
    whose kept set fails to generate are included here (the budget is
    charged for them) but skipped during enumeration.
    """
    check_covalency(m, l)
    return comb((m - 1) // 2, (l - 1) // 2)


def scan_class(orders: tuple[int, ...], l: int, budget: int = DEFAULT_BUDGET):
    """Yield (idx, absmax) chunks over the connected covalency-l class.

    G has invariant factors orders and l is an odd covalency in
    [1, |G| - 2]; callers validate both.  Each negation pair is
    represented by its first element in product order (for Z_m, i + 1),
    and the same representatives R = spectra.pair_characters(orders)
    index the pair characters in spectra.phase_table: phases[i, j] =
    <R[j], R[i]> in units of 1/exponent.  idx[k] holds one complement's
    removed pairs as indices into R, and absmax[k] its largest
    |lambda_chi|.  Every proper subgroup lies in a character kernel, so
    a complement that removes every pair outside some kernel leaves a
    kept set that does not generate G; such rows are dropped.
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
        yield idx, absmax


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


def _generates(group, reps: np.ndarray) -> bool:
    """Whether the kept set of the complement removing reps generates G."""
    try:
        _cayley(group, reps)
    except ValidationError:
        return False
    return True


def class_clean(group, l: int, budget: int) -> bool:
    """Whether no connected complement of covalency l breaks the bound.

    group is Z_m's modulus or an AbelianGroup, as in spectra.CayleySet.
    Every row extreme within precision.ESCALATION_MARGIN of
    2*sqrt(|G| - l - 1), or past it, goes through precision.decide,
    whose extended value is the same r-sum from exact phases.  A
    violating row ends the class when its extreme set generates G, as
    every set does for 3r < |G|; when no violating row's set generates,
    the class is scanned.  An empty class counts as clean.
    """
    orders = (group,) if isinstance(group, int) else group.orders
    n, r, L = math.prod(orders), (l - 1) // 2, orders[-1]
    rb = 2.0 * math.sqrt(n - l - 1)
    unsettled = False
    for K, absmax, from_top in _row_extremes(orders, r, budget):
        for i in np.flatnonzero(absmax > rb - precision.ESCALATION_MARGIN).tolist():
            k = K[i]
            if precision.decide(n, l, lambda: float(absmax[i]),
                                lambda _digits: _mp_row_max(k, r, L)).is_ramanujan:
                continue
            if 3 * r < n or _generates(
                    group, _extreme_reps(orders, k, r, from_top[i])):
                return False
            unsettled = True
    return _scan_clean(group, l, budget) if unsettled else True


def _scan_clean(group, l: int, budget: int) -> bool:
    """class_clean by scan_class: rows within precision.ESCALATION_MARGIN
    of the bound are re-decided by is_ramanujan."""
    orders = (group,) if isinstance(group, int) else group.orders
    R = pair_characters(orders)
    rb = 2.0 * math.sqrt(math.prod(orders) - l - 1)
    tol = precision.ESCALATION_MARGIN
    for idx, absmax in scan_class(orders, l, budget):
        if np.any(absmax > rb + tol):
            return False
        for i in np.nonzero(absmax > rb - tol)[0]:
            if not is_ramanujan(_cayley(group, R[idx[i]])).is_ramanujan:
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
    R = pair_characters((m,))
    for idx, _ in scan_class((m,), l, budget):
        for row in R[idx]:
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
    """The class maximum from the rows of the pair table, and its witness.

    The witness is the r pairs of the first row that attains the
    maximum, the largest or the smallest entries as the maximum takes
    them, ties in index order.  Where that set does not generate Z_m,
    which needs 3r >= m, the class is scanned instead.
    """
    check_covalency(m, l)
    r, best = (l - 1) // 2, -math.inf
    for K, absmax, from_top in _row_extremes((m,), r, budget):
        i = int(np.argmax(absmax))
        if absmax[i] > best:
            best, k, side = float(absmax[i]), K[i], from_top[i]
    try:
        witness = _cayley(m, _extreme_reps((m,), k, r, side))
    except ValidationError:
        return _scan_max(m, l, budget)
    return ClassMax(m, l, best, ramanujan_bound(m, l), witness)


def _scan_max(m: int, l: int, budget: int) -> ClassMax:
    """class_max by scan_class, over the connected sets alone."""
    best, best_row, R = -math.inf, None, pair_characters((m,))
    for idx, absmax in scan_class((m,), l, budget):
        i = int(np.argmax(absmax))
        if absmax[i] > best:
            best, best_row = float(absmax[i]), R[idx[i]]
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
    m = 15 on, only l0 + 2 and l0 + 4 are decided; a clean l0 + 4 would
    contradict the window set breaking the bound there and is reported
    as an internal error.
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

    Takes the class maximum at covalency l0 + 2, compares it
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
