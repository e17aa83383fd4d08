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
the h^2 table entries, built in blocks of rows; the rows, their cosines
and their mpmath sums are spectra's phase_blocks, cos2 and mp_abs_mu,
the same kernel every eigenvalue of the package reads.

enumerate_class is the fallback for the classes where generation can
bind and no violating row's extreme set generates (none of those that
hat_l_exhaustive climbs for odd m <= 3001, or abelian_oracle for the odd
groups of order at most 1001).  It combines the removed pairs in
lexicographic order and keeps each set that spectra.CayleySet accepts,
and the fallback decides each by spectra.is_ramanujan or
spectra.spectrum: the package has one generation rule and one Ramanujan
decision.  Class sizes grow as C(h, r), so it is gated by a budget in
sets.

Everything here is deliberately independent of the closed-form route:
no window formulas, no candidate-set reasoning, no factorisation, just
the definition of the spectrum.  The one shortcut is provable on its
own: covalencies l <= l0 satisfy (l + 2)^2 <= 4m, hence
mu <= l <= 2*sqrt(m - l - 1), so those classes are Ramanujan without a
table.  A row extreme within precision.ESCALATION_MARGIN of
2*sqrt(|G| - l - 1) is decided from its exact phases by precision.decide,
which first asks spectra.proves_tie whether the sides of the row that
reach its extreme tie the bound exactly; a proved tie counts as
Ramanujan without an mpmath pass.
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
from .numtheory import least_prime_split
from .spectra import (
    TIE_SLACK,
    CayleySet,
    check_covalency,
    check_modulus,
    cos2,
    group_orders,
    is_ramanujan,
    mp_abs_mu,
    pair_characters,
    phase_blocks,
    proves_tie,
    ramanujan_bound,
    spectrum,
    window_complement,
)


def _row_extremes(orders: tuple[int, ...], r: int, budget: int):
    """Yield (K, absmax, from_top) over blocks of consecutive pair characters.

    K holds the block's rows of the pair table from spectra.phase_blocks:
    phases against every pair in the order of spectra.pair_characters,
    folded to min(k, L - k).  With top and bottom the sums of the r
    largest and the r smallest entries spectra.cos2 of a row, absmax is
    max(1 + top, -1 - bottom), the row's largest |mu| over the class,
    and from_top whether 1 + top attains it.  The cosine falls as a
    folded phase grows, so both sums are read off the sorted phases, and
    rows with one multiset of phases (a unit orbit) give the same bits.
    The budget is charged for the h^2 table entries, h the number of
    pairs.
    """
    h, L = (math.prod(orders) - 1) // 2, orders[-1]
    if h * h > budget:
        raise BudgetExceededError(h * h, budget, "table entries")
    R = pair_characters(orders)
    table = cos2(L, np.arange(L // 2 + 1))
    for K in phase_blocks(orders, R, R):
        S = np.sort(K, axis=1)
        top = 1.0 + table[S[:, :r]].sum(axis=1)
        bottom = -(1.0 + table[S[:, h - r:]].sum(axis=1))
        yield K, np.maximum(top, bottom), top >= bottom


def _sides(k: np.ndarray, r: int) -> np.ndarray:
    """The r smallest and the r largest phases of the folded row k, as two
    rows: the sets of the class whose |mu| can be the row's absmax."""
    s = np.sort(k)
    return np.stack([s[:r], s[len(s) - r:]])


def _mp_row_max(k: np.ndarray, r: int, L: int):
    """The absmax of the folded row k in mpmath, from its exact phases."""
    return max(mp_abs_mu(side, L) for side in _sides(k, r).tolist())


def _row_tie(k: np.ndarray, r: int, L: int, valency: int) -> bool | None:
    """spectra.proves_tie on the sides of the folded row k whose |mu| in
    doubles is within spectra.TIE_SLACK of the row's absmax."""
    sides = _sides(k, r)
    mu = np.abs(1.0 + cos2(L, sides).sum(axis=1))
    return proves_tie(sides[mu >= mu.max() - TIE_SLACK], L, valency)


def _extreme_reps(orders: tuple[int, ...], k: np.ndarray, r: int,
                  from_top: bool) -> np.ndarray:
    """The pairs of the r largest (from_top) or the r smallest entries of
    the folded row k, ties in index order."""
    order = np.argsort(k if from_top else -k, kind="stable")
    return pair_characters(orders)[order[:r]]


def class_size(m: int, l: int) -> int:
    """Raw number of negation-closed size-l complements containing the
    identity, in a group of order m.

    This is the combinatorial count C((m-1)/2, (l-1)/2); complements
    whose kept set fails to generate are included here (enumerate_class
    charges the budget for them) but not enumerated.
    """
    check_covalency(m, l)
    return comb((m - 1) // 2, (l - 1) // 2)


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
    2*sqrt(|G| - l - 1), or past it, goes through precision.decide:
    an exact tie is proved by _row_tie, and any other margin is refined
    from the same r-sum of exact phases.  A
    violating row ends the class when its extreme set generates G, as
    every set does for 3r < |G|; when no violating row's set generates,
    is_ramanujan decides each set of enumerate_class.  An empty class
    counts as clean.
    """
    orders = group_orders(group)
    n, r, L = math.prod(orders), (l - 1) // 2, orders[-1]
    check_covalency(n, l)
    rb = 2.0 * math.sqrt(n - l - 1)
    unsettled = False
    for K, absmax, from_top in _row_extremes(orders, r, budget):
        for i in np.flatnonzero(absmax > rb - precision.ESCALATION_MARGIN).tolist():
            k = K[i]
            if precision.decide(n, l, lambda: float(absmax[i]),
                                lambda _digits: _mp_row_max(k, r, L),
                                tie=lambda: _row_tie(k, r, L, n - l)).is_ramanujan:
                continue
            if 3 * r < n or _generates(
                    group, _extreme_reps(orders, k, r, from_top[i])):
                return False
            unsettled = True
    return not unsettled or all(is_ramanujan(s).is_ramanujan
                                for s in enumerate_class(group, l, budget))


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


def enumerate_class(group, l: int, budget: int = DEFAULT_BUDGET):
    """Yield every connected complement of covalency l, smallest pairs first.

    group is Z_m's modulus or an AbelianGroup, as in spectra.CayleySet.
    The r = (l - 1)/2 removed pairs are taken from
    spectra.pair_characters in lexicographic order, and each set whose
    kept elements the CayleySet constructor finds generating is yielded.
    The budget is charged for all C(h, r) sets of the class.
    """
    orders = group_orders(group)
    size = class_size(math.prod(orders), l)
    if size > budget:
        raise BudgetExceededError(size, budget)
    R = pair_characters(orders)
    for idx in itertools.combinations(range(len(R)), (l - 1) // 2):
        try:
            s = _cayley(group, R[list(idx)])
        except ValidationError:
            continue
        yield s


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
    which needs 3r >= m, the witness is instead the first set of
    enumerate_class with the largest spectrum(s).mu_max.
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
        witness = max(enumerate_class(m, l, budget), default=None,
                      key=lambda s: spectrum(s).mu_max)
        if witness is None:
            raise InternalInvariantError(f"class m={m}, l={l} has no valid sets")
        best = spectrum(witness).mu_max
    return ClassMax(m, l, best, ramanujan_bound(m, l), witness)


def class_all_ramanujan(m: int, l: int, budget: int = DEFAULT_BUDGET) -> bool:
    """class_clean on Z_m, with a default budget."""
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
    p, q_prime = least_prime_split(m)
    q = m // p
    if q == p or not q_prime:
        raise ValidationError(f"m={m} is not a product of two distinct primes")
    if q > 4 * p - 5:
        raise ValidationError(
            f"q={q} exceeds 4p-5={4 * p - 5}; the candidate formula does not apply")
    l = trivial_bound(m) + 2
    mu_closed = float(max(semiprime_candidates(p, q)))
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
