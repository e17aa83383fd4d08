"""Exhaustive verification of edge-removal bounds, one sorted row per
character order.

A complement class is the set of all negation-closed complements of odd
size l = 2r + 1 containing the identity, on any odd abelian group given
by its invariant factors (Z_m is the rank-1 case (m,)).  Removing the r
pairs T leaves the character chi the eigenvalue

    mu_chi(T) = -1 - sum_{b in T} 2*cos(2*pi*<chi, b>/L),

which is linear in T, and chi and -chi agree on a symmetric set.  So
over the class, |mu_chi| is largest at the r largest or the r smallest
entries of chi's row of the pair table, and the class maximum is the
largest of those row extremes instead of C(h, r) sets, h = (|G| - 1)/2.
A character of order e takes each e-th root of unity |G|/e times on G,
so its folded row holds a multiset fixed by |G| and e alone, and one
row per order e > 1 dividing the exponent L decides every class: the
row of (0, ..., 0, d) for each d = L/e of order_divisors(L), the first
character of that order in product order.  That is the d(m) - 1 proper
divisors of m on Z_m and one row on Z_p x Z_p.  Sorted, that row is
(c - 1)/2 zeros, then c copies each of the folded phases d, 2d, ...,
c = |G|/e, so row_table writes the ends its classes read from these
multiplicities, once per climb, and builds and sorts no row; the budget
is still charged for the (d(L) - 1) x h entries of the whole table.  A kept set
in a proper subgroup lies in a character kernel, so T holds every pair
outside it, at least |G|/3 pairs; below r = |G|/3 every set of the
class generates G and the row maximum is the class maximum.  Cosines
are spectra's cos2, and the pairs of an extreme set are found by their
phases d * x_last mod L, folded, on spectra.pair_blocks.

enumerate_class is the fallback for the classes where generation can
bind and no violating row's extreme set generates (none of those that
hat_l_exhaustive climbs, or abelian_oracle for the odd groups of order
at most 30001).  It combines the removed pairs in
lexicographic order and keeps each set that spectra.CayleySet accepts,
and the fallback decides each by spectra.is_ramanujan or
spectra.spectrum: the package has one generation rule and one Ramanujan
decision.  Class sizes grow as C(h, r), so it is gated by a budget in
sets.

Everything here is deliberately independent of the closed-form route:
no window formulas, no candidate-set reasoning, no factorisation, just
the definition of the spectrum and the multiplicities of its values.
The one shortcut is provable on its own: covalencies l <= l0 satisfy
(l + 2)^2 <= 4m, hence mu <= l <= 2*sqrt(m - l - 1), so those classes
are Ramanujan without a table.  A row extreme within
precision.ESCALATION_MARGIN of 2*sqrt(|G| - l - 1) is decided from the
exact phases of its two sides by spectra.decide_rows, the decision
spectra.is_ramanujan takes too: a proved exact tie counts as Ramanujan
without an mpmath pass.
"""

from __future__ import annotations

import itertools
import math
from math import comb
from typing import NamedTuple

from . import precision
from .bounds import trivial_bound
from .classify import semiprime_candidates
from .errors import (  # DEFAULT_BUDGET stays importable from here
    DEFAULT_BUDGET,
    InternalInvariantError,
    ValidationError,
    check_budget,
    lazy_numpy,
)
from .numtheory import least_prime_split
from .spectra import (
    CayleySet,
    check_covalency,
    check_modulus,
    cos2,
    decide_rows,
    group_orders,
    is_ramanujan,
    pair_blocks,
    pair_characters,
    ramanujan_bound,
    spectrum,
    window_complement,
)

np = lazy_numpy()


def order_divisors(L: int) -> list[int]:
    """The proper divisors d = L/e of the exponent L, ascending: one per
    character order e > 1, the order of the character (0, ..., 0, d),
    found by trial division up to sqrt(L)."""
    a = [x for x in range(1, math.isqrt(L) + 1) if L % x == 0]
    return sorted({*a, *(L // x for x in a)})[:-1]


class RowTable(NamedTuple):
    """The rows of the pair table for order_divisors, each sorted.

    sides[i] holds the folded phases of (0, ..., 0, divisors[i]) against
    every pair of spectra.pair_characters, ascending: all h of them, or
    the r_max smallest followed by the r_max largest when that is fewer.
    So for r <= r_max its first r entries are the row's r smallest and
    its last r the r largest, written by row_table from multiplicities.
    cos is spectra.cos2 of sides.
    """

    orders: tuple[int, ...]
    divisors: list[int]
    sides: np.ndarray
    r_max: int
    cos: np.ndarray

    def extremes(self, r: int):
        """(absmax, from_top) of every row over the class of r removed pairs.

        With top and bottom the sums of the r largest and the r smallest
        cosines of a row, absmax is max(1 + top, -1 - bottom), the row's
        largest |mu| over the class, and from_top whether 1 + top attains
        it.  The cosine falls as a folded phase grows, so both are sums
        over the ends of the sorted phases.
        """
        if r > self.r_max:
            raise ValidationError(
                f"the table serves up to {self.r_max} removed pairs, not {r}")
        C = self.cos
        top = 1.0 + C[:, :r].sum(axis=1)
        bottom = -(1.0 + C[:, C.shape[1] - r:].sum(axis=1))
        return np.maximum(top, bottom), top >= bottom

    def row_sides(self, i: int, r: int) -> np.ndarray:
        """The r smallest and the r largest phases of row i, as two rows:
        the sets of the class whose |mu| can be the row's absmax."""
        s = self.sides[i]
        return np.stack([s[:r], s[len(s) - r:]])

    def extreme_pairs(self, i: int, r: int, from_top: bool) -> np.ndarray:
        """The pairs of the r smallest (from_top) or the r largest phases of
        row i, ties in index order: the phase of a pair x is d * x_last
        mod L, folded, d = divisors[i], walked on spectra.pair_blocks."""
        if r == 0:
            return np.zeros((0, len(self.orders)), dtype=np.int64)
        s, d, L = self.sides[i], self.divisors[i], self.orders[-1]
        t = int(s[r - 1] if from_top else s[len(s) - r])
        need = r - np.count_nonzero(s[:r] < t if from_top else s[len(s) - r:] > t)
        picked = []
        for cols in pair_blocks(self.orders):
            k = d * cols[:, -1] % L
            k = np.minimum(k, L - k)
            picked.append(cols[k < t if from_top else k > t])
            picked.append(cols[k == t][:need])
            need -= len(picked[-1])
        return np.concatenate(picked)


def row_table(orders: tuple[int, ...], r_max: int, budget: int) -> RowTable:
    """The RowTable of the group for classes of up to r_max removed pairs.

    The sorted row of d = L/e holds d * ((i + (c + 1)//2) // c) at its
    position i, c = |G|/e, so only the ends the classes read are written,
    with no sort.  The budget is still charged for the table's
    (d(L) - 1) x h entries, one row per order e > 1 dividing the exponent
    L.  Every table has the row of order L, so a group of more than
    budget pairs is refused, with h, before the divisors of L are sought.
    """
    n = math.prod(orders)
    h, L = (n - 1) // 2, orders[-1]
    check_budget(h, "table entries", budget)
    divisors = order_divisors(L)
    check_budget(len(divisors) * h, "table entries", budget)
    w = min(h, r_max)
    keep = min(h, 2 * w)
    i = np.arange(keep)
    i[w:] += h - keep
    d = np.array(divisors)[:, None]
    c = n // (L // d)
    S = d * ((i + (c + 1) // 2) // c)
    return RowTable(orders, divisors, S, h if keep == h else w, cos2(L, S))


def class_size(m: int, l: int) -> int:
    """Raw number of negation-closed size-l complements containing the
    identity, in a group of order m.

    This is the combinatorial count C((m-1)/2, (l-1)/2); complements
    whose kept set fails to generate are included here (enumerate_class
    charges the budget for them) but not enumerated.
    """
    check_covalency(m, l)
    return comb((m - 1) // 2, (l - 1) // 2)


def _extreme_set(group, table: RowTable, i: int, r: int, from_top: bool):
    """The CayleySet removing row i's extreme pairs; None if it does not generate G."""
    try:
        return _cayley(group, table.extreme_pairs(i, r, from_top))
    except ValidationError:
        return None


def class_clean(group, l: int, budget: int, table: RowTable | None = None) -> bool:
    """Whether no connected complement of covalency l breaks the bound.

    group is Z_m's modulus or an AbelianGroup, as in spectra.CayleySet,
    and table a row_table of the group serving (l - 1)/2 removed pairs,
    built here when not given.  Every row extreme within
    precision.ESCALATION_MARGIN of 2*sqrt(|G| - l - 1), or past it, goes
    through spectra.decide_rows on the row's two sides.  A violating row
    ends the class when its extreme set generates G, as every set does
    for 3r < |G|.  Where 3r >= |G| only one extreme set per character
    order is tried, the one of the row's own character; when none of the
    violating rows' sets generates, is_ramanujan decides each set of
    enumerate_class.  An empty class counts as clean.
    """
    orders = group_orders(group)
    n, r, L = math.prod(orders), (l - 1) // 2, orders[-1]
    check_covalency(n, l)
    if table is None:
        table = row_table(orders, r, budget)
    rb = 2.0 * math.sqrt(n - l - 1)
    absmax, from_top = table.extremes(r)
    unsettled = False
    for i in np.flatnonzero(absmax > rb - precision.ESCALATION_MARGIN).tolist():
        if decide_rows(n, l, L, float(absmax[i]),
                       lambda: [table.row_sides(i, r)]).is_ramanujan:
            continue
        if 3 * r < n or _extreme_set(group, table, i, r, from_top[i]) is not None:
            return False
        unsettled = True
    return not unsettled or all(is_ramanujan(s).is_ramanujan
                                for s in enumerate_class(group, l, budget))


def climb(group, l_max: int, budget: int, clean) -> int:
    """The largest l <= l_max with a clean class at every l' in l0+2..l.

    group is Z_m's modulus or an AbelianGroup.  Classes up to
    l0 = trivial_bound(|G|) are Ramanujan outright, so the climb starts
    at l0 + 2; it returns l0 when that class is not clean.  One
    row_table, kept for the largest class the climb can reach, serves
    every class, and clean(group, l, budget, table) decides each.
    """
    orders = group_orders(group)
    n = math.prod(orders)
    hat = trivial_bound(n)
    levels = range(hat + 2, min(l_max, n - 2) + 1, 2)
    table = row_table(orders, (levels[-1] - 1) // 2, budget) if levels else None
    for l in levels:
        if not clean(group, l, budget, table):
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
    check_budget(size, "subsets", budget)
    R = pair_characters(orders)
    for idx in itertools.combinations(range(len(R)), (l - 1) // 2):
        try:
            s = _cayley(group, R[list(idx)])
        except ValidationError:
            continue
        yield s


class ClassMax(NamedTuple):
    """Largest |mu_j| over a whole complement class, with its witness."""

    m: int
    l: int
    mu: float
    rb: float
    witness: CayleySet


def class_max(m: int, l: int, budget: int = DEFAULT_BUDGET) -> ClassMax:
    """The class maximum from the rows of order_divisors, and its witness.

    The witness is the r pairs of the first row that attains the
    maximum, the largest or the smallest entries as the maximum takes
    them, ties in index order; a row shares its extreme with every
    character of its order, and on Z_m the row of d is the first of the
    order m/d, so that is the first such row of the full pair table.
    Where that set does not generate Z_m, which needs 3r >= m, the
    witness is instead the first set of enumerate_class with the largest
    spectrum(s).mu_max.
    """
    check_covalency(m, l)
    r = (l - 1) // 2
    table = row_table((m,), r, budget)
    absmax, from_top = table.extremes(r)
    i = int(np.argmax(absmax))
    best = float(absmax[i])
    witness = _extreme_set(m, table, i, r, from_top[i])
    if witness is None:
        witness = max(enumerate_class(m, l, budget), default=None,
                      key=lambda s: spectrum(s).mu_max)
        if witness is None:
            raise InternalInvariantError(f"class m={m}, l={l} has no valid sets")
        best = spectrum(witness).mu_max
    return ClassMax(m, l, best, ramanujan_bound(m, l), witness)


def class_all_ramanujan(m: int, l: int, budget: int = DEFAULT_BUDGET,
                        table: RowTable | None = None) -> bool:
    """class_clean on Z_m, with a default budget."""
    return class_clean(m, l, budget, table)


def hat_l_exhaustive(m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Edge-removal bound by direct search, independent of the theory.

    For m <= 13 the classes from l0 + 2 up to m - 2 are climbed.  From
    m = 15 on, only l0 + 2 and l0 + 4 are decided; a clean l0 + 4 would
    contradict the window set breaking the bound there and is reported
    as an internal error.  The climb reads one row_table of d(m) - 1
    sorted rows, so the budget is charged (d(m) - 1) * (m - 1)/2 table
    entries, d(m) the number of divisors of m.
    """
    check_modulus(m)
    l0 = trivial_bound(m)
    hat = climb(m, m - 2 if m <= 13 else l0 + 4, budget, class_all_ramanujan)
    if m >= 15 and hat == l0 + 4:
        raise InternalInvariantError(
            f"class at covalency l0+4 came out clean for m={m}")
    return hat


## ------------------------------------------------------- semiprime families

def _packed_complement(m: int, d: int, l: int) -> CayleySet:
    """Every multiple of d, then the smallest pairs from the residue
    classes +-1 mod d, +-2 mod d, ... until covalency l is reached: the
    first r pairs ordered by their distance to a multiple of d."""
    if m % d or d == m or d == 1:
        raise ValidationError(f"{d} is not a proper divisor of {m}")
    r = (l - 1) // 2
    if (m // d - 1) // 2 > r:
        raise ValidationError(
            f"multiples of {d} alone overflow covalency {l} in Z_{m}")
    pairs = sorted(range(1, (m - 1) // 2 + 1), key=lambda x: (min(x % d, -x % d), x))
    return CayleySet.from_pairs(m, pairs[:r])


class CrosscheckReport(NamedTuple):
    """Closed-form vs exhaustive class maximum for m = p*q, family matched exactly."""

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

    Compares the class maximum at covalency l0 + 2 with max(mu0, mu1, mu2),
    which semiprime_candidates refuses for q > 4p - 5, and names the first
    family (window, p_multiples, q_multiples) that the witness equals: the
    argmax row of d = 1, q or p orders the pairs as that family does.
    """
    p, q_prime = least_prime_split(m)
    q = m // p
    if q == p or not q_prime:
        raise ValidationError(f"m={m} is not a product of two distinct primes")
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
                   if s.complement == cm.witness.complement), None)
    return CrosscheckReport(m, p, q, l, mu_closed, cm.mu, delta, cm.rb,
                            family, delta <= 1e-9 and family is not None,
                            cm.witness)
