"""Cayley graphs over general odd abelian groups.

The cyclic theory carries over verbatim: for a group G of odd order m
and a symmetric connected set S = G \\ T (identity in T, |T| = l) the
nontrivial eigenvalues are lambda_chi = -sum_{t in T} chi(t), and every
class of covalency l <= l0(m) is automatically Ramanujan.  What changes
beyond l0 is which groups keep an extra Ramanujan layer: among the
non-cyclic groups only the squares Z_p x Z_p of the first few odd
primes do.  Z_3 x Z_3 has every class Ramanujan (the classes above
covalency 5 are empty once connectivity is enforced), Z_p x Z_p gains
one extra step for p in {7, 11, 13, 17} and two for p = 5, and every
other non-cyclic group is ordinary with hat_l = l0.  abelian_oracle
checks this on a group of any order with ramcirc.oracle.climb, which
reads each class maximum off the sorted row of (0, ..., 0, d) for each
proper divisor d of the exponent L (one row on Z_p x Z_p), written from
the multiplicities of its values with no sort; the budget still charges
(d(L) - 1) x h entries, h = (|G| - 1)/2.

Cayley sets, spectra and the Ramanujan predicate are ramcirc.spectra's,
whose CayleySet takes an AbelianGroup; abelian_is_ramanujan is
is_ramanujan's decision as a bool.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .bounds import trivial_bound
from .classify import Verdict, classify
from .errors import DEFAULT_BUDGET, InternalInvariantError, ValidationError
from .numtheory import is_prime
from .oracle import class_clean, climb
from .spectra import CayleySet, is_ramanujan

KIND_CYCLIC = "cyclic"
KIND_PP = "prime_square_group"
KIND_GENERIC = "noncyclic_generic"


class _AbelianGroupFields(NamedTuple):
    orders: tuple[int, ...]


class AbelianGroup(_AbelianGroupFields):
    """An odd abelian group given by its invariant factor chain.

    orders = (m1, ..., mr) with 3 <= m1 | m2 | ... | mr, all odd.  The
    chain form is canonical, so two isomorphic groups compare equal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, orders):
        if not orders:
            raise ValidationError("a group needs at least one invariant factor")
        orders = tuple(int(n) for n in orders)
        for n in orders:
            if n < 3 or n % 2 == 0:
                raise ValidationError(f"invariant factors must be odd and >= 3, got {n}")
        for a, b in zip(orders, orders[1:]):
            if b % a:
                raise ValidationError(
                    f"orders must form a divisibility chain; {a} does not divide {b}")
        return super().__new__(cls, orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        return self.orders[-1]

    @property
    def is_cyclic(self) -> bool:
        return len(self.orders) == 1

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.orders)))

    def negate(self, t) -> tuple[int, ...]:
        return tuple((-x) % n for x, n in zip(t, self.orders))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def spans(self, gens) -> bool:
        """Whether the given elements generate the whole group.

        A breadth-first search, kept as the tests' reference for the
        character-kernel rule that CayleySet and the oracle apply.
        """
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    e = self.add(h, g)
                    if e not in seen:
                        seen.add(e)
                        nxt.append(e)
            frontier = nxt
        return len(seen) == self.order


def abelian_is_ramanujan(cayley: CayleySet) -> bool:
    """Whether is_ramanujan accepts cayley, as a bool: a decision is always truthy."""
    return is_ramanujan(cayley).is_ramanujan


## ------------------------------------------------- prime-square excess

def pp_excess(p: int, h: int) -> float:
    """Signed excess of the packed construction on Z_p x Z_p.

    The construction at covalency l0 + 2h (a full line through the
    identity plus p - 3 + 2h elements of the two neighbouring cosets)
    has an eigenvalue of magnitude p + (p - 3 + 2h) cos(2 pi / p); the
    excess is that value minus 2*sqrt(p^2 - 2p + 2 - 2h).  Positive
    excess certifies that class non-Ramanujan.
    """
    if not is_prime(p) or p < 5:
        raise ValidationError("the construction needs a prime p >= 5")
    if h < 1:
        raise ValidationError("the layer index h must be at least 1")
    if p < 2 * h - 3:
        raise ValidationError(
            f"layer h={h} does not fit in the neighbouring cosets for p={p}")
    arg = p * p - 2 * p + 2 - 2 * h
    if arg <= 0:
        raise ValidationError("covalency exceeds the group order")
    return p + (p - 3 + 2 * h) * math.cos(math.tau / p) - 2.0 * math.sqrt(arg)


class AbelianVerdict(NamedTuple):
    """Outcome of the edge-removal bound for one abelian group.

    For cyclic groups the cyclic verdict is attached verbatim.  For
    Z_p x Z_p the field h_star records the first layer whose packed
    construction beats the Ramanujan bound, so hat_l = l0 + 2(h_star-1).
    """

    group: AbelianGroup
    l0: int
    kind: str
    verdict: str
    epsilon: int | None
    hat_l: int
    h_star: int | None = None
    cyclic: Verdict | None = None

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.group.orders),
            "m": self.group.order,
            "l0": self.l0,
            "kind": self.kind,
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "hatl": self.hat_l,
            "h_star": self.h_star,
            "cyclic": self.cyclic.to_json_dict() if self.cyclic else None,
        }


def abelian_hat_l(group: AbelianGroup) -> AbelianVerdict:
    """The edge-removal bound for an odd abelian group.

    Cyclic groups fall back to the circulant classification.  Among the
    rest, Z_3 x Z_3 keeps every class Ramanujan (hat_l = m - 2 = 7),
    Z_p x Z_p climbs while the packed-construction excess stays
    non-positive, and everything else is ordinary at l0.
    """
    m = group.order
    l0 = trivial_bound(m)
    if group.is_cyclic:
        v = classify(m)
        return AbelianVerdict(group, l0, KIND_CYCLIC, v.verdict, v.epsilon,
                              v.hat_l, cyclic=v)
    orders = group.orders
    if len(orders) == 2 and orders[0] == orders[1] and is_prime(orders[0]):
        p = orders[0]
        if p == 3:
            return AbelianVerdict(group, l0, KIND_PP, "all_ramanujan", None, m - 2)
        for h in (1, 2, 3):
            if pp_excess(p, h) > 0:
                eps = 2 * (h - 1)
                return AbelianVerdict(
                    group, l0, KIND_PP,
                    "exceptional" if eps else "ordinary", eps, l0 + eps,
                    h_star=h)
        raise InternalInvariantError(
            f"packed construction failed to terminate by h=3 for p={p}")
    return AbelianVerdict(group, l0, KIND_GENERIC, "ordinary", 0, l0)


## ------------------------------------------------------------- oracle

def abelian_oracle(group: AbelianGroup, budget: int = DEFAULT_BUDGET) -> int:
    """Exact hat_l by deciding every class above l0 with oracle.class_clean.

    Classes of covalency at most l0 are Ramanujan outright, so
    oracle.climb starts at l0 + 2 and runs up to |G| - 2, stopping at the
    first class containing a valid (connected) violator; a class left
    empty by the connectivity requirement passes vacuously.  Every class
    reads one oracle.row_table, a sorted row of h = (|G| - 1)/2 entries
    per proper divisor of the exponent L, oracle.order_divisors (one row
    on Z_p x Z_p), written from multiplicities with no sort; the budget
    is still charged (d(L) - 1) x h entries.  A table of more than budget entries, or a
    class of more than budget sets where class_clean falls back to
    oracle.enumerate_class, raises BudgetExceededError.
    """
    return climb(group, group.order - 2, budget, class_clean)
