"""Cayley-graph spectra on odd abelian groups and the Ramanujan predicate.

A Cayley graph on Z_m (m odd, int residues as elements) or on an
abelian.AbelianGroup (tuple elements; Z_m is the rank-1 group (m,)) is
described here through the complement of its symmetric connection set:
the set T of removed elements together with the identity.  For the
regimes this package studies the complement is the small side, so every
eigenvalue is computed as minus a character sum over T,

    mu_chi = -sum_{t in T} cos(2*pi*<chi, t>)   (mu_j = -sum_{b in T} cos(2*pi*b*j/m) on Z_m),

with mu_0 = |G| - |T| the valency and <chi, t> an exact integer phase
in units of 1/exponent L.  phase_blocks, cos2 and mp_abs_mu are the one
place a phase becomes an eigenvalue: phase_blocks yields the phase table
in blocks, each phase k folded to min(k, L - k) so that chi and -chi get
exactly equal values, cos2 turns folded phases into doubles
2*cos(2*pi*k/L), and mp_abs_mu sums one row in mpmath from the exact
phases.  A graph of valency k is Ramanujan when
max_{chi != 0} |mu_chi| <= 2*sqrt(k-1); the comparison is non-strict
and borderline margins escalate to extended precision.  An exact tie
|mu| = 2*sqrt(k-1) is proved from the phases by proves_tie, in doubles,
and counts as Ramanujan; no precision would ever resolve it.
decide_rows is the one such decision over rows of exact phases, for
is_ramanujan and ramcirc.oracle's rows alike.
"""

from __future__ import annotations

import math
from operator import index
from typing import TYPE_CHECKING, NamedTuple

from . import precision
from .errors import DEFAULT_BUDGET, ValidationError, check_budget, lazy_numpy
from .precision import RamanujanDecision, mp_cos2pi_frac, mp_sinpi_frac

np = lazy_numpy()

if TYPE_CHECKING:
    from .abelian import AbelianGroup

## entries of one block of a phase table held at once
BLOCK = 1 << 17

## rows whose |mu| in doubles lies this close to the largest may attain
## it: far above the doubles' error, and far below any gap between values
TIE_SLACK = 1e-9


def check_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise ValidationError(f"modulus must be an odd integer >= 3, got {m!r}")


def check_covalency(m: int, l: int) -> None:
    check_modulus(m)
    if l % 2 == 0 or not 1 <= l <= m - 2:
        raise ValidationError(f"covalency must be odd in [1, m-2], got {l}")


def group_orders(group) -> tuple[int, ...]:
    """Invariant factors of an AbelianGroup, or (m,) for Z_m's modulus m;
    anything else comes back as (group,) for check_modulus to refuse."""
    return getattr(group, "orders", (group,))


def elements(orders: tuple[int, ...]) -> np.ndarray:
    """Every element of the group as a row, in product order (on Z_m, row k is k)."""
    return np.indices(orders).reshape(len(orders), -1).T


def pair_characters(orders: tuple[int, ...]) -> np.ndarray:
    """One character of each pair {chi, -chi} with chi != 0, the first in
    product order (on Z_m, the rows 1..(m-1)/2); both give one eigenvalue
    and one kernel, and no nonzero chi of an odd-order group is -chi."""
    return np.concatenate(list(pair_blocks(orders)))


def pair_blocks(orders: tuple[int, ...]):
    """Yield pair_characters(orders) in consecutive blocks of at most BLOCK
    characters: on Z_m the rows 1..(m-1)/2 directly, on a group of rank
    >= 2 the first of each pair among BLOCK elements at a time."""
    size = math.prod(orders)
    if len(orders) == 1:
        for lo in range(1, size // 2 + 1, BLOCK):
            yield np.arange(lo, min(lo + BLOCK, size // 2 + 1))[:, None]
        return
    n = np.array(orders)
    strides = np.array([math.prod(orders[k + 1:]) for k in range(len(orders))])
    for lo in range(0, size, BLOCK):
        flat = np.arange(lo, min(lo + BLOCK, size))
        E = flat[:, None] // strides % n
        E = E[flat < (-E % n) @ strides]
        if len(E):
            yield E


def phase_table(orders: tuple[int, ...], chars: np.ndarray,
                elems: np.ndarray) -> np.ndarray:
    """[i, k] = <chars[i], elems[k]> exactly, in units of 1/exponent; a
    character takes the coordinates of an element, G being its own dual."""
    L = orders[-1]
    return ((chars * (L // np.array(orders))) @ elems.T) % L


def phase_blocks(orders: tuple[int, ...], chars: np.ndarray, cols: np.ndarray):
    """Yield phase_table(orders, chars, cols) in blocks of consecutive
    characters of at most BLOCK entries, each phase k folded to
    min(k, L - k), L the exponent."""
    L = orders[-1]
    rows = max(1, BLOCK // max(1, len(cols)))
    for lo in range(0, len(chars), rows):
        K = phase_table(orders, chars[lo:lo + rows], cols)
        yield np.minimum(K, L - K)


def cos2(L: int, folded: np.ndarray) -> np.ndarray:
    """2*cos(2*pi*k/L) for each folded phase k of phase_blocks."""
    return 2.0 * np.cos(folded * (2.0 * math.pi / L))


def mp_abs_mu(phases, L: int):
    """|1 + sum_k 2*cos(2*pi*k/L)| over the phases k, at the current
    mpmath precision, every argument reduced exactly."""
    import mpmath as mp
    return abs(1 + mp.fsum(2 * mp_cos2pi_frac(k, L) for k in phases))


def _half_totient(L: int) -> int:
    """phi(L)/2, the number of units u of Z_L with 1 <= u <= L/2, for L >= 3."""
    n, phi, p = L, L, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    return (phi - phi // n if n > 1 else phi) // 2


def proves_tie(phases, L: int, valency: int) -> bool | None:
    """Whether alpha = (1 + sum_k 2*cos(2*pi*k/L))**2 - 4*(valency - 1) is
    exactly zero, for one row of phases k or for each row of a 2-D array.

    alpha is an algebraic integer of Q(zeta_L), and its Galois conjugates
    alpha_u are the same expression at the phases u*k, one for each unit
    u of Z_L with 1 <= u <= L/2 (u and -u give one value).  A nonzero
    alpha has a nonzero integer norm, the product of its conjugates, so
    some |alpha_u| >= 1.  Computed in doubles for every such u, all
    |alpha_u| < 1/2 prove alpha = 0, and one |alpha_u| >= 1/2 proves
    alpha != 0.  Returns True when every row is proved zero and False
    when every row is proved nonzero.  Returns None when the rows
    disagree, when the phi(L)/2 cosines per phase exceed DEFAULT_BUDGET
    or L >= 2**31, or when the doubles' error, below
    2e-14 * ((2r + 1)**2 + 4*valency) for rows of r phases, could
    reach 1/4.
    """
    if L >= 1 << 31:
        return None
    K = np.atleast_2d(np.asarray(phases, dtype=np.int64))
    units = _half_totient(L)
    if ((2 * K.shape[1] + 1) ** 2 + 4 * valency > 10 ** 13
            or units * K.size > DEFAULT_BUDGET):
        return None
    nonzero = np.zeros(len(K), dtype=bool)
    step = max(1, BLOCK // max(1, K.size))
    for lo in range(1, L // 2 + 1, step):
        u = np.arange(lo, min(lo + step, L // 2 + 1))
        P = (u[np.gcd(u, L) == 1][:, None, None] * K) % L
        mu = 1.0 + cos2(L, np.minimum(P, L - P)).sum(axis=2)
        nonzero |= np.any(np.abs(mu * mu - 4.0 * (valency - 1)) >= 0.5, axis=0)
        if nonzero.all():
            return False
    return None if nonzero.any() else True


def _rows(items: list, orders: tuple[int, ...]) -> np.ndarray:
    """Elements as integer rows, in Python ints where int64 could overflow."""
    dtype = np.int64 if orders[-1] < 1 << 31 else object
    return np.array(items, dtype=dtype).reshape(len(items), len(orders))


def _reduced(group, items: list, sign: int = 1) -> list:
    """sign * x in canonical form for each item of group: the residues of
    an odd modulus, or tuples with one entry per invariant factor, each
    read by operator.index, so ints and numpy integers alone pass."""
    orders = group_orders(group)
    try:
        if isinstance(group, int):
            check_modulus(group)
            return [sign * index(x) % group for x in items]
        if all(len(x) == len(orders) for x in items):
            return [tuple(sign * index(c) % n for c, n in zip(x, orders)) for x in items]
    except TypeError:
        pass
    raise ValidationError(f"elements of the group {orders} need {len(orders)} integer entries")


class _CayleySetFields(NamedTuple):
    group: int | AbelianGroup
    complement: frozenset


class CayleySet(_CayleySetFields):
    """A symmetric connection set of an odd abelian group via its complement.

    group is an odd modulus m >= 3, for Z_m with int residues in [0, m),
    or an AbelianGroup with canonical tuples.  complement holds the
    identity and the removed elements; it is closed under negation, its
    size (the covalency) is odd and between 1 and |G| - 2, and the kept
    elements generate G.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, group, complement):
        self = super().__new__(cls, group, frozenset(complement))
        t = self.complement
        ## negation maps t onto itself exactly when t is canonical and closed
        if set(_reduced(group, t, -1)) != t:
            raise ValidationError("complement must be canonical and closed under negation")
        if (0 if isinstance(group, int) else group.identity) not in t:
            raise ValidationError("complement must contain the identity")
        m, l = self.m, len(t)
        check_covalency(m, l)
        ## the character-kernel rule: the kept set lies in a proper subgroup
        ## exactly when T holds all m - |ker chi| elements outside the kernel
        ## of some chi != 0; a proper subgroup of an odd-order group has at
        ## most |G|/3 elements, so a larger kept set generates
        if 3 * (m - l) <= m:
            _check_budget(self)
            orders, chars = self.orders, pair_characters(self.orders)
            kernel = m // np.lcm.reduce(np.array(orders) // np.gcd(chars, orders), axis=1)
            outside = np.concatenate(
                [(k != 0).sum(axis=1) for k in
                 phase_blocks(orders, chars, self._removed_reps())])
            if np.any(2 * outside == m - kernel):
                raise ValidationError("kept elements do not generate the group")
        return self

    @classmethod
    def from_residues(cls, group: int | AbelianGroup, residues) -> CayleySet:
        """Build from any iterable of removed elements, signed or unreduced."""
        return cls(group, frozenset(_reduced(group, list(residues))))

    @classmethod
    def from_pairs(cls, group: int | AbelianGroup, pair_reps) -> CayleySet:
        """Build from representatives of the removed negation pairs."""
        reps = _reduced(group, list(pair_reps))
        identity = 0 if isinstance(group, int) else group.identity
        return cls(group, frozenset([identity, *reps, *_reduced(group, reps, -1)]))

    @property
    def orders(self) -> tuple[int, ...]:
        """Invariant factors of the group; Z_m is (m,)."""
        return group_orders(self.group)

    @property
    def m(self) -> int:
        """The group order |G|."""
        return math.prod(self.orders)

    @property
    def covalency(self) -> int:
        return len(self.complement)

    @property
    def valency(self) -> int:
        return self.m - len(self.complement)

    def residues(self) -> list:
        """Canonical sorted complement, the serialization used by the CLI."""
        return sorted(self.complement)

    def _removed_reps(self) -> np.ndarray:
        """The first element in product order of each removed pair, sorted."""
        t = self.residues()
        return _rows([x for x, y in zip(t, _reduced(self.group, t, -1)) if x < y],
                     self.orders)


class Spectrum(NamedTuple):
    m: int
    valency: int
    values: tuple[float, ...]
    mu_max: float
    rb: float


def window_complement(m: int, l: int) -> CayleySet:
    """The canonical complement {0, +-1, ..., +-(l-1)/2} at covalency l."""
    check_covalency(m, l)
    return CayleySet.from_pairs(m, range(1, (l - 1) // 2 + 1))


def eigenvalue(cayley: CayleySet, chi) -> float:
    """Eigenvalue of the character chi, an index j in [0, m) on Z_m and a
    canonical tuple on an AbelianGroup; the trivial one gives the valency."""
    if _reduced(cayley.group, [chi]) != [chi]:
        raise ValidationError(f"character {chi!r} is not canonical in {cayley.orders}")
    if not np.any(chi):
        return float(cayley.valency)
    orders = cayley.orders
    k = next(phase_blocks(orders, _rows([chi], orders), cayley._removed_reps()))
    return float(-1.0 - cos2(orders[-1], k.astype(float)).sum())


def _check_budget(cayley: CayleySet) -> None:
    """Refuse a spectrum of more than DEFAULT_BUDGET cosine terms."""
    check_budget((cayley.m - 1) // 2 * cayley.covalency, "cosine terms")


def spectrum(cayley: CayleySet) -> Spectrum:
    """All |G| eigenvalues, indexed by the characters in product order
    (on Z_m, mu_j at j)."""
    _check_budget(cayley)
    m, orders, L = cayley.m, cayley.orders, cayley.orders[-1]
    table = cos2(L, np.arange(L // 2 + 1))
    blocks = phase_blocks(orders, elements(orders), cayley._removed_reps())
    values = np.concatenate([-1.0 - table[k].sum(axis=1) for k in blocks]).tolist()
    values[0] = float(cayley.valency)
    return Spectrum(m, cayley.valency, tuple(values), max(map(abs, values[1:])),
                    ramanujan_bound(m, cayley.covalency))


def ramanujan_bound(m: int, l: int) -> float:
    """2*sqrt(k - 1) for valency k = m - l."""
    if m - l - 1 < 0:
        raise ValidationError("valency below 1 has no Ramanujan bound")
    return 2.0 * math.sqrt(m - l - 1)


def window_eigenvalue(m: int, l: int, j: int, digits: int | None = None):
    """Closed form mu_j of the canonical window family.

    Equals -sin(pi*j*l/m)/sin(pi*j/m); agrees with the direct complement
    sum for every valid (m, l, j).  With digits set, evaluates in mpmath
    at that precision (arguments reduced exactly either way).
    """
    check_covalency(m, l)
    if not 1 <= j <= m - 1:
        raise ValidationError("index j must lie in [1, m-1]")
    return window_eigenvalue_unchecked(m, l, j, digits)


def window_eigenvalue_unchecked(m: int, l: int, j: int, digits: int | None = None):
    """window_eigenvalue for an (m, l, j) it would accept, unchecked."""
    if digits is not None:
        import mpmath as mp
        with mp.workdps(digits):
            return -mp_sinpi_frac(j * l, m) / mp_sinpi_frac(j, m)
    num = math.sin(math.pi * ((j * l) % (2 * m)) / m)
    den = math.sin(math.pi * j / m)
    return -num / den


def decide_rows(m: int, l: int, L: int, mu: float, blocks) -> RamanujanDecision:
    """Decide mu <= 2*sqrt(m - l - 1) by precision.decide, mu the largest
    |1 + sum_k 2*cos(2*pi*k/L)| in doubles over the rows of folded phases
    k in the 2-D arrays that blocks() yields.

    mpmath takes the largest mp_abs_mu over every row, after proves_tie
    on the rows whose doubles lie within TIE_SLACK of mu.  decide is read
    off its module, so one patch of it sees every route.
    """
    def tie():
        near = [K[np.abs(1.0 + cos2(L, K).sum(axis=1)) >= mu - TIE_SLACK]
                for K in blocks()]
        return proves_tie(np.concatenate(near), L, m - l)

    return precision.decide(
        m, l, lambda: mu,
        lambda _digits: max(mp_abs_mu(k, L) for K in blocks() for k in K.tolist()),
        tie=tie)


def decide_spectrum(cayley: CayleySet, spec: Spectrum) -> RamanujanDecision:
    """is_ramanujan(cayley) for a set whose spectrum spec is already known:
    decide_rows on the phases of one character per negation pair."""
    orders = cayley.orders

    def blocks():
        _check_budget(cayley)
        return phase_blocks(orders, pair_characters(orders), cayley._removed_reps())

    return decide_rows(cayley.m, cayley.covalency, orders[-1], spec.mu_max, blocks)


def is_ramanujan(cayley: CayleySet) -> RamanujanDecision:
    """Decide mu_max <= 2*sqrt(k-1) through precision.decide.

    The comparison is non-strict: an exact tie, proved by proves_tie,
    counts as Ramanujan.
    """
    return decide_spectrum(cayley, spectrum(cayley))
