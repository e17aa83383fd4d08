"""Circulant-graph spectra and the Ramanujan predicate.

A circulant graph on Z_m (m odd) is described here through the complement
of its symmetric connection set: the set T of removed residues together
with 0.  For the regimes this package studies the complement is the small
side, so every eigenvalue is computed as minus a cosine sum over T,

    mu_j = -sum_{b in T} cos(2*pi*b*j/m),        j = 0, ..., m-1,

with mu_0 = m - |T| the valency.  A graph of valency k is Ramanujan when
max_{j>0} |mu_j| <= 2*sqrt(k-1); the comparison is non-strict and
borderline margins escalate to extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import mpmath as mp

from .errors import DEFAULT_BUDGET, BudgetExceededError, ValidationError
from .precision import (
    DEFAULT_POLICY,
    NumericPolicy,
    RamanujanDecision,
    cos2pi_frac,
    decide,
    mp_cos2pi_frac,
    mp_sinpi_frac,
)


def check_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise ValidationError(f"modulus must be an odd integer >= 3, got {m!r}")


def check_covalency(m: int, l: int) -> None:
    check_modulus(m)
    if l % 2 == 0 or not 1 <= l <= m - 2:
        raise ValidationError(f"covalency must be odd in [1, m-2], got {l}")


@dataclass(frozen=True)
class CayleySet:
    """A symmetric connection set of Z_m stored via its complement.

    complement holds 0 and the removed residues; it is closed under
    negation mod m, its size (the covalency) is odd and between 1 and
    m - 2, and the kept residues generate Z_m.
    """

    m: int
    complement: frozenset[int]

    def __post_init__(self):
        check_modulus(self.m)
        t = self.complement
        if not all(isinstance(b, int) and 0 <= b < self.m for b in t):
            raise ValidationError("complement residues must be canonical in [0, m)")
        if 0 not in t:
            raise ValidationError("complement must contain 0")
        if any((self.m - b) % self.m not in t for b in t):
            raise ValidationError("complement must be closed under negation mod m")
        l = len(t)
        if l % 2 == 0 or not 1 <= l <= self.m - 2:
            raise ValidationError(
                f"covalency must be odd and within [1, m-2], got {l} for m={self.m}"
            )
        g = self.m
        for a in range(1, self.m):
            if a not in t:
                g = gcd(g, a)
                if g == 1:
                    break
        if g != 1:
            raise ValidationError("kept residues do not generate Z_m")

    @classmethod
    def from_residues(cls, m: int, residues) -> "CayleySet":
        """Build from any iterable of (possibly signed) removed residues."""
        check_modulus(m)
        return cls(m, frozenset(r % m for r in residues))

    @classmethod
    def from_pairs(cls, m: int, pair_reps) -> "CayleySet":
        """Build from representatives of the removed negation pairs."""
        check_modulus(m)
        t = {0}
        for a in pair_reps:
            t.add(a % m)
            t.add((-a) % m)
        return cls(m, frozenset(t))

    @property
    def covalency(self) -> int:
        return len(self.complement)

    @property
    def valency(self) -> int:
        return self.m - len(self.complement)

    def residues(self) -> list[int]:
        """Canonical sorted complement, the serialization used by the CLI."""
        return sorted(self.complement)


@dataclass(frozen=True)
class Spectrum:
    m: int
    valency: int
    values: tuple[float, ...]
    mu_max: float
    rb: float


def window_complement(m: int, l: int) -> CayleySet:
    """The canonical complement {0, +-1, ..., +-(l-1)/2} at covalency l."""
    check_covalency(m, l)
    return CayleySet.from_pairs(m, range(1, (l - 1) // 2 + 1))


def eigenvalue(cayley: CayleySet, j: int) -> float:
    """Eigenvalue mu_j via the complement cosine sum; mu_0 is the valency."""
    m = cayley.m
    if not 0 <= j < m:
        raise ValidationError(f"index j must lie in [0, m), got {j}")
    if j == 0:
        return float(cayley.valency)
    return -sum(cos2pi_frac(b * j, m) for b in cayley.complement)


def _check_budget(cayley: CayleySet) -> None:
    """Refuse a spectrum of more than DEFAULT_BUDGET cosine terms."""
    terms = (cayley.m - 1) // 2 * cayley.covalency
    if terms > DEFAULT_BUDGET:
        raise BudgetExceededError(terms, DEFAULT_BUDGET, "cosine terms")


def spectrum(cayley: CayleySet) -> Spectrum:
    """All m eigenvalues; mirrored indices share one evaluation exactly."""
    _check_budget(cayley)
    m = cayley.m
    values = [0.0] * m
    values[0] = float(cayley.valency)
    for j in range(1, (m - 1) // 2 + 1):
        v = eigenvalue(cayley, j)
        values[j] = v
        values[m - j] = v
    mu_max = max(abs(v) for v in values[1:])
    rb = ramanujan_bound(m, cayley.covalency)
    return Spectrum(m, cayley.valency, tuple(values), mu_max, rb)


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
    if digits is not None:
        with mp.workdps(digits):
            return -mp_sinpi_frac(j * l, m) / mp_sinpi_frac(j, m)
    num = math.sin(math.pi * ((j * l) % (2 * m)) / m)
    den = math.sin(math.pi * j / m)
    return -num / den


def _mp_mu_max(cayley: CayleySet):
    """max_j |mu_j| over j = 1..(m-1)/2 at the current mpmath precision."""
    _check_budget(cayley)
    m = cayley.m
    best = mp.mpf(0)
    comp = sorted(cayley.complement)
    for j in range(1, (m - 1) // 2 + 1):
        v = abs(-mp.fsum(mp_cos2pi_frac(b * j, m) for b in comp))
        if v > best:
            best = v
    return best


def decide_spectrum(cayley: CayleySet, spec: Spectrum,
                    policy: NumericPolicy = DEFAULT_POLICY) -> RamanujanDecision:
    """is_ramanujan(cayley) for a set whose spectrum spec is already known."""
    return decide(cayley.m, cayley.covalency, lambda: spec.mu_max,
                  lambda _digits: _mp_mu_max(cayley), policy)


def is_ramanujan(cayley: CayleySet,
                 policy: NumericPolicy = DEFAULT_POLICY) -> RamanujanDecision:
    """Decide mu_max <= 2*sqrt(k-1) through precision.decide.

    The comparison is non-strict: an exact tie counts as Ramanujan.
    """
    return decide_spectrum(cayley, spectrum(cayley), policy)
