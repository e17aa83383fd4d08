"""The trivial covalency bound and the candidate set of possibly
exceptional orders.

For odd m let l0(m) = 2*floor(sqrt(m) - 3/2) + 1, the largest odd l
with l <= 2*(sqrt(m) - 1); every class of covalency at most l0 is
automatically Ramanujan.  Whether anything beyond l0 survives is governed
by the sign of the window excess

    d(m) = sin(pi*(2k+3)/m)/sin(pi/m) - 2*sqrt(m - 2k - 4),

the amount by which the canonical window set at covalency l0 + 2 beats
the Ramanujan bound (k = floor(sqrt(m) - 3/2), so 2k + 3 = l0 + 2).
A positive excess certifies m ordinary (window_margin computes it at
any covalency, with the sign of a margin).  The excess is negative exactly
on a short window around k^2 + 5k, which confines every exceptional
order to the candidate set: the odd numbers 15..29 together with the
values k^2 + 5k + c for c in {-5,-3,-1,1,3,5} (k >= 4, and k >= 19 when
c = -5).  Membership is decided by one integer square root: 4m + 25 - 4c
must be the largest odd square up to 4m + 45.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .errors import InternalInvariantError, ValidationError
from .precision import RamanujanDecision, decide
from .spectra import check_covalency, check_modulus, window_eigenvalue_unchecked

## admissible offsets c, their discriminants c' = 25 - 4c, and the least
## band index k at which each offset enters the candidate set
C_OFFSETS = (-5, -3, -1, 1, 3, 5)
CPRIMES = {c: 25 - 4 * c for c in C_OFFSETS}
K_MIN = {c: 19 if c == -5 else 4 for c in C_OFFSETS}

SMALL_WINDOW = frozenset(range(15, 30, 2))


def check_offset(c: int) -> None:
    """Raise ValidationError unless c is one of the admissible offsets."""
    if c not in C_OFFSETS:
        raise ValidationError(f"offset c must be one of {C_OFFSETS}, got {c}")


def trivial_bound(m: int) -> int:
    """l0(m) = 2*floor(sqrt(m) - 3/2) + 1, in exact integer arithmetic."""
    check_modulus(m)
    return trivial_bound_unchecked(m)


def trivial_bound_unchecked(m: int) -> int:
    """trivial_bound for an m it would accept, unchecked."""
    return 2 * ((isqrt(4 * m) - 3) // 2) + 1


def interval_index(m: int) -> int:
    """The k with k^2 + 3k + 9/4 <= m < k^2 + 5k + 25/4."""
    check_modulus(m)
    return (isqrt(4 * m) - 3) // 2


def window_margin(m: int, l: int) -> RamanujanDecision:
    """The decision for mu = -window_eigenvalue(m, l, 1) against the bound
    at covalency l; its margin is the window margin."""
    check_covalency(m, l)
    return window_margin_unchecked(m, l)


def window_margin_unchecked(m: int, l: int) -> RamanujanDecision:
    """window_margin for an (m, l) it would accept, unchecked."""
    return decide(m, l, lambda: -window_eigenvalue_unchecked(m, l, 1),
                  lambda digits: -window_eigenvalue_unchecked(m, l, 1, digits))


def window_excess(m: int) -> float:
    """Signed excess of the canonical window set over the Ramanujan bound.

    Positive excess certifies m ordinary.  Near-zero values are
    re-evaluated in extended precision before being reported.
    """
    check_modulus(m)
    if m < 5:
        raise ValidationError("window excess needs odd m >= 5")
    return -window_margin(m, trivial_bound(m) + 2).margin


def negative_excess_window(k: int) -> tuple[int, int]:
    """Closed integer interval of m in the k-th band with negative excess.

    For k <= 3 the excess is negative on the whole band.  For k >= 4 the
    window is [k^2 + 5k - c, k^2 + 5k + 5] with c = 3 for k <= 18 and
    c = 5 from k = 19 on.
    """
    if k < 4:
        raise ValidationError("the sign window is stated for k >= 4")
    c = 3 if k <= 18 else 5
    return (k * k + 5 * k - c, k * k + 5 * k + 5)


class CandidateWitness(NamedTuple):
    """How (and whether) an order m sits in the candidate set.

    source is "small_window" for odd 15 <= m <= 29 and "quadratic" when
    4m + 25 - 4c is an odd perfect square s^2 with k = (s - 5)/2 in range;
    c and k are filled only in the quadratic case.  The record does not
    hold m (it always sits next to its order), so every order outside
    the candidate set shares the one witness NOT_IN_J.  An immutable
    NamedTuple record: read it by attribute, not by position.
    """

    member: bool
    source: str | None = None
    c: int | None = None
    k: int | None = None

    @property
    def cprime(self) -> int | None:
        return None if self.c is None else 25 - 4 * self.c


## the witness of every order outside the candidate set
NOT_IN_J = CandidateWitness(False)


def in_candidate_set(m: int) -> CandidateWitness:
    """Exact membership test for the candidate set of exceptional orders.

    4m + c' runs over [4m + 5, 4m + 45], and odd squares above 441 lie
    more than 40 apart, so only the largest odd square s^2 <= 4m + 45 can
    give a k >= 4; for odd m every such s^2 >= 4m + 5 is 4m + c' for one
    of the six c'.  Every non-member gets the shared witness NOT_IN_J.
    """
    check_modulus(m)
    if m in SMALL_WINDOW:
        return CandidateWitness(True, "small_window")
    s = isqrt(4 * m + CPRIMES[-5])
    s -= 1 - s % 2
    cp = s * s - 4 * m
    k = (s - 5) // 2
    if cp >= CPRIMES[5]:
        c = (25 - cp) // 4
        if k >= K_MIN[c]:
            return CandidateWitness(True, "quadratic", c, k)
    return NOT_IN_J


def deep_window_max_h(m: int) -> int:
    """Largest h with 4h <= (sqrt(m) - 2)^2, in exact integers: the least
    r >= 0 with r^2 >= 16m is isqrt(16m - 1) + 1, and r = m + 4 - 4h."""
    check_modulus(m)
    return max(0, (m + 3 - isqrt(16 * m - 1)) // 4)


def window_violation(m: int, h: int) -> bool:
    """Check that the window set at covalency l0 + 2h breaks the bound.

    Valid for odd m >= 39 and 2 <= h <= floor((sqrt(m) - 2)^2 / 4); in
    that range the window covalency stays below m/2 and the violation is
    guaranteed, so a False return signals an internal problem upstream.
    """
    check_modulus(m)
    if m < 39:
        raise ValidationError("the deep-window check needs m >= 39")
    hmax = deep_window_max_h(m)
    if not 2 <= h <= hmax:
        raise ValidationError(f"h must lie in [2, {hmax}] for m={m}, got {h}")
    l = trivial_bound(m) + 2 * h
    if 2 * l >= m:
        raise InternalInvariantError(f"window covalency {l} reached m/2 at m={m}")
    return window_margin(m, l).margin < 0
