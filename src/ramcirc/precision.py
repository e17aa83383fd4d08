"""The escalation window, exact-argument trigonometry and decide.

IEEE doubles decide almost every comparison in this package.  Whenever a
margin lands within ESCALATION_MARGIN of zero, or the modulus exceeds
AUTO_EXTENDED_THRESHOLD, the comparison is re-evaluated with mpmath,
starting at start_digits(m) digits and doubling until the margin is
resolved, and every trigonometric argument is first reduced modulo the
period in exact integer arithmetic so that accuracy survives moduli
around 10**13 and far beyond.  decide is the one place where a Ramanujan
comparison takes that route.  spectra.decide_rows, which holds exact
phases, hands decide a tie certificate that settles an exact tie in
doubles before any mpmath pass; a margin that no precision resolves and
no certificate proves is the one tie that is assumed.
mpmath is imported only on the branches that use it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InternalInvariantError

## doubles carry ~15.9 significant digits; above this modulus the
## comparisons made here cannot be trusted to a double at all, so the
## extended path is taken from the start.
AUTO_EXTENDED_THRESHOLD = 1 << 40

## a double-precision margin closer to zero than this is recomputed in
## mpmath; callers read it through the module, so one assignment widens
## every window at once
ESCALATION_MARGIN = 1e-9


def start_digits(m: int) -> int:
    """Digits for the first extended pass on a comparison at modulus m."""
    return max(50, len(str(m)) + 25)


MAX_DIGITS = 400


def mp_cos2pi_frac(num: int, den: int):
    """cos(2*pi*num/den) at the current mpmath precision, exact reduction."""
    import mpmath as mp
    return mp.cospi(mp.mpf(2 * (num % den)) / den)


def mp_sinpi_frac(num: int, den: int):
    """sin(pi*num/den) at the current mpmath precision, exact reduction."""
    import mpmath as mp
    return mp.sinpi(mp.mpf(num % (2 * den)) / den)


def refine_margin(margin_fn, digits: int, scale=1.0):
    """Evaluate margin_fn(digits) -> mpf at increasing precision.

    Starts at digits and doubles the working precision until the computed
    margin clears the noise floor scale * 10**(12 - digits), scale a float
    or an mpf.  Returns
    (margin, digits, resolved); an unresolved margin after MAX_DIGITS is
    reported as a tie.
    """
    import mpmath as mp
    while True:
        with mp.workdps(digits):
            val = margin_fn(digits)
            floor = mp.mpf(scale) * mp.mpf(10) ** (12 - digits)
            if abs(val) > floor:
                return float(val), digits, True
        if digits >= MAX_DIGITS:
            return float(val), digits, False
        digits = min(2 * digits, MAX_DIGITS)


class RamanujanDecision(NamedTuple):
    is_ramanujan: bool
    mu_max: float
    rb: float
    margin: float
    escalated: bool
    digits: int | None = None
    resolved: bool = True
    ## an exact tie proved by its conjugates in doubles, without mpmath
    tie_proved: bool = False


def decide(m: int, l: int, mu_double, mu_mp, tie=None) -> RamanujanDecision:
    """Decide mu <= 2*sqrt(m - l - 1) for a spectral maximum mu.

    mu_double() gives mu in doubles and is used while m is at most
    AUTO_EXTENDED_THRESHOLD and the margin clears ESCALATION_MARGIN.
    Otherwise the optional tie() is asked first: True proves the margin
    exactly zero, which counts as Ramanujan with mu_max == rb and no
    mpmath pass; False proves it nonzero; None proves nothing.  Then
    mu_mp(digits) gives mu at the current mpmath precision and
    refine_margin raises the digits until the margin is resolved.  The
    comparison is non-strict.  A margin no precision resolves is an
    exact tie when tie() did not prove it nonzero: it is reported as
    0.0, unresolved, and counts as Ramanujan; after a proof that it is
    nonzero it is an InternalInvariantError.
    """
    if m <= AUTO_EXTENDED_THRESHOLD:
        mu = mu_double()
        rb = 2.0 * math.sqrt(m - l - 1)
        margin = rb - mu
        if abs(margin) >= ESCALATION_MARGIN:
            return RamanujanDecision(margin >= 0.0, mu, rb, margin,
                                     escalated=False)
    proved = None if tie is None else tie()
    if proved:
        rb = 2.0 * math.sqrt(m - l - 1)
        return RamanujanDecision(True, rb, rb, 0.0, escalated=True,
                                 tie_proved=True)
    import mpmath as mp
    ## mu and rb of the final pass, reported without a second evaluation
    last = {}

    def margin_fn(digits):
        last["mu"], last["rb"] = mu_mp(digits), 2 * mp.sqrt(m - l - 1)
        return last["rb"] - last["mu"]

    ## sqrt(m) in mpmath: a double overflows from m = 2**1024 on
    margin, digits, resolved = refine_margin(margin_fn, start_digits(m), scale=mp.sqrt(m))
    if not resolved:
        if proved is False:
            raise InternalInvariantError(
                f"a margin proved nonzero stayed unresolved at {digits} "
                f"digits (m={m}, l={l})")
        margin = 0.0
    return RamanujanDecision(margin >= 0.0, float(last["mu"]), float(last["rb"]),
                             margin, escalated=True, digits=digits,
                             resolved=resolved)
