"""The one escalation path: precision.decide and who may refine margins."""

import math
import re
from pathlib import Path

import mpmath as mp
import pytest

from ramcirc import golden, precision
from ramcirc.bounds import window_margin
from ramcirc.classify import classify
from ramcirc.oracle import hat_l_exhaustive
from ramcirc.precision import AUTO_EXTENDED_THRESHOLD, MAX_DIGITS, NumericPolicy, decide

## every comparison is inside this escalation window, so every decision
## takes the mpmath route
FORCED = NumericPolicy(escalation_margin=1e6)


def _table3_orders(kmax):
    for k in range(4, kmax + 1):
        for c in golden.TABLE3_COLUMNS:
            if c != -5 or k >= 19:
                yield k * k + 5 * k + c


class TestDecide:
    def test_doubles_decide_outside_the_window(self):
        d = decide(15, 9, lambda: 4.5, lambda digits: pytest.fail("escalated"))
        assert d.is_ramanujan is False and d.escalated is False
        assert d.digits is None and d.resolved
        assert d.margin == d.rb - 4.5

    def test_forced_policy_escalates(self):
        d = window_margin(15, 9, FORCED)
        assert d.escalated and d.resolved and d.digits == FORCED.start_digits(15)
        assert d.margin == pytest.approx(window_margin(15, 9).margin, abs=1e-15)

    def test_unresolved_margin_is_a_tie(self):
        ## a margin of -10**(12 - digits) stays below the noise floor at
        ## every precision, so it is never resolved
        d = decide(15, 9, lambda: 2 * math.sqrt(5),
                   lambda digits: 2 * mp.sqrt(5) + mp.mpf(10) ** (12 - digits))
        assert d.escalated and not d.resolved and d.digits == MAX_DIGITS
        assert d.margin == 0.0 and d.is_ramanujan
        ## a +0.0, not the -0.0 that the float of the negative margin gives
        assert math.copysign(1.0, d.margin) == 1.0

    def test_doubles_are_skipped_above_the_threshold(self):
        m = AUTO_EXTENDED_THRESHOLD + 1

        def no_doubles():
            raise AssertionError("doubles consulted above the threshold")

        d = decide(m, 1, no_doubles, lambda digits: 0)
        assert d.escalated and d.is_ramanujan and d.mu_max == 0.0


class TestForcedEscalation:
    def test_classification_is_unchanged(self):
        orders = [*range(3, 2001, 2), *_table3_orders(50)]
        for m in orders:
            forced, plain = classify(m, policy=FORCED), classify(m)
            assert (forced.verdict, forced.kind, forced.hat_l) == (
                plain.verdict, plain.kind, plain.hat_l), m

    def test_exhaustive_bound_is_unchanged(self):
        for m in range(3, 30, 2):
            assert hat_l_exhaustive(m, policy=FORCED) == hat_l_exhaustive(m), m


def test_refine_margin_is_called_only_in_precision():
    package = Path(precision.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "precision.py"
                 and re.search(r"\brefine_margin\b", path.read_text())]
    assert offenders == []
