"""The one escalation path: precision.decide and who may refine margins."""

import importlib
import math
import re
from pathlib import Path

import mpmath as mp
import pytest

from ramcirc import golden, oracle, precision
from ramcirc.bounds import window_margin
from ramcirc.classify import classify, scan_range
from ramcirc.oracle import hat_l_exhaustive
from ramcirc.precision import AUTO_EXTENDED_THRESHOLD, MAX_DIGITS, decide, start_digits

## every comparison is inside this escalation window, so every decision
## takes the mpmath route
FORCED = 1e6

## ramcirc/__init__ rebinds the name ramcirc.classify to the function
classify_module = importlib.import_module("ramcirc.classify")


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

    def test_forced_policy_escalates(self, monkeypatch):
        plain = window_margin(15, 9)
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", FORCED)
        d = window_margin(15, 9)
        assert d.escalated and d.resolved and d.digits == start_digits(15)
        assert d.margin == pytest.approx(plain.margin, abs=1e-15)

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
    def test_classification_is_unchanged(self, monkeypatch):
        orders = [*range(3, 2001, 2), *_table3_orders(50)]
        plain = [classify(m) for m in orders]
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", FORCED)
        for m, want in zip(orders, plain):
            forced = classify(m)
            assert (forced.verdict, forced.kind, forced.hat_l) == (
                want.verdict, want.kind, want.hat_l), m

    def test_exhaustive_bound_is_unchanged(self, monkeypatch):
        plain = [hat_l_exhaustive(m) for m in range(3, 30, 2)]
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", FORCED)
        for m, want in zip(range(3, 30, 2), plain):
            assert hat_l_exhaustive(m) == want, m

    def test_one_constant_widens_every_window(self, monkeypatch):
        ## decide, the batched scan and the oracle's row extremes all read
        ## precision.ESCALATION_MARGIN, so patching it alone forces each
        want = {m: classify(m).hat_l for m in range(3, 30, 2)}
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", FORCED)
        d = decide(15, 9, lambda: 4.5, lambda digits: mp.mpf(4.5))
        assert d.escalated and d.resolved and d.digits == start_digits(15)

        seen, real_classify = [], classify_module.classify
        monkeypatch.setattr(classify_module, "classify",
                            lambda m: seen.append(m) or real_classify(m))
        lo, hi = 10 ** 6 + 1, 10 ** 6 + 201
        assert [v.m for v in scan_range(lo, hi)] == seen == list(range(lo, hi + 1, 2))

        ## per class: the rows built and every decision on a row extreme
        rows, decisions = [], []
        real_rows, real_decide = oracle._row_extremes, precision.decide
        real_clean = oracle.class_clean

        def row_extremes(*args):
            for block in real_rows(*args):
                rows.append(len(block[0]))
                yield block

        def decide_row(*args):
            decisions.append(real_decide(*args))
            return decisions[-1]

        def class_clean(group, l, budget):
            del rows[:], decisions[:]
            clean = real_clean(group, l, budget)
            assert decisions and all(d.escalated for d in decisions), (group, l)
            ## a clean class decides every row; any other ends on the first
            ## row that decide rejects
            assert [d.is_ramanujan for d in decisions] == (
                [True] * sum(rows) if clean
                else [True] * (len(decisions) - 1) + [False]), (group, l)
            return clean

        for name, fn in (("_row_extremes", row_extremes),
                         ("class_clean", class_clean)):
            monkeypatch.setattr(oracle, name, fn)
        monkeypatch.setattr(precision, "decide", decide_row)
        for m, hat in want.items():
            assert hat_l_exhaustive(m) == hat, m


def test_refine_margin_is_called_only_in_precision():
    package = Path(precision.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "precision.py"
                 and re.search(r"\brefine_margin\b", path.read_text())]
    assert offenders == []
