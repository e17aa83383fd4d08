"""The one escalation path: precision.decide and who may refine margins."""

import importlib
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from ramcirc import abelian, golden, oracle, precision
from ramcirc.abelian import AbelianGroup, abelian_oracle
from ramcirc.bounds import window_margin
from ramcirc.classify import classify, scan_range
from ramcirc.errors import InternalInvariantError
from ramcirc.oracle import hat_l_exhaustive
from ramcirc.precision import AUTO_EXTENDED_THRESHOLD, MAX_DIGITS, decide, start_digits
from ramcirc.spectra import (
    TIE_SLACK,
    cos2,
    group_orders,
    mp_abs_mu,
    pair_characters,
    phase_table,
    proves_tie,
)

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

    def test_tie_is_asked_only_after_the_doubles(self):
        d = decide(15, 9, lambda: 4.5, lambda digits: pytest.fail("escalated"),
                   tie=lambda: pytest.fail("tie asked"))
        assert d.is_ramanujan is False and not d.tie_proved

    def test_proved_tie_skips_mpmath(self):
        d = decide(15, 9, lambda: 2 * math.sqrt(5),
                   lambda digits: pytest.fail("mpmath pass"), tie=lambda: True)
        assert d.is_ramanujan and d.tie_proved and d.escalated
        assert d.margin == 0.0 and math.copysign(1.0, d.margin) == 1.0
        assert d.mu_max == d.rb == 2 * math.sqrt(5) and d.digits is None

    def test_unproved_tie_takes_the_mpmath_route(self):
        d = decide(15, 9, lambda: 2 * math.sqrt(5),
                   lambda digits: 2 * mp.sqrt(5) + mp.mpf(10) ** (12 - digits),
                   tie=lambda: None)
        assert d.escalated and not d.resolved and d.digits == MAX_DIGITS
        assert d.margin == 0.0 and d.is_ramanujan and not d.tie_proved

    def test_unresolved_margin_proved_nonzero_is_an_error(self):
        with pytest.raises(InternalInvariantError):
            decide(15, 9, lambda: 2 * math.sqrt(5),
                   lambda digits: 2 * mp.sqrt(5) + mp.mpf(10) ** (12 - digits),
                   tie=lambda: False)

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

    def test_ties_are_proved_exactly_where_refinement_ends_unresolved(
            self, monkeypatch):
        ## every row extreme of these climbs goes through decide; each is
        ## decided once with its tie certificate and once without
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", FORCED)
        pairs, classes, real_decide = [], [], precision.decide
        real_clean = oracle.class_clean

        def decide_both(*args, tie=None):
            pairs.append((real_decide(*args), real_decide(*args, tie=tie)))
            return pairs[-1][1]

        def class_clean(group, l, budget, table):
            start = len(pairs)
            clean = real_clean(group, l, budget, table)
            classes.append((group, l, start, len(pairs)))
            return clean

        monkeypatch.setattr(precision, "decide", decide_both)
        monkeypatch.setattr(oracle, "class_clean", class_clean)
        monkeypatch.setattr(abelian, "class_clean", class_clean)
        for m in range(3, 82, 2):
            hat_l_exhaustive(m)
        for orders in ((3, 3), (5, 5), (3, 9), (3, 3, 3), (3, 15), (7, 7),
                       *((m,) for m in range(3, 50, 2))):
            abelian_oracle(AbelianGroup(orders))
        ## one decision per character order, not one per cyclic subgroup
        assert len(pairs) == 155
        assert [d.tie_proved for _, d in pairs] == [not t.resolved for t, _ in pairs]
        assert sum(d.tie_proved for _, d in pairs) == 3
        ## a margin proved nonzero is refined exactly as without the proof
        assert all(d == t if t.resolved else d.is_ramanujan == t.is_ramanujan
                   for t, d in pairs)
        ## and each class decides its order rows as the full pair table
        ## does, up to the row that ends the class
        assert classes[-1][3] == len(pairs)
        for group, l, start, end in classes:
            want = _full_table_decisions(real_decide, group, l)
            assert [d for _, d in pairs[start:end]] == want[:end - start], (group, l)

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

        ## per class: every decision on a row extreme of its table
        decisions, real_decide = [], precision.decide
        real_clean = oracle.class_clean

        def decide_row(*args, **kwargs):
            decisions.append(real_decide(*args, **kwargs))
            return decisions[-1]

        def class_clean(group, l, budget, table):
            del decisions[:]
            clean = real_clean(group, l, budget, table)
            assert decisions and all(d.escalated for d in decisions), (group, l)
            ## a clean class decides every row; any other ends on the first
            ## row that decide rejects
            assert [d.is_ramanujan for d in decisions] == (
                [True] * len(table.divisors) if clean
                else [True] * (len(decisions) - 1) + [False]), (group, l)
            return clean

        monkeypatch.setattr(oracle, "class_clean", class_clean)
        monkeypatch.setattr(precision, "decide", decide_row)
        for m, hat in want.items():
            assert hat_l_exhaustive(m) == hat, m


def _full_table_decisions(decide, group, l):
    """decide on every row of the whole pair table of the class that is
    the row of a character (0, ..., 0, d), d in oracle.order_divisors,
    and whose extreme is within ESCALATION_MARGIN of the bound, in row
    order, as oracle.class_clean would without an early exit.  The tie
    is proved on the sides within TIE_SLACK of the larger, selected here."""
    orders = group_orders(group)
    n, r, L = math.prod(orders), (l - 1) // 2, orders[-1]
    h = (n - 1) // 2
    R = pair_characters(orders)
    zeros = (0,) * (len(orders) - 1)
    reps = {(*zeros, d) for d in oracle.order_divisors(L)}
    K = phase_table(orders, R, R)
    S = np.sort(np.minimum(K, L - K), axis=1)
    cos = cos2(L, np.arange(L // 2 + 1))
    top = 1.0 + cos[S[:, :r]].sum(axis=1)
    absmax = np.maximum(top, -(1.0 + cos[S[:, h - r:]].sum(axis=1)))
    rb = 2.0 * math.sqrt(n - l - 1)
    out = []
    for i in np.flatnonzero(absmax > rb - precision.ESCALATION_MARGIN).tolist():
        if tuple(R[i].tolist()) in reps:
            sides = np.stack([S[i, :r], S[i, h - r:]])
            mu = np.abs(1.0 + cos2(L, sides).sum(axis=1))
            near = sides[mu >= mu.max() - TIE_SLACK]
            out.append(decide(
                n, l, lambda: float(absmax[i]),
                lambda _digits: max(mp_abs_mu(s, L) for s in sides.tolist()),
                tie=lambda: proves_tie(near, L, n - l)))
    return out


@pytest.mark.parametrize("name, home", [("refine_margin", "precision.py"),
                                        ("proves_tie", "spectra.py"),
                                        ("mp_abs_mu", "spectra.py")])
def test_named_only_in_its_module(name, home):
    ## one escalation path: refine_margin is precision.decide's, and the
    ## tie proof and mpmath row sums are spectra.decide_rows'
    package = Path(precision.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != home
                 and re.search(rf"\b{name}\b", path.read_text())]
    assert offenders == []
