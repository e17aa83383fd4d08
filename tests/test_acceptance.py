"""Acceptance gate.

Thirteen end-to-end checks, one test per criterion, run in order.  Each
prints a single `ACCEPTANCE n: PASS/FAIL` line directly to the real
stdout (bypassing capture) so the gate can be read off a plain pytest
run.  A criterion fails loudly: the summary line flips to FAIL and the
underlying assertion error propagates.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from ramcirc import golden
from ramcirc.abelian import AbelianGroup, abelian_hat_l, abelian_oracle
from ramcirc.bounds import (
    in_candidate_set,
    negative_excess_window,
    trivial_bound,
    window_excess,
)
from ramcirc.classify import (
    candidate_margins,
    classify,
    exceptional_orders,
    rho_e,
    thresholds,
)
from ramcirc.numtheory import (
    avoids_candidate_set,
    family_eval,
    hardy_littlewood_constant,
    poly_eval,
    sieve_primes,
)
from ramcirc.oracle import hat_l_exhaustive, semiprime_crosscheck
from ramcirc.precision import start_digits
from ramcirc.spectra import (
    CayleySet,
    spectrum,
    window_complement,
    window_eigenvalue,
)

_MARKS = {"I": "1", "II": "2", "III": "3"}


@pytest.fixture
def report(capsys):
    """One gate line per criterion, written past pytest's capture."""
    @contextmanager
    def criterion(num, desc):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}",
                      flush=True)
    return criterion


def family_margins(p, q):
    """Signed distances of the three candidate values to the bound, at the
    digits the family tables of the CLI use."""
    return [float(d) for d in candidate_margins(p, q, start_digits(p * q))]


class TestAcceptance:
    def test_criterion_01_small_order_census(self, report):
        with report(1, "exhaustive hat_l over odd 3..55 matches the "
                          "small-order table in under 60 s"):
            t0 = time.perf_counter()
            for m, (l0_exp, hat_exp) in golden.TABLE1.items():
                assert hat_l_exhaustive(m) == hat_exp, m
                if l0_exp is not None:
                    assert trivial_bound(m) == l0_exp, m
            assert time.perf_counter() - t0 < 60.0

    def test_criterion_02_trivial_bound_floor(self, report):
        with report(2, "orders up to 13 stay Ramanujan through l = m-2 "
                          "while hat_l(15) = 7 stops short of 13"):
            for m in range(3, 14, 2):
                assert hat_l_exhaustive(m) == m - 2, m
            assert hat_l_exhaustive(15) == 7 < 13

    def test_criterion_03_classification_chart(self, report):
        with report(3, "kind markers of k^2+5k+c for 4 <= k <= 50 match "
                          "the reference chart in under 5 s"):
            t0 = time.perf_counter()
            for k in range(4, 51):
                marks = []
                for c in golden.TABLE3_COLUMNS:
                    if c == -5 and k < 19:
                        marks.append("-")
                        continue
                    v = classify(k * k + 5 * k + c)
                    assert v.witness.member, v.m
                    marks.append(_MARKS[v.kind]
                                 if v.verdict == "exceptional" else ".")
                assert "".join(marks) == golden.TABLE3_MARKS[k], k
            assert time.perf_counter() - t0 < 5.0

    def test_criterion_04_linear_family(self, report):
        with report(4, "a=1, c=-5 family: prime pairs, ratio digits and "
                          "all 24 candidate margins"):
            for y, p_exp, q_exp, ratio_exp, margins_exp in golden.TABLE4_ROWS:
                pt = family_eval(1, y, -5)
                assert (pt.p, pt.q) == (p_exp, q_exp), y
                assert golden.truncate_ratio(pt.q, pt.p) == ratio_exp, y
                got = family_margins(pt.p, pt.q)
                for g, w in zip(got, margins_exp):
                    assert golden.margin_close(g, w), (y, g, w)

    def test_criterion_05_shifted_family(self, report):
        with report(5, "shifted polynomial family: products sit outside "
                          "the candidate set with a lone positive margin"):
            for y, p_exp, q_exp, ratio_exp, margins_exp in golden.TABLE5_ROWS:
                p = poly_eval(golden.TABLE5_POLY_P, y)
                q = poly_eval(golden.TABLE5_POLY_Q, y)
                assert (p, q) == (p_exp, q_exp), y
                assert not in_candidate_set(p * q).member, y
                assert golden.truncate_ratio(q, p) == ratio_exp, y
                got = family_margins(p, q)
                assert got[0] > 0 and got[1] < 0 and got[2] < 0, (y, got)
                for g, w in zip(got, margins_exp):
                    assert golden.margin_close(g, w), (y, g, w)

    def test_criterion_06_wide_family(self, report):
        with report(6, "a=64, c=5 family: 12-digit prime pairs whose "
                          "margins shrink to 1e-15"):
            for y, p_exp, q_exp, ratio_exp, margins_exp in golden.TABLE6_ROWS:
                pt = family_eval(64, y, 5)
                assert (pt.p, pt.q) == (p_exp, q_exp), y
                assert golden.truncate_ratio(pt.q, pt.p) == ratio_exp, y
                got = family_margins(pt.p, pt.q)
                for g, w in zip(got, margins_exp):
                    assert golden.margin_close(g, w), (y, g, w)
            ## the y=39 middle candidate famously grazes the bound
            row39 = next(r for r in golden.TABLE6_ROWS if r[0] == 39)
            assert row39[4][1] == 2.17e-13

    def test_criterion_07_threshold_constants(self, report):
        with report(7, "threshold constants match their four-decimal "
                          "truncations and interleave correctly"):
            th = thresholds()
            got = tuple(golden.truncate(g, 4)
                        for g in (th.gamma1, th.gamma2, th.gamma3, th.gamma4))
            assert got == golden.TABLE2_GAMMAS
            for c in golden.TABLE3_COLUMNS:
                assert golden.truncate(th.xbar1[c], 4) == golden.TABLE2_XBAR1[c]
                assert golden.truncate(th.gamma5[c], 4) == golden.TABLE2_GAMMA5[c]
                assert golden.truncate(th.xunder2[c], 4) == golden.TABLE2_XUNDER2[c]
                assert th.xbar1[c] < th.gamma5[c] < th.xunder2[c]

    def test_criterion_08_window_sign_pattern(self, report):
        with report(8, "window-excess sign across every band up to "
                          "k = 200"):
            for k in range(1, 201):
                lo_band = k * k + 3 * k + 3
                hi_band = k * k + 5 * k + 5
                if k <= 3:
                    neg_from = lo_band
                else:
                    neg_from, hi = negative_excess_window(k)
                    assert hi == hi_band, k
                for m in range(lo_band, hi_band + 1, 2):
                    d = window_excess(m)
                    assert (d < 0) == (m >= neg_from), (k, m, d)

    def test_criterion_09_avoiding_primes(self, report):
        with report(9, "first five primes whose residues dodge the whole "
                          "candidate family"):
            found = []
            for p in sieve_primes(1000):
                p = int(p)
                if p > 2 and avoids_candidate_set(p):
                    found.append(p)
                if len(found) == 5:
                    break
            assert tuple(found) == golden.AVOIDS_FIRST5

    def test_criterion_10_singular_series(self, report):
        with report(10, "singular-series constants at prime limit 1e7 "
                           "within 0.02 (the c=-3 reference is the "
                           "recomputed 0.62143; the published list repeats "
                           "the c=-5 value there)"):
            for c, expected in golden.HL_CONSTANTS.items():
                est = hardy_littlewood_constant(c, 10 ** 7)
                assert abs(est.value - expected) <= golden.HL_TOLERANCE, c

    def test_criterion_11_abelian_ladder(self, report):
        with report(11, "abelian ladder: Z_p x Z_p keeps 2 extra steps at "
                           "p=5, 1 for p in 7..17, none from 19 on; "
                           "exhaustive agreement at p = 5, 7"):
            v33 = abelian_hat_l(AbelianGroup((3, 3)))
            assert (v33.verdict, v33.hat_l) == ("all_ramanujan", 7)
            v55 = abelian_hat_l(AbelianGroup((5, 5)))
            assert (v55.hat_l, v55.h_star) == (11, 3)
            for p in (7, 11, 13, 17):
                v = abelian_hat_l(AbelianGroup((p, p)))
                assert v.hat_l == v.l0 + 2 and v.verdict == "exceptional", p
            for p in (int(q) for q in sieve_primes(199) if q >= 19):
                v = abelian_hat_l(AbelianGroup((p, p)))
                assert v.hat_l == v.l0 and v.verdict == "ordinary", p
            assert abelian_oracle(AbelianGroup((5, 5))) == 11
            assert abelian_oracle(AbelianGroup((7, 7))) == 13

    def test_criterion_12_spectral_consistency(self, report):
        with report(12, "closed-form class maxima agree with exhaustion "
                           "on 15, 21, 35, 55 and 1000 random spectra "
                           "satisfy the trace identities"):
            for m in (15, 21, 35, 55):
                rep = semiprime_crosscheck(m)
                assert rep.agrees and rep.delta <= 1e-9, m
            rng = random.Random(20260814)
            for trial in range(1000):
                m = rng.randrange(5, 302, 2)
                r_max = min((m - 3) // 2, 30)
                r = rng.randint(1, max(1, r_max))
                if trial % 4 == 0:
                    cay = window_complement(m, min(2 * r + 1, m - 2))
                    from_window = True
                else:
                    from_window = False
                    while True:
                        reps = rng.sample(range(1, (m - 1) // 2 + 1),
                                          min(r, (m - 1) // 2))
                        try:
                            cay = CayleySet.from_pairs(m, reps)
                            break
                        except Exception:
                            continue
                vals = spectrum(cay).values
                assert vals[0] == cay.valency
                assert abs(math.fsum(vals)) < 1e-7
                power = math.fsum(v * v for v in vals)
                assert power == pytest.approx(m * cay.valency, rel=1e-12)
                for j in range(1, m, max(1, m // 7)):
                    assert vals[j] == vals[m - j]
                if from_window:
                    for j in (1, 2, m // 2):
                        assert window_eigenvalue(m, cay.covalency, j) == \
                            pytest.approx(vals[j], rel=1e-9, abs=1e-9)

    def test_criterion_13_exceptional_census(self, report):
        with report(13, "exactly 18 exceptional orders up to 100, equal "
                           "to the union read off the reference tables"):
            got = exceptional_orders(100)
            assert list(got) == list(golden.EXCEPTIONAL_ORDERS_100)
            assert rho_e(100) == 18
            from_t1 = {m for m, (l0, hat) in golden.TABLE1.items()
                       if l0 is not None and hat == l0 + 2}
            from_t3 = set()
            for k, marks in golden.TABLE3_MARKS.items():
                if k > 7:
                    continue
                for c, mark in zip(golden.TABLE3_COLUMNS, marks):
                    if mark in "123" and k * k + 5 * k + c <= 100:
                        from_t3.add(k * k + 5 * k + c)
            assert sorted(from_t1 | from_t3) == list(golden.EXCEPTIONAL_ORDERS_100)
