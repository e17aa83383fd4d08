"""End-to-end checks of the command-line surface.

These exercise the wiring only: each command's output is compared
against the corresponding library call, whose values are pinned in the
library test modules.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ramcirc import cli, golden, spectra
from ramcirc.abelian import AbelianGroup, abelian_hat_l
from ramcirc.bounds import C_OFFSETS
from ramcirc.classify import classify, count_exceptionals
from ramcirc.cli import main
from ramcirc.numtheory import count_p2_ratio, count_poly
from ramcirc.spectra import CayleySet, is_ramanujan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


## the exact rows of the family tables, margins at three significant digits
FAMILY_TABLES = {
    "table4": (
        "y=7    p=109 q=181 q/p=1.660 margins=(-0.0111, -0.0821, -0.0218) ok",
        "y=17   p=1879 q=3301 q/p=1.756 margins=(-0.000759, -0.00486, -0.0011) ok",
        "y=25   p=4591 q=8101 q/p=1.764 margins=(-0.000312, -0.00199, -0.000442) ok",
        "y=35   p=9601 q=16981 q/p=1.768 margins=(-0.000149, -0.000951, -0.00021) ok",
        "y=40   p=12781 q=22621 q/p=1.769 margins=(-0.000112, -0.000714, -0.000157) ok",
        "y=62   p=32119 q=56941 q/p=1.772 margins=(-4.46e-05, -0.000284, -6.21e-05) ok",
        "y=82   p=57259 q=101581 q/p=1.774 margins=(-2.5e-05, -0.000159, -3.47e-05) ok",
        "y=104  p=93229 q=165469 q/p=1.774 margins=(-1.54e-05, -9.78e-05, -2.13e-05) ok",
    ),
    "table5": (
        "y=13   p=937 q=1637 q/p=1.747 margins=(0.000107, -0.00813, -0.000622) ok",
        "y=43   p=14887 q=26357 q/p=1.770 margins=(4.7e-06, -0.000512, -3.37e-05) ok",
        "y=60   p=29983 q=53149 q/p=1.772 margins=(2.3e-06, -0.000254, -1.64e-05) ok",
        "y=81   p=55813 q=99013 q/p=1.774 margins=(1.23e-06, -0.000136, -8.73e-06) ok",
        "y=158  p=218437 q=387917 q/p=1.775 margins=(3.12e-07, -3.48e-05, -2.2e-06) ok",
        "y=211  p=392383 q=697013 q/p=1.776 margins=(1.73e-07, -1.94e-05, -1.22e-06) ok",
        "y=225  p=446773 q=793669 q/p=1.776 margins=(1.52e-07, -1.7e-05, -1.07e-06) ok",
        "y=249  p=548221 q=973957 q/p=1.776 margins=(1.24e-07, -1.39e-05, -8.7e-07) ok",
    ),
    "table6": (
        "y=39   p=103507276549 q=407634920449 q/p=3.938 "
        "margins=(-5.8e-11, 2.18e-13, -6.62e-11) ok",
        "y=134  p=1223336627269 q=4817774691329 q/p=3.938 "
        "margins=(-4.91e-12, 1.84e-14, -5.6e-12) ok",
        "y=165  p=1854993585541 q=7305381823489 q/p=3.938 "
        "margins=(-3.24e-12, 1.22e-14, -3.69e-12) ok",
        "y=178  p=2158870385989 q=8502116992001 q/p=3.938 "
        "margins=(-2.78e-12, 1.04e-14, -3.17e-12) ok",
        "y=279  p=5304571299589 q=20890594526209 q/p=3.938 "
        "margins=(-1.13e-12, 4.25e-15, -1.29e-12) ok",
        "y=433  p=12777690072709 q=50321416668161 q/p=3.938 "
        "margins=(-4.7e-13, 1.77e-15, -5.36e-13) ok",
        "y=468  p=14927014718149 q=58785940423681 q/p=3.938 "
        "margins=(-4.02e-13, 1.51e-15, -4.59e-13) ok",
        "y=499  p=16970160763909 q=66832308978689 q/p=3.938 "
        "margins=(-3.54e-13, 1.33e-15, -4.04e-13) ok",
    ),
}


class TestGlobalFlags:
    def test_precision_flag_is_rejected(self, capsys):
        ## precision.decide works out its digits; there is no flag for them
        with pytest.raises(SystemExit) as exc:
            main(["--precision", "40", "classify", "35"])
        assert exc.value.code == 2
        assert "ramcirc: error:" in capsys.readouterr().err


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "35")
        assert code == 0
        assert "m = 35" in out
        assert "candidate set: yes (quadratic, c = -1, k = 4)" in out
        assert "kind = II (p = 5, q = 7)" in out
        assert "verdict = exceptional (epsilon = 2)" in out
        assert "hat_l = 11" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "--json", "classify", "35")
        assert code == 0
        got = json.loads(out)
        assert got == classify(35).to_json_dict()
        assert got["inJ"]["member"] is True
        assert got["hatl"] == 11

    def test_json_bytes_are_pinned(self, capsys):
        ## a Verdict is a tuple, so one handed to json.dumps directly
        ## would come out as an array instead of raising
        code, out, _ = run(capsys, "--json", "classify", "35")
        assert code == 0
        assert out == (
            '{"m":35,"l0":9,"inJ":{"member":true,"source":"quadratic","c":-1,'
            '"k":4},"kind":"II","p":5,"q":7,"verdict":"exceptional",'
            '"epsilon":2,"hatl":11,"mu_hat":9.310349041405154,'
            '"rb":9.591663046625438,"margin":0.2813140052202847,'
            '"near_threshold":false}\n')

    def test_invalid_order(self, capsys):
        code, _, err = run(capsys, "classify", "8")
        assert code == 2 and "error:" in err

    def test_order_past_the_double_range(self, capsys):
        ## sqrt(m) of the noise floor no longer goes through a double,
        ## which overflows from m = 2**1024 on
        code, out, err = run(capsys, "classify", str(10**309 + 1))
        assert code == 0 and "Traceback" not in err
        assert "verdict = ordinary" in out


class TestHatl:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "hatl", "15")
        assert code == 0
        assert "hat_l(15) = 7  [exceptional]" in out

    def test_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "hatl", "15", "--oracle")
        assert code == 0
        assert "oracle: 7  (agree)" in out

    def test_oracle_past_20003(self, capsys):
        ## 100003 is prime: one row of 50001 pairs, where the h^2 pair
        ## table would have held 2.5e9 entries
        code, out, err = run(capsys, "hatl", "100003", "--oracle")
        assert code == 0 and "Traceback" not in err
        assert "oracle: 629  (agree)" in out

    def test_oracle_json(self, capsys):
        code, out, _ = run(capsys, "--json", "hatl", "21", "--oracle")
        assert code == 0
        got = json.loads(out)
        assert got == {"m": 21, "hatl": 7, "verdict": "ordinary",
                       "oracle": 7, "agrees": True}

    def test_oracle_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "hat_l_exhaustive", lambda m, budget: 9)
        code, out, err = run(capsys, "hatl", "15", "--oracle")
        assert code == 3
        assert out == "hat_l(15) = 7  [exceptional]\noracle: 9  (DISAGREE)\n"
        assert err == ("internal invariant violated: oracle hat_l 9 contradicts "
                       "classification 7 at m=15\n")
        code, out, _ = run(capsys, "--json", "hatl", "15", "--oracle")
        assert code == 3
        assert json.loads(out) == {"m": 15, "hatl": 7, "verdict": "exceptional",
                                   "oracle": 9, "agrees": False}
        assert out.count("\n") == 1


class TestScan:
    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "3", "55", "--csv", str(path))
        assert code == 0
        assert f"csv written to {path}" in out
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "l0", "in_j", "c", "k", "kind", "verdict",
                           "hat_l", "mu_hat", "rb", "margin", "near_threshold"]
        assert len(rows) == 1 + 27  # odd orders 3..55
        by_m = {r[0]: r for r in rows[1:]}
        r35 = by_m["35"]
        assert r35[1:8] == ["9", "true", "-1", "4", "II", "exceptional", "11"]
        ## small orders carry no margin fields
        assert by_m["3"][8:] == ["", "", "", ""]

    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "scan", "3", "55")
        assert code == 0
        assert "scanned 27 orders, 13 exceptional" in out

    def test_json_rows_match_classify(self, capsys):
        code, out, _ = run(capsys, "--json", "scan", "3", "2001")
        assert code == 0
        verdicts = [classify(m) for m in range(3, 2002, 2)]
        rows = [{"m": v.m, "l0": v.l0, "in_j": v.witness.member,
                 "c": v.witness.c, "k": v.witness.k, "kind": v.kind,
                 "verdict": v.verdict, "hat_l": v.hat_l, "mu_hat": v.mu_hat,
                 "rb": v.rb, "margin": v.margin,
                 "near_threshold": v.near_threshold} for v in verdicts]
        exceptional = [v.m for v in verdicts if v.verdict == "exceptional"]
        assert out == json.dumps({"rows": rows, "exceptional": exceptional},
                                 separators=(",", ":")) + "\n"

    def test_json_bytes_are_pinned(self, capsys):
        ## batched rows (31 is outside J) and classify rows (33, 35, 37)
        code, out, _ = run(capsys, "--json", "scan", "31", "61")
        assert code == 0
        assert out.startswith('{"rows":[{"m":31,"l0":9,"in_j":false,"c":null,')
        assert out.endswith('"exceptional":[35,37,41,47,49,53,55]}\n')
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b88c46098bfe5344abf6c870ca104a36a738b9638c8dce4b344f83f826f202ea")

    def test_no_odd_order_from_3_exits_2(self, capsys):
        for argv in (("scan", "4", "4"), ("scan", "-5", "-3"), ("scan", "5", "4")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "empty scan range" in err, argv
            assert out == ""


class TestSpectrum:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "spectrum", "15",
                           "--complement", "0,1,14")
        assert code == 0
        got = json.loads(out)
        cay = CayleySet.from_residues(15, [0, 1, 14])
        dec = is_ramanujan(cay)
        assert got["valency"] == 12 and got["covalency"] == 3
        assert len(got["mu"]) == 8  # mu_0 .. mu_7
        assert got["mu_max"] == dec.mu_max
        assert got["is_ramanujan"] is True

    def test_spectrum_computed_once(self, capsys, monkeypatch):
        ## the Ramanujan decision reuses the printed spectrum's mu_max
        calls, original = [], spectra.spectrum

        def counting(cayley):
            calls.append(cayley)
            return original(cayley)

        monkeypatch.setattr(spectra, "spectrum", counting)
        monkeypatch.setattr(cli, "spectrum", counting)
        for argv in (("spectrum",), ("--json", "spectrum")):
            calls.clear()
            code, _, _ = run(capsys, *argv, "15", "--complement", "0,1,14")
            assert code == 0 and len(calls) == 1, argv

    def test_complement_must_contain_zero(self, capsys):
        code, _, err = run(capsys, "spectrum", "15", "--complement", "1,14")
        assert code == 2 and "error:" in err


class TestReferenceTables:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0 and "table1: PASS" in out

    def test_table1_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setitem(golden.TABLE1, 15, (5, 9))
        code, out, _ = run(capsys, "table1")
        assert code == 3
        assert "m=15  l0=5   hat_l=7   expected=9   MISMATCH\n" in out
        assert out.endswith("table1: FAIL\n")

    def test_table3(self, capsys):
        code, out, _ = run(capsys, "table3", "--kmax", "10")
        assert code == 0 and "table3: PASS" in out
        assert "k=7" in out

    def test_table4(self, capsys):
        code, out, _ = run(capsys, "table4")
        assert code == 0 and "table4: PASS" in out

    def test_table5(self, capsys):
        code, out, _ = run(capsys, "table5")
        assert code == 0 and "table5: PASS" in out

    def test_table6(self, capsys):
        code, out, _ = run(capsys, "table6")
        assert code == 0 and "table6: PASS" in out

    @pytest.mark.parametrize("name", sorted(FAMILY_TABLES))
    def test_family_table_bytes_are_pinned(self, capsys, name):
        ## the text and the JSON document print the same rows
        rows = FAMILY_TABLES[name]
        code, out, _ = run(capsys, name)
        assert code == 0
        assert out == "".join(f"{row}\n" for row in rows) + f"{name}: PASS\n"
        code, out, _ = run(capsys, "--json", name)
        assert code == 0
        assert out == json.dumps({"name": name, "rows": list(rows), "pass": True},
                                 separators=(",", ":")) + "\n"

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma")
        assert code == 0 and "gamma: PASS" in out
        assert "gamma1 = 1.3843" in out


class TestFamily:
    def test_prime_pairs(self, capsys):
        code, out, _ = run(capsys, "family", "--a", "1", "--c", "-5",
                           "--ymax", "110", "--prime-only")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # 8 points + summary
        assert lines[-1].startswith("8 points")
        assert any(line.startswith("y=40") for line in lines)


class TestCount:
    def test_exceptional(self, capsys):
        code, out, _ = run(capsys, "--json", "count", "exceptional",
                           "--c", "-5", "--kmax", "50")
        assert code == 0
        got = json.loads(out)
        b = count_exceptionals(-5, 50)
        assert got["type_I"] == list(b.type_i)
        assert got["type_II"] == list(b.type_ii)
        assert got["type_III"] == list(b.type_iii)

    def test_p2(self, capsys):
        code, out, _ = run(capsys, "--json", "count", "p2",
                           "--a", "3", "--x", "5000")
        assert code == 0
        got = json.loads(out)
        assert got["count"] == count_p2_ratio(3, 5000) == 157
        assert got["normalized"] is not None

    @pytest.mark.parametrize("a", ["inf", "1e308"])
    def test_p2_unbounded_ratio_counts_every_semiprime(self, capsys, a):
        ## past x, the ratio bound no longer binds: the count is that of a = 1000
        code, out, err = run(capsys, "count", "p2", "--a", a, "--x", "1000")
        assert code == 0 and "Traceback" not in err
        assert "count = 288" in out
        assert run(capsys, "count", "p2", "--a", "1000", "--x", "1000")[1] == out

    @pytest.mark.parametrize("a", ["inf", "1e308"])
    def test_p2_json_is_strict(self, capsys, a):
        ## RFC 8259 has no Infinity: a non-finite ratio is echoed as "inf"
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, err = run(capsys, "--json", "count", "p2", "--a", a, "--x", "1000")
        assert code == 0 and "Traceback" not in err
        got = json.loads(out, parse_constant=reject)
        assert got["a"] == ("inf" if a == "inf" else 1e308)
        assert got["count"] == 288

    @pytest.mark.parametrize("a", ["nan", "1", "0.5"])
    def test_p2_ratio_not_above_one_exits_2(self, capsys, a):
        code, out, err = run(capsys, "count", "p2", "--a", a, "--x", "1000")
        assert code == 2 and out == ""
        assert "ratio bound" in err and "Traceback" not in err

    def test_poly(self, capsys):
        code, out, _ = run(capsys, "--json", "count", "poly",
                           "--coeffs", "1,5,-5", "--x", "50",
                           "--mode", "semiprime_distinct")
        assert code == 0
        got = json.loads(out)
        assert got["count"] == count_poly([1, 5, -5], 50, "semiprime_distinct")

    def test_poly_without_coefficients_exits_2(self, capsys):
        code, out, err = run(capsys, "count", "poly", "--coeffs", "", "--x", "100")
        assert code == 2 and out == ""
        assert "coefficient" in err and "Traceback" not in err


class TestBudget:
    ## the sieve guard raises before any allocation, so these stay cheap
    def test_p2_over_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "count", "p2", "--a", "4",
                             "--x", "100000000000")
        assert code == 2 and out == ""
        assert "budget" in err and "Traceback" not in err

    def test_hlconst_over_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "hlconst", "--c", "1",
                           "--plimit", "200000000")
        assert code == 2
        assert "budget" in err

    def test_spectrum_over_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "spectrum", "10000000000001",
                             "--complement", "0")
        assert code == 2 and out == ""
        assert "budget" in err and "Traceback" not in err

    def test_count_poly_over_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "count", "poly", "--coeffs", "1,5,1",
                             "--x", "100000000000")
        assert code == 2 and out == ""
        assert "budget" in err

    ## the loops a user sizes are refused before their first step, one
    ## past DEFAULT_BUDGET
    @pytest.mark.parametrize("argv", [
        ("table3", "--kmax", "100000001"),
        ("count", "exceptional", "--c", "1", "--kmax", "100000001"),
        ("family", "--a", "1", "--c", "1", "--ymax", "100000001"),
        ("profile", "--c", "1", "--k", "10", "--samples", "100000001"),
    ], ids=["table3", "count_exceptional", "family", "profile"])
    def test_user_sized_loop_over_budget_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "budget" in err and "Traceback" not in err


class TestHlconst:
    def test_reference_pass(self, capsys):
        code, out, _ = run(capsys, "hlconst", "--c", "-3",
                           "--plimit", "1000000")
        assert code == 0
        assert "PASS" in out

    def test_small_limit_skips_comparison(self, capsys):
        code, out, _ = run(capsys, "hlconst", "--c", "-3", "--plimit", "10000")
        assert code == 0
        assert "skipped" in out


class TestAbelian:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "abelian", "--orders", "5,5")
        assert code == 0
        got = json.loads(out)
        want = abelian_hat_l(AbelianGroup((5, 5))).to_json_dict()
        want.update(oracle=None, agrees=None)
        assert got == want

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "abelian", "--orders", "5,5", "--oracle")
        assert code == 0
        assert "oracle: 11  (agree)" in out

    def test_oracle_json(self, capsys):
        code, out, _ = run(capsys, "--json", "abelian", "--orders", "5,5", "--oracle")
        assert code == 0
        want = abelian_hat_l(AbelianGroup((5, 5))).to_json_dict()
        want.update(oracle=11, agrees=True)
        assert json.loads(out) == want
        assert list(json.loads(out))[-2:] == ["oracle", "agrees"]

    def test_oracle_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "abelian_oracle", lambda group, budget: 13)
        code, out, err = run(capsys, "abelian", "--orders", "5,5", "--oracle")
        assert code == 3
        assert out.endswith("hat_l = 11\noracle: 13  (DISAGREE)\n")
        assert err == ("internal invariant violated: abelian oracle 13 contradicts "
                       "hat_l 11 for orders (5, 5)\n")
        code, out, _ = run(capsys, "--json", "abelian", "--orders", "5,5", "--oracle")
        assert code == 3
        want = abelian_hat_l(AbelianGroup((5, 5))).to_json_dict()
        want.update(oracle=13, agrees=False)
        assert json.loads(out) == want
        assert out.count("\n") == 1

    def test_oracle_past_49(self, capsys):
        code, out, err = run(capsys, "abelian", "--orders", "9,9", "--oracle")
        assert code == 0
        assert "oracle: 15  (agree)" in out
        assert "Traceback" not in err

    def test_oracle_decides_11x11(self, capsys):
        ## its l0 + 2 class holds 7.5e10 sets; its table, one row of 60 entries
        code, out, err = run(capsys, "abelian", "--orders", "11,11", "--oracle")
        assert code == 0
        assert "oracle: 21  (agree)" in out
        assert "Traceback" not in err

    def test_oracle_over_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "abelian", "--orders", "11,11", "--oracle",
                           "--budget", "10")
        assert code == 2
        ## one sorted row per character order: 1 row of h = 60 pairs
        assert "error: enumeration needs 60 table entries, budget is 10" in err
        assert "Traceback" not in err

    def test_oracle_decides_z101_cubed(self, capsys):
        ## 515150 pairs and one character order, 101, so one row, though
        ## the group has 10303 nontrivial cyclic subgroups
        code, out, err = run(capsys, "abelian", "--orders", "101,101,101", "--oracle")
        assert code == 0
        assert "oracle: 2027  (agree)" in out
        assert "Traceback" not in err

    def test_rejects_even_orders(self, capsys):
        code, _, err = run(capsys, "abelian", "--orders", "4,8")
        assert code == 2 and "error:" in err


class TestProfile:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "profile", "--c", "-5", "--k", "10",
                           "--samples", "8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "mu0", "mu1", "mu2", "rb"]
        assert len(rows) == 1 + 8
        xs = [float(r[0]) for r in rows[1:]]
        assert all(1.0 < x < 2.0 for x in xs)
        assert all(abs(x - 1.5) > 1e-9 for x in xs)

    def test_csv_file_is_the_printed_csv(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        argv = ("profile", "--c", "3", "--k", "7", "--samples", "6")
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--csv", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == printed.encode()
        assert printed.startswith("x,mu0,mu1,mu2,rb\r\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "profile", "--c", "-5",
                           "--k", "10", "--samples", "4")
        assert code == 0
        got = json.loads(out)
        assert len(got) == 4
        assert set(got[0]) == {"x", "mu0", "mu1", "mu2", "rb"}

    def test_huge_band_index_is_refused(self, capsys):
        code, out, err = run(capsys, "profile", "--c", "1", "--k", str(10**200))
        assert (code, out) == (2, "")
        assert err == "error: k*k + 3k + c - 4 must lie in [0, 2**1022) to evaluate in doubles\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _member(k, c):
    return k * k + 5 * k + c


def _argv(*parts):
    """argv from literal strings and strategies of a string or a tuple of them."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(
        lambda args: tuple(a for p in args for a in ((p,) if isinstance(p, str) else p)))


def _option(name, values):
    ## --name=value, so that a value starting with "-" is not an option
    return values.map(f"{name}={{}}".format)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _int_list(lo, hi, max_size):
    return st.lists(st.integers(lo, hi), max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


## orders as typed: any integer in [-10, 2**70], even ones included, and
## members k^2 + 5k + c of the candidate set, so that the factoring paths
## and the 2**64 refusal are reached as well
_ORDER = st.one_of(st.integers(-10, 1 << 70),
                   st.builds(_member, st.integers(0, 1 << 35), st.sampled_from(C_OFFSETS)))
## the admissible offsets and their neighbours; budgets from none to 10^6
_OFFSET = st.one_of(st.sampled_from(C_OFFSETS).map(str), _ints(-7, 7))
_BUDGET = st.sampled_from(["0", "50", "10000", "1000000"])
## band indices up to 10^400, and around 2**511, past which k^2 passes
## 2**1022 and a profile no longer evaluates in doubles
_BAND = st.one_of(st.integers(-2, 100), st.integers(-2, 10**400),
                  st.builds(lambda d, e: d * 10**e, st.integers(1, 9), st.integers(0, 400)),
                  st.integers((1 << 511) - 3, (1 << 511) + 3)).map(str)
_ARGV = st.one_of(
    st.tuples(st.sampled_from(["classify", "hatl"]), _ORDER.map(str)),
    st.tuples(st.just("abelian"), st.just("--orders"),
              st.lists(st.integers(-2, 60), min_size=1, max_size=2)
              .map(lambda orders: ",".join(map(str, orders)))),
    st.tuples(st.sampled_from(["table1", "gamma", "table4", "table5", "table6"])),
    _argv("hatl", _ints(-3, 151), "--oracle", _option("--budget", _BUDGET)),
    _argv("abelian", _option("--orders", _int_list(-1, 27, 3)), "--oracle",
          _option("--budget", _BUDGET)),
    st.tuples(st.integers(-10, 1 << 70), st.integers(-5, 300)).map(
        lambda t: ("scan", str(t[0]), str(t[0] + t[1]))),
    _argv("spectrum", _ints(-3, 151), _option("--complement", _int_list(-200, 200, 8))),
    _argv("profile", _option("--c", _OFFSET), _option("--k", _BAND),
          _option("--samples", _ints(-1, 20))),
    _argv("family", _option("--a", _ints(-2, 70)), _option("--c", _OFFSET),
          _option("--ymax", _ints(-2, 200)), st.sampled_from([(), ("--prime-only",)])),
    _argv("count", "p2", _option("--a", st.one_of(st.floats(0.5, 5), st.floats()).map(repr)),
          _option("--x", _ints(-5, 10**4))),
    _argv("count", "poly", _option("--coeffs", _int_list(-5, 5, 4)),
          _option("--x", _ints(-5, 10**4)),
          _option("--mode", st.sampled_from(["prime", "semiprime_distinct"]))),
    _argv("count", "exceptional", _option("--c", _OFFSET), _option("--kmax", _ints(-5, 300))),
    _argv("table3", _option("--kmax", _ints(-5, 60))),
)


class TestFuzz:
    """cli.main on generated arguments, in this process and starting no
    other: every input ends in exit code 0, 2 or 3 with a message on any
    refusal, no exception escapes main and no traceback is printed, and
    every --json document is strict JSON."""

    @settings(max_examples=300, deadline=2000)
    @given(argv=_ARGV, as_json=st.booleans())
    ## _int_list draws the empty list too; this pins that case on every run
    @example(argv=("count", "poly", "--coeffs=", "--x=100"), as_json=False)
    def test_main_exits_cleanly(self, argv, as_json):
        argv = ["--json", *argv] if as_json else list(argv)
        out, err = io.StringIO(), io.StringIO()
        no_process = mock.Mock(side_effect=AssertionError("a process was started"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(subprocess, "Popen", no_process), \
                mock.patch.object(os, "fork", no_process):
            try:
                code = main(argv)
            except SystemExit as exc:
                ## argparse refuses malformed arguments with exit code 2
                code = exc.code
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code != 0:
            assert err.getvalue().strip(), argv
        if as_json and out.getvalue():
            json.loads(out.getvalue(), parse_constant=_reject_constant)
