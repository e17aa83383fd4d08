"""End-to-end checks of the command-line surface.

These exercise the wiring only: each command's output is compared
against the corresponding library call, whose values are pinned in the
library test modules.
"""

import csv
import io
import json

import pytest

from ramcirc import cli, spectra
from ramcirc.abelian import AbelianGroup, abelian_hat_l
from ramcirc.classify import classify, count_exceptionals
from ramcirc.cli import main
from ramcirc.numtheory import count_p2_ratio, count_poly
from ramcirc.spectra import CayleySet, is_ramanujan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_invalid_order(self, capsys):
        code, _, err = run(capsys, "classify", "8")
        assert code == 2 and "error:" in err


class TestHatl:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "hatl", "15")
        assert code == 0
        assert "hat_l(15) = 7  [exceptional]" in out

    def test_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "hatl", "15", "--oracle")
        assert code == 0
        assert "oracle: 7  (agree)" in out

    def test_oracle_json(self, capsys):
        code, out, _ = run(capsys, "--json", "hatl", "21", "--oracle")
        assert code == 0
        got = json.loads(out)
        assert got == {"m": 21, "hatl": 7, "verdict": "ordinary",
                       "oracle": 7, "agrees": True}


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

    def test_poly(self, capsys):
        code, out, _ = run(capsys, "--json", "count", "poly",
                           "--coeffs", "1,5,-5", "--x", "50",
                           "--mode", "semiprime_distinct")
        assert code == 0
        got = json.loads(out)
        assert got["count"] == count_poly([1, 5, -5], 50, "semiprime_distinct")


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
        want["oracle"] = None
        assert got == want

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "abelian", "--orders", "5,5", "--oracle")
        assert code == 0
        assert "oracle: 11  (agree)" in out

    def test_oracle_past_49(self, capsys):
        code, out, err = run(capsys, "abelian", "--orders", "9,9", "--oracle")
        assert code == 0
        assert "oracle: 15  (agree)" in out
        assert "Traceback" not in err

    def test_oracle_decides_11x11(self, capsys):
        ## its l0 + 2 class holds 7.5e10 sets; its pair table, 3600 entries
        code, out, err = run(capsys, "abelian", "--orders", "11,11", "--oracle")
        assert code == 0
        assert "oracle: 21  (agree)" in out
        assert "Traceback" not in err

    def test_oracle_over_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "abelian", "--orders", "11,11", "--oracle",
                           "--budget", "10")
        assert code == 2
        assert "error: enumeration needs 3600 table entries, budget is 10" in err
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

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "profile", "--c", "-5",
                           "--k", "10", "--samples", "4")
        assert code == 0
        got = json.loads(out)
        assert len(got) == 4
        assert set(got[0]) == {"x", "mu0", "mu1", "mu2", "rb"}
