"""Command-line interface.

One executable, `ramcirc`, with one subcommand per question the library
answers.  The table subcommands recompute a pinned reference table and
report PASS or FAIL per row, exiting 3 on any mismatch; `--json` swaps
the text output for one compact JSON document.  Extended precision needs
no flag: precision.decide works out the digits of each comparison.

Exit codes: 0 success, 2 invalid input or an exceeded budget, 3 an
internal invariant or reference-table violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath as mp

from . import golden
from .abelian import AbelianGroup, abelian_hat_l, abelian_oracle
from .bounds import C_OFFSETS, in_candidate_set, trivial_bound
from .classify import (
    KIND_I,
    KIND_II,
    KIND_III,
    VERDICT_EXCEPTIONAL,
    classify,
    count_exceptionals,
    profile_point,
    scan_range,
    semiprime_candidates,
    thresholds,
)
from .errors import BudgetExceededError, InternalInvariantError, ValidationError
from .numtheory import (
    count_p2_ratio,
    count_poly,
    family_eval,
    family_scan,
    hardy_littlewood_constant,
    landau_normalizer,
    poly_eval,
)
from .oracle import DEFAULT_BUDGET, hat_l_exhaustive
from .spectra import CayleySet, decide_spectrum, spectrum


def _emit(args, payload, lines) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _check_oracle(args, payload, lines, exact, hat_l, mismatch: str) -> None:
    """Add the oracle's answer to the output; on a mismatch emit it and raise."""
    payload["oracle"] = exact
    lines.append(f"oracle: {exact}  ({'agree' if exact == hat_l else 'DISAGREE'})")
    if exact != hat_l:
        _emit(args, payload, lines)
        raise InternalInvariantError(mismatch)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list: {text!r}") from exc


def _fmt(x, nd=6) -> str:
    return "none" if x is None else f"{x:.{nd}g}"


## ------------------------------------------------------------- commands

def cmd_classify(args) -> int:
    v = classify(args.m)
    w = v.witness
    member = (f"yes ({w.source}, c = {w.c}, k = {w.k})" if w.source == "quadratic"
              else f"yes ({w.source})") if w.member else "no"
    lines = [
        f"m = {v.m}",
        f"l0 = {v.l0}",
        f"candidate set: {member}",
        f"kind = {v.kind}" + (f" (p = {v.p}, q = {v.q})" if v.p else ""),
        f"verdict = {v.verdict}" + (f" (epsilon = {v.epsilon})"
                                    if v.epsilon is not None else ""),
        f"hat_l = {v.hat_l}",
    ]
    if v.mu_hat is not None:
        lines.append(f"mu_hat = {_fmt(v.mu_hat, 12)}, bound = {_fmt(v.rb, 12)}, "
                     f"margin = {_fmt(v.margin)}")
    if v.near_threshold is not None:
        lines.append(f"near threshold: {'yes' if v.near_threshold else 'no'}")
    _emit(args, v.to_json_dict(), lines)
    return 0


def cmd_hatl(args) -> int:
    v = classify(args.m)
    payload = {"m": args.m, "hatl": v.hat_l, "verdict": v.verdict,
               "oracle": None, "agrees": None}
    lines = [f"hat_l({args.m}) = {v.hat_l}  [{v.verdict}]"]
    if args.oracle:
        exact = hat_l_exhaustive(args.m, budget=args.budget)
        payload["agrees"] = exact == v.hat_l
        _check_oracle(args, payload, lines, exact, v.hat_l,
                      f"oracle hat_l {exact} contradicts classification "
                      f"{v.hat_l} at m={args.m}")
    _emit(args, payload, lines)
    return 0


_SCAN_COLUMNS = ("m", "l0", "in_j", "c", "k", "kind", "verdict", "hat_l",
                 "mu_hat", "rb", "margin", "near_threshold")


def _scan_row(v) -> dict:
    return {
        "m": v.m, "l0": v.l0, "in_j": v.witness.member, "c": v.witness.c,
        "k": v.witness.k, "kind": v.kind, "verdict": v.verdict,
        "hat_l": v.hat_l, "mu_hat": v.mu_hat, "rb": v.rb,
        "margin": v.margin, "near_threshold": v.near_threshold,
    }


def _write_csv(stream, columns, rows) -> None:
    writer = csv.writer(stream)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row[c] is None else
                         (str(row[c]).lower() if isinstance(row[c], bool)
                          else f"{row[c]:.12g}" if isinstance(row[c], float)
                          else row[c])
                         for c in columns])


def cmd_scan(args) -> int:
    verdicts = scan_range(args.lo, args.hi)
    ## rows feed only the JSON and the CSV, lines only the text output
    rows = [_scan_row(v) for v in verdicts] if args.json or args.csv else None
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            _write_csv(fh, _SCAN_COLUMNS, rows)
    exceptional = [v.m for v in verdicts if v.verdict == VERDICT_EXCEPTIONAL]
    lines = []
    if not args.json:
        lines = [f"m={v.m} l0={v.l0} kind={v.kind} verdict={v.verdict} "
                 f"hat_l={v.hat_l} margin={_fmt(v.margin)}" for v in verdicts]
        lines.append(f"scanned {len(verdicts)} orders, {len(exceptional)} exceptional")
        if args.csv:
            lines.append(f"csv written to {args.csv}")
    _emit(args, {"rows": rows, "exceptional": exceptional}, lines)
    return 0


def cmd_spectrum(args) -> int:
    cay = CayleySet.from_residues(args.m, _int_list(args.complement))
    spec = spectrum(cay)
    decision = decide_spectrum(cay, spec)
    half = spec.values[: (args.m - 1) // 2 + 1]
    payload = {
        "m": args.m, "complement": cay.residues(), "valency": cay.valency,
        "covalency": cay.covalency, "rb": spec.rb, "mu": list(half),
        "mu_max": decision.mu_max, "margin": decision.margin,
        "is_ramanujan": decision.is_ramanujan,
    }
    lines = [f"m = {args.m}, complement = {cay.residues()}",
             f"valency = {cay.valency}, covalency = {cay.covalency}",
             f"bound = {_fmt(spec.rb, 12)}"]
    lines += [f"mu_{j} = {_fmt(val, 12)}" for j, val in enumerate(half)]
    lines.append(f"mu_max = {_fmt(decision.mu_max, 12)}, "
                 f"margin = {_fmt(decision.margin)}, "
                 f"ramanujan = {'yes' if decision.is_ramanujan else 'no'}")
    _emit(args, payload, lines)
    return 0


def _table_result(args, name, rows, ok) -> int:
    lines = [*rows, f"{name}: {'PASS' if ok else 'FAIL'}"]
    _emit(args, {"name": name, "rows": rows, "pass": ok}, lines)
    return 0 if ok else 3


def cmd_table1(args) -> int:
    rows, ok = [], True
    for m, (l0_exp, hat_exp) in golden.TABLE1.items():
        v = classify(m)
        good = v.hat_l == hat_exp and (l0_exp is None or v.l0 == l0_exp)
        ok &= good
        l0_txt = "-" if l0_exp is None else str(v.l0)
        rows.append(f"m={m:<3d} l0={l0_txt:<3s} hat_l={v.hat_l:<3d} "
                    f"expected={hat_exp:<3d} {'ok' if good else 'MISMATCH'}")
    return _table_result(args, "table1", rows, ok)


_MARK_OF_KIND = {KIND_I: "1", KIND_II: "2", KIND_III: "3"}


def cmd_table3(args) -> int:
    rows, ok = [], True
    for k in range(4, args.kmax + 1):
        marks = []
        for c in golden.TABLE3_COLUMNS:
            if c == -5 and k < 19:
                marks.append("-")
                continue
            v = classify(k * k + 5 * k + c)
            if not v.witness.member:
                raise InternalInvariantError(
                    f"family value {v.m} fell outside the candidate set")
            marks.append(_MARK_OF_KIND[v.kind]
                         if v.verdict == VERDICT_EXCEPTIONAL else ".")
        line = "".join(marks)
        expected = golden.TABLE3_MARKS.get(k)
        good = expected is None or line == expected
        ok &= good
        suffix = "" if expected is None else ("  ok" if good
                                              else f"  MISMATCH (expected {expected})")
        rows.append(f"k={k:<3d} {line}{suffix}")
    return _table_result(args, "table3", rows, ok)


def _family_margins(p: int, q: int, digits: int):
    m = p * q
    l0 = trivial_bound(m)
    with mp.workdps(digits):
        mu0, mu1, mu2 = semiprime_candidates(p, q, l0, digits=digits)
        rb = 2 * mp.sqrt(m - l0 - 3)
        return float(mu0 - rb), float(mu1 - rb), float(mu2 - rb)


def _family_table(args, name, rows_golden, point_of_y, digits) -> int:
    rows, ok = [], True
    for y, p_exp, q_exp, ratio_exp, margins_exp in rows_golden:
        p, q = point_of_y(y)
        margins = _family_margins(p, q, digits)
        good = (p == p_exp and q == q_exp
                and golden.truncate_ratio(q, p) == ratio_exp
                and all(golden.margin_close(got, want)
                        for got, want in zip(margins, margins_exp)))
        ok &= good
        rows.append(f"y={y:<4d} p={p} q={q} q/p={golden.truncate_ratio(q, p)} "
                    f"margins=({margins[0]:.3g}, {margins[1]:.3g}, {margins[2]:.3g}) "
                    f"{'ok' if good else 'MISMATCH'}")
    return _table_result(args, name, rows, ok)


def cmd_table4(args) -> int:
    def point(y):
        pt = family_eval(1, y, -5)
        return pt.p, pt.q

    return _family_table(args, "table4", golden.TABLE4_ROWS, point, 30)


def cmd_table5(args) -> int:
    ## the shifted offset leaves the admissible set, so the polynomials
    ## are evaluated directly; the products must then sit outside the
    ## candidate set and show a positive window margin
    def point(y):
        p = poly_eval(golden.TABLE5_POLY_P, y)
        q = poly_eval(golden.TABLE5_POLY_Q, y)
        if in_candidate_set(p * q).member:
            raise InternalInvariantError(
                f"shifted-family product {p * q} landed in the candidate set")
        return p, q

    return _family_table(args, "table5", golden.TABLE5_ROWS, point, 30)


def cmd_table6(args) -> int:
    def point(y):
        pt = family_eval(64, y, 5)
        return pt.p, pt.q

    ## moduli near 10**26 with margins near 10**-15 need 40 digits
    return _family_table(args, "table6", golden.TABLE6_ROWS, point, 40)


def cmd_gamma(args) -> int:
    th = thresholds()
    rows, ok = [], True

    def check(label, value, expected):
        nonlocal ok
        got = golden.truncate(value, 4)
        good = got == expected
        ok &= good
        rows.append(f"{label} = {got}  {'ok' if good else f'MISMATCH (expected {expected})'}")

    for label, value, expected in zip(
            ("gamma1", "gamma2", "gamma3", "gamma4"),
            (th.gamma1, th.gamma2, th.gamma3, th.gamma4), golden.TABLE2_GAMMAS):
        check(label, value, expected)
    for c in C_OFFSETS:
        check(f"xbar1({c})", th.xbar1[c], golden.TABLE2_XBAR1[c])
        check(f"gamma5({c})", th.gamma5[c], golden.TABLE2_GAMMA5[c])
        check(f"xunder2({c})", th.xunder2[c], golden.TABLE2_XUNDER2[c])
        if not th.xbar1[c] < th.gamma5[c] < th.xunder2[c]:
            ok = False
            rows.append(f"ordering xbar1 < gamma5 < xunder2 FAILED at c={c}")
    rows.append(f"x1 = {th.x1:.6f}, x2 = {th.x2:.6f}, "
                f"xi1 = {th.xi1:.6f}, xi2 = {th.xi2:.6f}")
    return _table_result(args, "gamma", rows, ok)


def cmd_family(args) -> int:
    points = family_scan(args.a, args.c, args.ymax, require_prime=args.prime_only)
    payload = [{"a": pt.a, "y": pt.y, "c": pt.c, "p": pt.p, "q": pt.q,
                "k": pt.k, "m": pt.m, "ratio_sqrt": pt.ratio_sqrt}
               for pt in points]
    lines = [f"y={pt.y:<5d} p={pt.p} q={pt.q} k={pt.k} m={pt.m} "
             f"sqrt(q/p)={_fmt(pt.ratio_sqrt)}" for pt in points]
    lines.append(f"{len(points)} points (a={args.a}, c={args.c}, "
                 f"y <= {args.ymax}, prime_only={args.prime_only})")
    _emit(args, payload, lines)
    return 0


def cmd_count(args) -> int:
    if args.what == "exceptional":
        b = count_exceptionals(args.c, args.kmax)
        payload = {"c": b.c, "k_max": b.k_max, "type_I": list(b.type_i),
                   "type_II": list(b.type_ii), "type_III": list(b.type_iii)}
        lines = [f"type I  ({len(b.type_i)}): k in {list(b.type_i)}",
                 f"type II ({len(b.type_ii)}): k in {list(b.type_ii)}",
                 f"type III ({len(b.type_iii)}): k in {list(b.type_iii)}"]
    elif args.what == "p2":
        n = count_p2_ratio(args.a, args.x)
        norm = landau_normalizer(args.x) if args.x > 3 else None
        payload = {"a": args.a, "x": args.x, "count": n,
                   "normalized": None if norm is None else n / norm}
        lines = [f"count = {n}",
                 f"count / (x log log x / log x) = {_fmt(payload['normalized'])}"]
    else:
        coeffs = _int_list(args.coeffs)
        n = count_poly(coeffs, args.x, args.mode)
        payload = {"coeffs": coeffs, "x": args.x, "mode": args.mode, "count": n}
        lines = [f"count = {n}"]
    _emit(args, payload, lines)
    return 0


def cmd_hlconst(args) -> int:
    est = hardy_littlewood_constant(args.c, args.plimit)
    expected = golden.HL_CONSTANTS[args.c]
    compared = args.plimit >= 10 ** 6
    ok = (not compared) or abs(est.value - expected) <= golden.HL_TOLERANCE
    lines = [f"C({args.c}) = {est.value:.6f} (primes up to {est.prime_limit}, "
             f"oscillation {est.oscillation:.2e})"]
    if compared:
        lines.append(f"reference {expected} +- {golden.HL_TOLERANCE}: "
                     f"{'PASS' if ok else 'FAIL'}")
    else:
        lines.append("reference comparison skipped (needs --plimit >= 10^6)")
    _emit(args, {"c": args.c, "value": est.value, "oscillation": est.oscillation,
                 "prime_limit": est.prime_limit, "reference": expected,
                 "pass": ok if compared else None}, lines)
    return 0 if ok else 3


def cmd_abelian(args) -> int:
    group = AbelianGroup(tuple(_int_list(args.orders)))
    v = abelian_hat_l(group)
    payload = v.to_json_dict()
    payload["oracle"] = None
    lines = [f"group = Z{list(group.orders)} (order {group.order})",
             f"l0 = {v.l0}",
             f"kind = {v.kind}" + (f" (h* = {v.h_star})" if v.h_star else ""),
             f"verdict = {v.verdict}" + (f" (epsilon = {v.epsilon})"
                                         if v.epsilon is not None else ""),
             f"hat_l = {v.hat_l}"]
    if args.oracle:
        exact = abelian_oracle(group, budget=args.budget)
        _check_oracle(args, payload, lines, exact, v.hat_l,
                      f"abelian oracle {exact} contradicts hat_l {v.hat_l} "
                      f"for orders {group.orders}")
    _emit(args, payload, lines)
    return 0


def cmd_profile(args) -> int:
    if args.samples < 1:
        raise ValidationError("need at least one sample")
    pts = []
    for i in range(args.samples):
        x = 1.0 + (i + 0.5) / args.samples
        if abs(x - 1.5) < 1e-9:
            continue
        pts.append(profile_point(args.c, args.k, x))
    rows = [{"x": pt.x, "mu0": pt.mu0, "mu1": pt.mu1, "mu2": pt.mu2, "rb": pt.rb}
            for pt in pts]
    if args.json:
        _emit(args, rows, [])
        return 0
    out = io.StringIO()
    _write_csv(out, ("x", "mu0", "mu1", "mu2", "rb"), rows)
    text = out.getvalue()
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


## --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramcirc",
        description="Ramanujan edge-removal bounds for circulant graphs")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one odd order")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("hatl", help="edge-removal bound for one odd order")
    p.add_argument("m", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="verify by exact class maxima, read from sorted rows "
                        "of the pair table; exit 2 if the table exceeds --budget")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_hatl)

    p = sub.add_parser("scan", help="classify every odd order in a range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("spectrum", help="spectrum of one circulant graph")
    p.add_argument("m", type=int)
    p.add_argument("--complement", required=True, metavar="LIST",
                   help="comma-separated removed residues, including 0")
    p.set_defaults(func=cmd_spectrum)

    for name, fn in (("table1", cmd_table1), ("table4", cmd_table4),
                     ("table5", cmd_table5), ("table6", cmd_table6)):
        p = sub.add_parser(name, help=f"recompute reference {name}")
        p.set_defaults(func=fn)

    p = sub.add_parser("table3", help="classification chart of k^2+5k+c")
    p.add_argument("--kmax", type=int, default=50)
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("gamma", help="analytic threshold constants")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("family", help="semiprime candidate families")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--ymax", type=int, required=True)
    p.add_argument("--prime-only", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("count", help="census counting functions")
    csub = p.add_subparsers(dest="what", required=True)
    pe = csub.add_parser("exceptional", help="exceptional k^2+5k+c up to kmax")
    pe.add_argument("--c", type=int, required=True)
    pe.add_argument("--kmax", type=int, required=True)
    pp = csub.add_parser("p2", help="semiprimes pq <= x with p < q < a*p")
    pp.add_argument("--a", type=float, required=True)
    pp.add_argument("--x", type=int, required=True)
    pl = csub.add_parser("poly", help="prime/semiprime values of a polynomial")
    pl.add_argument("--coeffs", required=True, metavar="LIST",
                    help="comma-separated, highest degree first")
    pl.add_argument("--x", type=int, required=True)
    pl.add_argument("--mode", choices=("prime", "semiprime_distinct"),
                    default="prime")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("hlconst", help="truncated singular-series constant")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--plimit", type=int, default=10 ** 7)
    p.set_defaults(func=cmd_hlconst)

    p = sub.add_parser("abelian", help="edge-removal bound for an abelian group")
    p.add_argument("--orders", required=True, metavar="LIST",
                   help="invariant factor chain, comma-separated")
    p.add_argument("--oracle", action="store_true",
                   help="verify by exact class maxima, read from sorted rows "
                        "of the pair table; exit 2 if the table exceeds --budget")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_abelian)

    p = sub.add_parser("profile", help="asymptotic candidate maxima along x")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
