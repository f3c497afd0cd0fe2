"""Command-line front end.

Subcommands:
  approx       one approximation row: exact p, q and measured error
  table        convergence table over an inclusive n range
  verify       exact identity suites with per-check pass/fail lines
  constants    gamma and zeta reference values
  asymptotics  exponent coefficient profiles
  roots        saddle-root refinement report

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
--out file that cannot be opened), 3 precision failure.  BELLGAMMA_DIGITS
sets the default precision (50 when unset); identical invocations produce
byte-identical output.

Each command takes the parsed and range-checked argparse namespace and
returns its output text with the exit code; main writes the text.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import asymptotics as asy
from . import bell, bernoulli, sequences as seq
from .numerics import (_MAX_DIGITS, LN10, BigFix, PrecisionError, binom,
                       gamma_const, zeta_const)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


class UsageError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise UsageError("bad n range %r; expected start:stop[:step]" % text)
    if len(nums) == 1:
        start = stop = nums[0]
        step = 1
    elif len(nums) == 2:
        (start, stop), step = nums, 1
    elif len(nums) == 3:
        start, stop, step = nums
    else:
        raise UsageError("bad n range %r; expected start:stop[:step]" % text)
    if start < 0 or stop < start or step < 1:
        raise UsageError("n range must be ascending and nonnegative")
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bellgamma",
        description="Exact rational approximations to Bell-polynomial "
                    "combinations of gamma and zeta values.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="text"):
        p.add_argument("--digits", type=int, default=None,
                       help="working precision in decimal digits")
        p.add_argument("--format", dest="fmt", default=fmt_default,
                       choices=("csv", "json", "text"))
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("approx", help="one approximation row")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("table", help="convergence table over an n range")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--n", required=True, metavar="START:STOP[:STEP]",
                   help="inclusive n range")
    p.add_argument("--qn-ratio", action="store_true",
                   help="append a q_n / asymptotic-main-term column")
    common(p, fmt_default="csv")

    p = sub.add_parser("verify", help="exact identity suites")
    p.add_argument("--suite", required=True,
                   choices=("lemma1", "recurrences", "integrality",
                            "bernoulli", "bell", "tail", "saddle"))
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--nmax", type=int, default=None)
    common(p)

    p = sub.add_parser("constants", help="gamma and zeta reference values")
    p.add_argument("--zeta-max", type=int, default=5,
                   help="print zeta(2)..zeta(M)")
    common(p)

    p = sub.add_parser("asymptotics", help="exponent coefficient profiles")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--kind", default=None, choices=asy.PROFILE_KINDS,
                   help="one profile kind (default: all three)")
    p.add_argument("--n", type=int, default=None,
                   help="also evaluate the exponent at this n")
    common(p, fmt_default="json")

    p = sub.add_parser("roots", help="saddle-root refinement report")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--n", type=int, default=10 ** 6)
    common(p)
    return ap


def _check_args(args) -> None:
    """Range-check the parsed arguments; adds args.env_digits (from
    BELLGAMMA_DIGITS) and, for table, args.n_range."""
    try:
        args.env_digits = int(os.environ.get("BELLGAMMA_DIGITS", "50"))
    except ValueError:
        raise UsageError("BELLGAMMA_DIGITS must be an integer")
    if not 1 <= args.env_digits <= 10000:
        raise UsageError("BELLGAMMA_DIGITS out of range 1..10000")
    if args.digits is not None and not 1 <= args.digits <= 10000:
        raise UsageError("--digits out of range 1..10000")
    if hasattr(args, "a") and not 2 <= args.a <= 8:
        raise UsageError("--a out of range 2..8")
    mu = getattr(args, "mu", None)
    if mu is not None and not 1 <= mu <= args.a - 1:
        raise UsageError("--mu out of range 1..a-1")
    if args.command == "approx":
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
    elif args.command == "table":
        args.n_range = _parse_range(args.n)
    elif args.command == "verify":
        if args.nmax is not None and args.nmax < 0:
            raise UsageError("--nmax must be nonnegative")
        if args.suite == "recurrences" and args.nmax is not None:
            if args.nmax < 6:
                raise UsageError("--nmax too small for the recurrence suite")
    elif args.command == "constants":
        if not 2 <= args.zeta_max <= 20:
            raise UsageError("--zeta-max out of range 2..20")
    elif args.command == "asymptotics":
        if args.n is not None and args.n < 1:
            raise UsageError("--n must be positive")
    elif args.command == "roots":
        if abs(args.u) > args.a:
            raise UsageError("--u must satisfy |u| <= a")
        if args.n < 1000:
            raise UsageError("--n must be at least 1000")


def _open_out(path):
    """The stream for the output, opened before any work is done."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError("cannot open --out file %r: %s"
                         % (path, exc.strerror or exc))


def _json(obj) -> str:
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _row_digits(args, n: int) -> int:
    if args.digits is not None:
        return args.digits
    auto = seq.auto_digits(asy.corollary_exponent(args.a, n))
    return max(args.env_digits, auto)


def cmd_approx(args) -> tuple[str, int]:
    digits = _row_digits(args, args.n)
    row = seq.convergence_row(args.a, args.mu, args.n, digits)
    dec = BigFix.from_fraction(row.p / row.q, min(digits, 40)).to_decimal()
    if args.fmt == "csv":
        text = seq.records_to_csv([row])
    elif args.fmt == "json":
        text = _json({
            "a": row.a, "mu": row.mu, "n": row.n,
            "p": "%d/%d" % (row.p.numerator, row.p.denominator),
            "q": str(row.q), "p_over_q": dec,
            "err_log10": row.err_log / LN10,
            "predicted_log10": row.predicted_exponent / LN10,
        })
    else:
        text = "".join((
            "a=%d mu=%d n=%d\n" % (row.a, row.mu, row.n),
            "p = %d/%d\n" % (row.p.numerator, row.p.denominator),
            "q = %d\n" % row.q,
            "p/q = %s\n" % dec,
            "err_log10 = %.6g\n" % (row.err_log / LN10),
            "predicted_log10 = %.6g\n" % (row.predicted_exponent / LN10),
        ))
    return text, EXIT_OK


def _qn_ratio(a: int, n: int) -> float | None:
    if n < 1:
        return None
    return math.exp(math.log(seq.q_at(a, n)) - asy.qn_log_asymptotic(a, n))


def cmd_table(args) -> tuple[str, int]:
    start, stop, step = args.n_range
    ns = range(start, stop + 1, step)
    digits = [_row_digits(args, n) for n in ns]
    # The most precise constants first: every row rounds from them.  Past
    # the oracles' limit the first row too deep fails as it would alone.
    top = min(max(digits) + 20, _MAX_DIGITS)
    gamma_const(top)
    for m in range(2, args.mu + 1):
        zeta_const(m, top)
    rows = [seq.convergence_row(args.a, args.mu, n, d)
            for n, d in zip(ns, digits)]
    ratios = [_qn_ratio(args.a, n) for n in ns] if args.qn_ratio else None
    if args.fmt == "json":
        objs = []
        for i, r in enumerate(rows):
            obj = {"a": r.a, "mu": r.mu, "n": r.n,
                   "p_num": r.p.numerator, "p_den": r.p.denominator,
                   "q": r.q, "err_log10": r.err_log / LN10,
                   "predicted_log10": r.predicted_exponent / LN10}
            if ratios is not None:
                obj["qn_ratio"] = ratios[i]
            objs.append(obj)
        text = _json(objs)
    else:
        text = seq.records_to_csv(rows)
        if ratios is not None:
            lines = text.splitlines()
            lines[0] += ",qn_ratio"
            for i, v in enumerate(ratios):
                lines[i + 1] += "," + ("" if v is None else "%.6g" % v)
            text = "\n".join(lines) + "\n"
        if args.fmt == "text":
            grid = [line.split(",") for line in text.splitlines()]
            widths = [max(len(row[i]) for row in grid)
                      for i in range(len(grid[0]))]
            text = "\n".join("  ".join(cell.rjust(w)
                                       for cell, w in zip(row, widths))
                             for row in grid) + "\n"
    return text, EXIT_OK


def _suite_lemma1(args):
    a = args.a
    nmax = 10 if args.nmax is None else args.nmax
    out = []
    for mu in range(1, a):
        ok = all(seq.lemma1_residual(a, mu, n).is_zero()
                 for n in range(nmax + 1))
        out.append(("lemma1 residual zero: a=%d mu=%d n=0..%d" % (a, mu, nmax),
                    ok))
    return out


def _suite_recurrences(args):
    nmax = 60 if args.nmax is None else args.nmax
    recs = seq.make_paper_recurrences()
    out = []
    qt, pt = seq.aptekarev_seq(nmax)
    out.append(("recurrence aptekarev_q vs explicit sum, n=2..%d" % (nmax - 1),
                seq.recurrence_check(recs["aptekarev_q"], qt, range(2, nmax))))
    out.append(("recurrence aptekarev_p vs explicit sum, n=2..%d" % (nmax - 1),
                seq.recurrence_check(recs["aptekarev_p"], pt, range(2, nmax))))
    for name in ("rivoal_q", "rivoal_p"):
        s = seq.recurrence_generate(recs[name], nmax)
        ok = seq.recurrence_check(recs[name], s, range(0, nmax - 2))
        out.append(("recurrence %s vs generated values, n=0..%d"
                    % (name, nmax - 3), ok))
    out.append(("recurrence a2_q vs explicit sum, n=0..%d" % (nmax - 2),
                seq.recurrence_check(recs["a2_q"], seq.q_seq(2, nmax),
                                     range(0, nmax - 1))))
    out.append(("recurrence a2_p1 vs explicit sum, n=0..%d" % (nmax - 2),
                seq.recurrence_check(recs["a2_p1"], seq.p_seq(2, 1, nmax),
                                     range(0, nmax - 1))))
    out.append(("recurrence a3_q vs explicit sum, n=2..%d" % (nmax - 1),
                seq.recurrence_check(recs["a3_q"], seq.q_seq(3, nmax),
                                     range(2, nmax))))
    for mu in (1, 2):
        name = "a3_p%d" % mu
        out.append(("recurrence %s vs explicit sum, n=2..%d" % (name, nmax - 1),
                    seq.recurrence_check(recs[name], seq.p_seq(3, mu, nmax),
                                         range(2, nmax))))
    out.append(("recurrence a4_q vs explicit sum, n=2..%d" % (nmax - 2),
                seq.recurrence_check(recs["a4_q"], seq.q_seq(4, nmax),
                                     range(2, nmax - 1))))
    for mu in (1, 2, 3):
        name = "a4_p%d" % mu
        out.append(("recurrence %s vs explicit sum, n=2..%d" % (name, nmax - 2),
                    seq.recurrence_check(recs[name], seq.p_seq(4, mu, nmax),
                                         range(2, nmax - 1))))
    return out


def _suite_integrality(args):
    a = args.a
    nmax = 50 if args.nmax is None else args.nmax
    out = []
    q = seq.q_seq(a, nmax)
    out.append(("integrality q_n positive integers: a=%d n=0..%d" % (a, nmax),
                all(isinstance(v, int) and v > 0 for v in q)))
    for mu in range(1, a):
        seq.p_seq(a, mu, nmax)
        ok = all(seq.integrality_check(a, mu, n) for n in range(nmax + 1))
        out.append(("integrality lcm(1..n)^%d p_{n,%d} integral: a=%d n=0..%d"
                    % (mu, mu, a, nmax), ok))
    return out


def _suite_bernoulli(args):
    x = bernoulli.PolyQ.x()
    out = []
    ok = True
    for m in range(0, 9):
        want = bernoulli.PolyQ.const(1)
        for j in range(1, m + 1):
            want = want * (x - j)
        ok = ok and bernoulli.gen_bernoulli(m, m + 1) == want
    out.append(("bernoulli falling-factorial identity m=0..8", ok))
    ok = True
    for m in range(1, 9):
        for n in range(0, 9):
            lhs = m * bernoulli.gen_bernoulli(n, m + 1)
            rhs = (m - n) * bernoulli.gen_bernoulli(n, m)
            if n:
                rhs = rhs + n * (x - m) * bernoulli.gen_bernoulli(n - 1, m)
            ok = ok and lhs == rhs
    out.append(("bernoulli order-raising recursion n,m<=8", ok))
    ok = True
    y = Fraction(1, 3)
    for m in range(1, 6):
        for n in range(0, 9):
            lhs = bernoulli.gen_bernoulli(n, m)(x + y)
            rhs = sum((binom(n, k) * bernoulli.bernoulli_at(k, m, y))
                      * x ** (n - k) for k in range(n + 1))
            ok = ok and lhs == rhs
    out.append(("bernoulli addition formula at y=1/3, n<=8 m<=5", ok))
    ok = True
    for m in range(2, 13, 2):
        s = sum(binom(m, k) * bernoulli.bernoulli_at(k, m + 1,
                                                     Fraction(m + 1, 2)) * 2 ** k
                for k in range(m + 1))
        ok = ok and s == 0
    out.append(("bernoulli even-order alternating sum m=2,4,..,12", ok))
    ok = True
    for m in range(1, 7):
        for n in range(0, 7):
            ok = ok and bernoulli.bernoulli_at(2 * n + 1, m,
                                               Fraction(m, 2)) == 0
    out.append(("bernoulli odd values vanish at midpoint m<=6 n<=6", ok))
    ok = True
    try:
        for m in range(1, 6):
            cs = bernoulli.csc_power_coeffs(m, 15)
            ok = ok and len(cs) == 16 and cs[0] == 1
        ok = ok and bernoulli.csc_power_coeffs(1, 2) == [1, Fraction(1, 6),
                                                         Fraction(7, 360)]
    except ArithmeticError:
        ok = False
    out.append(("bernoulli csc-power dual-route coefficients m<=5 N<=15", ok))
    return out


def _suite_bell(args):
    rng = random.Random(20250814)
    out = []
    ok = True
    for n in range(0, 9):
        for _ in range(4):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(n)]
            ok = ok and bell.bell_eval(xs) == bell.bell_eval_partitions(xs)
    out.append(("bell ladder vs partition sum, n<=8 random rationals", ok))
    ok = True
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        lhs = bell.bell_eval([a + b for a, b in zip(xs, ys)])
        rhs = sum(binom(n, k) * bell.bell_eval(xs[:k])
                  * bell.bell_eval(ys[:n - k]) for k in range(n + 1))
        ok = ok and lhs == rhs
    out.append(("bell addition theorem, n<=7", ok))
    ok = True
    c = Fraction(3, 7)
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        scaled = [c ** (j + 1) * v for j, v in enumerate(xs)]
        ok = ok and bell.bell_eval(scaled) == c ** n * bell.bell_eval(xs)
    out.append(("bell isobaric scaling, n<=7", ok))
    return out


def _suite_tail(args):
    digits = args.digits if args.digits is not None else 30
    out = []
    for a in (2, 3, 4):
        ok = True
        for u in range(-a, a + 1):
            for n in (5, 10, 20):
                t = seq.tail_series(a, u, n, digits)
                ok = ok and abs(float(t)) <= math.e / (n + 1) ** a
        out.append(("tail bound |sum| <= e/(n+1)^%d: all |u|<=%d, "
                    "n in {5,10,20}" % (a, a), ok))
    return out


def _suite_saddle(args):
    n = 10 ** 6
    out = []
    for a in (2, 3, 4):
        ok = True
        for u in range(-a, a + 1):
            try:
                rows = asy.root_report(a, u, n)
            except ArithmeticError:
                ok = False
                continue
            ok = ok and len(rows) == a
            for _, _, _, res, dist in rows:
                ok = ok and res < 1e-8 and dist < 1e-3
        out.append(("saddle roots refined: a=%d, all |u|<=%d, n=10^6" % (a, a),
                    ok))
    return out


_SUITES = {
    "lemma1": _suite_lemma1,
    "recurrences": _suite_recurrences,
    "integrality": _suite_integrality,
    "bernoulli": _suite_bernoulli,
    "bell": _suite_bell,
    "tail": _suite_tail,
    "saddle": _suite_saddle,
}


def cmd_verify(args) -> tuple[str, int]:
    checks = _SUITES[args.suite](args)
    lines = []
    passed = 0
    for name, ok in checks:
        lines.append(("PASS " if ok else "FAIL ") + name)
        passed += ok
    lines.append("%d/%d checks passed" % (passed, len(checks)))
    return ("\n".join(lines) + "\n",
            EXIT_OK if passed == len(checks) else EXIT_VERIFY)


def cmd_constants(args) -> tuple[str, int]:
    digits = args.digits if args.digits is not None else args.env_digits
    ms = range(2, args.zeta_max + 1)
    names = ["gamma"] + ["zeta(%d)" % m for m in ms]
    vals = [gamma_const(digits)] + [zeta_const(m, digits) for m in ms]
    if args.fmt == "json":
        obj = {"digits": digits,
               "gamma": vals[0].to_decimal(),
               "zeta": {str(m): v.to_decimal() for m, v in zip(ms, vals[1:])}}
        text = _json(obj)
    elif args.fmt == "csv":
        text = "name,value\n" + "".join(
            "%s,%s\n" % (n, v.to_decimal()) for n, v in zip(names, vals))
    else:
        text = "".join("%s = %s\n" % (n, v.to_decimal())
                       for n, v in zip(names, vals))
    return text, EXIT_OK


def _exponent_value(kind: str, a: int, n: int) -> float:
    if kind == "theorem-linear-form":
        return asy.linform_exponent(a, n)
    if kind == "theorem-qn":
        return asy.qn_log_asymptotic(a, n)
    return asy.corollary_exponent(a, n)


def cmd_asymptotics(args) -> tuple[str, int]:
    kinds = (args.kind,) if args.kind else asy.PROFILE_KINDS
    profiles = [asy.exponent_profile(args.a, k) for k in kinds]
    if args.fmt == "json":
        objs = []
        for pr in profiles:
            obj = {"a": pr.a, "kind": pr.kind, "b": [str(v) for v in pr.b]}
            if args.n is not None:
                obj["value_at_n"] = _exponent_value(pr.kind, args.a, args.n)
            objs.append(obj)
        text = _json(objs)
    elif args.fmt == "csv":
        lines = ["a,kind,m,b_m"]
        for pr in profiles:
            for m, v in enumerate(pr.b, start=1):
                lines.append("%d,%s,%d,%s" % (pr.a, pr.kind, m, v))
        text = "\n".join(lines) + "\n"
    else:
        parts = []
        for pr in profiles:
            parts.append("a=%d kind=%s\n" % (pr.a, pr.kind))
            parts.append("b = %s\n" % ", ".join(str(v) for v in pr.b))
            if args.n is not None:
                value = _exponent_value(pr.kind, args.a, args.n)
                parts.append("value(n=%d) = %.6g\n" % (args.n, value))
        text = "".join(parts)
    return text, EXIT_OK


def cmd_roots(args) -> tuple[str, int]:
    rows = asy.root_report(args.a, args.u, args.n)
    if args.fmt == "json":
        objs = [{"k": k, "re": re, "im": im, "residual_over_n": res,
                 "seed_distance": dist} for k, re, im, res, dist in rows]
        text = _json(objs)
    elif args.fmt == "csv":
        lines = ["k,re,im,residual_over_n,seed_distance"]
        lines += ["%d,%.12g,%.12g,%.6g,%.6g" % row for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(
            "root %d: re=%.12g im=%.12g |p|/n=%.6g seed_distance=%.6g\n" % row
            for row in rows)
    return text, EXIT_OK


_COMMANDS = {
    "approx": cmd_approx,
    "table": cmd_table,
    "verify": cmd_verify,
    "constants": cmd_constants,
    "asymptotics": cmd_asymptotics,
    "roots": cmd_roots,
}


def main(argv=None) -> int:
    # q_n, p_{n,mu} and --digits up to 10000 print integers longer than
    # Python's default 4300-digit int->str limit (3.10.7+ and 3.11+).
    # The caller's limit is restored on the way out.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        with _open_out(args.out) as fh:
            text, code = _COMMANDS[args.command](args)
            fh.write(text)
        return code
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print("precision failure: %s" % exc, file=sys.stderr)
        return EXIT_PRECISION
    finally:
        if limited:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
