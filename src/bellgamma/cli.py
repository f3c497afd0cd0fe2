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
returns its output text with the exit code; main writes the text.  A
command imports the modules it runs itself, so a process compiles only
those: constants loads neither asymptotics nor sequences, asymptotics
and roots never load sequences, json is loaded only to print json, and
only verify loads the suites (module verify), each of which imports its
own modules.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from .numerics import (_MAX_DIGITS, LN10, BigFix, PrecisionError,
                       gamma_const, zeta_const)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

# convergence_row evaluates each row at digits + 20 (and + 10), so approx
# and table accept --digits only up to the oracles' limit less 20.
_ROW_GUARD = 20
# Past 10^64 the a = 4 saddle roots, about n^{-1/4} from 1 and from each
# other, fall within double rounding of one another and refine to the
# same point: a = 4, u = 1 collides at 10^65 and already at 6*10^64.  A
# scan of m*10^k, m = 1..9, k = 3..64, refined every a = 2..8, |u| <= a.
_ROOTS_N_MAX = 10 ** 64
# The values of asymptotics --kind, asymptotics.PROFILE_KINDS spelled out
# so that building the parser does not import that module.
_PROFILE_KINDS = ("theorem-linear-form", "theorem-qn", "corollary")
# The flags each verify suite reads; passing it any other is a usage error.
_SUITE_FLAGS = {"lemma1": ("a", "nmax"), "recurrences": ("nmax",),
                "integrality": ("a", "nmax"), "bernoulli": (), "bell": (),
                "tail": ("digits",), "saddle": ()}


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

    # Each command gets only the flags it reads: verify prints text
    # lines alone, asymptotics and roots work in double precision.
    def common(p, digits=True, fmt_default="text"):
        if digits:
            p.add_argument("--digits", type=int, default=None,
                           help="working precision in decimal digits")
        if fmt_default:
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
    p.add_argument("--suite", required=True, choices=tuple(_SUITE_FLAGS))
    p.add_argument("--a", type=int, default=None,
                   help="lemma1 and integrality suites (default 3)")
    p.add_argument("--nmax", type=int, default=None)
    common(p, fmt_default=None)

    p = sub.add_parser("constants", help="gamma and zeta reference values")
    p.add_argument("--zeta-max", type=int, default=5,
                   help="print zeta(2)..zeta(M)")
    common(p)

    p = sub.add_parser("asymptotics", help="exponent coefficient profiles")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--kind", default=None, choices=_PROFILE_KINDS,
                   help="one profile kind (default: all three)")
    p.add_argument("--n", type=int, default=None,
                   help="also evaluate the exponent at this n")
    common(p, digits=False, fmt_default="json")

    p = sub.add_parser("roots", help="saddle-root refinement report")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--n", type=int, default=10 ** 6)
    common(p, digits=False)
    return ap


def _check_args(args) -> None:
    """Range-check the parsed arguments; adds args.env_digits (from
    BELLGAMMA_DIGITS) and, for table, args.n_range."""
    try:
        args.env_digits = int(os.environ.get("BELLGAMMA_DIGITS", "50"))
    except ValueError:
        raise UsageError("BELLGAMMA_DIGITS must be an integer")
    top = _MAX_DIGITS
    if args.command in ("approx", "table"):
        top -= _ROW_GUARD
    if not 1 <= args.env_digits <= top:
        raise UsageError("BELLGAMMA_DIGITS out of range 1..%d" % top)
    digits = getattr(args, "digits", None)
    if digits is not None and not 1 <= digits <= top:
        raise UsageError("--digits out of range 1..%d" % top)
    if getattr(args, "a", None) is not None and not 2 <= args.a <= 8:
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
        for flag in ("a", "nmax", "digits"):
            if (getattr(args, flag) is not None
                    and flag not in _SUITE_FLAGS[args.suite]):
                raise UsageError("--%s is not read by the %s suite"
                                 % (flag, args.suite))
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
        if args.n is not None and args.n > sys.float_info.max:
            # the exponents are evaluated in double precision
            raise UsageError("--n out of range 1..%g" % sys.float_info.max)
        if args.n is not None and args.kind in (None, "theorem-qn"):
            try:
                math.lgamma(args.n + 1)
            except OverflowError:
                raise UsageError("--n too large for theorem-qn: log n! "
                                 "overflows a double")
    elif args.command == "roots":
        if abs(args.u) > args.a:
            raise UsageError("--u must satisfy |u| <= a")
        if args.n < 1000:
            raise UsageError("--n must be at least 1000")
        if args.n > _ROOTS_N_MAX:
            raise UsageError("--n must be at most 10^64")


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
    import json

    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _row_digits(args, n: int) -> int:
    from . import asymptotics as asy
    from . import sequences as seq

    if args.digits is not None:
        return args.digits
    auto = seq.auto_digits(asy.corollary_exponent(args.a, n))
    return max(args.env_digits, auto)


def cmd_approx(args) -> tuple[str, int]:
    from . import sequences as seq

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


def _qn_ratio(a: int, n: int, q: int) -> float | None:
    """q = q_n over the asymptotic main term of q_n; None for n = 0."""
    from . import asymptotics as asy

    if n < 1:
        return None
    return math.exp(math.log(q) - asy.qn_log_asymptotic(a, n))


def cmd_table(args) -> tuple[str, int]:
    from . import sequences as seq

    start, stop, step = args.n_range
    ns = range(start, stop + 1, step)
    digits = [_row_digits(args, n) for n in ns]
    # The most precise constants first: every row rounds from them.  Past
    # the oracles' limit the first row too deep fails as it would alone.
    top = min(max(digits) + _ROW_GUARD, _MAX_DIGITS)
    gamma_const(top)
    for m in range(2, args.mu + 1):
        zeta_const(m, top)
    rows = [seq.convergence_row(args.a, args.mu, n, d)
            for n, d in zip(ns, digits)]
    ratios = ([_qn_ratio(args.a, r.n, r.q) for r in rows]
              if args.qn_ratio else None)
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


def cmd_verify(args) -> tuple[str, int]:
    from .verify import SUITES

    checks = SUITES[args.suite](args)
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
    from . import asymptotics as asy

    if kind == "theorem-linear-form":
        return asy.linform_exponent(a, n)
    if kind == "theorem-qn":
        return asy.qn_log_asymptotic(a, n)
    return asy.corollary_exponent(a, n)


def cmd_asymptotics(args) -> tuple[str, int]:
    from . import asymptotics as asy

    kinds = (args.kind,) if args.kind else _PROFILE_KINDS
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
    from . import asymptotics as asy

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
