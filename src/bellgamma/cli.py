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
sets the default precision of approx, table and constants (50 when
unset), and is read only when --digits is not given; identical
invocations produce byte-identical output.

Every flag is declared once, in _FLAGS.  main reads a well-formed
command line (the command, then each of its flags at most once, spelled
out and with its value) directly from that table; it imports argparse
only to read any other spelling, print --help or report a usage error,
and both readers give the same namespace.  Each command takes that
namespace, range-checked, and returns its output text with the exit
code; main writes the text.  A command imports the modules it runs
itself, so a process compiles only those: constants loads neither
asymptotics nor sequences, asymptotics and roots never load sequences,
and only roots and the saddle suite load saddle (and cmath).  approx
and table load sequences (the q/p rows and the convergence measurement)
and asymptotics (the predicted exponent) but none of the saddle,
recurrence, lemma-1, tail or Bernoulli code.  Only verify loads the
suites (module verify), each of which imports its own modules.  No
command loads json: _json prints json.dumps's bytes itself.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from types import SimpleNamespace

from .numerics import (_MAX_DIGITS, LN10, BigFix, PrecisionError,
                       _decimal_str, gamma_const, zeta_const)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

# Past 10^64 the a = 4 saddle roots, about n^{-1/4} from 1 and from each
# other, fall within double rounding of one another and refine to the
# same point: a = 4, u = 1 collides at 10^65 and already at 6*10^64.  A
# scan of m*10^k, m = 1..9, k = 3..64, refined every a = 2..8, |u| <= a.
_ROOTS_N_MAX = 10 ** 64
# The values of asymptotics --kind, asymptotics.PROFILE_KINDS spelled out
# so that building the parser does not import that module.
_PROFILE_KINDS = ("theorem-linear-form", "theorem-qn", "corollary")
# The flags each verify suite reads, with their defaults; passing it any
# other is a usage error.
_SUITE_FLAGS = {"lemma1": {"a": 3, "nmax": 10}, "recurrences": {"nmax": 60},
                "integrality": {"a": 3, "nmax": 50}, "bernoulli": {},
                "bell": {}, "tail": {"digits": 30}, "saddle": {}}


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


# Each command's flags, in the order --help lists them, as (option,
# dest, kind, default, required, help, metavar).  kind is int, str (the
# value as given), a tuple of choices, or None for a store_true flag.
# Each command gets only the flags it reads: verify prints text lines
# alone, asymptotics and roots work in double precision.
_A = ("--a", "a", int, None, True, None, None)
_MU = ("--mu", "mu", int, None, True, None, None)
_DIGITS = ("--digits", "digits", int, None, False,
           "working precision in decimal digits", None)
_OUT = ("--out", "out", str, None, False, "write output to a file", None)


def _format(default):
    return ("--format", "fmt", ("csv", "json", "text"), default, False, None,
            None)


_FLAGS = {
    "approx": (_A, _MU, ("--n", "n", int, None, True, None, None), _DIGITS,
               _format("text"), _OUT),
    "table": (_A, _MU, ("--n", "n", str, None, True, "inclusive n range",
                        "START:STOP[:STEP]"),
              ("--qn-ratio", "qn_ratio", None, False, False,
               "append a q_n / asymptotic-main-term column", None),
              _DIGITS, _format("csv"), _OUT),
    "verify": (("--suite", "suite", tuple(_SUITE_FLAGS), None, True, None,
                None),
               ("--a", "a", int, None, False,
                "lemma1 and integrality suites (default 3)", None),
               ("--nmax", "nmax", int, None, False, None, None),
               _DIGITS, _OUT),
    "constants": (("--zeta-max", "zeta_max", int, 5, False,
                   "print zeta(2)..zeta(M)", None),
                  _DIGITS, _format("text"), _OUT),
    "asymptotics": (_A, ("--kind", "kind", _PROFILE_KINDS, None, False,
                         "one profile kind (default: all three)", None),
                    ("--n", "n", int, None, False,
                     "also evaluate the exponent at this n", None),
                    _format("json"), _OUT),
    "roots": (_A, ("--u", "u", int, 0, False, None, None),
              ("--n", "n", int, 10 ** 6, False, None, None),
              _format("text"), _OUT),
}
_COMMAND_HELP = {
    "approx": "one approximation row",
    "table": "convergence table over an n range",
    "verify": "exact identity suites",
    "constants": "gamma and zeta reference values",
    "asymptotics": "exponent coefficient profiles",
    "roots": "saddle-root refinement report",
}


def build_parser():
    """The argparse parser of _FLAGS.  main runs it only on a command
    line _read_argv leaves to it: it prints --help and usage errors, and
    reads the spellings argparse accepts beyond the direct reader's."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="bellgamma",
        description="Exact rational approximations to Bell-polynomial "
                    "combinations of gamma and zeta values.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, flags in _FLAGS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for option, dest, kind, default, required, text, metavar in flags:
            kwargs = {"dest": dest, "default": default, "help": text}
            if kind is None:
                kwargs["action"] = "store_true"
            elif kind is int:
                kwargs["type"] = int
            elif kind is not str:
                kwargs["choices"] = kind
            if required:
                kwargs["required"] = True
            if metavar:
                kwargs["metavar"] = metavar
            p.add_argument(option, **kwargs)
    return ap


def _read_argv(argv):
    """The namespace build_parser().parse_args(argv) returns, read
    without argparse when argv is a command followed by its exact long
    flags, each at most once, each but a store_true one followed by its
    value, and every required flag present.  An int value must convert
    by int() and a choice be one of its choices; a value may start with
    '-' only as an int flag's '-' and decimal digits, which argparse too
    reads as a negative number.  Otherwise None: argparse then reads
    argv, with its abbreviations, --flag=value, repeats, -h and --, or
    prints the usage error."""
    if not argv or argv[0] not in _FLAGS:
        return None
    flags = {flag[0]: flag for flag in _FLAGS[argv[0]]}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = flags.get(token)
        if flag is None or flag[1] in values:
            return None
        _, dest, kind = flag[:3]
        if kind is None:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and not (
                kind is int and value[1:].isdecimal()):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:  # not an int, or past the int->str limit
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    args = SimpleNamespace(command=argv[0])
    for _, dest, _, default, required, _, _ in flags.values():
        if dest not in values and required:
            return None
        setattr(args, dest, values.get(dest, default))
    return args


def _check_args(args) -> None:
    """Range-check the parsed arguments; adds args.env_digits (from
    BELLGAMMA_DIGITS) where it is the default precision, that is for
    approx, table and constants without --digits, for table
    args.n_range, and for verify the defaults of the flags its suite
    reads."""
    top = _MAX_DIGITS
    if args.command in ("approx", "table"):
        # convergence_row works at digits + _ROW_GUARD
        from .sequences import _ROW_GUARD
        top -= _ROW_GUARD
    digits = getattr(args, "digits", None)
    if digits is None and args.command in ("approx", "table", "constants"):
        try:
            args.env_digits = int(os.environ.get("BELLGAMMA_DIGITS", "50"))
        except ValueError:
            raise UsageError("BELLGAMMA_DIGITS must be an integer")
        if not 1 <= args.env_digits <= top:
            raise UsageError("BELLGAMMA_DIGITS out of range 1..%d" % top)
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
        for flag, default in _SUITE_FLAGS[args.suite].items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
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


# json's escapes of the ASCII characters it does not print as they are;
# every other character outside ' '..'~' is written \uXXXX.
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
                 "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    parts = []
    for ch in s:
        if ch in _JSON_ESCAPES:
            parts.append(_JSON_ESCAPES[ch])
        elif " " <= ch <= "~":
            parts.append(ch)
        else:
            c = ord(ch)
            if c > 0xFFFF:  # a UTF-16 surrogate pair, as json writes it
                c -= 0x10000
                parts.append("\\u%04x" % (0xD800 | c >> 10))
                c = 0xDC00 | c & 0x3FF
            parts.append("\\u%04x" % c)
    return '"' + "".join(parts) + '"'


def _json_value(obj) -> str:
    t = type(obj)
    if t is str:
        return _json_str(obj)
    if t is int:
        return _decimal_str(obj)
    if t is float:
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return repr(obj)
    if obj is None:
        return "null"
    if t is list:
        return "[" + ", ".join(map(_json_value, obj)) + "]"
    if t is dict:
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError("json keys must be str, not %s"
                                % type(key).__name__)
            items.append(_json_str(key) + ": " + _json_value(value))
        return "{" + ", ".join(items) + "}"
    raise TypeError("cannot render %s as json" % t.__name__)


def _json(obj) -> str:
    """json.dumps(obj, separators=(", ", ": ")) and a newline, byte for
    byte, without importing json: for dicts with str keys, lists, str,
    int (also past the int->str limit), float and None; any other type
    raises TypeError."""
    return _json_value(obj) + "\n"


def _row_digits(args, n: int) -> int:
    """Row n's working digits: --digits, else the larger of
    BELLGAMMA_DIGITS and the digits that resolve the predicted error.
    PrecisionError is raised here, before any row is built, when those
    digits pass the oracles' limit, or, with --digits, twice that limit:
    a row whose predicted error needs them cannot be certified at any
    digits the parser accepts, whatever the few nats by which the
    measured error misses the prediction."""
    from . import asymptotics as asy
    from . import sequences as seq

    top = _MAX_DIGITS - seq._ROW_GUARD
    try:
        auto = seq.auto_digits(asy.corollary_exponent(args.a, n))
    except OverflowError:
        # n or the predicted exponent overflows a double: n > 1.7e308,
        # where a = 2 already needs 2 10^154 digits
        auto = None
    limit = top if args.digits is None else 2 * _MAX_DIGITS
    if auto is None or auto > limit:
        raise PrecisionError(
            "a=%d mu=%d n=%d: the predicted error needs %s digits, more "
            "than the %d that approx and table resolve"
            % (args.a, args.mu, n, "over 10^154" if auto is None else auto,
               top))
    if args.digits is not None:
        return args.digits
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
            "p": _decimal_str(row.p.numerator) + "/"
                 + _decimal_str(row.p.denominator),
            "q": _decimal_str(row.q), "p_over_q": dec,
            "err_log10": row.err_log / LN10,
            "predicted_log10": row.predicted_exponent / LN10,
        })
    else:
        text = "".join((
            "a=%d mu=%d n=%d\n" % (row.a, row.mu, row.n),
            "p = %s/%s\n" % (_decimal_str(row.p.numerator),
                             _decimal_str(row.p.denominator)),
            "q = %s\n" % _decimal_str(row.q),
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
    # The last row first: a range past the limit is refused before it is
    # listed.
    _row_digits(args, ns[-1])
    digits = [_row_digits(args, n) for n in ns]
    # The most precise constants first: every row rounds from them.
    top = max(digits) + seq._ROW_GUARD
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
    from .saddle import root_report

    rows = root_report(args.a, args.u, args.n)
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv)
        if args is None:
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


if __name__ == "__main__":
    sys.exit(main())
