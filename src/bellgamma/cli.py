"""Command-line front end.

Subcommands, each run by the function cmd_<command> of the module that
computes what it prints, or of a module of its own (_RUNNERS):
  approx       one approximation row (sequences)
  table        convergence table over an inclusive n range (table)
  verify       exact identity suites with per-check pass/fail lines (verify)
  constants    gamma and zeta reference values (constants)
  asymptotics  exponent coefficient profiles (asymptotics)
  roots        saddle-root refinement report (saddle)

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
--out file that cannot be opened, or output that cannot be written), 3
precision failure, 4 internal error (any other exception, its traceback
on stderr).  BELLGAMMA_DIGITS sets the default precision of
approx, table and constants (50 when unset), and is read only when
--digits is not given; identical invocations produce byte-identical
output.

Every flag is declared once, in _FLAGS.  main reads a well-formed
command line (the command, then each of its flags at most once, spelled
out and with its value) directly from that table.  Only for any other
spelling, --help or a usage error does it import module parser, whose
build_parser turns the same table into an argparse parser, and both
readers give the same namespace.  main range-checks what the commands
share (BELLGAMMA_DIGITS or --digits, --a, --mu), and approx's --n and
table's n range, so that a usage error of approx or table loads no
module beyond common.  It then imports the one module that runs the
command, runs that module's own checks of the command, check_<command>
(verify, constants, asymptotics and roots have them), opens the output,
and writes the text that module's cmd_<command> returns with its exit
code.  So a usage error writes no --out file.

Both process entry points, `python -m bellgamma.cli` and the bellgamma
console script, call run, not main: run exits with main's code after
gc.freeze(), so the interpreter's collections at exit find nothing to
traverse.  main itself never freezes, since tests and library callers
call it in their own process.

This module is the front end only: importing it loads the package and
module common, nothing else, so a request compiles only the modules its
command runs, and of those only the functions it can call, except for
table's range check here, which approx compiles too.  constants loads
numerics and its own module constants; asymptotics and roots never load
sequences or numerics, and only roots and the saddle suite load saddle
(and cmath).  approx loads sequences (the convergence measurement and
the command), kernel and bell (the rows), numerics (BigFix and the
oracles) and exponents (the predicted exponent); table loads the same
and module table, its command.  Neither loads fractions, argparse or the
saddle, recurrence, lemma-1, tail, Bernoulli or partition-sum code, nor
the linear-form exponent (in asymptotics), the constants command, the
other commands' checks or the library's q/p values (module values, which
no command loads).  Only verify loads a suite, and only its own: module
verify holds the command and the integrality suite, and each other suite
lives in the module it checks (lemma1, recurrences, bernoulli, tail,
saddle, and partition_sum for the bell suite); no suite loads numerics.
fractions is loaded only by the asymptotics command and the bell,
bernoulli and lemma1 suites, which print or check a Fraction.  No
command loads json: common._json prints json.dumps's bytes itself.  No
module of the package imports this one: under `python -m bellgamma.cli`
that would compile it a second time.
"""

import contextlib
import gc
import importlib
import os
import sys
from types import SimpleNamespace

from .common import (_MAX_DIGITS, _ROW_GUARD, EXIT_INTERNAL, EXIT_PRECISION,
                     EXIT_USAGE, PROFILE_KINDS, PrecisionError, UsageError)

# The values of verify --suite; module verify holds what each suite reads.
_SUITES = ("lemma1", "recurrences", "integrality", "bernoulli", "bell",
           "tail", "saddle")


def _parse_range(text: str) -> tuple:
    """(start, stop, step) of table's --n START[:STOP[:STEP]]."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3:
        raise UsageError("bad n range %r; expected start:stop[:step]" % text)
    if len(nums) < 3:
        nums = [nums[0], nums[-1], 1]
    start, stop, step = nums
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
    "verify": (("--suite", "suite", _SUITES, None, True, None, None),
               ("--a", "a", int, None, False,
                "lemma1 and integrality suites (default 3)", None),
               ("--nmax", "nmax", int, None, False, None, None),
               _DIGITS, _OUT),
    "constants": (("--zeta-max", "zeta_max", int, 5, False,
                   "print zeta(2)..zeta(M)", None),
                  _DIGITS, _format("text"), _OUT),
    "asymptotics": (_A, ("--kind", "kind", PROFILE_KINDS, None, False,
                         "one profile kind (default: all three)", None),
                    ("--n", "n", int, None, False,
                     "also evaluate the exponent at this n", None),
                    _format("json"), _OUT),
    "roots": (_A, ("--u", "u", int, 0, False, None, None),
              ("--n", "n", int, 10 ** 6, False, None, None),
              _format("text"), _OUT),
}


def _read_argv(argv):
    """The namespace parser.build_parser(_FLAGS).parse_args(argv) gives,
    read without argparse when argv is a command followed by its exact
    long flags, each at most once, each but a store_true one followed by
    its value, and every required flag present.  An int value must convert
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
    """Range-check what every command shares, and approx's --n and
    table's range, whose usage errors load no module beyond common; adds
    args.env_digits (from BELLGAMMA_DIGITS) where it is the default
    precision, that is for approx, table and constants without --digits,
    and for table args.n_range.  Each other command's own checks are
    the check_<command> of the module that runs it."""
    top = _MAX_DIGITS
    if args.command in ("approx", "table"):
        top -= _ROW_GUARD  # convergence_rows works at digits + _ROW_GUARD
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
    if args.command == "approx" and args.n < 0:
        raise UsageError("--n must be nonnegative")
    if args.command == "table":
        args.n_range = _parse_range(args.n)


def _open_out(path):
    """The stream for the output, opened before any work is done."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError("cannot open --out file %r: %s"
                         % (path, exc.strerror or exc))


def _write(fh, text: str) -> None:
    """Write text to fh, flush it and close it unless it is stdout, so
    that a full disk or a closed pipe fails here rather than at exit, as
    a UsageError.  Only these calls are taken for a failed write: an
    OSError anywhere else is a fault of the program."""
    try:
        fh.write(text)
        fh.flush()
        if fh is not sys.stdout:
            fh.close()
    except OSError as exc:
        if fh is sys.stdout:
            # stdout keeps the text it could not write and would fail
            # again at exit: send it to the null device instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            # closing drops the text it could not write
            with contextlib.suppress(OSError):
                fh.close()
        raise UsageError("cannot write output: %s" % (exc.strerror or exc))


# The module that runs each command, as its function cmd_<command>,
# after its own checks, check_<command>, where it has any.  main imports
# only the one a request names, so a process compiles only that
# command's code.
_RUNNERS = {"approx": "sequences", "table": "table", "verify": "verify",
            "constants": "constants", "asymptotics": "asymptotics",
            "roots": "saddle"}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv)
        if args is None:
            from .parser import build_parser

            args = build_parser(_FLAGS).parse_args(argv)
        _check_args(args)
        runner = importlib.import_module("." + _RUNNERS[args.command],
                                         __package__)
        check = getattr(runner, "check_" + args.command, None)
        if check is not None:
            check(args)
        with _open_out(args.out) as fh:
            text, code = getattr(runner, "cmd_" + args.command)(args)
            _write(fh, text)
        return code
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print("precision failure: %s" % exc, file=sys.stderr)
        return EXIT_PRECISION
    except Exception:
        # a fault of the program, not of the request: exit 1 would read
        # as a failed verification
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def run():
    """Run main on sys.argv and exit the process with its code.

    main has written and flushed its output by then.  gc.freeze() moves
    every live object to the permanent generation, which the full
    collections of interpreter shutdown skip; atexit handlers, the flush
    of stdio and SystemExit are as after sys.exit(main())."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
