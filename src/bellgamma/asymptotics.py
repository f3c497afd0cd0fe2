"""The `asymptotics` command: exact b_m(a) profiles.

The coefficients b_m(a) and c_m are computed in integers in module
exponents, with two of the three exponent evaluations: the corollary
form with cos(2 pi m / a) - 1 factors, and the log-scale asymptotic main
term of q_n.  The third, the linear-form decay rate (linform_exponent),
is here, since only this command evaluates it.  This module wraps the
integer pairs b_m(a) as Fractions (bm_coeffs) and cmd_asymptotics
prints the profiles.  Only the asymptotics command and library callers
load it: approx and table read the exponents from
exponents, and roots and the saddle suite their c_m, so none of them
loads fractions.  Neither this module nor saddle loads numerics: the
exponents are doubles.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .common import EXIT_OK, PROFILE_KINDS, UsageError, _json
from .exponents import bm_pairs, corollary_exponent, qn_log_asymptotic


def linform_exponent(a: int, n: int) -> float:
    """sum_{m=1}^{a-1} (-1)^m b_m(a) cos(2 pi m / a) n^{1-m/a}, for
    n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum((-1) ** m * (num / den) * math.cos(2 * math.pi * m / a)
               * float(n) ** (1 - m / a)
               for m, (num, den) in enumerate(bm_pairs(a)[:-1], 1))


def bm_coeffs(a: int) -> list:
    """b_1(a)..b_a(a): coefficients of -a log(1 + sum_{m<=a} (2-(m+1)/a)_m
    z^m/(m+1)!) minus sum_{m<=a} (2-m/a)_{m-1} z^m/m!, all exact."""
    return [Fraction(*b) for b in bm_pairs(a)]


class ExponentProfile(namedtuple("ExponentProfile", "a b kind")):
    """Exact b coefficients for one exponent family."""

    __slots__ = ()

    def __new__(cls, a: int, b: tuple, kind: str):
        if kind not in PROFILE_KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        if len(b) != a:
            raise ValueError("need b_1..b_a")
        if b[0] != -a or b[1] != Fraction(1 - a, 2):
            raise ValueError("b coefficients fail closed-form check")
        if a >= 3 and b[2] != Fraction((1 - a) * (2 * a - 3), 6 * a):
            raise ValueError("b coefficients fail closed-form check")
        return super().__new__(cls, a, b, kind)


def exponent_profile(a: int, kind: str) -> ExponentProfile:
    return ExponentProfile(a, tuple(bm_coeffs(a)), kind)


def _exponent_value(kind: str, a: int, n: int) -> float:
    if kind == "theorem-linear-form":
        return linform_exponent(a, n)
    if kind == "theorem-qn":
        return qn_log_asymptotic(a, n)
    return corollary_exponent(a, n)


def check_asymptotics(args) -> None:
    """The `asymptotics` command's own checks: --n, when given, is a
    positive double, and log n! a finite one for the theorem-qn kind."""
    if args.n is None:
        return
    if args.n < 1:
        raise UsageError("--n must be positive")
    if args.n > sys.float_info.max:
        # the exponents are evaluated in double precision
        raise UsageError("--n out of range 1..%g" % sys.float_info.max)
    if args.kind in (None, "theorem-qn"):
        try:
            math.lgamma(args.n + 1)
        except OverflowError:
            raise UsageError("--n too large for theorem-qn: log n! "
                             "overflows a double")


def cmd_asymptotics(args) -> tuple[str, int]:
    """The `asymptotics` command: the b_m(a) of one or every profile
    kind, with the exponent at --n when it is given."""
    kinds = (args.kind,) if args.kind else PROFILE_KINDS
    profiles = [exponent_profile(args.a, k) for k in kinds]
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
