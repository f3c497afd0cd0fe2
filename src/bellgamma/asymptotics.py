"""Growth exponents and the q_n asymptotic formula.

The coefficients b_m(a) come from an exact power-series log expansion,
taken by its own short recurrence; they feed three exponent
evaluations: the linear-form decay rate, its corollary form with
cos(2 pi m / a) - 1 factors, and the log-scale asymptotic main term of
q_n.  All coefficients stay rational until the final float evaluation.
cmd_asymptotics, the `asymptotics` command, prints the profiles.
approx and table load this module for the predicted exponent, so the
complex saddle-root refinement lives in module saddle, which only roots
and the saddle suite load.  Neither this module nor saddle loads
numerics: the exponents are doubles.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .common import EXIT_OK, PROFILE_KINDS, _json, factorial, poch


def lagrange_coeff(a: int, m: int) -> Fraction:
    """c_m = (2 - m/a)_{m-1} / m!, the series-reversion coefficient."""
    if a < 2 or m < 1:
        raise ValueError("require a >= 2 and m >= 1")
    return poch(Fraction(2) - Fraction(m, a), m - 1) / factorial(m)


def bm_coeffs(a: int) -> list:
    """b_1(a)..b_a(a): coefficients of -a log(1 + sum_{m<=a} (2-(m+1)/a)_m
    z^m/(m+1)!) minus sum_{m<=a} (2-m/a)_{m-1} z^m/m!, all exact."""
    if a < 2:
        raise ValueError("a must be at least 2")
    return list(_bm_coeffs(a))


@functools.lru_cache(maxsize=16)
def _bm_coeffs(a: int) -> tuple:
    s = [Fraction(0)] * (a + 1)
    for m in range(1, a + 1):
        s[m] = poch(Fraction(2) - Fraction(m + 1, a), m) / factorial(m + 1)
    # L = log(1 + s) from L'(1 + s) = s':
    # L_i = s_i - (1/i) sum_{j<i} j L_j s_{i-j}
    log = [Fraction(0)] * (a + 1)
    for i in range(1, a + 1):
        acc = sum((j * log[j] * s[i - j] for j in range(1, i)), Fraction(0))
        log[i] = s[i] - acc / i
    return tuple(-a * log[m] - lagrange_coeff(a, m) for m in range(1, a + 1))


def linform_exponent(a: int, n: int) -> float:
    """sum_{m=1}^{a-1} (-1)^m b_m(a) cos(2 pi m / a) n^{1-m/a}."""
    b = bm_coeffs(a)
    return sum((-1) ** m * float(b[m - 1]) * math.cos(2 * math.pi * m / a)
               * float(n) ** (1 - m / a) for m in range(1, a))


def corollary_exponent(a: int, n: int) -> float:
    """sum_{m=1}^{a-1} (-1)^m b_m(a) (cos(2 pi m / a) - 1) n^{1-m/a}."""
    b = bm_coeffs(a)
    return sum((-1) ** m * float(b[m - 1])
               * (math.cos(2 * math.pi * m / a) - 1)
               * float(n) ** (1 - m / a) for m in range(1, a))


def qn_log_asymptotic(a: int, n: int) -> float:
    """Natural log of the q_n main term.

    log n! - log(sqrt(a) (2 pi)^{(a-1)/2}) - (a-1)^2/(2a) log n
    + sum_{m=1}^{a} (-1)^m b_m(a) n^{1-m/a}; the m = a term is the
    constant b_a(a).  log n! is lgamma(n + 1), in double precision; it
    overflows (OverflowError) past n of about 2.5e305.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    b = bm_coeffs(a)
    val = math.lgamma(n + 1)
    val -= 0.5 * math.log(a) + (a - 1) / 2 * math.log(2 * math.pi)
    val -= (a - 1) ** 2 / (2 * a) * math.log(n)
    val += sum((-1) ** m * float(b[m - 1]) * float(n) ** (1 - m / a)
               for m in range(1, a + 1))
    return val


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
