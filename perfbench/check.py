"""Independent output checker for the benchmark's CLI requests.

Nothing here imports bellgamma.  Reference values come from plain integer
arithmetic (math.comb, math.lcm), from mpmath (installed separately; the
benchmark only) and from a Bell-polynomial recurrence of its own.
`check(argv, exit_code, stdout)` returns None when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import mpmath

_ERR_REL_TOL = 1e-6
_ROOT_RESIDUAL_MAX = 1e-8
_EXPONENT_REL_TOL = 1e-9


def _options(args: list) -> dict:
    opts = {}
    for i in range(0, len(args), 2):
        opts[args[i].lstrip("-")] = args[i + 1]
    return opts


def _q(a: int, n: int) -> int:
    return sum(math.comb(n, k) ** a * math.factorial(k) for k in range(n + 1))


def _bell(xs: list):
    """Complete Bell polynomial Y_n(x_1..x_n) by its recurrence."""
    ys = [mpmath.mpf(1)]
    for j in range(1, len(xs) + 1):
        ys.append(sum(math.comb(j - 1, i) * xs[i] * ys[j - 1 - i]
                      for i in range(j)))
    return ys[-1]


def _err_log10(a: int, mu: int, p: Fraction, q: int, hint: float) -> float:
    """log10 |alpha_mu - p/q| with alpha_mu = Y_mu(gamma, c_2 zeta(2), ...),
    c_m = (m-1)! (a + (-1)^m (a-1)), evaluated in mpmath."""
    dps = 40 + max(0, int(-hint))
    with mpmath.workdps(dps):
        xs = [+mpmath.euler] + [
            math.factorial(m - 1) * (a + (-1) ** m * (a - 1)) * mpmath.zeta(m)
            for m in range(2, mu + 1)]
        approx = mpmath.mpf(p.numerator) / (mpmath.mpf(p.denominator) * q)
        return float(mpmath.log10(abs(_bell(xs) - approx)))


def _check_row(a: int, mu: int, n: int, p: Fraction, q: int,
               err_log10: float) -> str | None:
    if q != _q(a, n):
        return "q_%d wrong for a=%d" % (n, a)
    if (math.lcm(*range(1, n + 1)) ** mu * p).denominator != 1:
        return "lcm(1..%d)^%d p not integral" % (n, mu)
    ref = _err_log10(a, mu, p, q, err_log10)
    if not abs(ref - err_log10) <= _ERR_REL_TOL * abs(ref):
        return "err_log10 %r, reference %r (n=%d)" % (err_log10, ref, n)
    return None


def _check_approx(opts: dict, text: str) -> str | None:
    obj = json.loads(text)
    a, mu, n = int(opts["a"]), int(opts["mu"]), int(opts["n"])
    if (obj["a"], obj["mu"], obj["n"]) != (a, mu, n):
        return "row labels do not match the request"
    return _check_row(a, mu, n, Fraction(obj["p"]), int(obj["q"]),
                      obj["err_log10"])


def _check_table(opts: dict, text: str) -> str | None:
    rows = json.loads(text)
    a, mu = int(opts["a"]), int(opts["mu"])
    start, stop, step = (int(v) for v in opts["n"].split(":"))
    if [r["n"] for r in rows] != list(range(start, stop + 1, step)):
        return "table rows do not cover the requested n range"
    for r in rows:
        if (r["a"], r["mu"]) != (a, mu):
            return "row labels do not match the request"
        bad = _check_row(a, mu, r["n"], Fraction(r["p_num"], r["p_den"]),
                         r["q"], r["err_log10"])
        if bad:
            return bad
    return None


def _check_verify(opts: dict, text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) < 2:
        return "verify printed no checks"
    *checks, summary = lines
    if not all(line.startswith("PASS ") for line in checks):
        return "verify line not PASS"
    k = len(checks)
    if summary != "%d/%d checks passed" % (k, k):
        return "verify summary %r" % summary
    return None


def _check_constants(opts: dict, text: str) -> str | None:
    obj = json.loads(text)
    digits, zeta_max = int(opts["digits"]), int(opts["zeta-max"])
    if obj["digits"] != digits or sorted(obj["zeta"], key=int) != [
            str(m) for m in range(2, zeta_max + 1)]:
        return "constants keys do not match the request"
    with mpmath.workdps(digits + 20):
        tol = mpmath.mpf(10) ** -digits
        if abs(mpmath.mpf(obj["gamma"]) - mpmath.euler) > tol:
            return "gamma wrong at %d digits" % digits
        for m, val in obj["zeta"].items():
            if abs(mpmath.mpf(val) - mpmath.zeta(int(m))) > tol:
                return "zeta(%s) wrong at %d digits" % (m, digits)
    return None


def _check_roots(opts: dict, text: str) -> str | None:
    rows = json.loads(text)
    a, u, n = int(opts["a"]), int(opts["u"]), int(opts["n"])
    if len(rows) != a:
        return "expected %d roots, got %d" % (a, len(rows))
    e_u = cmath.exp(1j * math.pi * u)
    for r in rows:
        t = complex(r["re"], r["im"])
        residual = abs(e_u * n * (t - 1) ** a - t ** (a - 1)) / n
        if not (r["residual_over_n"] < _ROOT_RESIDUAL_MAX
                and residual < _ROOT_RESIDUAL_MAX):
            return "root %d residual %r" % (r["k"], max(residual, r["residual_over_n"]))
    return None


def _exponent(kind: str, a: int, n: int, b: list) -> float:
    """The exponent at n from the printed b_1..b_a, recomputed in floats."""
    terms = range(1, a + 1) if kind == "theorem-qn" else range(1, a)
    total = 0.0
    for m in terms:
        c = float((-1) ** m * b[m - 1]) * n ** (1 - m / a)
        if kind == "theorem-linear-form":
            c *= math.cos(2 * math.pi * m / a)
        elif kind == "corollary":
            c *= math.cos(2 * math.pi * m / a) - 1
        total += c
    if kind == "theorem-qn":
        total += (math.lgamma(n + 1) - 0.5 * math.log(a)
                  - (a - 1) / 2 * math.log(2 * math.pi)
                  - (a - 1) ** 2 / (2 * a) * math.log(n))
    return total


def _check_asymptotics(opts: dict, text: str) -> str | None:
    objs = json.loads(text)
    a = int(opts["a"])
    kinds = [opts["kind"]] if "kind" in opts else [
        "theorem-linear-form", "theorem-qn", "corollary"]
    if [o["kind"] for o in objs] != kinds:
        return "profile kinds do not match the request"
    for o in objs:
        b = [Fraction(v) for v in o["b"]]
        if o["a"] != a or len(b) != a or b[0] != -a or b[1] != Fraction(1 - a, 2):
            return "profile b coefficients wrong for a=%d" % a
        if "n" in opts:
            ref = _exponent(o["kind"], a, int(opts["n"]), b)
            if not abs(o["value_at_n"] - ref) <= _EXPONENT_REL_TOL * max(1.0, abs(ref)):
                return "%s value %r, reference %r" % (o["kind"], o["value_at_n"], ref)
        elif "value_at_n" in o:
            return "value_at_n printed without --n"
    return None


_CHECKS = {
    "approx": _check_approx,
    "table": _check_table,
    "verify": _check_verify,
    "constants": _check_constants,
    "roots": _check_roots,
    "asymptotics": _check_asymptotics,
}


def check(argv: list, exit_code: int, stdout: bytes) -> str | None:
    """None if the request succeeded with correct output, else why not."""
    if exit_code != 0:
        return "exit code %d" % exit_code
    try:
        return _CHECKS[argv[0]](_options(argv[1:]), stdout.decode())
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return "unparsable output: %s: %s" % (type(exc).__name__, exc)
