"""The sequences q_n and p_{n,mu} and their convergence measurements.

q_n = sum_k C(n,k)^a k! and p_{n,mu} = sum_k C(n,k)^a k! Y_mu(r_1(k),...,
r_mu(k)) approximate the Bell-polynomial combinations alpha_mu of gamma
and zeta values.  This module serves the `approx` and `table` commands:
single values, prefix tables, the denominator bound lcm(1..n)^mu, and
the measured error of p/q against alpha_mu, one Bell ladder over the
BigFix constants.  The log of that error is taken at 40 working digits
(BigFix.ln_float), not at the row's full scale, whenever they settle
the double it prints.  Floating point enters only in those
measurements.
The exactly checked identities live in their own modules, so that these
commands never compile them: lemma 1 in lemma1 (with symring and the
oracle F_sym of oracles), the classical recurrences in recurrences, and
the alternating tail of the integral remainder in tail.

Costs: every q/p value comes straight from the kernel, and nothing is
cached between calls.  A single value (q_at, p_at, convergence_row) is
one kernel row, an O(n) sum over k; q_seq and p_seq are one kernel table
of rows 0..n_max, O(n_max^2), and q_seq builds q alone.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import kernel
from .bell import bell_ladder
from .numerics import (LN10, BigFix, PrecisionError, Rat, _decimal_str,
                       factorial, gamma_const, lcm_upto, zeta_const)

CSV_HEADER = "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"


def _check_mu(a: int, mu: int) -> None:
    if not 1 <= mu <= a - 1:
        raise ValueError("require 1 <= mu <= a-1")


def _row(a: int, mu: int, n: int):
    """(q_n, p_{n,mu}), with p None for mu = 0: one O(n) kernel row."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, p = kernel.seq_rows(a, n, n, mu)
    return q[0], p[mu - 1][0] if mu else None


def q_seq(a: int, n_max: int) -> list:
    """q_0..q_{n_max} as exact integers: one kernel table of q alone."""
    return kernel.seq_tables(a, n_max, 0)[0]


def p_seq(a: int, mu: int, n_max: int) -> list:
    """p_{0,mu}..p_{n_max,mu} as exact Fractions, 1 <= mu <= a-1: one
    kernel table of q and p_1..p_mu, of which p_mu is returned."""
    _check_mu(a, mu)
    return kernel.seq_tables(a, n_max, mu)[1][mu - 1]


def q_at(a: int, n: int):
    """Single value q_n: one O(n) kernel row."""
    return _row(a, 0, n)[0]


def p_at(a: int, mu: int, n: int) -> Rat:
    """Single value p_{n,mu}: one O(n) kernel row."""
    _check_mu(a, mu)
    return _row(a, mu, n)[1]


def integrality_check(a: int, mu: int, n: int) -> bool:
    """True iff lcm(1..n)^mu * p_{n,mu} is an integer."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = p_at(a, mu, n)
    d = lcm_upto(n)
    return (d ** mu * p).denominator == 1


class ApproxRecord(namedtuple(
        "ApproxRecord", "a mu n p q err_log predicted_exponent")):
    """One measured convergence row: exact p (Rat), q (int) plus the
    log-scale error err_log and the predicted_exponent (floats)."""

    __slots__ = ()


def auto_digits(predicted: float) -> int:
    """Working digits for an error of about exp(predicted): the digits
    that resolve it, ceil(-predicted/ln 10) when positive, plus 30."""
    return 30 + max(0, math.ceil(-predicted / LN10))


def _alpha(a: int, mu: int, scale: int) -> BigFix:
    """alpha_mu = Y_mu(gamma, c_2 zeta(2), ..., c_mu zeta(mu)) at `scale`
    digits, c_m = (m-1)! (a + (-1)^m (a-1)): one Bell ladder over BigFix,
    each product rounded once (int scalings are exact)."""
    xs = [gamma_const(scale)] + [
        factorial(m - 1) * (a + (-1) ** m * (a - 1)) * zeta_const(m, scale)
        for m in range(2, mu + 1)]
    return bell_ladder(xs)[mu]


def convergence_row(a: int, mu: int, n: int, digits: int | None = None) -> ApproxRecord:
    """Measure ln|alpha_mu - p_{n,mu}/q_n| against the predicted exponent.

    digits defaults to auto_digits(predicted).  The error is evaluated at
    two guard scales, and its log is BigFix.ln_float, the double that the
    full-scale ln would round to; disagreement or an unresolvable
    difference raises PrecisionError, whose message names a, mu, n and
    the working digits.
    """
    from .asymptotics import corollary_exponent

    predicted = corollary_exponent(a, n)
    if digits is None:
        digits = auto_digits(predicted)
    _check_mu(a, mu)
    q, p = _row(a, mu, n)
    ratio = p / q
    errs = {}
    # guard 20 first, so that guard 10's constants round from its mantissas
    for guard in (20, 10):
        s = digits + guard
        errs[guard] = abs(_alpha(a, mu, s) - BigFix.from_fraction(ratio, s))
    logs = []
    for guard in (10, 20):
        if errs[guard].is_zero():
            raise PrecisionError(
                "a=%d mu=%d n=%d: difference vanishes at %d digits; "
                "raise digits" % (a, mu, n, digits + guard))
        logs.append(errs[guard].ln_float())
    if abs(logs[0] - logs[1]) > 1e-6 * max(1.0, abs(logs[0])):
        raise PrecisionError(
            "a=%d mu=%d n=%d: guard evaluations at %d and %d digits "
            "disagree (%r vs %r); raise digits"
            % (a, mu, n, digits + 10, digits + 20, logs[0], logs[1]))
    return ApproxRecord(a, mu, n, p, q, logs[1], predicted)


def records_to_csv(records) -> str:
    """CSV rows for ApproxRecords; rationals exact, logs in base 10.

    The integers are printed in full whatever Python's int->str limit.
    """
    lines = [CSV_HEADER]
    for r in records:
        lines.append("%d,%d,%d,%s,%s,%s,%s,%s" % (
            r.a, r.mu, r.n, _decimal_str(r.p.numerator),
            _decimal_str(r.p.denominator), _decimal_str(r.q),
            "%.6g" % (r.err_log / LN10),
            "%.6g" % (r.predicted_exponent / LN10)))
    return "\n".join(lines) + "\n"
