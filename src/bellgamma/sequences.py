"""The sequences q_n and p_{n,mu} and their convergence measurements.

q_n = sum_k C(n,k)^a k! and p_{n,mu} = sum_k C(n,k)^a k! Y_mu(r_1(k),...,
r_mu(k)) approximate the Bell-polynomial combinations alpha_mu of gamma
and zeta values.  This module serves the `approx` and `table` commands:
single values, prefix tables, and the measured error of p/q against
alpha_mu, one Bell ladder over the BigFix constants, certified by a
stated radius (_alpha_radius, one per a and mu).  The log of that error
is taken at 40 working digits (BigFix.ln_float), not at the row's full
scale, whenever they settle the double it prints.  Floating point
enters only in those measurements.
The exactly checked identities live in their own modules, so that these
commands never compile them: lemma 1 in lemma1 (with symring), the
classical recurrences in recurrences, and the alternating tail of the
integral remainder in tail.

Costs: every q/p value comes straight from the kernel, and nothing is
cached between calls.  A single value (q_at, p_at, convergence_row) is
one kernel row, an O(n) sum over k; q_seq and p_seq are one kernel table
of rows 0..n_max, O(n_max^2), and q_seq builds q alone.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from . import kernel
from .bell import bell_ladder
from .numerics import (LN10, BigFix, PrecisionError, Rat, _decimal_str,
                       factorial, gamma_const, zeta_const)

CSV_HEADER = "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"
# convergence_row evaluates each row at digits + _ROW_GUARD digits, so
# approx and table work at most at the constants' limit less _ROW_GUARD.
_ROW_GUARD = 20


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


class ApproxRecord(namedtuple(
        "ApproxRecord", "a mu n p q err_log predicted_exponent")):
    """One measured convergence row: exact p (Rat), q (int) plus the
    log-scale error err_log and the predicted_exponent (floats)."""

    __slots__ = ()


def auto_digits(predicted: float) -> int:
    """Working digits for an error of about exp(predicted): the digits
    that resolve it, ceil(-predicted/ln 10) when positive, plus 30."""
    return 30 + max(0, math.ceil(-predicted / LN10))


def _alpha_args(a: int, mu: int, scale: int) -> tuple:
    """(xs, errs): xs = [gamma, c_2 zeta(2), ..., c_mu zeta(mu)] at
    `scale` digits, c_m = (m-1)! (a + (-1)^m (a-1)), and
    errs = [1, c_2, ..., c_mu], bounds on their errors in units of
    10^-scale: each constant is within one unit of its true value (the
    _gamma_mantissa and _zeta_mantissa docstrings, and
    numerics._round_cached), and the int scalings are exact."""
    errs = [1] + [factorial(m - 1) * (a + (-1) ** m * (a - 1))
                  for m in range(2, mu + 1)]
    xs = [gamma_const(scale)] + [
        c * zeta_const(m, scale) for m, c in enumerate(errs[1:], start=2)]
    return xs, errs


def _alpha(a: int, mu: int, scale: int) -> BigFix:
    """alpha_mu = Y_mu(gamma, c_2 zeta(2), ..., c_mu zeta(mu)) at `scale`
    digits (_alpha_args): one Bell ladder over BigFix, each product
    rounded once (int scalings are exact)."""
    return bell_ladder(_alpha_args(a, mu, scale)[0])[mu]


@functools.lru_cache(maxsize=None)
def _alpha_radius(a: int, mu: int) -> int:
    """A bound, in units of 10^-s, on |_alpha(a, mu, s) - alpha_mu| at
    every scale s > _ROW_GUARD, the least that convergence_row works at:
    _ladder_radius over _alpha_args at that least scale."""
    return _ladder_radius(*_alpha_args(a, mu, _ROW_GUARD + 1))


def _ladder_radius(xs, errs) -> int:
    """A bound, in units of 10^-s, on |bell_ladder(ys)[-1] - Y_n(x)| for
    BigFix ys at the scale of xs or finer, each ys[i] within errs[i]
    units of the real x_{i+1}, n = len(xs), where xs meet that bound at
    their own scale.

    X_i = |xs[i]| + 2 errs[i] units of xs bounds |x_i| and every |ys[i]|,
    and B_j = Y_j(X) bounds |Y_j(x)|, since Y_j has nonnegative
    coefficients.  The ladder forms each term C(j-1, i) ys[i] Y~_k,
    k = j-1-i, as an exact int scaling and one product rounded to half a
    unit, and so misses C(j-1, i) x_{i+1} Y_k by at most
    C(j-1, i) (X_{i+1} E_k + errs[i] B_k) + 1/2, where E_k bounds
    |Y~_k - Y_k|: E_0 = 0 and E_j is the sum of these over i < j.
    """
    one = 10 ** xs[0].scale
    # X and B in units of 1/one, E in units of 10^-s/one, rounded up
    big = [abs(x.mantissa) + 2 * e for x, e in zip(xs, errs)]
    bs, es = [one], [0]
    for j in range(1, len(xs) + 1):
        cs = [math.comb(j - 1, i) for i in range(j)]
        b = sum(cs[i] * big[i] * bs[j - 1 - i] for i in range(j))
        e = sum(cs[i] * (big[i] * es[j - 1 - i]
                         + errs[i] * bs[j - 1 - i] * one) for i in range(j))
        bs.append(-(-b // one))
        es.append(-(-(2 * e + j * one * one) // (2 * one)))
    return -(-es[-1] // one)


def convergence_row(a: int, mu: int, n: int, digits: int | None = None) -> ApproxRecord:
    """Measure ln|alpha_mu - p_{n,mu}/q_n| against the predicted exponent.

    digits defaults to auto_digits(predicted).  The difference is
    evaluated once, at s = digits + _ROW_GUARD digits.  Its mantissa M
    is within R = _alpha_radius(a, mu) + 1 units of 10^-s of the true
    difference T (the one unit covers from_fraction's half).  The row is
    accepted when M > 2 10^6 R: then |ln M - ln T| < -ln(1 - 5 10^-7),
    so err_log, BigFix.ln_float of the difference (the double its
    full-scale ln rounds to), is within 1e-6 max(1, |err_log|) of the
    true log.  Otherwise PrecisionError names a, mu, n, s, M and R; when
    M > R, so that T >= M - R, it also names the least digits + k at
    which (M - R) 10^k - R > 2 10^6 R, where the row passes, since R
    holds at every scale.
    """
    from .asymptotics import corollary_exponent

    predicted = corollary_exponent(a, n)
    if digits is None:
        digits = auto_digits(predicted)
    _check_mu(a, mu)
    q, p = _row(a, mu, n)
    s = digits + _ROW_GUARD
    err = abs(_alpha(a, mu, s) - BigFix.from_fraction(p / q, s))
    m, r = err.mantissa, _alpha_radius(a, mu) + 1
    if m <= 2 * 10 ** 6 * r:
        hint = "raise digits"
        if m > r:
            k = 1
            while (m - r) * 10 ** k - r <= 2 * 10 ** 6 * r:
                k += 1
            hint += " to %d" % (digits + k)
        raise PrecisionError(
            "a=%d mu=%d n=%d: difference of %d units at %d digits, "
            "radius %d; %s" % (a, mu, n, m, s, r, hint))
    return ApproxRecord(a, mu, n, p, q, err.ln_float(), predicted)


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
