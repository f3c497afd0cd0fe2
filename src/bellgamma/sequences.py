"""Sequence families q_n and p_{n,mu} with their exactly checkable identities.

q_n = sum_k C(n,k)^a k! and p_{n,mu} = sum_k C(n,k)^a k! Y_mu(r_1(k),...,
r_mu(k)) approximate the Bell-polynomial combinations of gamma and zeta
values from module symring.  Everything structural about them is checked
exactly here: the residual identity linking p, q and the F_{n,mu} sums,
the denominator bound lcm(1..n)^mu, the five classical recurrences, and
the alternating tail of the integral remainder.  Floating point enters
only in convergence measurements, through fixed-point BigFix.

Costs: every q/p value comes straight from the kernel, and nothing is
cached between calls.  A single value (q_at, p_at, convergence_row) is
one kernel row, an O(n) sum over k; q_seq and p_seq are one kernel table
of rows 0..n_max, O(n_max^2), and q_seq builds q alone.  The residual
identity is checked on integer coefficients (lemma1_residual), with one
kernel row per n for every mu; f_deriv_sym and F_sym build the same
F_{n,mu} over Fraction as its independent test oracle.  The tail series
is summed in integers over its running denominator.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from . import kernel
from .bell import bell_ladder
from .numerics import (LN10, BigFix, PrecisionError, Rat, _decimal_str,
                       binom, factorial, gamma_const, lcm_upto,
                       zeta_const)
from .symring import SymPoly, alpha_poly, sp_eval

CSV_HEADER = "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"


class HarmonicCache:
    """Grow-on-demand table of generalized harmonic numbers H_k^{(m)}."""

    def __init__(self) -> None:
        self._rows: dict[int, list[Fraction]] = {}

    def get(self, k: int, m: int) -> Rat:
        if k < 0:
            raise ValueError("harmonic index must be nonnegative")
        if m < 1:
            raise ValueError("harmonic order must be positive")
        row = self._rows.setdefault(m, [Fraction(0)])
        while len(row) <= k:
            i = len(row)
            row.append(row[-1] + Fraction(1, i ** m))
        return row[k]


_HARMONIC = HarmonicCache()


def harmonic(k: int, m: int) -> Rat:
    """H_k^{(m)} = sum_{i=1}^k 1/i^m, with H_0^{(m)} = 0."""
    return _HARMONIC.get(k, m)


def r_val(a: int, n: int, k: int, m: int) -> Rat:
    """r_m(k) = (m-1)! (a H_{n-k}^{(m)} + (-1)^m (a-1) H_k^{(m)})."""
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    if m < 1:
        raise ValueError("require m >= 1")
    return factorial(m - 1) * (a * harmonic(n - k, m)
                               + (-1) ** m * (a - 1) * harmonic(k, m))


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


def f_deriv_sym(a: int, n: int, k: int, m: int) -> SymPoly:
    """m-th derivative of the summand exponent at k, over the g/z ring.

    f'(k) = -g + a H_{n-k} - (a-1) H_k; for m >= 2 the digamma
    derivatives contribute (m-1)!((-1)^{m-1}(a-1) - a) z_m + r_m(k).
    The ring uses m_index = a-1 so values for all m combine directly.
    """
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    if not 1 <= m <= a - 1:
        raise ValueError("require 1 <= m <= a-1")
    mi = a - 1
    if m == 1:
        num = a * harmonic(n - k, 1) - (a - 1) * harmonic(k, 1)
        return SymPoly.const(num, mi) - SymPoly.gamma(mi)
    return (_deriv_coeff(a, m) * SymPoly.zeta(m, mi)
            + SymPoly.const(r_val(a, n, k, m), mi))


def _deriv_coeff(a: int, m: int) -> int:
    """c_m = (m-1)!((-1)^{m-1}(a-1) - a), the coefficient of z_m in the
    m-th derivative of the summand exponent (z_1 = g: c_1 = -1)."""
    return factorial(m - 1) * ((-1) ** (m - 1) * (a - 1) - a)


@functools.lru_cache(maxsize=32)
def _f_sym_all(a: int, n: int):
    """F_{n,mu} for every mu = 0..a-1 in one pass over k."""
    mu_max = a - 1
    mi = max(mu_max, 1)
    acc = [SymPoly.zero(mi) for _ in range(mu_max + 1)]
    for k, w in kernel.weights(a, n):
        if mu_max:
            xs = [f_deriv_sym(a, n, k, m) for m in range(1, mu_max + 1)]
            ys = bell_ladder(xs)
        else:
            ys = [SymPoly.one(mi)]
        for mu in range(mu_max + 1):
            acc[mu] = acc[mu] + w * ys[mu]
    return tuple(acc)


def F_sym(a: int, mu: int, n: int) -> SymPoly:
    """F_{n,mu} = sum_k k! C(n,k)^a Y_mu(f'(k),...,f^{(mu)}(k)) exactly."""
    if not 0 <= mu <= a - 1:
        raise ValueError("require 0 <= mu <= a-1")
    return _f_sym_all(a, n)[mu]


def lemma1_residual(a: int, mu: int, n: int) -> SymPoly:
    """p_{n,mu} - q_n alpha_mu - sum_nu binom(mu,nu) alpha_{mu-nu} F_{n,nu}.

    The residual identity asserts this is the zero polynomial for every
    n; any nonzero return value is a counterexample witness.  It is
    formed in integers, as D^mu times itself over Z[G, Z_2..] (module
    lemma1), and the coefficient of a monomial of weight w is unscaled
    by D^{mu-w}.
    """
    # imported here: approx and table never compile the lemma-1 code
    from .lemma1 import scaled_row

    _check_mu(a, mu)
    d, q, dp, f = scaled_row(a, n)
    res = -q * alpha_poly(a, mu) + dp[mu - 1]
    for nu in range(1, mu + 1):
        res = res + -binom(mu, nu) * alpha_poly(a, mu - nu) * f[nu]
    return SymPoly(a - 1, {
        e: Fraction(c, d ** (mu - sum(i * x for i, x in enumerate(e, 1))))
        for e, c in res.terms.items()})


class RecurrenceSpec(namedtuple(
        "RecurrenceSpec", "name offsets coeffs inhom initial n_min")):
    """Linear recurrence sum_i coeffs[i](n) y_{n+offsets[i]} = inhom(n).

    offsets are ascending taps relative to the running index n; the
    relation is asserted for n >= n_min.  inhom is a (num, den) pair of
    polynomials or None for the homogeneous case.  initial lists
    y_0..y_{n_min + offsets[-1] - 1}, exactly the values a forward
    generation needs.
    """

    __slots__ = ()

    def __new__(cls, name: str, offsets: tuple, coeffs: tuple,
                inhom: tuple | None, initial: tuple, n_min: int):
        if list(offsets) != sorted(set(offsets)):
            raise ValueError("offsets must be strictly ascending")
        if len(offsets) != len(coeffs):
            raise ValueError("one coefficient polynomial per tap")
        if n_min + offsets[0] < 0:
            raise ValueError("n_min leaves a tap below index 0")
        if len(initial) != n_min + offsets[-1]:
            raise ValueError("initial values must cover y_0..y_{n_min+max_offset-1}")
        return super().__new__(cls, name, offsets, coeffs, inhom, initial,
                               n_min)

    @property
    def order(self) -> int:
        return self.offsets[-1] - self.offsets[0]


def _rhs(spec: RecurrenceSpec, n: int) -> Rat:
    """The inhomogeneous side of spec at n; 0 when homogeneous."""
    if spec.inhom is None:
        return Fraction(0)
    num, den = spec.inhom
    d = den(n)
    if d == 0:
        raise ArithmeticError("inhomogeneous denominator vanishes at n=%d" % n)
    return num(n) / d


def recurrence_check(spec: RecurrenceSpec, seq, n_range) -> bool:
    """Exact check of spec against seq at every n in n_range.

    A vanishing leading coefficient is reported and the point skipped.
    """
    for n in n_range:
        if n < spec.n_min:
            raise ValueError("relation not asserted below n_min=%d" % spec.n_min)
        if n + spec.offsets[-1] >= len(seq):
            raise ValueError("sequence too short for n=%d" % n)
        if spec.coeffs[-1](n) == 0:
            # imported in this rare branch alone: logging adds ~3 ms to
            # the start-up of every command
            import logging

            logging.getLogger(__name__).warning(
                "%s: leading coefficient vanishes at n=%d, point skipped",
                spec.name, n)
            continue
        lhs = sum(c(n) * seq[n + off]
                  for off, c in zip(spec.offsets, spec.coeffs))
        if lhs != _rhs(spec, n):
            return False
    return True


def recurrence_generate(spec: RecurrenceSpec, n_max: int) -> list:
    """y_0..y_{n_max} grown forward from spec.initial."""
    ys = [Fraction(v) for v in spec.initial]
    n = spec.n_min
    while len(ys) <= n_max:
        lead = spec.coeffs[-1](n)
        if lead == 0:
            raise ArithmeticError("leading coefficient vanishes at n=%d" % n)
        acc = _rhs(spec, n)
        for off, c in zip(spec.offsets[:-1], spec.coeffs[:-1]):
            acc -= c(n) * ys[n + off]
        ys.append(acc / lead)
        n += 1
    return ys[:n_max + 1]


def make_paper_recurrences() -> dict:
    """The five classical recurrence families with their initial values."""
    from .bernoulli import PolyQ

    n = PolyQ.x()
    recs = {}

    apt_offsets = (-2, -1, 0, 1)
    apt_coeffs = (
        -(n ** 2) * (n - 1) ** 2 * (16 * n + 1),
        n ** 2 * (256 * n ** 3 - 240 * n ** 2 + 64 * n - 7),
        -(128 * n ** 3 + 40 * n ** 2 - 82 * n - 45),
        16 * n - 15,
    )
    for name, init in (("aptekarev_q", (1, 3, 50)),
                       ("aptekarev_p", (0, 2, 31))):
        recs[name] = RecurrenceSpec(name, apt_offsets, apt_coeffs, None,
                                    tuple(Fraction(v) for v in init), 2)

    riv_offsets = (0, 1, 2, 3)
    riv_coeffs = (
        -((n + 2) ** 2) * (8 * n + 19) * (8 * n + 27),
        (8 * n + 27) * (24 * n ** 3 + 105 * n ** 2 + 124 * n + 25),
        -(n + 3) * (8 * n + 11) * (24 * n ** 2 + 145 * n + 215),
        (n + 3) ** 2 * (8 * n + 11) * (8 * n + 19),
    )
    for name, init in (("rivoal_q", (1, 7, Fraction(65, 2))),
                       ("rivoal_p", (-1, 4, Fraction(77, 4)))):
        recs[name] = RecurrenceSpec(name, riv_offsets, riv_coeffs, None,
                                    tuple(Fraction(v) for v in init), 0)

    a2_offsets = (0, 1, 2)
    a2_coeffs = ((n + 1) ** 2, -2 * (n + 2), PolyQ.const(1))
    recs["a2_q"] = RecurrenceSpec("a2_q", a2_offsets, a2_coeffs, None,
                                  (Fraction(1), Fraction(2)), 0)
    recs["a2_p1"] = RecurrenceSpec("a2_p1", a2_offsets, a2_coeffs,
                                   (-n, n + 2), (Fraction(0), Fraction(1)), 0)

    a3_offsets = (-2, -1, 0, 1)
    a3_coeffs = (
        -n * (n - 1) ** 3 * (8 * n - 1),
        n * (24 * n ** 3 - 75 * n ** 2 + 52 * n - 5),
        -(24 * n ** 3 + 13 * n ** 2 - 32 * n - 18),
        (n + 1) * (8 * n - 9),
    )
    a3_inhom = (2 * (8 * n ** 4 - 17 * n ** 3 + 74 * n ** 2 - 12 * n - 9),
                n * (n + 1))
    for name, init, inhom in (
            ("a3_q", (1, 2, 11), None),
            ("a3_p1", (0, 1, Fraction(13, 2)), None),
            ("a3_p2", (0, 18, 95), a3_inhom)):
        recs[name] = RecurrenceSpec(name, a3_offsets, a3_coeffs, inhom,
                                    tuple(Fraction(v) for v in init), 2)

    a4_offsets = (-2, -1, 0, 1, 2)
    a4_coeffs = (
        n ** 2 * (n - 1) ** 4 * (729 * n ** 4 + 2754 * n ** 3
                                 + 3717 * n ** 2 + 2084 * n + 398),
        -(n ** 2) * (2916 * n ** 7 + 28512 * n ** 6 + 61848 * n ** 5
                     + 37667 * n ** 4 - 12898 * n ** 3 - 17463 * n ** 2
                     - 2692 * n + 398),
        PolyQ([168, 2680, 13528, 24204, -13062, -85776, -82674, -18468, 4374]),
        -PolyQ([312, 1320, -2370, -13008, 947, 20862, 14661, 2916]),
        (n + 2) ** 2 * (729 * n ** 4 - 162 * n ** 3 - 171 * n ** 2
                        - 4 * n + 6),
    )
    a4_inhom = (-6 * PolyQ([3184, 30840, 105332, 100424, -194460, -549106,
                            -490669, -179680, -17424, 2754, 729]),
                n * (n + 1) ** 2 * (n + 2))
    for name, init, inhom in (
            ("a4_q", (1, 2, 19, 250), None),
            ("a4_p1", (0, 1, 13, Fraction(409, 3)), None),
            ("a4_p2", (0, 32, 217, Fraction(26444, 9)), None),
            ("a4_p3", (0, 60, 402, Fraction(50761, 9)), a4_inhom)):
        recs[name] = RecurrenceSpec(name, a4_offsets, a4_coeffs, inhom,
                                    tuple(Fraction(v) for v in init), 2)
    return recs


def aptekarev_seq(n_max: int):
    """(q~, p~) explicit sums: q~_n = sum C(n,k)^2 (n+k)! and the
    matching numerator with harmonic weight H_{n+k} + 2H_{n-k} - 2H_k."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    d = lcm_upto(2 * n_max) if n_max >= 1 else 1
    sh = kernel.scaled_harmonics(2 * n_max, 1, d)[0]
    q = []
    p = []
    for n in range(n_max + 1):
        qn = 0
        pnum = 0
        c = 1
        f = factorial(n)
        for k in range(n + 1):
            if k:
                c = c * (n - k + 1) // k
                f *= n + k
            w = c * c * f
            qn += w
            pnum += w * (sh[n + k] + 2 * sh[n - k] - 2 * sh[k])
        q.append(qn)
        p.append(Fraction(pnum, d))
    return q, p


def tail_series(a: int, u: int, n: int, digits: int) -> BigFix:
    """Alternating remainder sum (n+1)^{-a} sum_k (-1)^{(u+1)k+a-1}
    k!^{a-1} / ((n+2)_k)^a, truncated when terms drop below
    10^{-digits-5}.  Terms decay at least like 1/k!."""
    if abs(u) > a:
        raise ValueError("require |u| <= a")
    if n < 1:
        raise ValueError("require n >= 1")
    if digits < 1:
        raise ValueError("digits must be positive")
    # Term k is num/den; the partial sum is acc/den over the same
    # running denominator.  num * 10^(digits+5) is carried as a running
    # product too, so no step multiplies two large integers.
    acc = 0
    k = 0
    num = 1
    num_scaled = 10 ** (digits + 5)
    den = 1
    while num_scaled >= den:
        if ((u + 1) * k + a - 1) % 2:
            acc -= num
        else:
            acc += num
        k += 1
        f = (n + 1 + k) ** a
        g = k ** (a - 1)
        num *= g
        num_scaled *= g
        den *= f
        acc *= f
    return BigFix.from_fraction(Fraction(acc, den * (n + 1) ** a), digits)


class ApproxRecord(namedtuple(
        "ApproxRecord", "a mu n p q err_log predicted_exponent")):
    """One measured convergence row: exact p (Rat), q (int) plus the
    log-scale error err_log and the predicted_exponent (floats)."""

    __slots__ = ()


def auto_digits(predicted: float) -> int:
    """Working digits for an error of about exp(predicted): the digits
    that resolve it, ceil(-predicted/ln 10) when positive, plus 30."""
    return 30 + max(0, math.ceil(-predicted / LN10))


def convergence_row(a: int, mu: int, n: int, digits: int | None = None) -> ApproxRecord:
    """Measure ln|alpha_mu - p_{n,mu}/q_n| against the predicted exponent.

    digits defaults to auto_digits(predicted).  The error is evaluated at
    two guard scales; disagreement or an unresolvable difference raises
    PrecisionError.
    """
    from .asymptotics import corollary_exponent

    predicted = corollary_exponent(a, n)
    if digits is None:
        digits = auto_digits(predicted)
    _check_mu(a, mu)
    q, p = _row(a, mu, n)
    ap = alpha_poly(a, mu, mu)
    errs = {}
    # guard 20 first, so that guard 10's constants round from its mantissas
    for guard in (20, 10):
        s = digits + guard
        alpha = sp_eval(ap, gamma_const(s),
                        [zeta_const(m, s) for m in range(2, mu + 1)])
        errs[guard] = abs(alpha - BigFix.from_fraction(p / q, s))
    logs = []
    for guard in (10, 20):
        if errs[guard].is_zero():
            raise PrecisionError(
                "difference vanishes at %d digits; raise digits"
                % (digits + guard))
        logs.append(float(errs[guard].ln()))
    if abs(logs[0] - logs[1]) > 1e-6 * max(1.0, abs(logs[0])):
        raise PrecisionError(
            "guard evaluations disagree (%r vs %r); raise digits"
            % (logs[0], logs[1]))
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
