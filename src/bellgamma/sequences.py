"""The convergence measurements of p_{n,mu}/q_n, and the `approx` command.

q_n = sum_k C(n,k)^a k! and p_{n,mu} = sum_k C(n,k)^a k! Y_mu(r_1(k),...,
r_mu(k)) approximate the Bell-polynomial combinations alpha_mu of gamma
and zeta values.  This module serves the `approx` and `table` commands:
the measured error of p/q against alpha_mu, one Bell ladder over the
BigFix constants, certified by a stated radius (_ladder_radius, over
the same constants).  The log of that error is taken at 40 working
digits (BigFix.ln_float), not at the row's full scale, whenever they
settle the double it prints.  Floating point enters only in those
measurements.  A row's working digits (_row_digits) and the `approx`
command, cmd_approx, are at the end; the `table` command, cmd_table,
which renders many rows at the digits of its deepest (and the optional
q_n / main-term column), is in module table, so that approx never
compiles it.  The library values q_at, p_at, q_seq and p_seq are in
module values, which no command loads, and the exactly checked
identities live in their own modules, so that these commands never
compile them either: lemma 1 in lemma1 (with symring), the classical
recurrences in recurrences, and the alternating tail of the integral
remainder in tail.

Costs: rows' q and p come straight from one kernel.int_rows call, an
O(n) sum over k per row, and nothing is cached between calls.
convergence_rows measures all its rows at one precision, against one
alpha_mu and one radius; convergence_row is its one-row call, which
approx makes, and table makes one call for all its listed rows.

A row keeps p_{n,mu} as its reduced integer pair (p_num, p_den), the
pair a Fraction would hold: approx and table print those integers and
round p/q into a BigFix from them, so neither loads fractions.
"""

import math
from collections import namedtuple

from . import kernel
from .bell import bell_ladder, point_coeff
from .common import (_MAX_DIGITS, _ROW_GUARD, EXIT_OK, PrecisionError,
                     _decimal_str, _json)
from .exponents import corollary_exponent
from .numerics import LN10, BigFix, gamma_const, zeta_const

CSV_HEADER = "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"


class ApproxRecord(namedtuple(
        "ApproxRecord", "a mu n p_num p_den q err_log predicted_exponent")):
    """One measured convergence row: exact p = p_num/p_den in lowest
    terms (p_den > 0) and q (ints), plus the log-scale error err_log and
    the predicted_exponent (floats)."""

    __slots__ = ()


def auto_digits(predicted: float) -> int:
    """Working digits for an error of about exp(predicted): the digits
    that resolve it, ceil(-predicted/ln 10) when positive, plus 30."""
    return 30 + max(0, math.ceil(-predicted / LN10))


def _alpha_args(a: int, mu: int, scale: int) -> tuple:
    """(xs, errs): xs = [gamma, c_2 zeta(2), ..., c_mu zeta(mu)] at
    `scale` digits, c_m = bell.point_coeff(a, m), and
    errs = [1, c_2, ..., c_mu], bounds on their errors in units of
    10^-scale: each constant is within one unit of its true value (the
    _gamma_mantissa and _zeta_mantissa docstrings), and the int scalings
    are exact."""
    errs = [point_coeff(a, m) for m in range(1, mu + 1)]
    xs = [gamma_const(scale)] + [
        c * zeta_const(m, scale) for m, c in enumerate(errs[1:], start=2)]
    return xs, errs


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
    |Y~_k - Y_k|: E_0 = 0 and E_j is the sum of these over i < j.  The
    term i = j-1, ys[j-1] Y~_0, is ys[j-1] itself, added with no product
    and so exact: its half unit is not spent, and the bound still holds.
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


def convergence_rows(a: int, mu: int, ns: range,
                     digits: int | None = None) -> list:
    """Measure ln|alpha_mu - p_{n,mu}/q_n| against the predicted exponent
    for every n in ns, a nonempty range: one ApproxRecord per row.

    The rows come from one kernel.int_rows call, over the harmonic table
    of the last, and all are measured at one precision, s = digits +
    _ROW_GUARD digits; digits defaults to the largest
    auto_digits(predicted) over the rows.  alpha_mu =
    Y_mu(gamma, c_2 zeta(2), ..., c_mu zeta(mu)) is one Bell ladder over
    xs, where xs, errs = _alpha_args(a, mu, s), and serves every row.
    Each row's difference has a mantissa M within R =
    _ladder_radius(xs, errs) + 1 units of 10^-s of the true difference T
    (the one unit covers from_ratio's half).  That R bounds the error at
    s and at every finer scale, and is the same integer at every
    s > _ROW_GUARD, since the real bound it rounds up moves by about
    10^-s.  A row is accepted when M > 2 10^6 R: then
    |ln M - ln T| < -ln(1 - 5 10^-7), so err_log, BigFix.ln_float of the
    difference (the double its full-scale ln rounds to), is within
    1e-6 max(1, |err_log|) of the true log.  Otherwise the row fails:
    when M > R, so that T >= M - R, it needs the least digits + k at
    which (M - R) 10^k - R > 2 10^6 R, where it passes; when M <= R it
    needs auto_digits(predicted) if that is above digits: the digits
    that resolve the predicted error, with 30 to spare.  Every row is
    measured, and when one fails PrecisionError names a, mu, n, s, M
    and R of the first that fails, and the most digits that any failing
    row needs, so that one retry at them passes every row that named
    its digits.
    """
    kernel.check_mu(a, mu)
    # Every row over the lcm D of the last: D^mu p_{n,mu} over D^mu is
    # p_{n,mu}, which each row reduces.
    d, qs, dp = kernel.int_rows(a, ns[0], ns[-1], mu, ns.step)
    den = d ** mu
    if digits is None:
        digits = max(auto_digits(corollary_exponent(a, n)) for n in ns)
    s = digits + _ROW_GUARD
    xs, errs = _alpha_args(a, mu, s)
    alpha = bell_ladder(xs)[mu]
    r = _ladder_radius(xs, errs) + 1
    bar = 2 * 10 ** 6 * r
    rows, need, failure = [], digits, None
    for n, q, num in zip(ns, qs, dp[-1]):
        predicted = corollary_exponent(a, n)
        g = math.gcd(num, den)
        num //= g
        dn = den // g
        err = abs(alpha - BigFix.from_ratio(num, dn * q, s))
        m = err.mantissa
        if m <= bar:
            k = 1
            while m > r and (m - r) * 10 ** k - r <= bar:
                k += 1
            need = max(need, digits + k if m > r else auto_digits(predicted))
            failure = failure or (
                "a=%d mu=%d n=%d: difference of %d units at %d digits, "
                "radius %d; raise digits" % (a, mu, n, m, s, r))
        else:
            rows.append(ApproxRecord(a, mu, n, num, dn, q, err.ln_float(),
                                     predicted))
    if failure:
        raise PrecisionError(failure + (" to %d" % need if need > digits
                                        else ""))
    return rows


def convergence_row(a: int, mu: int, n: int,
                    digits: int | None = None) -> ApproxRecord:
    """Row n alone, measured by convergence_rows: at digits, by default
    auto_digits of its predicted exponent."""
    return convergence_rows(a, mu, range(n, n + 1), digits)[0]


def records_to_csv(records) -> str:
    """CSV rows for ApproxRecords; rationals exact, logs in base 10.

    The integers are printed in full whatever Python's int->str limit.
    """
    lines = [CSV_HEADER]
    for r in records:
        lines.append("%d,%d,%d,%s,%s,%s,%s,%s" % (
            r.a, r.mu, r.n, _decimal_str(r.p_num), _decimal_str(r.p_den),
            _decimal_str(r.q),
            "%.6g" % (r.err_log / LN10),
            "%.6g" % (r.predicted_exponent / LN10)))
    return "\n".join(lines) + "\n"


def _row_digits(args, n: int) -> int:
    """Row n's working digits: --digits, else the larger of
    BELLGAMMA_DIGITS and the digits that resolve the predicted error.
    PrecisionError is raised here, before any row is built, when those
    digits pass the oracles' limit, or, with --digits, twice that limit:
    a row whose predicted error needs them cannot be certified at any
    digits the parser accepts, whatever the few nats by which the
    measured error misses the prediction."""
    top = _MAX_DIGITS - _ROW_GUARD
    try:
        auto = auto_digits(corollary_exponent(args.a, n))
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
    """The `approx` command: one convergence row."""
    digits = _row_digits(args, args.n)
    row = convergence_row(args.a, args.mu, args.n, digits)
    dec = BigFix.from_ratio(row.p_num, row.p_den * row.q,
                            min(digits, 40)).to_decimal()
    if args.fmt == "csv":
        text = records_to_csv([row])
    elif args.fmt == "json":
        text = _json({
            "a": row.a, "mu": row.mu, "n": row.n,
            "p": _decimal_str(row.p_num) + "/" + _decimal_str(row.p_den),
            "q": _decimal_str(row.q), "p_over_q": dec,
            "err_log10": row.err_log / LN10,
            "predicted_log10": row.predicted_exponent / LN10,
        })
    else:
        text = "".join((
            "a=%d mu=%d n=%d\n" % (row.a, row.mu, row.n),
            "p = %s/%s\n" % (_decimal_str(row.p_num),
                             _decimal_str(row.p_den)),
            "q = %s\n" % _decimal_str(row.q),
            "p/q = %s\n" % dec,
            "err_log10 = %.6g\n" % (row.err_log / LN10),
            "predicted_log10 = %.6g\n" % (row.predicted_exponent / LN10),
        ))
    return text, EXIT_OK
