"""Generalized Bernoulli polynomials B_n^{(m)}(x), the csc-power series,
and the bernoulli suite of `verify`.

B_n^{(m)}(x) is n! times the z^n coefficient of (z/(e^z - 1))^m e^{xz};
the coefficients of (z/(e^z - 1))^m come from Miller's power recurrence,
kept per m as one row of integers over their least common denominator,
and the classical recursion and addition formulas are checks of the
bernoulli suite rather than used for construction.  bernoulli_at, the
one route to a value B_n^{(m)}(x), evaluates it from that row by one
integer Horner pass, and csc_power_coeffs takes the csc-power series
from it alone.  The truncated product and power of coefficient lists
serve suite_bernoulli, which multiplies the csc-power series by a power
of the sine series.
"""

from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .common import binom

_N_LIMIT = 200
_M_LIMIT = 50


# m -> (D, [a_0, ..., a_K]): the coefficients c_k = a_k / D of
# (z/(e^z - 1))^m over their least common denominator D, one row of ints
# per m, extended in place; a lower order is a prefix.  At most _M_LIMIT
# rows of _N_LIMIT + 1 terms, except that bernoulli_number(n) extends
# the row of m = 1 to n + 1.
_CORE_ROWS: dict[int, tuple[int, list[int]]] = {}


def _core_row(m: int, order: int) -> tuple[int, list[int]]:
    """(D, row) with c_k = row[k] / D the coefficients of z^k, k = 0..order
    at least, in (z/(e^z - 1))^m = g^{-m}; the row may run further.

    With g = (e^z - 1)/z = sum_j z^j/(j+1)!, J. C. P. Miller's recurrence
    for powers of a series (Knuth, TAOCP Vol. 2, 4.7) gives c_0 = 1 and
    k c_k = sum_{j=1..k} ((1-m) j - k) c_{k-j}/(j+1)!: O(order^2) once
    per m.  Each sum is taken in integers over D k (k+1)!; when the new
    c_k needs a larger D, the row is rescaled in place.
    """
    d, row = _CORE_ROWS.get(m) or (1, [1])
    if order < len(row):
        return d, row
    for k in range(len(row), order + 1):
        acc, w = 0, 1  # w = (k+1)!/(j+1)!
        for j in range(k, 0, -1):
            acc += ((1 - m) * j - k) * row[k - j] * w
            w *= j + 1
        den = d * k * w
        g = gcd(acc, den)
        acc, den = acc // g, den // g
        scale = den // gcd(d, den)
        if scale > 1:
            row[:] = [c * scale for c in row]
            d *= scale
        row.append(acc * (d // den))
    _CORE_ROWS[m] = d, row
    return d, row


def bernoulli_number(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention): n! times the
    z^n coefficient of z/(e^z - 1), so B_n = B_n^{(1)}(0)."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    d, row = _core_row(1, n)
    return Fraction(factorial(n) * row[n], d)


def bernoulli_at(n: int, m: int, x) -> Fraction:
    """Exact B_n^{(m)}(x) at a rational x = u/v, without building the
    polynomial: n! sum_k c_k x^{n-k}/(n-k)! with c_k = a_k/D from
    _core_row, one integer Horner pass over the denominator D v^n."""
    if not (0 <= n <= _N_LIMIT and 1 <= m <= _M_LIMIT):
        raise ValueError("bernoulli_at requires 0 <= n <= %d, 1 <= m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    if type(x) not in (int, Fraction):
        x = Fraction(x)
    u, v = x.numerator, x.denominator
    d, row = _core_row(m, n)
    acc, vk, f = 0, 1, 1  # f = n!/i! at x^i, i from n down
    for i, a in zip(range(n, -1, -1), row):
        acc = acc * u + a * f * vk
        vk *= v
        f *= i
    return Fraction(acc, d * v ** n)


def csc_power_coeffs(m: int, nmax: int) -> list[Fraction]:
    """Coefficients of z^{2n}, n = 0..nmax, in (z/sin z)^m:
    (-1)^n 4^n B_{2n}^{(m)}(m/2)/(2n)!."""
    if m < 1:
        raise ValueError("csc_power_coeffs requires m >= 1")
    if nmax < 0 or nmax > 50:
        raise ValueError("csc_power_coeffs limited to 0 <= N <= 50")
    half_m = Fraction(m, 2)
    out = []
    for n in range(nmax + 1):
        b = bernoulli_at(2 * n, m, half_m)
        out.append(Fraction((-4) ** n * b.numerator,
                            b.denominator * factorial(2 * n)))
    return out


# Truncated power series held as coefficient lists [c_0, ..., c_N] of
# ints and Fractions, all of one length; nothing looks past z^N.

def _series_mul(s, t) -> list:
    """Truncated Cauchy product, summed in integers over the product of
    the factors' common denominators; an integral coefficient is an int."""
    ds = lcm(*(c.denominator for c in s))
    dt = lcm(*(c.denominator for c in t))
    a = [c.numerator * (ds // c.denominator) for c in s]
    b = [c.numerator * (dt // c.denominator) for c in t]
    d = ds * dt
    out = []
    for k in range(len(a)):
        acc = sum(a[i] * b[k - i] for i in range(k + 1) if a[i] and b[k - i])
        out.append(acc // d if acc % d == 0 else Fraction(acc, d))
    return out


def _series_pow(s, k: int) -> list:
    """s^k for k >= 0, by binary powering."""
    if k < 0:
        raise ValueError("_series_pow requires k >= 0")
    acc = [1] + [0] * (len(s) - 1)
    while k:
        if k & 1:
            acc = _series_mul(acc, s)
        k >>= 1
        if k:
            s = _series_mul(s, s)
    return acc


def suite_bernoulli(args) -> list:
    """The checks of `verify --suite bernoulli`, as (name, passed) pairs.

    Each identity equates polynomials in x of degree <= n, so it holds
    exactly when it holds at the n + 1 points x = 0..n.  A run evaluates
    each distinct B_n^{(m)}(x) once, by bernoulli_at, into a memo that
    ends with the run; each side of an identity is summed in integers
    over a common denominator, and compared once per point.
    """
    memo = {}

    def at(n, m, x):
        """B_n^{(m)}(x) as (numerator, denominator)."""
        pair = memo.get((n, m, x))
        if pair is None:
            v = bernoulli_at(n, m, x)
            pair = memo[n, m, x] = v.numerator, v.denominator
        return pair

    out = [("bernoulli falling-factorial identity m=0..8",
            all(at(m, m + 1, x) == (prod(x - j for j in range(1, m + 1)), 1)
                for m in range(0, 9) for x in range(m + 1)))]
    # m B_n^{(m+1)}(x) = (m-n) B_n^{(m)}(x) + n (x-m) B_{n-1}^{(m)}(x)
    ok = True
    for m in range(1, 9):
        for n in range(0, 9):
            for x in range(n + 1):
                p1, q1 = at(n, m + 1, x)
                p2, q2 = at(n, m, x)
                p3, q3 = at(n - 1, m, x) if n else (0, 1)
                ok = ok and (m * p1 * q2 * q3 == q1 * ((m - n) * p2 * q3
                                                       + n * (x - m) * p3 * q2))
    out.append(("bernoulli order-raising recursion n,m<=8", ok))
    # B_n^{(m)}(x + y) = sum_k C(n,k) B_k^{(m)}(y) x^{n-k}, the right side
    # over the common denominator of the B_k^{(m)}(y)
    y = Fraction(1, 3)
    ok = True
    for m in range(1, 6):
        at_y = [at(k, m, y) for k in range(9)]
        big = lcm(*(q for _, q in at_y))
        scaled = [p * (big // q) for p, q in at_y]
        for n in range(0, 9):
            for x in range(n + 1):
                rhs = 0
                for k in range(n + 1):
                    rhs = rhs * x + binom(n, k) * scaled[k]
                p, q = at(n, m, x + y)
                ok = ok and p * big == rhs * q
    out.append(("bernoulli addition formula at y=1/3, n<=8 m<=5", ok))
    ok = True
    for m in range(2, 13, 2):
        terms = [at(k, m + 1, Fraction(m + 1, 2)) for k in range(m + 1)]
        big = lcm(*(q for _, q in terms))
        ok = ok and sum(binom(m, k) * 2 ** k * p * (big // q)
                        for k, (p, q) in enumerate(terms)) == 0
    out.append(("bernoulli even-order alternating sum m=2,4,..,12", ok))
    out.append(("bernoulli odd values vanish at midpoint m<=6 n<=6",
                all(at(2 * n + 1, m, Fraction(m, 2))[0] == 0
                    for m in range(1, 7) for n in range(7))))
    # the inverse of (sin z/z)^m is unique: the product is 1 exactly when
    # every coefficient of (z/sin z)^m is right
    sin_over_z = [Fraction((-1) ** j, factorial(2 * j + 1))
                  for j in range(16)]
    ok = csc_power_coeffs(1, 2) == [1, Fraction(1, 6), Fraction(7, 360)]
    for m in range(1, 6):
        ok = ok and (_series_mul(csc_power_coeffs(m, 15),
                                 _series_pow(sin_over_z, m))
                     == [1] + [0] * 15)
    out.append(("bernoulli csc-power dual-route coefficients m<=5 N<=15", ok))
    return out
