"""Exact arithmetic primitives and high-precision constants.

Rational arithmetic is carried by fractions.Fraction (aliased Rat).
High-precision reals use BigFix, a decimal fixed-point value stored as
an arbitrary-precision integer mantissa with value mantissa * 10**-scale.

gamma_const and zeta_const are independent oracles, each one integer
loop at digits + _GUARD working digits: Brent and McMillan's series for
gamma and P. Borwein's alternating sum for zeta(m).  Their truncation
and rounding bounds (in the docstrings of _gamma_mantissa and
_zeta_mantissa) lie far below the guard digits, so each value is
correctly rounded unless it lies within about 10^-9 of its last unit
from a rounding tie.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Rat = Fraction

LN10 = math.log(10.0)


class PrecisionError(ArithmeticError):
    """Requested precision cannot be met or certified."""


# ---------------------------------------------------------------------------
# combinatorial helpers
# ---------------------------------------------------------------------------

def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    return math.factorial(n)


def binom(n: int, k: int) -> int:
    """Binomial coefficient, requiring 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"binom requires 0 <= k <= n, got n={n} k={k}")
    return math.comb(n, k)


def lcm_upto(n: int) -> int:
    """D_n = lcm(1, 2, ..., n); the empty case n = 0 gives 1."""
    if n < 0:
        raise ValueError("lcm_upto requires n >= 0")
    return math.lcm(*range(1, n + 1))


def poch(x, m: int):
    """Rising factorial x(x+1)...(x+m-1), with poch(x, 0) = 1.

    Works for Rat, int, or float x; the result type follows x.
    """
    if m < 0:
        raise ValueError("poch requires m >= 0")
    r = x ** 0
    for i in range(m):
        r *= x + i
    return r


# ---------------------------------------------------------------------------
# fixed-point kernel helpers (integer mantissas at a common scale)
# ---------------------------------------------------------------------------

def _div_nearest(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties to even.  Requires b > 0."""
    q, r = divmod(a, b)
    r2 = 2 * r
    if r2 > b or (r2 == b and q & 1):
        q += 1
    return q


def _decimal_str(m: int) -> str:
    """str(m) for an integer m, also past Python's int->str limit."""
    if m.bit_length() < 14000:  # at most 4215 digits: inside the default limit
        return str(m)
    if m < 0:
        return "-" + _decimal_str(-m)
    k = m.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(m, 10 ** k)
    return _decimal_str(hi) + _decimal_str(lo).rjust(k, "0")


def _fix_atanh_recip(q: int, w: int) -> int:
    """atanh(1/q) at scale w (integer q >= 2), as a fixed-point
    mantissa: the sum over i of q^{-2i-1}/(2i+1), each term floored."""
    p = 10 ** w // q
    acc = p
    q2 = q * q
    i = 1
    while p:
        p //= q2
        acc += p // (2 * i + 1)
        i += 1
    return acc


# Cached per scale w.  Full-scale ln and the oracles ask for a new scale
# on every table row, so the caches keep only the recent ones; ln_float
# always asks for scale _LN_FLOAT_DIGITS, which is computed once per
# process.
@functools.lru_cache(maxsize=32)
def _ln2_fix(w: int) -> int:
    return 2 * _fix_atanh_recip(3, w)


@functools.lru_cache(maxsize=32)
def _ln10_fix(w: int) -> int:
    # ln 10 = ln(5/4) + 3 ln 2 and ln(5/4) = 2 atanh(1/9)
    return 2 * _fix_atanh_recip(9, w) + 3 * _ln2_fix(w)


# ---------------------------------------------------------------------------
# BigFix
# ---------------------------------------------------------------------------

class BigFix:
    """Decimal fixed-point real: value = mantissa * 10**-scale.

    The operations are those the convergence measurement and the oracles
    run: +, -, abs, products, int scaling, powers, ln and ln_float.  All
    arithmetic rounds to nearest at the operand scale; mixed-scale
    operands are rejected rather than silently rescaled.  Instances are
    immutable by convention.
    """

    __slots__ = ("mantissa", "scale")

    def __init__(self, mantissa: int, scale: int):
        if scale < 0:
            raise ValueError("scale must be >= 0")
        self.mantissa = mantissa
        self.scale = scale

    # construction ---------------------------------------------------------

    @classmethod
    def from_int(cls, k: int, scale: int) -> "BigFix":
        return cls(k * 10 ** scale, scale)

    @classmethod
    def from_fraction(cls, fr: Fraction, scale: int) -> "BigFix":
        fr = Fraction(fr)
        return cls(_div_nearest(fr.numerator * 10 ** scale, fr.denominator),
                   scale)

    # bookkeeping ----------------------------------------------------------

    def _same(self, other: "BigFix") -> None:
        if self.scale != other.scale:
            raise ValueError("BigFix scale mismatch: %d vs %d"
                             % (self.scale, other.scale))

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "BigFix") -> "BigFix":
        self._same(other)
        return BigFix(self.mantissa + other.mantissa, self.scale)

    def __sub__(self, other: "BigFix") -> "BigFix":
        self._same(other)
        return BigFix(self.mantissa - other.mantissa, self.scale)

    def __neg__(self) -> "BigFix":
        return BigFix(-self.mantissa, self.scale)

    def __abs__(self) -> "BigFix":
        return BigFix(abs(self.mantissa), self.scale)

    def __mul__(self, other: "BigFix | int") -> "BigFix":
        if type(other) is int:  # exact: no rounding
            return BigFix(self.mantissa * other, self.scale)
        self._same(other)
        return BigFix(_div_nearest(self.mantissa * other.mantissa,
                                   10 ** self.scale), self.scale)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BigFix":
        """Integer power k >= 0, computed exactly then rounded once."""
        if k < 0:
            raise ValueError("BigFix power requires k >= 0")
        if k == 0:
            return BigFix.from_int(1, self.scale)
        return BigFix(_div_nearest(self.mantissa ** k,
                                   10 ** (self.scale * (k - 1))), self.scale)

    # comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, BigFix) and self.scale == other.scale
                and self.mantissa == other.mantissa)

    def __hash__(self):
        return hash((self.mantissa, self.scale))

    # conversion -----------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 10 ** self.scale)

    def __float__(self) -> float:
        return self.mantissa / 10 ** self.scale

    def to_decimal(self) -> str:
        m, s = self.mantissa, self.scale
        sign = "-" if m < 0 else ""
        m = abs(m)
        if s == 0:
            return sign + _decimal_str(m)
        digits = _decimal_str(m).rjust(s + 1, "0")
        return f"{sign}{digits[:-s]}.{digits[-s:]}"

    def __repr__(self) -> str:
        return f"BigFix({self.to_decimal()})"

    # logarithm ------------------------------------------------------------

    def ln(self) -> "BigFix":
        """Natural log of a positive value, at the same scale.

        _ln_fix at w = scale + 10 digits, rounded to scale.  The result is
        within 10^-scale of ln(value) whenever
        _ln_fix_error(b, scale, scale + 10) < 5 10^9, b the mantissa's
        bit length less one: the guard digits absorb _ln_fix's error and
        the rounding costs half a unit.  That holds for every scale up to
        10^4 with a mantissa of up to 1.5 10^5 bits.
        """
        if self.mantissa <= 0:
            raise ValueError("ln requires a positive BigFix")
        return BigFix(_div_nearest(_ln_fix(self.mantissa, self.scale,
                                           self.scale + 10), 10 ** 10),
                      self.scale)

    def ln_float(self) -> float:
        """float(self.ln()), evaluated at _LN_FLOAT_DIGITS working digits
        whenever they settle it: A. Ziv's rounding test ("Fast evaluation
        of elementary mathematical functions with correctly rounded last
        bit", ACM TOMS 17, 1991).

        v = _ln_fix(mantissa, scale, w) misses 10^w ln(value) by at most
        e = _ln_fix_error units, and ln() misses ln(value) by less than
        10^-scale (see ln), so ln() lies within e + 10^-scale of v 10^-w.
        Both ends of that interval are rounded to double by int/int true
        division, which is correctly rounded and so monotone, as is
        float(ln()).  When the two ends round alike, float(ln()) is that
        double; otherwise, or where ln's bound is not established,
        float(self.ln()) is returned.
        """
        m, s = self.mantissa, self.scale
        if m <= 0:
            raise ValueError("ln requires a positive BigFix")
        b = m.bit_length() - 1
        if _ln_fix_error(b, s, s + 10) < 5 * 10 ** 9:
            w = _LN_FLOAT_DIGITS
            v = _ln_fix(m, s, w)
            r = _ln_fix_error(b, s, w) + 10 ** max(0, w - s)
            lo = (v - r) / 10 ** w
            if lo == (v + r) / 10 ** w:
                return lo
        return float(self.ln())


# Working digits of BigFix.ln_float: their bound (b + 4 scale + 1) 111
# units of 10^-40 lies some 20 digits below a double's last bit for
# every value the convergence measurement takes.
_LN_FLOAT_DIGITS = 40


def _ln_fix(m: int, s: int, w: int) -> int:
    """ln(m 10^-s) for an integer m > 0, as a mantissa at scale w >= 10.

    The argument is reduced by 2^b, b = m.bit_length() - 1, into
    y in [1, 2), and ln y = 2 atanh(t) with t = (y-1)/(y+1) < 1/3; then
    ln(m 10^-s) = ln y + b ln 2 - s ln 10.  The error is below
    _ln_fix_error(b, s, w) units of 10^-w.
    """
    one = 10 ** w
    b = m.bit_length() - 1
    y = _div_nearest(m * one, 1 << b)  # y / 10^w in [1, 2)
    t = _div_nearest((y - one) * one, y + one)
    t2 = t * t
    term = t
    acc = t
    i = 1
    while term:
        term = _div_nearest(term * t2, one * one)
        acc += term // (2 * i + 1)
        i += 1
    return 2 * acc + b * _ln2_fix(w) - s * _ln10_fix(w)


def _ln_fix_error(b: int, s: int, w: int) -> int:
    """A bound, in units of 10^-w, on the error of _ln_fix(m, s, w), where
    b = m.bit_length() - 1 and w >= 10: (b + 4 s + 1)(2.6 w + 7).

    In units of 10^-w: the atanh series floors at most 1.05 w + 2 terms,
    each by less than 1.2 with the rounding of its power of t, and
    rounding y and t costs at most 1.7 more, so ln y errs by less than
    2.6 w + 7.  _ln2_fix(w) errs by less than 2.1 w + 12 (its atanh(1/3)
    series floors 1.05 w terms), within 2.6 w + 7 once w >= 10, and
    _ln10_fix(w) by less than 7.4 w + 48, within 4 (2.6 w + 7).
    """
    return (b + 4 * s + 1) * (26 * w + 70) // 10 + 1


# ---------------------------------------------------------------------------
# gamma and zeta(m) oracles
# ---------------------------------------------------------------------------

_MAX_DIGITS = 10000
_GUARD = 15
# alpha with alpha (ln alpha - 1) = 1, rounded up: past k = alpha N the
# Brent-McMillan terms (N^k/k!)^2 fall below e^{-2N}.
_BM_ALPHA = 3.5912


def _check_digits(name: str, digits: int) -> None:
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > _MAX_DIGITS:
        raise PrecisionError("%s supports at most %d digits" % (name, _MAX_DIGITS))


# One (digits, mantissa) pair per constant: the most precise value so far.
# Key "gamma" in _GAMMA_CACHE, m in _ZETA_CACHE.
_GAMMA_CACHE: dict[str, tuple[int, int]] = {}
_ZETA_CACHE: dict[int, tuple[int, int]] = {}


def _round_cached(have: int, mant: int, digits: int) -> int | None:
    """mant * 10**-have rounded to `digits` <= have digits, or None when
    the discarded digits lie within the cached value's error bound (one
    unit of its last digit) of a half unit, where the rounding could go
    either way."""
    if have == digits:
        return mant
    unit = 10 ** (have - digits)
    q, r = divmod(mant, unit)
    if abs(2 * r - unit) <= 2:
        return None
    return q + (2 * r > unit)


def _oracle(cache: dict, key, digits: int, compute) -> BigFix:
    """The constant `key` at `digits`: rounded from the cached mantissa
    when that is more precise and the rounding is certain, else
    compute(digits), which replaces a less precise cached value."""
    hit = cache.get(key)
    if hit is not None and hit[0] >= digits:
        mant = _round_cached(hit[0], hit[1], digits)
        if mant is None:
            mant = compute(digits)
        return BigFix(mant, digits)
    mant = compute(digits)
    cache[key] = (digits, mant)
    return BigFix(mant, digits)


def _gamma_mantissa(digits: int) -> int:
    """gamma * 10**digits, rounded: algorithm B1 of R. P. Brent and
    E. M. McMillan, "Some new algorithms for high-precision computation
    of Euler's constant", Math. Comp. 34 (1980).

    With B_k = (N^k/k!)^2 and A_k = B_k (H_k - ln N), U = sum A_k and
    V = sum B_k = I_0(2N), gamma = U/V - K_0(2N)/I_0(2N).  N, the least
    2^j or 3 2^j with 4N >= w ln 10 + 2 at w = digits + _GUARD, overshoots
    by at most 1.5x; ln N = j ln 2, or (j + 1) ln 2 + 2 atanh(1/5).  The
    sums run over k = 0..ceil(alpha N).

    Truncation: 0 < U/V - gamma = K_0(2N)/I_0(2N) < pi e^{-4N}
    <= 0.43 10^-w, and by Stirling the terms past alpha N add about
    e^{-4N} V, below 10^-w V.
    Rounding, in units of 10^-w: each step floors B_k and A_k, one unit
    each (A_k < 0 included), and an earlier unit grows by N^2/k^2 as the
    terms do, so relative to V >= 10^w these floors move U/V by O(ln N)
    units (under 10 up to 3000 digits).  ln N errs by the floors of its
    series: each ln 2 by less than 2 (1.05 w + 1) units (_ln2_fix, whose
    atanh(1/3) series floors about 1.05 w terms) and 2 atanh(1/5) by
    less than 2 (0.72 w + 1), so ln N by less than 2 (j + 2)(1.05 w + 1),
    3 10^5 at 10000 digits.  The quotient is rounded at scale 10^-w and
    then by 10^_GUARD, so only a value within about 10^-9 of a half unit
    of the last digit could round the other way.
    """
    w = digits + _GUARD
    n, j = 1, 0
    while 4 * n < w * LN10 + 2:
        n, j = 2 * n, j + 1
    a = -j * _ln2_fix(w)
    if 3 * n >= w * LN10 + 2:  # N = 3 2^(j-2) is enough; w >= 16, j >= 4
        n, j = 3 * n // 4, j - 2
        a = -(j + 1) * _ln2_fix(w) - 2 * _fix_atanh_recip(5, w)
    b = 10 ** w
    u, v = a, b
    n2 = n * n
    for k in range(1, math.ceil(_BM_ALPHA * n) + 1):
        # B_k = B_{k-1} N^2/k^2, A_k = (A_{k-1} N^2/k + B_k)/k
        b = b * n2 // (k * k)
        a = (a * n2 // k + b) // k
        u += a
        v += b
    return _div_nearest(_div_nearest(u * 10 ** w, v), 10 ** _GUARD)


def gamma_const(digits: int) -> BigFix:
    """Euler's constant, correct to `digits` decimal digits, by the
    Brent-McMillan sum (_gamma_mantissa, which states its bounds)."""
    _check_digits("gamma_const", digits)
    return _oracle(_GAMMA_CACHE, "gamma", digits, _gamma_mantissa)


def _zeta_mantissa(m: int, digits: int) -> int:
    """zeta(m) * 10**digits, rounded: Algorithm 2 of P. Borwein, "An
    efficient algorithm for the Riemann zeta function", CMS Conf. Proc.
    27 (2000).

    With d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), integers with
    d_n = T_n(3) >= (3+sqrt 8)^n / 2,
    zeta(m) = sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^m
              / (d_n (1 - 2^{1-m})) + gamma_n(m).
    The term ratio t_i / t_{i-1} = 4 (n+i-1)(n-i+1) / ((2i-1) 2i) makes
    each division exact.  d_n is taken in a first pass over the t_i and
    the sum in a second, so no list of d_k is kept.

    Truncation: |gamma_n(m)| <= 2 / ((3+sqrt 8)^n Gamma(m) (1 - 2^{1-m}))
    <= 4 (3+sqrt 8)^-n, below 0.07 10^-w for
    n = ceil((w+1) ln 10 / ln(3+sqrt 8)) + 1 at w = digits + _GUARD.
    Rounding: each of the n floors (d_n - d_k) // (k+1)^m costs less
    than 1/d_n, so with the factor 2^{m-1}/(2^{m-1}-1) <= 2 all of them
    move the sum by less than 4n (3+sqrt 8)^-n < 0.07 n 10^-w.  The
    quotient is rounded at scale 10^-w and then by 10^_GUARD, so only a
    value within about 10^-12 of a half unit of the last digit could
    round the other way.
    """
    w = digits + _GUARD
    n = math.ceil((w + 1) * LN10 / math.log(3 + math.sqrt(8))) + 1

    def terms():  # t_0..t_n, with d_k = t_0 + ... + t_k
        t = 1
        yield t
        for i in range(1, n + 1):
            t = t * (4 * (n + i - 1) * (n - i + 1)) // ((2 * i - 1) * 2 * i)
            yield t

    dn = sum(terms())
    s = dk = 0
    for k, t in zip(range(n), terms()):
        dk += t
        q = (dn - dk) // (k + 1) ** m
        s += -q if k & 1 else q
    c = 1 << (m - 1)
    return _div_nearest(_div_nearest(s * c * 10 ** w, dn * (c - 1)),
                        10 ** _GUARD)


def zeta_const(m: int, digits: int) -> BigFix:
    """zeta(m) for integer m >= 2, correct to `digits` decimal digits, by
    Borwein's alternating sum (_zeta_mantissa, which states its bounds)."""
    if m < 2:
        raise ValueError("zeta_const requires m >= 2")
    _check_digits("zeta_const", digits)
    return _oracle(_ZETA_CACHE, m, digits,
                   lambda d: _zeta_mantissa(m, d))
