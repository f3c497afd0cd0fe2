"""Exact arithmetic primitives and high-precision constants.

Rational arithmetic is carried by fractions.Fraction (aliased Rat).
High-precision reals use BigFix, a decimal fixed-point value stored as
an arbitrary-precision integer mantissa with value mantissa * 10**-scale.

gamma_const and zeta_const are independent oracles computed by
Euler-Maclaurin summation with the remainder bounded by the first
omitted term, so every requested digit is certified.  Bernoulli numbers
come from the tangent-number triangle, which keeps the hot loop in pure
integer arithmetic.
"""

from __future__ import annotations

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
# Bernoulli numbers via tangent numbers
# ---------------------------------------------------------------------------

# T_1, T_2, ...; extended on demand.  T_k relates to B_{2k} by
# B_{2k} = (-1)^(k+1) * 2k * T_k / (4^k (4^k - 1)).
_tangent: list[int] = []
# Column K = len(_tangent) of the triangle after passes 1..K, the only
# state a new column needs.
_tangent_edge: list[int] = []


def _extend_tangent(kmax: int) -> None:
    """Grow _tangent to T_1..T_kmax, one new column at a time.

    Column j after pass k is V(k, j) = (j-k) V(k, j-1) + (j-k+2) V(k-1, j),
    with V(1, j) = (j-1)! and T_j = V(j, j); so column j needs only column
    j-1, and the columns already built are never revisited.
    """
    global _tangent_edge
    for j in range(len(_tangent) + 1, kmax + 1):
        v = (j - 1) * _tangent_edge[0] if j > 1 else 1
        col = [v]
        for k in range(2, j):
            v = (j - k) * _tangent_edge[k - 1] + (j - k + 2) * v
            col.append(v)
        if j > 1:
            v *= 2  # V(j, j): the V(j, j-1) term has weight 0
            col.append(v)
        _tangent.append(v)
        _tangent_edge = col


def bernoulli_number(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k = n // 2
    _extend_tangent(k)
    four_k = 1 << (2 * k)
    return Fraction((-1) ** (k + 1) * n * _tangent[k - 1], four_k * (four_k - 1))


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


def _fix_arctan_recip(q: int, w: int, hyperbolic: bool) -> int:
    """atanh(1/q) if hyperbolic, else atan(1/q), at scale w (integer
    q >= 2), as a fixed-point mantissa: the sum over i of
    (+-1)^i q^{-2i-1}/(2i+1), its signs alternating for atan."""
    p = 10 ** w // q
    acc = p
    q2 = q * q
    i = 1
    while p:
        p //= q2
        term = p // (2 * i + 1)
        acc += -term if i & 1 and not hyperbolic else term
        i += 1
    return acc


_LN_CACHE: dict[tuple[str, int], int] = {}


def _ln2_fix(w: int) -> int:
    key = ("ln2", w)
    if key not in _LN_CACHE:
        _LN_CACHE[key] = 2 * _fix_arctan_recip(3, w, True)
    return _LN_CACHE[key]


def _ln10_fix(w: int) -> int:
    # ln 10 = ln(5/4) + 3 ln 2 and ln(5/4) = 2 atanh(1/9)
    key = ("ln10", w)
    if key not in _LN_CACHE:
        _LN_CACHE[key] = (2 * _fix_arctan_recip(9, w, True)
                          + 3 * _ln2_fix(w))
    return _LN_CACHE[key]


def _pi_fix(w: int) -> int:
    """pi at scale w by Machin's formula."""
    key = ("pi", w)
    if key in _LN_CACHE:
        return _LN_CACHE[key]
    v = (16 * _fix_arctan_recip(5, w, False)
         - 4 * _fix_arctan_recip(239, w, False))
    _LN_CACHE[key] = v
    return v


# ---------------------------------------------------------------------------
# BigFix
# ---------------------------------------------------------------------------

class BigFix:
    """Decimal fixed-point real: value = mantissa * 10**-scale.

    All arithmetic rounds to nearest at the operand scale; mixed-scale
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

    @classmethod
    def pi(cls, scale: int) -> "BigFix":
        w = scale + 10
        return cls(_div_nearest(_pi_fix(w), 10 ** 10), scale)

    # bookkeeping ----------------------------------------------------------

    def _same(self, other: "BigFix") -> None:
        if self.scale != other.scale:
            raise ValueError("BigFix scale mismatch: %d vs %d"
                             % (self.scale, other.scale))

    def rescale(self, scale: int) -> "BigFix":
        if scale == self.scale:
            return self
        if scale > self.scale:
            return BigFix(self.mantissa * 10 ** (scale - self.scale), scale)
        return BigFix(_div_nearest(self.mantissa, 10 ** (self.scale - scale)),
                      scale)

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

    def __mul__(self, other: "BigFix") -> "BigFix":
        self._same(other)
        return BigFix(_div_nearest(self.mantissa * other.mantissa,
                                   10 ** self.scale), self.scale)

    def __truediv__(self, other: "BigFix") -> "BigFix":
        self._same(other)
        if other.mantissa == 0:
            raise ZeroDivisionError("BigFix division by zero")
        num = self.mantissa * 10 ** self.scale
        den = other.mantissa
        if den < 0:
            num, den = -num, -den
        return BigFix(_div_nearest(num, den), self.scale)

    def mul_rat(self, fr: Fraction) -> "BigFix":
        """Exact-rational scaling, rounded once."""
        fr = Fraction(fr)
        return BigFix(_div_nearest(self.mantissa * fr.numerator,
                                   fr.denominator), self.scale)

    def pow_int(self, k: int) -> "BigFix":
        """Integer power k >= 0, computed exactly then rounded once."""
        if k < 0:
            raise ValueError("pow_int requires k >= 0")
        if k == 0:
            return BigFix.from_int(1, self.scale)
        if k == 1:
            return self
        return BigFix(_div_nearest(self.mantissa ** k,
                                   10 ** (self.scale * (k - 1))), self.scale)

    # comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, BigFix) and self.scale == other.scale
                and self.mantissa == other.mantissa)

    def __lt__(self, other: "BigFix") -> bool:
        self._same(other)
        return self.mantissa < other.mantissa

    def __le__(self, other: "BigFix") -> bool:
        self._same(other)
        return self.mantissa <= other.mantissa

    def __hash__(self):
        return hash((self.mantissa, self.scale))

    # conversion -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.mantissa == 0

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

        Argument is reduced by a power of 2 into [1, 2), then
        ln y = 2 atanh((y-1)/(y+1)) with t = (y-1)/(y+1) <= 1/3.
        """
        if self.mantissa <= 0:
            raise ValueError("ln requires a positive BigFix")
        w = self.scale + 10
        one = 10 ** w
        b = self.mantissa.bit_length() - 1
        # y = mantissa / 2^b in [1, 2), at scale w
        y = _div_nearest(self.mantissa * one, 1 << b) if b >= 0 else 0
        t = _div_nearest((y - one) * one, y + one)
        t2 = t * t
        term = t
        acc = t
        i = 1
        while term:
            term = _div_nearest(term * t2, one * one)
            acc += term // (2 * i + 1)
            i += 1
        # ln(value) = ln y + b ln 2 - scale ln 10
        v = 2 * acc + b * _ln2_fix(w) - self.scale * _ln10_fix(w)
        return BigFix(_div_nearest(v, 10 ** (w - self.scale)), self.scale)

    def log10_floor(self) -> int:
        """floor(log10 |value|) for a nonzero value, exact."""
        if self.mantissa == 0:
            raise ValueError("log10_floor of zero")
        return len(_decimal_str(abs(self.mantissa))) - 1 - self.scale


# ---------------------------------------------------------------------------
# Euler-Maclaurin oracles
# ---------------------------------------------------------------------------

_MAX_DIGITS = 10000
_GUARD = 15
# Candidate cutoffs N = 2^j.  The head sum rounds once per 16 terms, so
# its error stays below 2^16 units at scale 10^-(digits + _GUARD).
_J_RANGE = range(4, 21)


def _em_parameters(log10_term, target: int, m: int,
                   what: str) -> tuple[int, int]:
    """Cutoff N = 2^j and tail length K of an Euler-Maclaurin sum whose
    head terms are k^-m (m = 1 for gamma).

    log10_term(k, n) bounds log10 |term k| of the tail for cutoff n; the
    first k <= N/4 below 10**-target is the first omitted term, so
    K = k - 1.  Among the j in _J_RANGE the one with the least estimated
    cost N (m + 1) (target + 330) + 8 K^3 wins: a head term costs a share
    of a division at the working precision that grows with m, and the
    tangent-number triangle behind the tail grows like K^3.  The cost
    falls and then rises with j, so the scan stops at the first rise.
    """
    head_cost = (m + 1) * (target + 330)
    best = None
    for j in _J_RANGE:
        n = 1 << j
        kk = next((k - 1 for k in range(1, (n >> 2) + 1)
                   if log10_term(k, n) < -target), None)
        if kk is None:
            continue
        cost = n * head_cost + 8 * kk ** 3
        if best is not None and cost >= best[0]:
            break
        best = (cost, j, kk)
    if best is None:
        raise PrecisionError("no Euler-Maclaurin parameters for %s at %d "
                             "digits" % (what, target))
    return best[1], best[2]


def _em_parameters_gamma(target: int) -> tuple[int, int]:
    """Cutoff exponent j and tail length K for H_N - ln N, from the bound
    |B_{2k}| <= 3.3 (2k)! / (2 pi)^{2k} on the first omitted term."""
    def log10_term(k, n):
        return (math.log10(3.3) + math.lgamma(2 * k + 1) / LN10
                - math.log10(2 * k) - 2 * k * math.log10(2 * math.pi * n))
    return _em_parameters(log10_term, target, 1, "gamma")


def _em_parameters_zeta(m: int, target: int) -> tuple[int, int]:
    """Cutoff exponent h and tail length J for zeta(m), by the same bound."""
    lgm = math.lgamma(m)

    def log10_term(j, n):
        return (math.log10(3.3) + (math.lgamma(m + 2 * j - 1) - lgm) / LN10
                - 2 * j * math.log10(2 * math.pi) - (m + 2 * j - 1) * math.log10(n))
    return _em_parameters(log10_term, target, m, "zeta(%d)" % m)


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


def _head_sum(one: int, n: int, m: int) -> int:
    """sum_{k=1..n} one / k^m in blocks of 16 terms: each block is summed
    exactly over its common denominator and rounded once.  One division
    by a few-limb integer costs far less than 16 by one-limb ones."""
    acc = 0
    for k0 in range(1, n + 1, 16):
        p, q = 0, 1
        for k in range(k0, min(k0 + 16, n + 1)):
            km = k ** m
            p = p * km + q
            q *= km
        acc += _div_nearest(one * p, q)
    return acc


def _gamma_mantissa(digits: int) -> int:
    w = digits + _GUARD
    j, kk = _em_parameters_gamma(digits + 10)
    n = 1 << j
    one = 10 ** w
    acc = _head_sum(one, n, 1) - j * _ln2_fix(w) - _div_nearest(one, 2 * n)
    _extend_tangent(kk)
    # B_{2k} / (2k N^{2k}) = (-1)^(k+1) T_k / ((4^k - 1) 2^{2k(j+1)})
    for k in range(1, kk + 1):
        t = _tangent[k - 1] * one
        acc += _div_nearest(t if k & 1 else -t,
                            ((1 << 2 * k) - 1) << (2 * k * (j + 1)))
    return _div_nearest(acc, 10 ** _GUARD)


def gamma_const(digits: int) -> BigFix:
    """Euler's constant, correct to `digits` decimal digits.

    H_N = ln N + gamma + 1/(2N) - sum_{k>=1} B_{2k}/(2k N^{2k}) with the
    truncation error bounded by the first omitted term; N is a power of
    two so ln N needs only ln 2.
    """
    _check_digits("gamma_const", digits)
    return _oracle(_GAMMA_CACHE, "gamma", digits, _gamma_mantissa)


def _zeta_mantissa(m: int, digits: int) -> int:
    w = digits + _GUARD
    h, jj = _em_parameters_zeta(m, digits + 10)
    n = 1 << h
    one = 10 ** w
    acc = _head_sum(one, n, m)
    acc += _div_nearest(one, (m - 1) * n ** (m - 1))
    acc -= _div_nearest(one, 2 * n ** m)
    _extend_tangent(jj)
    # B_{2j}/(2j)! (m)_{2j-1} N^{1-m-2j}
    #   = (-1)^(j+1) T_j C(m+2j-2, m-1) / ((4^j - 1) 2^{2j + h(m+2j-1)})
    c = m  # C(m+2j-2, m-1)
    for j in range(1, jj + 1):
        t = _tangent[j - 1] * c * one
        acc += _div_nearest(t if j & 1 else -t,
                            ((1 << 2 * j) - 1) << (2 * j + h * (m + 2 * j - 1)))
        c = c * (m + 2 * j - 1) * (m + 2 * j) // (2 * j * (2 * j + 1))
    return _div_nearest(acc, 10 ** _GUARD)


def zeta_const(m: int, digits: int) -> BigFix:
    """zeta(m) for integer m >= 2, correct to `digits` decimal digits.

    zeta(m) = sum_{k<=N} k^-m + N^{1-m}/(m-1) - N^-m/2
              + sum_{j>=1} B_{2j}/(2j)! (m)_{2j-1} N^{-m-2j+1},
    truncation error bounded by the first omitted term (m real > 1).
    """
    if m < 2:
        raise ValueError("zeta_const requires m >= 2")
    _check_digits("zeta_const", digits)
    return _oracle(_ZETA_CACHE, m, digits,
                   lambda d: _zeta_mantissa(m, d))
