"""Generalized Bernoulli polynomials B_n^{(m)}(x) and the csc-power series.

B_n^{(m)}(x) is n! times the z^n coefficient of (z/(e^z - 1))^m e^{xz};
the coefficients of (z/(e^z - 1))^m come from Miller's power recurrence,
cached per m, and the classical recursion and addition formulas are kept
as test oracles rather than used for construction.  gen_bernoulli
builds each B_n^{(m)} once per process (a bounded cache shared by every
caller, so a PolyQ is never mutated); bernoulli_at evaluates it from
the coefficients without building it.  PolyQ keeps integer coefficients
as ints.  The second csc-power route is a few private functions over
coefficient lists: a Fraction reciprocal and an integer-convolution
truncated product with binary powering.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, lcm

_N_LIMIT = 200
_M_LIMIT = 50

_new = object.__new__


class PolyQ:
    """Dense univariate polynomial over Q, ascending coefficients.

    Int coefficients stay ints (any other input is coerced to Fraction),
    so polynomials over Z, such as the recurrence coefficients, never pay
    for Fraction arithmetic.  A PolyQ is never mutated once built:
    gen_bernoulli hands out cached instances.
    """

    __slots__ = ("coeffs", "_scaled")

    def __init__(self, coeffs):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs
        self._scaled = None

    @classmethod
    def const(cls, c) -> "PolyQ":
        return cls([c])

    @classmethod
    def x(cls) -> "PolyQ":
        return cls([0, 1])

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    # Ring results are built by _poly from coefficients that are already
    # ints or Fractions, so no operation coerces them again.

    def __add__(self, other):
        if not isinstance(other, PolyQ):
            other = PolyQ([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, PolyQ):
            other = PolyQ([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PolyQ):
            c = (other if type(other) is int or type(other) is Fraction
                 else Fraction(other))
            return _poly([c * v for v in self.coeffs])
        if self.is_zero() or other.is_zero():
            return _poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = PolyQ([1])
        for _ in range(k):
            result = result * self
        return result

    def scaled(self) -> tuple:
        """(D, (D c_deg, ..., D c_0)): the least common denominator D of
        the coefficients and the coefficients times D as ints, highest
        degree first; computed once per polynomial.  The polynomial's
        value at an integer n is the integer Horner value of that tuple
        at n, over D."""
        if self._scaled is None:
            d = lcm(*(c.denominator for c in self.coeffs))
            self._scaled = (d, tuple(c.numerator * (d // c.denominator)
                                     for c in reversed(self.coeffs)))
        return self._scaled

    def __call__(self, x):
        """Horner evaluation; exact for Rat input.

        At a rational x = u/v this is one integer Horner pass,
        sum_i (D c_i) u^i v^{deg-i}, over D v^deg, with D the common
        denominator of the coefficients (scaled); other arguments (a
        PolyQ, a float) go through Horner in their own arithmetic.
        """
        if not isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        if not self.coeffs:
            return Fraction(0)
        d, scaled = self.scaled()
        u, v = x.numerator, x.denominator
        acc = 0
        vk = 1
        for c in scaled:
            acc = acc * u + c * vk
            vk *= v
        return Fraction(acc, d * v ** (len(scaled) - 1))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(parts))

    def __repr__(self) -> str:
        return f"PolyQ({self.coeffs!r})"


def _poly(cs: list) -> PolyQ:
    """PolyQ over the fresh list cs of ints and Fractions, taken as is
    after its trailing zeros are dropped."""
    while cs and not cs[-1]:
        cs.pop()
    p = _new(PolyQ)
    p.coeffs = cs
    p._scaled = None
    return p


def gen_bernoulli(n: int, m: int) -> PolyQ:
    """B_n^{(m)}(x) as an exact polynomial in x.

    (z/(e^z-1))^m = (sum z^j/(j+1)!)^{-m}; with its coefficients c_k,
    B_n^{(m)}(x) = n! sum_k c_k x^{n-k}/(n-k)!.  The polynomial is
    cached and shared between callers (see _gen_bernoulli).
    """
    if n < 0 or m < 1:
        raise ValueError("gen_bernoulli requires n >= 0, m >= 1")
    if n > _N_LIMIT or m > _M_LIMIT:
        raise ValueError("gen_bernoulli limited to n <= %d, m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    return _gen_bernoulli(n, m)


@functools.lru_cache(maxsize=256)
def _gen_bernoulli(n: int, m: int) -> PolyQ:
    """gen_bernoulli without its checks: the verify suite asks for 81
    distinct (n, m) 262 times.  Coefficients that are integers are
    stored as ints."""
    core = _core_power(m, n)
    nfac = factorial(n)
    coeffs = [core[n - i] * (nfac // factorial(i)) for i in range(n + 1)]
    return _poly([c.numerator if c.denominator == 1 else c for c in coeffs])


# m -> coefficients c_0..c_K of (z/(e^z - 1))^m, extended in place; a
# lower order is a prefix.  At most _M_LIMIT lists of _N_LIMIT + 1 terms,
# except that bernoulli_number(n) extends the list of m = 1 to n + 1.
_CORE_CACHE: dict[int, list[Fraction]] = {}


def _core_power(m: int, order: int) -> list[Fraction]:
    """Coefficients of z^0..z^order in (z/(e^z - 1))^m = g^{-m}.

    With g = (e^z - 1)/z = sum_j z^j/(j+1)!, J. C. P. Miller's recurrence
    for powers of a series (Knuth, TAOCP Vol. 2, 4.7) gives c_0 = 1 and
    k c_k = sum_{j=1..k} ((1-m) j - k) c_{k-j}/(j+1)!: O(order^2) once
    per m, and each order after the first is a cached prefix.  Each sum
    is taken in integers over the lcm of its terms' denominators.
    """
    cs = _CORE_CACHE.setdefault(m, [Fraction(1)])
    for k in range(len(cs), order + 1):
        dens = [cs[k - j].denominator * factorial(j + 1)
                for j in range(1, k + 1)]
        big = lcm(*dens)
        acc = sum(((1 - m) * j - k) * cs[k - j].numerator * (big // d)
                  for j, d in enumerate(dens, 1))
        cs.append(Fraction(acc, big * k))
    return cs[:order + 1]


def bernoulli_number(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention): n! times the
    z^n coefficient of z/(e^z - 1), so B_n = B_n^{(1)}(0)."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    return factorial(n) * _core_power(1, n)[n]


def bernoulli_at(n: int, m: int, x) -> Fraction:
    """Exact B_n^{(m)}(x) at a rational x = u/v, without building the
    polynomial: n! sum_k c_k x^{n-k}/(n-k)! with the c_k of _core_power,
    one integer Horner pass over their common denominator D and v^n."""
    if not (0 <= n <= _N_LIMIT and 1 <= m <= _M_LIMIT):
        raise ValueError("bernoulli_at requires 0 <= n <= %d, 1 <= m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    cs = _core_power(m, n)
    d = lcm(*(c.denominator for c in cs))
    acc, vk, f = 0, 1, 1  # f = n!/i! at x^i, i from n down
    for i, c in zip(range(n, -1, -1), cs):
        acc = acc * u + c.numerator * (d // c.denominator) * f * vk
        vk *= v
        f *= i
    return Fraction(acc, d * v ** n)


def csc_power_coeffs(m: int, nmax: int) -> list[Fraction]:
    """Coefficients of z^{2n}, n = 0..nmax, in (z/sin z)^m.

    Computed two ways: (-1)^n 4^n B_{2n}^{(m)}(m/2)/(2n)! and direct
    inversion of the (sin z/z)^m series in the variable w = z^2; the two
    must agree, and the Bernoulli-formula values are returned.
    """
    if m < 1:
        raise ValueError("csc_power_coeffs requires m >= 1")
    if nmax < 0 or nmax > 50:
        raise ValueError("csc_power_coeffs limited to 0 <= N <= 50")
    half_m = Fraction(m, 2)
    bern = [Fraction((-1) ** n * 4 ** n)
            * bernoulli_at(2 * n, m, half_m) / factorial(2 * n)
            for n in range(nmax + 1)]
    if bern != _series_pow(_csc_series(nmax), m):
        raise ArithmeticError("csc power series routes disagree")
    return bern


# The second csc-power route, over truncated power series held as
# coefficient lists [c_0, ..., c_N] of ints and Fractions, all of one
# length; it never looks past z^N.

@functools.lru_cache(maxsize=4)
def _csc_series(nmax: int) -> tuple:
    """z/sin z by series inversion, to order nmax in w = z^2: the
    inverse of sin z / z = sum (-1)^j w^j / (2j+1)!, shared by every m."""
    return tuple(_series_recip([Fraction((-1) ** j, factorial(2 * j + 1))
                                for j in range(nmax + 1)]))


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


def _series_recip(s) -> list:
    """The multiplicative inverse, as Fractions; requires s(0) != 0."""
    if s[0] == 0:
        raise ValueError("_series_recip requires s(0) != 0")
    out = [1 / Fraction(s[0])]
    for i in range(1, len(s)):
        acc = sum((s[j] * out[i - j] for j in range(1, i + 1) if s[j]),
                  Fraction(0))
        out.append(-acc / s[0])
    return out
