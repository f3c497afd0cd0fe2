"""Generalized Bernoulli polynomials B_n^{(m)}(x) and the csc-power series.

B_n^{(m)}(x) is n! times the z^n coefficient of (z/(e^z - 1))^m e^{xz};
the extraction runs through exact truncated power series, and the
classical recursion and addition formulas are kept as test oracles
rather than used for construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .numerics import Rat, binom
from .powerseries import SeriesQ, ps_pow, ps_recip

_N_LIMIT = 200
_M_LIMIT = 50


class PolyQ:
    """Dense univariate polynomial over Q, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [Fraction(0)] * (n - len(self.coeffs))
        b = other.coeffs + [Fraction(0)] * (n - len(other.coeffs))
        return PolyQ([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return PolyQ([c * v for v in self.coeffs])
        if self.is_zero() or other.is_zero():
            return PolyQ([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = PolyQ([1])
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x):
        """Horner evaluation; exact for Rat input."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _euler_core(order: int) -> SeriesQ:
    """(e^z - 1)/z truncated: sum_{j} z^j/(j+1)!."""
    return SeriesQ([Fraction(1, factorial(j + 1)) for j in range(order + 1)],
                   order)


def gen_bernoulli(n: int, m: int) -> PolyQ:
    """B_n^{(m)}(x) as an exact polynomial in x.

    (z/(e^z-1))^m = (sum z^j/(j+1)!)^{-m}; with its coefficients c_k,
    B_n^{(m)}(x) = n! sum_k c_k x^{n-k}/(n-k)!.
    """
    if n < 0 or m < 1:
        raise ValueError("gen_bernoulli requires n >= 0, m >= 1")
    if n > _N_LIMIT or m > _M_LIMIT:
        raise ValueError("gen_bernoulli limited to n <= %d, m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    core = _core_power(m, n)
    nfac = factorial(n)
    coeffs = [core.coeffs[n - i] * nfac / factorial(i) for i in range(n + 1)]
    return PolyQ(coeffs)


_CORE_CACHE: dict[tuple[int, int], SeriesQ] = {}


def _core_power(m: int, order: int) -> SeriesQ:
    """(z/(e^z - 1))^m as a truncated series."""
    key = (m, order)
    if key not in _CORE_CACHE:
        _CORE_CACHE[key] = ps_pow(ps_recip(_euler_core(order)), m)
    return _CORE_CACHE[key]


def bernoulli_at(n: int, m: int, x) -> Fraction:
    """Exact evaluation of B_n^{(m)} at a rational point."""
    return gen_bernoulli(n, m)(Fraction(x))


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
    direct = _csc_power_series(m, nmax)
    if bern != direct:
        raise ArithmeticError("csc power series routes disagree")
    return bern


def _csc_power_series(m: int, nmax: int) -> list[Fraction]:
    """(z/sin z)^m coefficients by series inversion, in w = z^2."""
    # sin z / z = sum (-1)^j z^{2j} / (2j+1)!  ->  series in w
    sinc = SeriesQ([Fraction((-1) ** j, factorial(2 * j + 1))
                    for j in range(nmax + 1)], nmax)
    return list(ps_pow(ps_recip(sinc), m).coeffs)
