"""Dense truncated power series over exact rationals.

A SeriesQ of order N carries coefficients for z^0 .. z^N; operations on
order-N inputs yield order-N outputs and never look past the truncation.
Everything is exact: int coefficients stay ints, as in PolyQ and
SymPoly, any other input is coerced to Fraction, and a product is one
integer convolution over the common denominator of each factor.  The
operations are the product, power and reciprocal that the second
csc-power route of bernoulli runs, and exp and log1p, which the tests
use as oracles; a series is otherwise built from its coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numerics import Rat


class SeriesQ:
    """Truncated formal power series sum_{i<=order} coeffs[i] * z^i."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(cs) < order + 1:
            cs += [0] * (order + 1 - len(cs))
        self.coeffs = cs[: order + 1]
        self.order = order

    @classmethod
    def one(cls, order: int) -> "SeriesQ":
        return cls([1], order)

    def __getitem__(self, i: int) -> Rat:
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SeriesQ) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"SeriesQ({self.coeffs!r})"

    def _same_order(self, other: "SeriesQ") -> None:
        if self.order != other.order:
            raise ValueError("series order mismatch")


def _scaled(s: SeriesQ) -> tuple:
    """(D, [D c_0, ..., D c_N]): the least common denominator D of the
    coefficients and the coefficients times D, as ints."""
    d = math.lcm(*(c.denominator for c in s.coeffs))
    return d, [c.numerator * (d // c.denominator) for c in s.coeffs]


def ps_mul(s: SeriesQ, t: SeriesQ) -> SeriesQ:
    """Truncated Cauchy product, summed in integers over the product of
    the factors' common denominators."""
    s._same_order(t)
    n = s.order
    ds, a = _scaled(s)
    dt, b = _scaled(t)
    d = ds * dt
    out = []
    for k in range(n + 1):
        acc = 0
        for i in range(k + 1):
            if a[i] and b[k - i]:
                acc += a[i] * b[k - i]
        out.append(acc // d if acc % d == 0 else Fraction(acc, d))
    return SeriesQ(out, n)


def ps_pow(s: SeriesQ, k: int) -> SeriesQ:
    """s^k for k >= 0, by binary powering."""
    if k < 0:
        raise ValueError("ps_pow requires k >= 0")
    acc = SeriesQ.one(s.order)
    base = s
    while k:
        if k & 1:
            acc = ps_mul(acc, base)
        k >>= 1
        if k:
            base = ps_mul(base, base)
    return acc


def ps_recip(s: SeriesQ) -> SeriesQ:
    """Multiplicative inverse; requires a nonzero constant term."""
    if s.coeffs[0] == 0:
        raise ValueError("ps_recip requires s(0) != 0")
    n = s.order
    c0 = s.coeffs[0]
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1) / c0
    for i in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if s.coeffs[j]:
                acc += s.coeffs[j] * out[i - j]
        out[i] = -acc / c0
    return SeriesQ(out, n)


def ps_exp(s: SeriesQ) -> SeriesQ:
    """exp(s) for s(0) = 0, via (exp s)' = (exp s) * s'."""
    if s.coeffs[0] != 0:
        raise ValueError("ps_exp requires s(0) = 0")
    n = s.order
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for i in range(1, n + 1):
        # i * out[i] = sum_{j=1..i} j * s[j] * out[i-j]
        acc = Fraction(0)
        for j in range(1, i + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * out[i - j]
        out[i] = acc / i
    return SeriesQ(out, n)


def ps_log1p(s: SeriesQ) -> SeriesQ:
    """log(1 + s) for s(0) = 0, by integrating s'/(1+s)."""
    if s.coeffs[0] != 0:
        raise ValueError("ps_log1p requires s(0) = 0")
    n = s.order
    one_plus = SeriesQ([Fraction(1)] + list(s.coeffs[1:]), n)
    inv = ps_recip(one_plus)
    # derivative of s, truncated to order n-1 then padded
    out = [Fraction(0)] * (n + 1)
    for i in range(1, n + 1):
        # coefficient of z^{i-1} in s' * inv
        acc = Fraction(0)
        for j in range(1, i + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * inv.coeffs[i - j]
        out[i] = acc / i
    return SeriesQ(out, n)
