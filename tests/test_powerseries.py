"""Truncated rational power series: products, reciprocals, exp/log."""

import math
import random
from fractions import Fraction

import pytest

from bellgamma.powerseries import (SeriesQ, ps_exp, ps_log1p, ps_mul, ps_pow,
                                   ps_recip)


def rand_series(rng, order, zero_const=False):
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
          for _ in range(order + 1)]
    if zero_const:
        cs[0] = Fraction(0)
    return SeriesQ(cs, order)


def shifted_down(s):
    """The series s - s(0), same order."""
    cs = list(s.coeffs)
    cs[0] = Fraction(0)
    return SeriesQ(cs, s.order)


def test_series_construction():
    s = SeriesQ([1, 2], 4)
    assert s.coeffs == [1, 2, 0, 0, 0]
    # int coefficients stay ints; anything else is coerced to Fraction
    assert all(type(c) is int for c in s.coeffs)
    h = SeriesQ([0.5, Fraction(2, 4)], 2)
    assert h.coeffs == [Fraction(1, 2)] * 2 + [0]
    assert [type(c) for c in h.coeffs] == [Fraction, Fraction, int]
    t = SeriesQ([1, 2, 3, 4], 1)
    assert t.coeffs == [1, 2]
    assert SeriesQ([5]).order == 0


def test_ps_mul_known():
    # (1+z)(1-z) = 1 - z^2
    one_p = SeriesQ([1, 1], 4)
    one_m = SeriesQ([1, -1], 4)
    assert ps_mul(one_p, one_m).coeffs == [1, 0, -1, 0, 0]


def test_ps_mul_commutative_associative():
    rng = random.Random(2)
    for _ in range(12):
        a = rand_series(rng, 6)
        b = rand_series(rng, 6)
        c = rand_series(rng, 6)
        assert ps_mul(a, b).coeffs == ps_mul(b, a).coeffs
        assert ps_mul(ps_mul(a, b), c).coeffs == ps_mul(a, ps_mul(b, c)).coeffs


def test_ps_recip_geometric():
    # 1/(1-z) = 1 + z + z^2 + ...
    s = SeriesQ([1, -1], 7)
    assert ps_recip(s).coeffs == [1] * 8


def test_ps_recip_roundtrip():
    rng = random.Random(3)
    for _ in range(12):
        s = rand_series(rng, 6)
        if s.coeffs[0] == 0:
            continue
        prod = ps_mul(s, ps_recip(s))
        assert prod.coeffs == [1] + [0] * 6
    with pytest.raises(ValueError):
        ps_recip(SeriesQ([0, 1], 3))


def test_ps_exp_of_z():
    e = ps_exp(SeriesQ([0, 1], 6))
    assert e.coeffs == [Fraction(1, math.factorial(k)) for k in range(7)]


def test_ps_exp_log_roundtrip():
    rng = random.Random(5)
    for _ in range(12):
        s = rand_series(rng, 6, zero_const=True)
        e = ps_exp(s)
        assert e.coeffs[0] == 1
        # log(1 + (e - 1)) recovers s, and exp of that recovers e.
        t = shifted_down(e)
        assert ps_log1p(t).coeffs == s.coeffs
        assert ps_exp(ps_log1p(t)).coeffs == e.coeffs


def test_ps_exp_homomorphism():
    rng = random.Random(6)
    for _ in range(8):
        s = rand_series(rng, 5, zero_const=True)
        t = rand_series(rng, 5, zero_const=True)
        su = SeriesQ([x + y for x, y in zip(s.coeffs, t.coeffs)], 5)
        assert ps_exp(su).coeffs == ps_mul(ps_exp(s), ps_exp(t)).coeffs


def test_ps_log1p_known():
    # log(1+z) = z - z^2/2 + z^3/3 - ...
    out = ps_log1p(SeriesQ([0, 1], 5))
    assert out.coeffs == [0, Fraction(1), Fraction(-1, 2), Fraction(1, 3),
                          Fraction(-1, 4), Fraction(1, 5)]


def test_exp_log_require_zero_constant():
    with pytest.raises(ValueError):
        ps_exp(SeriesQ([1, 1], 3))
    with pytest.raises(ValueError):
        ps_log1p(SeriesQ([2, 1], 3))


def test_ps_pow_matches_repeated_product():
    s = rand_series(random.Random(11), 6)
    acc = SeriesQ.one(6)
    for k in range(9):
        assert ps_pow(s, k) == acc
        acc = ps_mul(acc, s)
    with pytest.raises(ValueError):
        ps_pow(s, -1)


def test_int_series_stay_exact():
    # Int inputs never turn into floats, and integral products stay ints.
    s = SeriesQ([1, -1], 5)
    z = shifted_down(s)
    for t in (ps_mul(s, s), ps_pow(s, 3), ps_recip(s), ps_exp(z), ps_log1p(z)):
        assert all(type(c) in (int, Fraction) for c in t.coeffs)
    assert ps_pow(s, 3).coeffs == [1, -3, 3, -1, 0, 0]
    assert all(type(c) is int for c in ps_pow(s, 3).coeffs)
    # 1/(3 + z) = sum (-1)^k z^k / 3^(k+1): no float 1/3 on the way
    assert ps_recip(SeriesQ([3, 1], 3)).coeffs == [
        Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27), Fraction(-1, 81)]
    half = SeriesQ([Fraction(1, 2), Fraction(-1, 2)], 5)
    two_thirds = SeriesQ([Fraction(2, 3), Fraction(-2, 3)], 5)
    assert ps_mul(half, two_thirds).coeffs == [
        Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3), 0, 0, 0]
