"""Truncated rational power series as coefficient lists: the product,
power and reciprocal of bernoulli's second csc-power route, and the
exp/log1p test oracles."""

import math
import random
from fractions import Fraction

import pytest
from oracles import ps_exp, ps_log1p

from bellgamma.bernoulli import _series_mul, _series_pow, _series_recip


def rand_series(rng, order, zero_const=False):
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
          for _ in range(order + 1)]
    if zero_const:
        cs[0] = Fraction(0)
    return cs


def shifted_down(s):
    """The series s - s(0), same order."""
    return [Fraction(0)] + list(s[1:])


def test_ps_mul_known():
    # (1+z)(1-z) = 1 - z^2
    assert _series_mul([1, 1, 0, 0, 0], [1, -1, 0, 0, 0]) == [1, 0, -1, 0, 0]


def test_ps_mul_commutative_associative():
    rng = random.Random(2)
    for _ in range(12):
        a = rand_series(rng, 6)
        b = rand_series(rng, 6)
        c = rand_series(rng, 6)
        assert _series_mul(a, b) == _series_mul(b, a)
        assert (_series_mul(_series_mul(a, b), c)
                == _series_mul(a, _series_mul(b, c)))


def test_ps_recip_geometric():
    # 1/(1-z) = 1 + z + z^2 + ...
    assert _series_recip([1, -1] + [0] * 6) == [1] * 8


def test_ps_recip_roundtrip():
    rng = random.Random(3)
    for _ in range(12):
        s = rand_series(rng, 6)
        if s[0] == 0:
            continue
        assert _series_mul(s, _series_recip(s)) == [1] + [0] * 6
    with pytest.raises(ValueError):
        _series_recip([0, 1, 0, 0])


def test_ps_exp_of_z():
    e = ps_exp([0, 1] + [0] * 5)
    assert e == [Fraction(1, math.factorial(k)) for k in range(7)]


def test_ps_exp_log_roundtrip():
    rng = random.Random(5)
    for _ in range(12):
        s = rand_series(rng, 6, zero_const=True)
        e = ps_exp(s)
        assert e[0] == 1
        # log(1 + (e - 1)) recovers s, and exp of that recovers e.
        t = shifted_down(e)
        assert ps_log1p(t) == s
        assert ps_exp(ps_log1p(t)) == e


def test_ps_exp_homomorphism():
    rng = random.Random(6)
    for _ in range(8):
        s = rand_series(rng, 5, zero_const=True)
        t = rand_series(rng, 5, zero_const=True)
        su = [x + y for x, y in zip(s, t)]
        assert ps_exp(su) == _series_mul(ps_exp(s), ps_exp(t))


def test_ps_log1p_known():
    # log(1+z) = z - z^2/2 + z^3/3 - ...
    out = ps_log1p([0, 1] + [0] * 4)
    assert out == [0, Fraction(1), Fraction(-1, 2), Fraction(1, 3),
                   Fraction(-1, 4), Fraction(1, 5)]


def test_exp_log_require_zero_constant():
    with pytest.raises(ValueError):
        ps_exp([1, 1, 0, 0])
    with pytest.raises(ValueError):
        ps_log1p([2, 1, 0, 0])


def test_ps_pow_matches_repeated_product():
    s = rand_series(random.Random(11), 6)
    acc = [1] + [0] * 6
    for k in range(9):
        assert _series_pow(s, k) == acc
        acc = _series_mul(acc, s)
    with pytest.raises(ValueError):
        _series_pow(s, -1)


def test_int_series_stay_exact():
    # Int inputs never turn into floats, and integral products stay ints.
    s = [1, -1, 0, 0, 0, 0]
    z = shifted_down(s)
    for t in (_series_mul(s, s), _series_pow(s, 3), _series_recip(s),
              ps_exp(z), ps_log1p(z)):
        assert all(type(c) in (int, Fraction) for c in t)
    assert _series_pow(s, 3) == [1, -3, 3, -1, 0, 0]
    assert all(type(c) is int for c in _series_pow(s, 3))
    # 1/(3 + z) = sum (-1)^k z^k / 3^(k+1): no float 1/3 on the way
    assert _series_recip([3, 1, 0, 0]) == [
        Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27), Fraction(-1, 81)]
    half = [Fraction(1, 2), Fraction(-1, 2), 0, 0, 0, 0]
    two_thirds = [Fraction(2, 3), Fraction(-2, 3), 0, 0, 0, 0]
    assert _series_mul(half, two_thirds) == [
        Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3), 0, 0, 0]
