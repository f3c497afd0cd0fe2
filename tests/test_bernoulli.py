"""Generalized Bernoulli polynomials and cosecant-power coefficients."""

import random
from fractions import Fraction
from math import factorial

import pytest

from bellgamma import bernoulli
from bellgamma.bernoulli import (
    PolyQ,
    _core_power,
    _series_mul,
    _series_pow,
    _series_recip,
    bernoulli_at,
    bernoulli_number,
    csc_power_coeffs,
    gen_bernoulli,
)
from bellgamma.numerics import binom


def expm1_over_t(order):
    """(e^t - 1)/t truncated at t^order."""
    return [Fraction(1, factorial(k + 1)) for k in range(order + 1)]


def bernoulli_gf_value(n, m, x):
    """Independent oracle: n! [t^n] (t/(e^t-1))^m e^{xt}, all exact."""
    order = n
    base = _series_recip(expm1_over_t(order))
    acc = [1] + [0] * order
    for _ in range(m):
        acc = _series_mul(acc, base)
    ext = [Fraction(x) ** k / factorial(k) for k in range(order + 1)]
    return _series_mul(acc, ext)[n] * factorial(n)


def test_polyq_basics():
    p = PolyQ([1, 2, 3])
    q = PolyQ([0, 1])
    assert str(p) == "3*x^2 + 2*x + 1"
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert p.degree() == 2 and q.degree() == 1
    assert (p - p).is_zero()
    assert (p * q)(5) == p(5) * 5
    assert (2 * q + 1)(7) == 15
    assert (q ** 3)(2) == 8
    assert (-p)(3) == -p(3)
    assert (1 - q)(4) == -3
    assert PolyQ.const(Fraction(1, 2)).coeffs == [Fraction(1, 2)]
    assert PolyQ.x()(9) == 9


def horner_fraction(p, x):
    """Reference: plain Horner in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_polyq_call_matches_fraction_horner():
    rng = random.Random(20261018)
    polys = [PolyQ([]), PolyQ([Fraction(-3, 7)]), PolyQ([0, 0, 5])]
    polys += [PolyQ([Fraction(rng.randint(-60, 60), rng.randint(1, 40))
                     for _ in range(rng.randint(1, 10))]) for _ in range(40)]
    points = [0, 1, -1, 6, -13, 10 ** 30, Fraction(1, 3), Fraction(-5, 4),
              Fraction(22, 7), Fraction(-7, 10 ** 12)]
    for p in polys:
        for x in points:
            want = horner_fraction(p, x)
            for _ in range(2):  # the second call reuses the cached scaling
                got = p(x)
                assert type(got) is Fraction and got == want
    # a PolyQ argument composes, through the generic Horner
    y = PolyQ.x() + Fraction(1, 3)
    for p in polys[:12]:
        assert p(y) == horner_fraction(p, y)
    assert PolyQ([1, 2])(0.5) == 2.0


@pytest.mark.parametrize("orders", [(40, 27, 13, 1, 0), (0, 1, 13, 27, 40),
                                    (13, 40, 0, 27, 1)],
                         ids=["descending", "ascending", "mixed"])
def test_core_power_matches_series_powering(orders, monkeypatch):
    # Reference: the binary powering of the reciprocal series.
    ref = {n: _series_recip(expm1_over_t(n)) for n in orders}
    monkeypatch.setattr(bernoulli, "_CORE_CACHE", {})
    for m in range(1, 13):
        for n in orders:
            assert _core_power(m, n) == _series_pow(ref[n], m)
        # one list per m, as long as the deepest order asked
        assert len(bernoulli._CORE_CACHE[m]) == max(orders) + 1
    assert sorted(bernoulli._CORE_CACHE) == list(range(1, 13))


def test_gen_bernoulli_classical_case():
    # m = 1 at x = 0 gives the Bernoulli numbers.
    for n in range(0, 16):
        assert gen_bernoulli(n, 1)(Fraction(0)) == bernoulli_number(n)
    assert str(gen_bernoulli(3, 1)) == "x^3 + -3/2*x^2 + 1/2*x"


def test_gen_bernoulli_monic_degree():
    for n in range(0, 9):
        for m in range(1, 6):
            p = gen_bernoulli(n, m)
            assert p.degree() == n
            assert p.coeffs[-1] == 1


def test_gen_bernoulli_against_generating_function():
    rng = random.Random(401)
    for _ in range(20):
        n = rng.randint(0, 9)
        m = rng.randint(1, 6)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert bernoulli_at(n, m, x) == bernoulli_gf_value(n, m, x)


def test_cached_gen_bernoulli_is_never_mutated():
    b = gen_bernoulli(6, 3)
    before = list(b.coeffs)
    x = PolyQ.x()
    results = [b + b, b + 0, 0 + b, b - 1, 1 - b, -b, 3 * b, b * x, b * b,
               b * Fraction(1, 2), b ** 1, b + PolyQ([]), b(x + 1), sum([b, b])]
    for r in results:  # no result shares its coefficient list with b
        r.coeffs[:] = [99] * len(r.coeffs)
    assert gen_bernoulli(6, 3) is b
    assert b.coeffs == before
    assert bernoulli._gen_bernoulli.__wrapped__(6, 3).coeffs == before


def test_gen_bernoulli_guards():
    with pytest.raises(ValueError):
        gen_bernoulli(-1, 1)
    with pytest.raises(ValueError):
        gen_bernoulli(2, 0)
    with pytest.raises(ValueError):
        gen_bernoulli(201, 1)
    with pytest.raises(ValueError):
        gen_bernoulli(5, 51)


def test_addition_identity():
    # B_n^{(r+s)}(x+y) = sum_k C(n,k) B_k^{(r)}(x) B_{n-k}^{(s)}(y)
    rng = random.Random(402)
    for _ in range(15):
        n = rng.randint(0, 8)
        r = rng.randint(1, 4)
        s = rng.randint(1, 4)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        lhs = bernoulli_at(n, r + s, x + y)
        rhs = sum(binom(n, k) * bernoulli_at(k, r, x)
                  * bernoulli_at(n - k, s, y) for k in range(n + 1))
        assert lhs == rhs


def test_order_recursion():
    # m B_n^{(m+1)}(x) = (m-n) B_n^{(m)}(x) + n(x-m) B_{n-1}^{(m)}(x)
    rng = random.Random(403)
    for n in range(0, 9):
        for m in range(1, 9):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            lhs = m * bernoulli_at(n, m + 1, x)
            rhs = (m - n) * bernoulli_at(n, m, x)
            if n:
                rhs += n * (x - m) * bernoulli_at(n - 1, m, x)
            assert lhs == rhs


def test_falling_factorial_case():
    # B_m^{(m+1)}(x) = (x-1)(x-2)...(x-m), as polynomials.
    for m in range(0, 9):
        got = gen_bernoulli(m, m + 1)
        want = PolyQ([1])
        for j in range(1, m + 1):
            want = want * PolyQ([-j, 1])
        assert (got - want).is_zero()


def test_even_order_binomial_sum():
    # sum_k C(m,k) 2^k B_k^{(m+1)}((m+1)/2) = 0 for positive even m.
    for m in range(2, 21, 2):
        x = Fraction(m + 1, 2)
        total = sum(binom(m, k) * 2 ** k * bernoulli_at(k, m + 1, x)
                    for k in range(m + 1))
        assert total == 0
    # control: odd orders do not satisfy it
    total = sum(binom(3, k) * 2 ** k * bernoulli_at(k, 4, Fraction(2))
                for k in range(4))
    assert total != 0


def test_odd_vanishing_at_half_order():
    # B_{2n+1}^{(m)}(m/2) = 0
    for m in range(1, 11):
        for n in range(0, 11):
            if 2 * n + 1 > 2 * 10 + 1:
                continue
            assert bernoulli_at(2 * n + 1, m, Fraction(m, 2)) == 0


def test_csc_power_coefficients():
    # (z/sin z)^m expanded in z^2; dual-route checked inside the call.
    assert csc_power_coeffs(1, 3) == [1, Fraction(1, 6), Fraction(7, 360),
                                      Fraction(31, 15120)]
    assert csc_power_coeffs(2, 2) == [1, Fraction(1, 3), Fraction(1, 15)]
    for m in range(1, 6):
        cs = csc_power_coeffs(m, 15)
        assert len(cs) == 16 and cs[0] == 1
        assert all(c > 0 for c in cs)


def test_csc_power_elementary_oracle():
    # Third route: invert the sin-series product directly.
    for m in range(1, 5):
        order = 10
        sin_over_z = [Fraction((-1) ** j, factorial(2 * j + 1))
                      for j in range(order + 1)]
        acc = [1] + [0] * order
        for _ in range(m):
            acc = _series_mul(acc, _series_recip(sin_over_z))
        assert csc_power_coeffs(m, order) == acc


def test_csc_power_guards():
    with pytest.raises(ValueError):
        csc_power_coeffs(0, 3)
    with pytest.raises(ValueError):
        csc_power_coeffs(1, -1)
