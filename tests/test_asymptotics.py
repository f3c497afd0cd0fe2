"""Exponent coefficients, growth predictions, and saddle-point roots."""

import cmath
import math
from fractions import Fraction

import pytest
from oracles import bm_fraction, lagrange_fraction, poch, ps_exp, ps_log1p

from bellgamma.asymptotics import (
    ExponentProfile,
    bm_coeffs,
    exponent_profile,
    linform_exponent,
)
from bellgamma.bernoulli import _series_mul
from bellgamma.common import PROFILE_KINDS
from bellgamma.exponents import (
    bm_pairs,
    corollary_exponent,
    lagrange_pair,
    qn_log_asymptotic,
)
from bellgamma.saddle import (
    CPoint,
    RootRefinementError,
    saddle_roots,
    saddle_seed,
)


def bm_oracle(a):
    """Recompute the b_m by expanding the log as an alternating power sum."""
    order = a
    s = [Fraction(0)] + [poch(Fraction(2) - Fraction(m + 1, a), m)
                         / math.factorial(m + 1) for m in range(1, a + 1)]
    log1p = [0] * (order + 1)
    power = [1] + [0] * order
    for j in range(1, order + 1):
        power = _series_mul(power, s)
        log1p = [c + Fraction((-1) ** (j + 1), j) * d
                 for c, d in zip(log1p, power)]
    t = [Fraction(0)] + [poch(Fraction(2) - Fraction(m, a), m - 1)
                         / math.factorial(m) for m in range(1, a + 1)]
    return [-a * log1p[m] - t[m] for m in range(1, a + 1)]


def test_bm_coeffs_frozen_values():
    assert bm_coeffs(3) == [-3, -1, Fraction(-1, 3)]
    assert bm_coeffs(4) == [-4, Fraction(-3, 2), Fraction(-5, 8),
                            Fraction(-1, 4)]
    assert bm_coeffs(5) == [-5, -2, Fraction(-14, 15), Fraction(-11, 25),
                            Fraction(-1, 5)]
    assert bm_coeffs(2) == [-2, Fraction(-1, 2)]


def test_bm_coeffs_against_oracle():
    for a in range(2, 7):
        assert bm_coeffs(a) == bm_oracle(a)


def test_integer_pairs_match_fraction_oracle():
    # c_m and b_m(a) in integers equal their Fraction derivation, and
    # each double is the one the Fraction rounds to
    for a in range(2, 21):
        pairs = bm_pairs(a)
        want = bm_fraction(a)
        assert [Fraction(*p) for p in pairs] == want
        assert [num / den for num, den in pairs] == [float(b) for b in want]
        assert all(den > 0 for _, den in pairs)
        for m in range(1, a + 4):
            num, den = lagrange_pair(a, m)
            assert den > 0 and Fraction(num, den) == lagrange_fraction(a, m)
            assert num / den == float(lagrange_fraction(a, m))


def test_bm_coeffs_match_series_log():
    # The log(1 + s) recurrence inside bm_coeffs against ps_log1p.
    for a in range(2, 9):
        s = [0] + [poch(Fraction(2) - Fraction(m + 1, a), m)
                   / math.factorial(m + 1) for m in range(1, a + 1)]
        log = ps_log1p(s)
        b = bm_coeffs(a)
        assert b == [-a * log[m] - Fraction(*lagrange_pair(a, m))
                     for m in range(1, a + 1)]
        assert all(type(v) is Fraction for v in b)


def test_bm_closed_forms():
    # b_1 = -a, b_2 = (1-a)/2, b_3 = (1-a)(2a-3)/(6a), b_a = -1/a.
    for a in range(2, 9):
        b = bm_coeffs(a)
        assert b[0] == -a
        assert b[1] == Fraction(1 - a, 2)
        if a >= 3:
            assert b[2] == Fraction((1 - a) * (2 * a - 3), 6 * a)
        assert b[a - 1] == Fraction(-1, a)
    with pytest.raises(ValueError):
        bm_coeffs(1)


def test_lagrange_coeff_values():
    assert Fraction(*lagrange_pair(3, 1)) == 1
    assert Fraction(*lagrange_pair(3, 2)) == Fraction(2, 3)
    assert Fraction(*lagrange_pair(2, 3)) == Fraction(1, 8)
    for a in (2, 3, 4, 5):
        assert Fraction(*lagrange_pair(a, 2)) == 1 - Fraction(1, a)


def test_lagrange_coeff_is_series_reversion():
    # z = w (1+z)^{1-1/a}; the reverted series has c_m, the value of
    # lagrange_pair(a, m), as the w^m coefficient.
    order = 6
    for a in (2, 3, 4, 5):
        e = Fraction(a - 1, a)
        z = [0] * (order + 1)
        for _ in range(order + 2):
            mul = ps_exp([e * c for c in ps_log1p(z)])
            z = [0] + mul[:-1]  # w * (1+z)^e
        for m in range(1, order + 1):
            assert z[m] == Fraction(*lagrange_pair(a, m))


def test_linform_exponent_values():
    assert math.isclose(linform_exponent(3, 1), -1.0, rel_tol=1e-12)
    # a=3: -(3/2) n^{2/3} + (1/2) n^{1/3}
    for n in (1, 10, 1000):
        want = -1.5 * n ** (2 / 3) + 0.5 * n ** (1 / 3)
        assert math.isclose(linform_exponent(3, n), want, rel_tol=1e-12)
    # a=3 forms shrink; a=4 forms grow like (3/2) sqrt(n) since the
    # m = 1, 3 cosines vanish there.
    vals = [linform_exponent(3, n) for n in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]
    for n in (10, 100):
        assert math.isclose(linform_exponent(4, n), 1.5 * math.sqrt(n),
                            rel_tol=1e-12)


def test_corollary_exponent_exact_coefficients():
    cases = {
        2: [Fraction(-4)],
        3: [Fraction(-9, 2), Fraction(3, 2)],
        4: [Fraction(-4), Fraction(3), Fraction(-5, 8)],
    }
    for a, coeffs in cases.items():
        # frozen coefficients equal (-1)^m b_m (cos(2 pi m / a) - 1)
        b = bm_coeffs(a)
        cos_exact = {2: {1: -1}, 3: {1: Fraction(-1, 2), 2: Fraction(-1, 2)},
                     4: {1: 0, 2: -1, 3: 0}}[a]
        for m in range(1, a):
            assert (-1) ** m * b[m - 1] * (cos_exact[m] - 1) == coeffs[m - 1]
        for n in (8, 200, 5000):
            want = sum(float(c) * n ** (1 - m / a)
                       for m, c in enumerate(coeffs, start=1))
            assert math.isclose(corollary_exponent(a, n), want, rel_tol=1e-12)


def test_exponent_relation():
    # linform - corollary = sum_{m<a} (-1)^m b_m n^{1-m/a}
    for a in (2, 3, 4, 5):
        b = bm_coeffs(a)
        for n in (5, 50, 500):
            qpart = sum((-1) ** m * float(b[m - 1]) * n ** (1 - m / a)
                        for m in range(1, a))
            assert math.isclose(
                linform_exponent(a, n) - corollary_exponent(a, n),
                qpart, rel_tol=1e-10)


def test_qn_log_asymptotic_a2_closed_form():
    for n in (4, 40, 400):
        want = (math.lgamma(n + 1) + 2 * math.sqrt(n) - 0.5
                - 0.25 * math.log(n) - 0.5 * math.log(2)
                - 0.5 * math.log(2 * math.pi))
        assert math.isclose(qn_log_asymptotic(2, n), want, rel_tol=1e-12)


def test_qn_log_asymptotic_a3_closed_form():
    for n in (9, 90):
        want = (math.lgamma(n + 1) + 3 * n ** (2 / 3) - n ** (1 / 3)
                + Fraction(1, 3) - (2 / 3) * math.log(n)
                - 0.5 * math.log(3) - math.log(2 * math.pi))
        assert math.isclose(qn_log_asymptotic(3, n), want, rel_tol=1e-12)


def test_qn_log_asymptotic_validation():
    with pytest.raises(ValueError):
        qn_log_asymptotic(3, 0)
    with pytest.raises(ValueError):
        qn_log_asymptotic(1, 5)


@pytest.mark.parametrize("exponent", [corollary_exponent, linform_exponent])
def test_exponents_refuse_negative_n(exponent):
    # n^{1-m/a} is complex for n < 0; n = 0 is a table's first row
    with pytest.raises(ValueError):
        exponent(3, -1)
    assert exponent(3, 0) == 0


def test_exponent_profile():
    p = exponent_profile(3, "corollary")
    assert p.a == 3 and p.kind == "corollary"
    assert p.b == (-3, -1, Fraction(-1, 3))
    assert set(PROFILE_KINDS) == {"theorem-linear-form", "theorem-qn",
                                  "corollary"}
    for kind in PROFILE_KINDS:
        assert exponent_profile(4, kind).kind == kind
    with pytest.raises(ValueError):
        exponent_profile(3, "nope")
    with pytest.raises(ValueError):
        ExponentProfile(3, (-3, -1), "corollary")
    with pytest.raises(ValueError):
        ExponentProfile(3, (-2, -1, Fraction(-1, 3)), "corollary")


def test_cpoint():
    c = CPoint(1.5, -2.0)
    assert c.as_complex() == 1.5 - 2j
    with pytest.raises(ValueError):
        CPoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        CPoint(0.0, float("inf"))


def test_saddle_seed_formula():
    for a, u, n, k in ((3, 1, 10**6, 0), (4, -2, 10**5, 2), (2, 0, 10**4, 1)):
        want = 1 + sum(
            complex(Fraction(*lagrange_pair(a, m)))
            * cmath.exp(1j * m * (2 * math.pi * k - math.pi * u) / a)
            / n ** (m / a)
            for m in (1, 2, 3))
        assert abs(saddle_seed(a, u, n, k) - want) < 1e-15


def test_saddle_roots_properties():
    for a in (2, 3, 4, 5):
        for u in (-a, -1, 0, 2, a):
            for n in (10**4, 10**5, 10**6):
                roots = saddle_roots(a, u, n)
                assert len(roots) == a
                for k, r in enumerate(roots):
                    t = r.as_complex()
                    resid = abs(cmath.exp(1j * math.pi * u) * n
                                * (t - 1) ** a - t ** (a - 1))
                    assert resid <= 1e-10 * n
                    assert abs(t - saddle_seed(a, u, n, k)) <= n ** (-4 / a)
                # pairwise separation on the n^{-1/a} circle scale
                for i in range(a):
                    for j in range(i + 1, a):
                        d = abs(roots[i].as_complex()
                                - roots[j].as_complex())
                        assert d > n ** (-2 / a)


def test_saddle_roots_match_mpmath():
    # each root, Newton-refined at 30 digits by mpmath, moves by less
    # than 10^-14 of its size, and the a refined roots are distinct, so
    # they are all the roots; the old stop rule |p| < 1e-10 n left
    # 0.9080390625 for 0.90808999699742878... at a = 8, u = -8, n = 10^8
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n in (10 ** 3, 10 ** 6, 10 ** 8, 10 ** 20):
            for a in range(2, 9):
                for u in range(-a, a + 1):
                    e_n = mpmath.expjpi(u) * n
                    refs = []
                    for r in saddle_roots(a, u, n):
                        t = got = mpmath.mpc(r.re, r.im)
                        for _ in range(6):
                            step = ((e_n * (t - 1) ** a - t ** (a - 1))
                                    / (e_n * a * (t - 1) ** (a - 1)
                                       - (a - 1) * t ** (a - 2)))
                            t -= step
                        assert abs(step) < 1e-25
                        assert abs(got - t) < 1e-14 * abs(t), (a, u, n)
                        refs.append(t)
                    assert all(abs(s - t) > 1e-20 for i, s in enumerate(refs)
                               for t in refs[:i])
    root = saddle_roots(8, -8, 10 ** 8)[0]
    assert abs(root.re - 0.90808999699742878) < 1e-15


def test_saddle_roots_validation():
    with pytest.raises(ValueError):
        saddle_roots(1, 0, 10**6)
    with pytest.raises(ValueError):
        saddle_roots(3, 4, 10**6)
    with pytest.raises(ValueError):
        saddle_roots(3, 0, 999)


def test_root_refinement_error_payload():
    err = RootRefinementError(1 + 2j, 0.5)
    assert err.seed == 1 + 2j
    assert err.residual == 0.5
    assert isinstance(err, ArithmeticError)
