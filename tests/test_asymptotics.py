"""Exponent coefficients, growth predictions, and saddle-point roots."""

import cmath
import math
from fractions import Fraction

import pytest
from oracles import ps_exp, ps_log1p

from bellgamma.asymptotics import (
    PROFILE_KINDS,
    ExponentProfile,
    bm_coeffs,
    corollary_exponent,
    exponent_profile,
    lagrange_coeff,
    linform_exponent,
    qn_log_asymptotic,
)
from bellgamma.bernoulli import _series_mul
from bellgamma.numerics import poch
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


def test_bm_coeffs_match_series_log():
    # The log(1 + s) recurrence inside bm_coeffs against ps_log1p.
    for a in range(2, 9):
        s = [0] + [poch(Fraction(2) - Fraction(m + 1, a), m)
                   / math.factorial(m + 1) for m in range(1, a + 1)]
        log = ps_log1p(s)
        b = bm_coeffs(a)
        assert b == [-a * log[m] - lagrange_coeff(a, m) for m in range(1, a + 1)]
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
    assert lagrange_coeff(3, 1) == 1
    assert lagrange_coeff(3, 2) == Fraction(2, 3)
    assert lagrange_coeff(2, 3) == Fraction(1, 8)
    for a in (2, 3, 4, 5):
        assert lagrange_coeff(a, 2) == 1 - Fraction(1, a)


def test_lagrange_coeff_is_series_reversion():
    # z = w (1+z)^{1-1/a}; the reverted series has lagrange_coeff(a, m)
    # as the w^m coefficient.
    order = 6
    for a in (2, 3, 4, 5):
        e = Fraction(a - 1, a)
        z = [0] * (order + 1)
        for _ in range(order + 2):
            mul = ps_exp([e * c for c in ps_log1p(z)])
            z = [0] + mul[:-1]  # w * (1+z)^e
        for m in range(1, order + 1):
            assert z[m] == lagrange_coeff(a, m)


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
            complex(lagrange_coeff(a, m))
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
