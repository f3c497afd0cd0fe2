"""Polynomial ring in gamma and zeta symbols; alpha and lambda coefficients."""

import random
from fractions import Fraction

import pytest

from bellgamma.bell import bell_ladder
from bellgamma.numerics import BigFix, binom, gamma_const, zeta_const
from bellgamma.sequences import _alpha, convergence_row
from bellgamma.symring import SymPoly, alpha_poly, lambda_coeff


def sp_eval(p, gamma_val, zeta_vals):
    """The SymPoly p at numeric BigFix values of g, z2..zM: the oracle
    for the Bell ladder over the constants.  Coefficients stay exact;
    each monomial is rounded once per factor."""
    vals = [gamma_val] + list(zeta_vals)
    assert len(vals) == p.m_index
    scale = gamma_val.scale
    acc = BigFix.from_int(0, scale)
    for e in sorted(p.terms):
        term = BigFix.from_int(1, scale)
        for v, ei in zip(vals, e):
            for _ in range(ei):
                term = term * v
        acc = acc + BigFix.from_fraction(term.to_fraction() * p.terms[e],
                                         scale)
    return acc


def rand_poly(rng, mi=3):
    p = SymPoly.zero(mi)
    for _ in range(rng.randint(1, 5)):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = SymPoly.const(c, mi)
        for _ in range(rng.randint(0, 2)):
            term = term * SymPoly.gamma(mi)
        if rng.random() < 0.6:
            term = term * SymPoly.zeta(rng.randint(2, mi), mi)
        p = p + term
    return p


def test_constructors_and_rendering():
    mi = 3
    g = SymPoly.gamma(mi)
    z2 = SymPoly.zeta(2, mi)
    p = g * g + SymPoly.const(5, mi) * z2
    assert str(p) == "g^2 + 5*z2"
    assert str(SymPoly.zero(mi)) == "0"
    assert str(SymPoly.one(mi)) == "1"
    assert SymPoly.one(mi).constant_part() == 1
    with pytest.raises(ValueError):
        SymPoly.zeta(1, mi)
    with pytest.raises(ValueError):
        SymPoly.zeta(4, mi)


def test_ring_axioms():
    rng = random.Random(17)
    for _ in range(10):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * SymPoly.one(3) == a
        assert (a * SymPoly.zero(3)).is_zero()


def test_power_matches_repeated_product():
    rng = random.Random(18)
    p = rand_poly(rng)
    assert p ** 0 == SymPoly.one(3)
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_mixed_index_rejected():
    with pytest.raises(ValueError):
        SymPoly.gamma(2) + SymPoly.gamma(3)
    with pytest.raises(ValueError):
        SymPoly.gamma(2) * SymPoly.zeta(2, 3)


def test_gamma_degree_and_coeff():
    p = alpha_poly(3, 2)  # g^2 + 5 z2, with symbols (g, z2)
    assert p.m_index == 2
    assert p.gamma_degree() == 2
    assert p.coeff((2, 0)) == 1
    assert p.coeff((0, 1)) == 5
    assert p.coeff((1, 1)) == 0
    assert p.constant_part() == 0


def test_alpha_small_cases():
    # alpha_0 = 1, alpha_1 = gamma, alpha_2 = gamma^2 + (2a-1) zeta(2).
    for a in range(2, 6):
        mi = max(a - 1, 2)
        assert alpha_poly(a, 0, mi) == SymPoly.one(mi)
        assert alpha_poly(a, 1, mi) == SymPoly.gamma(mi)
        if a >= 3:
            g = SymPoly.gamma(mi)
            z2 = SymPoly.zeta(2, mi)
            want = g * g + (2 * a - 1) * z2
            assert alpha_poly(a, 2, mi) == want


def test_alpha_third_order():
    # alpha_3 = g^3 + 3(2a-1) g z2 + 2 z3; defined for a >= 4.
    for a in (4, 5):
        mi = a - 1
        g = SymPoly.gamma(mi)
        z2 = SymPoly.zeta(2, mi)
        z3 = SymPoly.zeta(3, mi)
        want = g ** 3 + 3 * (2 * a - 1) * g * z2 + 2 * z3
        assert alpha_poly(a, 3, mi) == want


def test_alpha_mu_bounds():
    assert str(alpha_poly(3, 2)) == "g^2 + 5*z2"
    assert str(alpha_poly(2, 1)) == "g"
    assert str(alpha_poly(4, 2)) == "g^2 + 7*z2"
    assert alpha_poly(3, 0) == SymPoly.one(2)
    with pytest.raises(ValueError):
        alpha_poly(2, 2)
    with pytest.raises(ValueError):
        alpha_poly(3, -1)
    with pytest.raises(ValueError):
        alpha_poly(1, 0)


def test_lambda_coeff():
    # lambda_{mu,nu} = C(mu,nu) alpha_{mu-nu}; symbols fixed at M = a-1.
    for a in (3, 4, 5):
        for mu in range(1, a):
            for nu in range(1, mu + 1):
                got = lambda_coeff(a, mu, nu)
                assert got.m_index == a - 1
                want = binom(mu, nu) * alpha_poly(a, mu - nu)
                assert got == want
    assert str(lambda_coeff(3, 2, 1)) == "2*g"
    assert lambda_coeff(4, 3, 3) == SymPoly.one(3)
    with pytest.raises(ValueError):
        lambda_coeff(3, 2, 0)
    with pytest.raises(ValueError):
        lambda_coeff(3, 3, 1)


def test_alpha_known_value():
    # alpha_2 at a = 3 is g^2 + 5 z2: one rounded product, as composed
    # directly.
    digits = 30
    g = gamma_const(digits)
    z2 = zeta_const(2, digits)
    assert str(alpha_poly(3, 2)) == "g^2 + 5*z2"
    assert _alpha(3, 2, digits) == g * g + 5 * z2


def test_alpha_two_precision_agreement():
    lo = _alpha(4, 3, 10)
    hi = _alpha(4, 3, 25)
    assert abs(lo.to_fraction() - hi.to_fraction()) <= Fraction(1, 10 ** 8)


def test_alpha_matches_symbolic_evaluation():
    # The ladder over the values equals the symbolic alpha_mu evaluated
    # at them, for every a and mu the CLI accepts.  The bound is the
    # oracle's: its rounded monomials times coefficients up to about 10^5
    # reach 6.4 10^5 units at a = 8, mu = 7, the ladder 6 10^3.
    digits = 40
    g = gamma_const(digits)
    zs = [zeta_const(m, digits) for m in range(2, 8)]
    for a in range(2, 9):
        for mu in range(1, a):
            want = sp_eval(alpha_poly(a, mu, mu), g, zs[:mu - 1])
            assert abs(_alpha(a, mu, digits).to_fraction()
                       - want.to_fraction()) <= Fraction(10 ** 6, 10 ** digits)


def test_alpha_rejects_mixed_scales_and_bad_mu():
    with pytest.raises(ValueError):
        bell_ladder([gamma_const(25), zeta_const(2, 20)])
    for a, mu in ((3, 0), (3, 3)):
        with pytest.raises(ValueError):
            convergence_row(a, mu, 10)


def test_deterministic_ordering():
    rng = random.Random(29)
    p = rand_poly(rng)
    q = rand_poly(rng)
    assert str(p * q) == str(q * p)
    assert repr(p) == repr(SymPoly(p.m_index, dict(p.terms)))
