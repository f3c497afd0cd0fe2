"""Property tests: Bell identities in every ring the package feeds to the
ladder, SymPoly over int against Fraction coefficients, and BigFix
arithmetic against exact Fractions and mpmath.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import operator
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bellgamma.bell import bell_eval, bell_ladder  # noqa: E402
from bellgamma.numerics import BigFix, binom  # noqa: E402
from bellgamma.symring import SymPoly  # noqa: E402

pytest_plugins = ["pytester"]

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

M = 3  # symbols g, z2, z3
ints = st.integers(-10 ** 6, 10 ** 6)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
int_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * M),
                            st.integers(-30, 30), min_size=1, max_size=4)
sympolys = int_terms.map(lambda terms: SymPoly(M, terms))
RINGS = {"int": ints, "Fraction": fractions, "SymPoly": sympolys}


def ring_args(ring, max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(st.lists(RINGS[ring], min_size=n, max_size=n),
                            st.lists(RINGS[ring], min_size=n, max_size=n)))


def check_addition(xs, ys):
    # Y_n(x + y) = sum_k binom(n, k) Y_k(x) Y_{n-k}(y)
    n = len(xs)
    if not n:
        return
    yx, yy = bell_ladder(xs), bell_ladder(ys)
    lhs = bell_eval(list(map(operator.add, xs, ys)))
    rhs = reduce(operator.add, (binom(n, k) * yx[k] * yy[n - k]
                                for k in range(n + 1)))
    assert lhs == rhs


def check_scaling(xs, c):
    # Y_n(c x_1, c^2 x_2, ..., c^n x_n) = c^n Y_n(x_1, ..., x_n)
    n = len(xs)
    if not n:
        return
    scaled = [c ** j * x for j, x in enumerate(xs, 1)]
    assert bell_eval(scaled) == c ** n * bell_eval(xs)


@PROPERTY
@given(ring_args("int"))
def test_bell_addition_int(args):
    check_addition(*args)


@PROPERTY
@given(ring_args("Fraction"))
def test_bell_addition_fraction(args):
    check_addition(*args)


@PROPERTY
@given(ring_args("SymPoly", max_n=5))
def test_bell_addition_sympoly(args):
    check_addition(*args)


@PROPERTY
@given(ring_args("int"), st.integers(-12, 12))
def test_bell_scaling_int(args, c):
    check_scaling(args[0], c)


@PROPERTY
@given(ring_args("Fraction"), fractions)
def test_bell_scaling_fraction(args, c):
    check_scaling(args[0], c)


@PROPERTY
@given(ring_args("SymPoly", max_n=5), st.integers(-12, 12))
def test_bell_scaling_sympoly(args, c):
    check_scaling(args[0], c)


def over_q(terms):
    return SymPoly(M, {e: Fraction(c) for e, c in terms.items()})


@PROPERTY
@given(int_terms, int_terms, st.integers(-9, 9))
def test_sympoly_int_and_fraction_coefficients_agree(p, q, c):
    # int coefficients stay ints through the ring operations, and give
    # the same polynomials as the same coefficients taken as Fractions
    zp, zq, fp, fq = SymPoly(M, p), SymPoly(M, q), over_q(p), over_q(q)
    for got, want in ((zp + zq, fp + fq), (zp * zq, fp * fq),
                      (c * zp, c * fp), (zp * c, fp * Fraction(c))):
        assert got == want
        assert all(type(v) is int for v in got.terms.values())
    assert (zp + (-1) * zp).is_zero() and (fp + (-1) * fp).is_zero()
    assert zp ** 0 == fp ** 0 == SymPoly.one(M)


scales = st.integers(0, 40)
mantissas = st.integers(-10 ** 60, 10 ** 60)


def half_ulp(scale):
    return Fraction(1, 2 * 10 ** scale)


@PROPERTY
@given(st.fractions(), scales)
def test_bigfix_from_fraction_rounds_to_nearest(x, scale):
    got = BigFix.from_fraction(x, scale)
    assert got.scale == scale
    assert abs(got.to_fraction() - x) <= half_ulp(scale)


@PROPERTY
@given(mantissas, mantissas, scales)
def test_bigfix_add_sub_exact(m1, m2, scale):
    x, y = BigFix(m1, scale), BigFix(m2, scale)
    assert (x + y).to_fraction() == x.to_fraction() + y.to_fraction()
    assert (x - y).to_fraction() == x.to_fraction() - y.to_fraction()


@PROPERTY
@given(mantissas, mantissas, scales)
def test_bigfix_mul_rounds_to_nearest(m1, m2, scale):
    x, y = BigFix(m1, scale), BigFix(m2, scale)
    exact = x.to_fraction() * y.to_fraction()
    assert abs((x * y).to_fraction() - exact) <= half_ulp(scale)


@PROPERTY
@given(mantissas, st.fractions(), scales)
def test_bigfix_mul_rat_rounds_once(m, r, scale):
    x = BigFix(m, scale)
    exact = x.to_fraction() * r
    assert abs(x.mul_rat(r).to_fraction() - exact) <= half_ulp(scale)


@PROPERTY
@given(st.integers(1, 1000).flatmap(
    lambda scale: st.tuples(st.integers(1, 10 ** (scale + 40)),
                            st.just(scale))))
def test_bigfix_ln_within_one_ulp(case):
    mpmath = pytest.importorskip("mpmath")
    m, scale = case
    with mpmath.workdps(scale + 60):
        unit = mpmath.mpf(10) ** -scale
        err = abs(BigFix(m, scale).ln().mantissa * unit - mpmath.log(m * unit))
        assert err <= unit


def test_failing_property_is_reported_not_internal_error(pytester):
    # With the repository's own warning filters, hypothesis reporting a
    # falsified property must fail that test alone: a warning raised as
    # an error inside its report hook would abort the whole session.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"][
            "filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join("    %s\n" % f for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_fine():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
