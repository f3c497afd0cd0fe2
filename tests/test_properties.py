"""Property tests: Bell identities in every ring the package feeds to the
ladder, SymPoly over int against Fraction coefficients, BigFix
arithmetic against exact Fractions and mpmath, the radius of alpha_mu
and the certified err_log against mpmath, the CLI's json renderer
against json.dumps, and its direct command-line reader against
argparse.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import json
import math
import operator
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bellgamma.bell import bell_eval, bell_ladder  # noqa: E402
from bellgamma.kernel import Column  # noqa: E402
from bellgamma.cli import (_FLAGS, _json, _read_argv,  # noqa: E402
                           build_parser)
from bellgamma.numerics import (_LN_FLOAT_DIGITS, BigFix,  # noqa: E402
                                PrecisionError, _ln_fix, _ln_fix_error,
                                binom, factorial)
from bellgamma.sequences import (_ROW_GUARD, _alpha,  # noqa: E402
                                 _alpha_args, _alpha_radius,
                                 _ladder_radius, convergence_row)
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


@PROPERTY
@given(st.integers(1, 7).flatmap(lambda n: st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(ints, min_size=k, max_size=k),
                       min_size=n, max_size=n))))
def test_bell_ladder_over_columns_is_entrywise(columns):
    # one ladder over Columns (as a kernel row runs it) gives, in entry
    # k, the int ladder of the k-th entries
    ys = bell_ladder([Column(c) for c in columns])
    assert all(type(y) is Column for y in ys)
    assert ys == [tuple(r) for r in
                  zip(*(bell_ladder(list(e)) for e in zip(*columns)))]


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
@given(mantissas, st.integers(0, 6), scales)
def test_bigfix_pow_rounds_once(m, k, scale):
    x = BigFix(m, scale)
    exact = x.to_fraction() ** k
    assert abs((x ** k).to_fraction() - exact) <= half_ulp(scale)


alphas = st.integers(2, 8).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(1, a - 1)))


def mp_alpha(a, mu):
    """alpha_mu by mpmath at its working precision: the Bell ladder over
    gamma and c_m zeta(m), in mpf."""
    mpmath = pytest.importorskip("mpmath")
    xs = [mpmath.euler] + [factorial(m - 1) * (a + (-1) ** m * (a - 1))
                           * mpmath.zeta(m) for m in range(2, mu + 1)]
    return bell_ladder(xs)[mu]


@PROPERTY
@given(alphas, st.integers(1, 80))
def test_bigfix_ladder_alpha_within_rounding_bound(case, scale):
    # The production radius with exact arguments bounds the ladder's own
    # rounding; the reference is the same ladder over exact Fractions.
    a, mu = case
    xs, _ = _alpha_args(a, mu, scale)
    got = _alpha(a, mu, scale)
    assert got.scale == scale
    exact = bell_ladder([x.to_fraction() for x in xs])[mu]
    assert (abs(got.to_fraction() - exact)
            <= Fraction(_ladder_radius(xs, [0] * mu), 10 ** scale))


@PROPERTY
@given(alphas, st.integers(1, 80))
def test_alpha_within_its_radius(case, scale):
    # the radius convergence_row uses bounds the distance from the true
    # alpha_mu, at every scale and, past the row guard, as one number
    mpmath = pytest.importorskip("mpmath")
    a, mu = case
    with mpmath.workdps(scale + 40):
        err = abs(mpmath.mpf(_alpha(a, mu, scale).mantissa)
                  - mp_alpha(a, mu) * mpmath.mpf(10) ** scale)
        assert err <= _ladder_radius(*_alpha_args(a, mu, scale))
        if scale > _ROW_GUARD:
            assert err <= _alpha_radius(a, mu)


@PROPERTY
@given(alphas, st.integers(0, 60), st.integers(1, 12))
def test_convergence_row_err_log_is_certified(case, n, digits):
    # either a PrecisionError or an err_log within the tolerance
    # perfbench/check.py applies, against mpmath
    mpmath = pytest.importorskip("mpmath")
    a, mu = case
    try:
        row = convergence_row(a, mu, n, digits)
    except PrecisionError:
        return
    with mpmath.workdps(digits + 80):
        ratio = mpmath.mpf(row.p.numerator) / row.p.denominator / row.q
        true = float(mpmath.log(abs(mp_alpha(a, mu) - ratio)))
    assert abs(row.err_log - true) <= 1e-6 * max(1.0, abs(true))


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


@settings(PROPERTY, max_examples=400)
@given(st.integers(1, 2 ** 400 - 1), st.integers(1, 600))
def test_bigfix_ln_float_is_float_of_ln(m, scale):
    x = BigFix(m, scale)
    assert x.ln_float() == float(x.ln())


@PROPERTY
@given(st.integers(0, 600).flatmap(
    lambda scale: st.tuples(st.integers(1, 10 ** (scale + 40)),
                            st.just(scale))))
def test_ln_fix_within_stated_bound_at_ln_float_digits(case):
    # the bound ln_float's certificate adds to ln's 10^-scale
    mpmath = pytest.importorskip("mpmath")
    m, scale = case
    w = _LN_FLOAT_DIGITS
    with mpmath.workdps(scale + w + 60):
        exact = mpmath.log(m * mpmath.mpf(10) ** -scale) * mpmath.mpf(10) ** w
        err = abs(_ln_fix(m, scale, w) - exact)
    assert err <= _ln_fix_error(m.bit_length() - 1, scale, w)


json_values = st.recursive(
    st.none() | st.text()
    | st.integers() | st.integers(-10 ** 4400, 10 ** 4400)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12)


@settings(PROPERTY, max_examples=300)
@given(json_values)
@example(10 ** 4300 + 7)
@example(-(10 ** 5000))
@example([0.0, -0.0, 5e-324, -2.2250738585072e-308, math.inf, -math.inf,
          math.nan, None])
@example({"a": {"b": [[], {}, ""]}, "\u2028\x7f\U0001f600\"": "\t\b\x00"})
def test_cli_json_matches_json_dumps(value):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main does
    try:
        want = json.dumps(value, separators=(", ", ": ")) + "\n"
    finally:
        sys.set_int_max_str_digits(old)
    assert _json(value) == want


@pytest.mark.parametrize("value", [True, (1, 2), {1: 2}, {"k": {None: 0}},
                                   Fraction(1, 2), b"x"])
def test_cli_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


# Command lines from a token grammar: each command's flags spelled out
# with values of every kind, and the spellings only argparse reads
# (--flag=value, abbreviations, repeats, -h, --), other commands' flags
# and values argparse refuses.
_OPTIONS = sorted({flag[0] for flags in _FLAGS.values() for flag in flags})
_INT_TEXT = st.one_of(st.integers(0, 10 ** 6).map(str), st.integers().map(str),
                     st.sampled_from([
                         "-0", "-3", "\u0663", "-\u0663", "\uff17\uff10",
                         "1_000", "-1_000", " -3", "+4", "\u00b2", "3.0",
                         "-.5", "x", "", "-", "-3\n", "9" * 5000,
                         "-" + "9" * 5000]))
_STR_TEXT = st.text(max_size=4) | st.sampled_from([
    "0:5", "2:40:10", "", "-1:4", "-", "--", "-h", "--a", "-3", "out.csv"])
_OTHER = st.sampled_from(_OPTIONS + [
    "", "-", "-h", "--help", "--", "--dig", "--for", "--qn", "--ze", "--nm",
    "--su", "--ki", "--m", "--a=3", "--n=5", "--u=-2", "--format=json",
    "--digits=30", "--qn-ratio=1", "approx", "json", "-3", "5"])


def _flag_tokens(flag):
    option, kind = flag[0], flag[2]
    if kind is None:
        return st.just([option])
    if kind is int:
        values = _INT_TEXT
    elif kind is str:
        values = _STR_TEXT
    else:
        values = st.sampled_from(kind) | st.sampled_from(["xml", "", "-h"])
    return values.map(lambda value: [option, value])


def _command_line(command):
    flags = _FLAGS[command]

    def flag_groups(order):
        # each required flag kept but one time in eight, each other one
        # every other time
        return st.tuples(*(st.tuples(_flag_tokens(f), st.integers(0, 7))
                           for f in order)).map(lambda drawn: [
            tokens for (tokens, keep), f in zip(drawn, order)
            if keep >= (1 if f[4] else 4)])

    def insert(groups, noise):
        for at, tokens in noise:
            groups.insert(at % (len(groups) + 1), tokens)
        return [command] + [t for group in groups for t in group]

    # half the lines also hold a repeat of one of this command's flags
    # or a token only argparse reads or refuses
    extra = st.sampled_from(flags).flatmap(_flag_tokens) | _OTHER.map(
        lambda token: [token])
    noise = st.just([]) | st.lists(st.tuples(st.integers(0, 9), extra),
                                   min_size=1, max_size=2)
    return st.builds(insert, st.permutations(flags).flatmap(flag_groups),
                     noise)


command_lines = (st.sampled_from(sorted(_FLAGS)).flatmap(_command_line)
                 | st.lists(_OTHER, max_size=3))


@settings(PROPERTY, max_examples=400)
@given(command_lines)
@example(["roots", "--a", "3", "--u", "-3"])
@example(["roots", "--a", "3", "--u", "-1_000"])
@example(["constants", "--out", "-h"])
@example(["constants", "--zeta-max", "3", "--digits"])
@example(["approx", "--n", "-\u0663", "--mu", "\uff11", "--a", "3"])
@example(["table", "--qn-ratio", "--a", "2", "--n", "", "--mu", "1"])
def test_direct_argv_reader_agrees_with_argparse(argv):
    # whatever _read_argv reads, argparse reads to the same namespace
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


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
