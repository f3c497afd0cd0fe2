"""Fixed-point arithmetic, constants, and integer helpers."""

import math
import random
import sys
from fractions import Fraction

import pytest
from oracles import fraction_of, poch

from bellgamma import numerics
from bellgamma.bernoulli import bernoulli_number
from bellgamma.common import PrecisionError, binom, factorial, lcm_upto
from bellgamma.numerics import (
    BigFix,
    gamma_const,
    zeta_const,
)

# Reference decimals, 60+ digits, frozen from an independent computation.
GAMMA_REF = Fraction(
    "0.57721566490153286060651209008240243104215933593992359880576724")
ZETA2_REF = Fraction(
    "1.6449340668482264364724151666460251892189499012067984377355582")
ZETA3_REF = Fraction(
    "1.2020569031595942853997381615114499907649862923404988817922716")
ZETA4_REF = Fraction(
    "1.0823232337111381915160036965411679027747509519187269076829762")
ZETA5_REF = Fraction(
    "1.0369277551433699263313654864570341680570809195019128119741927")
PI_REF = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749446")
LN2_REF = Fraction(
    "0.69314718055994530941723212145817656807550013436025525412068001")


def close_to(x: BigFix, ref: Fraction, digits: int) -> bool:
    return abs(fraction_of(x) - ref) <= Fraction(1, 10 ** (digits - 1))


def test_factorial_binom():
    assert factorial(0) == 1
    assert factorial(6) == 720
    assert binom(7, 3) == 35
    assert binom(5, 0) == binom(5, 5) == 1
    with pytest.raises(ValueError):
        factorial(-1)
    with pytest.raises(ValueError):
        binom(3, 5)
    with pytest.raises(ValueError):
        binom(3, -1)


def test_lcm_upto_values():
    assert lcm_upto(0) == 1
    assert lcm_upto(1) == 1
    assert lcm_upto(2) == 2
    assert lcm_upto(6) == 60
    assert lcm_upto(10) == 2520
    with pytest.raises(ValueError):
        lcm_upto(-1)


def test_lcm_upto_prime_power_structure():
    # lcm(1..n) is the product over primes p <= n of p^floor(log_p n).
    n = 30
    want = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        e = 1
        while p ** (e + 1) <= n:
            e += 1
        want *= p ** e
    assert lcm_upto(n) == want


def test_lcm_upto_divisibility():
    for n in range(1, 40):
        d = lcm_upto(n)
        assert all(d % k == 0 for k in range(1, n + 1))
        assert lcm_upto(n - 1) and d % lcm_upto(n - 1) == 0


def test_poch():
    assert poch(Fraction(3), 0) == 1
    assert poch(Fraction(3), 2) == 12
    assert poch(Fraction(1, 2), 3) == Fraction(15, 8)
    # (x)_{m+1} = (x)_m (x+m)
    rng = random.Random(4021)
    for _ in range(20):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m = rng.randint(0, 6)
        assert poch(x, m + 1) == poch(x, m) * (x + m)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(10) == Fraction(5, 66)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert all(bernoulli_number(n) == 0 for n in range(3, 20, 2))
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_bernoulli_sum_identity():
    # sum_{k<n} C(n,k) B_k = 0 for n >= 2.
    bs = [bernoulli_number(n) for n in range(151)]
    for n in range(2, 151):
        assert sum(binom(n, k) * bs[k] for k in range(n)) == 0


def test_bigfix_roundtrip_and_arithmetic():
    rng = random.Random(91)
    for _ in range(40):
        fa = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        fb = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        a = BigFix.from_ratio(fa.numerator, fa.denominator, 30)
        b = BigFix.from_ratio(fb.numerator, fb.denominator, 30)
        eps = Fraction(1, 10**29)
        assert abs(fraction_of(a + b) - (fa + fb)) <= eps
        assert abs(fraction_of(a - b) - (fa - fb)) <= eps
        assert abs(fraction_of(a * b) - fa * fb) <= abs(fa * fb) * eps + eps


def test_bigfix_from_int_and_compare():
    x = BigFix.from_int(3, 20)
    y = BigFix.from_ratio(3, 1, 20)
    assert (x.mantissa, x.scale) == (y.mantissa, y.scale) == (3 * 10 ** 20, 20)
    assert (x - y).mantissa == 0
    assert BigFix.from_int(0, 5).mantissa == 0


def test_bigfix_to_decimal():
    x = BigFix.from_ratio(-1, 8, 6)
    assert x.to_decimal() == "-0.125000"
    assert BigFix.from_int(2, 3).to_decimal() == "2.000"
    assert BigFix.from_ratio(1, 3, 10).to_decimal() == "0.3333333333"


@pytest.fixture
def default_int_str_limit():
    """Python's default int->str digit limit, whatever earlier tests set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


def test_bigfix_to_decimal_10000_digits(default_int_str_limit):
    third = BigFix.from_ratio(-1, 3, 10000)
    assert third.to_decimal() == "-0." + "3" * 10000
    big = BigFix(10 ** 10000 + 7 * 10 ** 5000 + 9, 5000)
    text = big.to_decimal()
    assert text == "1" + "0" * 4999 + "7." + "0" * 4999 + "9"
    assert BigFix.from_int(10 ** 6000, 0).to_decimal() == "1" + "0" * 6000


def test_bigfix_ln():
    two = BigFix.from_int(2, 50)
    assert abs(fraction_of(two.ln()) - LN2_REF) <= Fraction(1, 10**49)
    rng = random.Random(77)
    for _ in range(15):
        f = Fraction(rng.randint(1, 5000), rng.randint(1, 5000))
        got = fraction_of(BigFix.from_ratio(f.numerator, f.denominator,
                                            40).ln())
        assert math.isclose(float(got), math.log(f), rel_tol=1e-12,
                            abs_tol=1e-12)
    with pytest.raises(ValueError):
        BigFix.from_int(0, 10).ln()
    with pytest.raises(ValueError):
        BigFix.from_int(-2, 10).ln()


def test_bigfix_ln_float_settles_at_working_digits(monkeypatch):
    calls = []
    full_ln = BigFix.ln
    monkeypatch.setattr(BigFix, "ln", lambda x: calls.append(x) or full_ln(x))
    x = BigFix(123456789 ** 7, 60)
    assert x.ln_float() == float(fraction_of(full_ln(x))) and not calls
    with pytest.raises(ValueError):
        BigFix.from_int(0, 60).ln_float()


def test_bigfix_ln_float_falls_back_when_undecided(monkeypatch):
    # at 3 working digits the interval never settles a double, so every
    # value takes the full-scale ln
    calls = []
    full_ln = BigFix.ln
    monkeypatch.setattr(BigFix, "ln", lambda x: calls.append(x) or full_ln(x))
    monkeypatch.setattr(numerics, "_LN_FLOAT_DIGITS", 3)
    rng = random.Random(15)
    cases = [BigFix(rng.randint(1, 10 ** 90), rng.randint(20, 90))
             for _ in range(40)]
    for x in cases:
        assert x.ln_float() == float(fraction_of(full_ln(x)))
    assert calls == cases


def test_bigfix_pow_int():
    z = BigFix.from_ratio(1, 2, 30) ** 10
    assert abs(fraction_of(z) - Fraction(1, 1024)) <= Fraction(1, 10**28)
    w = BigFix.from_int(2, 20) ** 0
    assert (w.mantissa, w.scale) == (10 ** 20, 20)


def test_bigfix_int_scaling_is_exact():
    x = BigFix.from_ratio(3, 7, 30)
    for k in (0, 1, -5, 720, 10 ** 40):
        for y in (k * x, x * k):
            assert (y.mantissa, y.scale) == (x.mantissa * k, 30)
    assert fraction_of(1800 * x) == 1800 * fraction_of(x)
    with pytest.raises(ValueError):
        x ** -1


def test_gamma_const_frozen():
    assert gamma_const(50).to_decimal() == \
        "0.57721566490153286060651209008240243104215933593992"
    assert gamma_const(10).to_decimal() == "0.5772156649"
    assert gamma_const(1).to_decimal() == "0.6"


def test_gamma_const_guard_agreement():
    # Wider precision must agree with narrower to within one last digit.
    lo = fraction_of(gamma_const(50))
    hi = fraction_of(gamma_const(80))
    assert abs(hi - lo) <= Fraction(1, 10**49)
    assert abs(hi - GAMMA_REF) <= Fraction(1, 10**60)


def test_zeta_const_frozen():
    assert zeta_const(3, 50).to_decimal() == \
        "1.20205690315959428539973816151144999076498629234050"
    assert zeta_const(3, 10).to_decimal() == "1.2020569032"


def test_zeta_const_reference_values():
    for m, ref in ((2, ZETA2_REF), (3, ZETA3_REF), (4, ZETA4_REF),
                   (5, ZETA5_REF)):
        assert close_to(zeta_const(m, 55), ref, 54)


def test_zeta_pi_power_identities():
    # zeta(2) = pi^2/6 and zeta(4) = pi^4/90.
    z2 = PI_REF ** 2 / 6
    z4 = PI_REF ** 4 / 90
    assert abs(fraction_of(zeta_const(2, 45)) - z2) <= Fraction(1, 10**43)
    assert abs(fraction_of(zeta_const(4, 45)) - z4) <= Fraction(1, 10**43)


def test_zeta_const_validation():
    with pytest.raises(ValueError):
        zeta_const(1, 10)
    with pytest.raises(ValueError):
        zeta_const(0, 10)


def test_precision_bounds():
    with pytest.raises(ValueError):
        gamma_const(0)
    with pytest.raises(PrecisionError):
        gamma_const(10001)
    with pytest.raises(PrecisionError):
        zeta_const(3, 10001)
    with pytest.raises(ValueError):
        zeta_const(3, 0)


# ---------------------------------------------------------------------------
# the ln constant caches, and the oracles against mpmath
# ---------------------------------------------------------------------------

def test_constant_mantissa_caches_are_bounded():
    # full-scale ln asks for ln 2 and ln 10 at a new scale for every
    # scale it is taken at, more scales than the caches keep
    caches = (numerics._ln2_fix, numerics._ln10_fix)
    for cache in caches:
        cache.cache_clear()
    for scale in range(1, 41):
        BigFix(7, scale).ln()
    for cache in caches:
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize


def test_constants_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for digits in (1000, 3000):
        mpmath.mp.dps = digits + 20
        refs = [(gamma_const(digits), mpmath.euler)]
        refs += [(zeta_const(m, digits), mpmath.zeta(m)) for m in (2, 3, 5)]
        if digits == 1000:
            refs += [(zeta_const(m, digits), mpmath.zeta(m)) for m in (7, 20)]
        for val, ref in refs:
            want = int(mpmath.nint(ref * mpmath.mpf(10) ** digits))
            assert val.mantissa == want


def test_mantissas_match_mpmath_at_every_small_precision():
    # Both series and their step counts change with the precision, so
    # every digit count up to 60 is checked, for gamma and zeta(2..20).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 90
    refs = [(numerics._gamma_mantissa, mpmath.euler)]
    refs += [(lambda d, m=m: numerics._zeta_mantissa(m, d), mpmath.zeta(m))
             for m in range(2, 21)]
    for digits in range(1, 61):
        scale = mpmath.mpf(10) ** digits
        for mantissa, ref in refs:
            assert mantissa(digits) == int(mpmath.nint(ref * scale))
