"""Fixed-point arithmetic, constants, and integer helpers."""

import math
import random
import sys
from fractions import Fraction

import pytest

from bellgamma import numerics
from bellgamma.numerics import (
    BigFix,
    PrecisionError,
    bernoulli_number,
    binom,
    factorial,
    gamma_const,
    lcm_upto,
    poch,
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
    return abs(x.to_fraction() - ref) <= Fraction(1, 10 ** (digits - 1))


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
    for n in range(2, 24):
        assert sum(binom(n, k) * bernoulli_number(k) for k in range(n)) == 0


def tangent_triangle(kmax):
    """Reference: T_1..T_kmax from one fresh in-place triangle build."""
    t = [0] * (kmax + 1)
    t[1] = 1
    for k in range(2, kmax + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


@pytest.fixture
def empty_tangent(monkeypatch):
    monkeypatch.setattr(numerics, "_tangent", [])
    monkeypatch.setattr(numerics, "_tangent_edge", [])


@pytest.mark.parametrize("steps", [(1, 2, 3), (30, 75), (75,), (12, 5, 40)])
def test_tangent_triangle_grows(steps, empty_tangent):
    for k in steps:
        numerics._extend_tangent(k)
    assert numerics._tangent == tangent_triangle(max(steps))


def test_tangent_extension_keeps_old_columns(empty_tangent):
    numerics._extend_tangent(30)
    numerics._tangent[0] = -1  # marker: a rebuild would overwrite it
    numerics._extend_tangent(75)
    fresh = tangent_triangle(75)
    assert numerics._tangent[0] == -1
    assert numerics._tangent[1:] == fresh[1:]
    numerics._tangent[0] = 1
    # B_n for 2k <= 150 through the grown triangle: sum_{k<n} C(n,k) B_k = 0
    bs = [bernoulli_number(n) for n in range(151)]
    assert all(sum(binom(n, k) * bs[k] for k in range(n)) == 0
               for n in range(2, 151))


def test_bigfix_roundtrip_and_arithmetic():
    rng = random.Random(91)
    for _ in range(40):
        fa = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        fb = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        a = BigFix.from_fraction(fa, 30)
        b = BigFix.from_fraction(fb, 30)
        eps = Fraction(1, 10**29)
        assert abs((a + b).to_fraction() - (fa + fb)) <= eps
        assert abs((a - b).to_fraction() - (fa - fb)) <= eps
        assert abs((a * b).to_fraction() - fa * fb) <= abs(fa * fb) * eps + eps
        if fb != 0:
            assert abs((a / b).to_fraction() - fa / fb) <= (
                abs(fa / fb) + 1) * eps


def test_bigfix_from_int_and_compare():
    x = BigFix.from_int(3, 20)
    y = BigFix.from_fraction(Fraction(3), 20)
    assert x.mantissa == y.mantissa and x.scale == 20
    assert not (x - y).is_zero() is True or (x - y).is_zero()
    assert BigFix.from_int(0, 5).is_zero()


def test_bigfix_to_decimal():
    x = BigFix.from_fraction(Fraction(-1, 8), 6)
    assert x.to_decimal() == "-0.125000"
    assert BigFix.from_int(2, 3).to_decimal() == "2.000"
    assert BigFix.from_fraction(Fraction(1, 3), 10).to_decimal() == \
        "0.3333333333"


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
    third = BigFix.from_fraction(Fraction(-1, 3), 10000)
    assert third.to_decimal() == "-0." + "3" * 10000
    big = BigFix(10 ** 10000 + 7 * 10 ** 5000 + 9, 5000)
    text = big.to_decimal()
    assert text == "1" + "0" * 4999 + "7." + "0" * 4999 + "9"
    assert big.log10_floor() == 5000
    assert BigFix.from_int(10 ** 6000, 0).to_decimal() == "1" + "0" * 6000


def test_bigfix_rescale():
    x = BigFix.from_fraction(Fraction(2, 3), 40)
    y = x.rescale(10)
    assert y.scale == 10
    assert abs(y.to_fraction() - Fraction(2, 3)) <= Fraction(1, 10**10)


def test_bigfix_pi():
    x = BigFix.pi(55)
    assert abs(x.to_fraction() - PI_REF) <= Fraction(1, 10**54)


def test_bigfix_ln():
    two = BigFix.from_int(2, 50)
    assert abs(two.ln().to_fraction() - LN2_REF) <= Fraction(1, 10**49)
    rng = random.Random(77)
    for _ in range(15):
        f = Fraction(rng.randint(1, 5000), rng.randint(1, 5000))
        got = BigFix.from_fraction(f, 40).ln().to_fraction()
        assert math.isclose(float(got), math.log(f), rel_tol=1e-12,
                            abs_tol=1e-12)
    with pytest.raises(ValueError):
        BigFix.from_int(0, 10).ln()
    with pytest.raises(ValueError):
        BigFix.from_int(-2, 10).ln()


def test_bigfix_log10_floor():
    assert BigFix.from_int(1000, 10).log10_floor() == 3
    assert BigFix.from_fraction(Fraction(1, 1000), 10).log10_floor() == -3
    assert BigFix.from_fraction(Fraction(35, 100), 10).log10_floor() == -1
    with pytest.raises(ValueError):
        BigFix.from_int(0, 10).log10_floor()


def test_bigfix_mul_rat_pow_int():
    x = BigFix.from_fraction(Fraction(3, 7), 30)
    y = x.mul_rat(Fraction(7, 3))
    assert abs(y.to_fraction() - 1) <= Fraction(1, 10**29)
    z = BigFix.from_fraction(Fraction(1, 2), 30).pow_int(10)
    assert abs(z.to_fraction() - Fraction(1, 1024)) <= Fraction(1, 10**28)
    w = BigFix.from_int(2, 20).pow_int(0)
    assert w.to_fraction() == 1


def test_gamma_const_frozen():
    assert gamma_const(50).to_decimal() == \
        "0.57721566490153286060651209008240243104215933593992"
    assert gamma_const(10).to_decimal() == "0.5772156649"
    assert gamma_const(1).to_decimal() == "0.6"


def test_gamma_const_guard_agreement():
    # Wider precision must agree with narrower to within one last digit.
    lo = gamma_const(50).to_fraction()
    hi = gamma_const(80).to_fraction()
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
    pi = BigFix.pi(45)
    z2 = pi.pow_int(2).mul_rat(Fraction(1, 6)).to_fraction()
    z4 = pi.pow_int(4).mul_rat(Fraction(1, 90)).to_fraction()
    assert abs(zeta_const(2, 45).to_fraction() - z2) <= Fraction(1, 10**43)
    assert abs(zeta_const(4, 45).to_fraction() - z4) <= Fraction(1, 10**43)


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
# Euler-Maclaurin planning and the one-mantissa caches
# ---------------------------------------------------------------------------

def _log10_gamma_term(k, n):
    return (math.log10(3.3) + math.lgamma(2 * k + 1) / math.log(10)
            - math.log10(2 * k) - 2 * k * math.log10(2 * math.pi * n))


def _log10_zeta_term(m):
    def term(j, n):
        return (math.log10(3.3) + (math.lgamma(m + 2 * j - 1) - math.lgamma(m))
                / math.log(10) - 2 * j * math.log10(2 * math.pi)
                - (m + 2 * j - 1) * math.log10(n))
    return term


def _tail_length(term, target, n):
    """Terms before the first one below 10**-target, among k <= n/4."""
    return next((k - 1 for k in range(1, n // 4 + 1)
                 if term(k, n) < -target), None)


@pytest.mark.parametrize("target", [20, 80, 310, 1010, 2010, 7010])
def test_em_parameters_least_cost(target):
    # The plan meets the target with the shortest tail for its N, and no
    # neighbouring N has a lower estimated cost N (m+1) (target+330) + 8 K^3.
    plans = [(numerics._em_parameters_gamma(target), _log10_gamma_term, 1)]
    plans += [(numerics._em_parameters_zeta(m, target), _log10_zeta_term(m), m)
              for m in (2, 3, 7, 20)]
    for (j, kk), term, m in plans:
        def cost(j, kk):
            return (1 << j) * (m + 1) * (target + 330) + 8 * kk ** 3
        assert kk == _tail_length(term, target, 1 << j)
        for nj in (j - 1, j + 1):
            k2 = _tail_length(term, target, 1 << nj)
            assert k2 is None or cost(j, kk) <= cost(nj, k2)


def test_em_parameters_right_sized():
    # Cost-regression guard: 70 digits need no 2^13-term head sum, and
    # 7000 digits are not held to a short one.
    assert numerics._em_parameters_gamma(80)[0] <= 9
    assert numerics._em_parameters_zeta(3, 80)[0] <= 9
    assert numerics._em_parameters_gamma(7010)[0] >= 15
    assert numerics._em_parameters_zeta(3, 7010)[0] >= 15


def test_em_parameters_cover_10000_digits():
    # Planning only: the 10000-digit sums themselves take seconds.
    assert numerics._em_parameters_gamma(10010)[0] <= 20
    for m in range(2, 21):
        assert numerics._em_parameters_zeta(m, 10010)[0] <= 20


@pytest.fixture
def empty_caches(monkeypatch):
    monkeypatch.setattr(numerics, "_GAMMA_CACHE", {})
    monkeypatch.setattr(numerics, "_ZETA_CACHE", {})


@pytest.mark.parametrize("m", [None, 2, 3, 7])
def test_rounded_from_cache_matches_fresh(m, empty_caches):
    if m is None:
        const, fresh = gamma_const, numerics._gamma_mantissa
    else:
        const = lambda d: zeta_const(m, d)  # noqa: E731
        fresh = lambda d: numerics._zeta_mantissa(m, d)  # noqa: E731
    top = 400
    const(top)
    for d in range(top - 1, 0, -7):
        assert const(d).mantissa == fresh(d)
    cache = numerics._GAMMA_CACHE if m is None else numerics._ZETA_CACHE
    assert list(cache.values()) == [(top, fresh(top))]


def test_ambiguous_tail_computes_directly(empty_caches):
    # Seeded mantissas whose discarded digits are exactly half a unit
    # (and wrong in the kept ones): the value must come from a direct
    # computation, which is not cached.
    d = 30
    for cache, key, const, fresh in (
            (numerics._GAMMA_CACHE, "gamma", gamma_const,
             numerics._gamma_mantissa),
            (numerics._ZETA_CACHE, 3, lambda d: zeta_const(3, d),
             lambda d: numerics._zeta_mantissa(3, d))):
        seeded = (d + 4, (fresh(d) + 7) * 10 ** 4 + 5000)
        cache[key] = seeded
        assert const(d).mantissa == fresh(d)
        assert cache[key] == seeded
        # one unit further from the half, the rounding is certain
        cache[key] = (d + 4, seeded[1] + 2)
        assert const(d).mantissa == fresh(d) + 8


def test_caches_hold_one_entry_per_constant(empty_caches, monkeypatch):
    computed = []

    def counted(fn):
        def wrapper(*args):
            computed.append(args)
            return fn(*args)
        return wrapper

    for name in ("_gamma_mantissa", "_zeta_mantissa"):
        monkeypatch.setattr(numerics, name, counted(getattr(numerics, name)))
    for d in (40, 90, 60, 90, 20):
        gamma_const(d)
        for m in (2, 5):
            zeta_const(m, d)
    # computed at 40 and at 90; 60, 90 again and 20 come from the cache
    assert computed == [(40,), (2, 40), (5, 40), (90,), (2, 90), (5, 90)]
    assert numerics._GAMMA_CACHE == {"gamma": (90, gamma_const(90).mantissa)}
    assert sorted(numerics._ZETA_CACHE) == [2, 5]
    assert all(v[0] == 90 for v in numerics._ZETA_CACHE.values())


def test_constants_match_mpmath(empty_caches):
    mpmath = pytest.importorskip("mpmath")
    for digits in (1000, 3000):
        mpmath.mp.dps = digits + 20
        refs = [(gamma_const(digits), mpmath.euler)]
        refs += [(zeta_const(m, digits), mpmath.zeta(m)) for m in (2, 3, 5)]
        for val, ref in refs:
            want = int(mpmath.nint(ref * mpmath.mpf(10) ** digits))
            assert val.mantissa == want
