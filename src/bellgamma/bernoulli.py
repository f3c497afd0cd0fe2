"""Generalized Bernoulli polynomials B_n^{(m)}(x) and the csc-power series.

B_n^{(m)}(x) is n! times the z^n coefficient of (z/(e^z - 1))^m e^{xz};
the coefficients of (z/(e^z - 1))^m come from Miller's power recurrence,
cached per m, and the classical recursion and addition formulas are
checks of the bernoulli suite rather than used for construction.
bernoulli_at, the one route to a value B_n^{(m)}(x), evaluates it from
those coefficients, and csc_power_coeffs takes the csc-power series
from it alone; gen_bernoulli lists the polynomial's coefficients.  The
truncated product and power of coefficient lists at the end serve the
bernoulli suite, which multiplies the csc-power series by a power of
the sine series.
"""

from fractions import Fraction
from math import factorial, lcm

_N_LIMIT = 200
_M_LIMIT = 50


def gen_bernoulli(n: int, m: int) -> list:
    """The ascending coefficients of B_n^{(m)}(x): an int where the
    coefficient is integral, a Fraction otherwise.

    (z/(e^z-1))^m = (sum z^j/(j+1)!)^{-m}; with its coefficients c_k,
    B_n^{(m)}(x) = n! sum_k c_k x^{n-k}/(n-k)!.  Each call builds a
    fresh list; bernoulli_at evaluates B_n^{(m)} without it.
    """
    if n < 0 or m < 1:
        raise ValueError("gen_bernoulli requires n >= 0, m >= 1")
    if n > _N_LIMIT or m > _M_LIMIT:
        raise ValueError("gen_bernoulli limited to n <= %d, m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    core = _core_power(m, n)
    nfac = factorial(n)
    coeffs = [core[n - i] * (nfac // factorial(i)) for i in range(n + 1)]
    return [c.numerator if c.denominator == 1 else c for c in coeffs]


# m -> coefficients c_0..c_K of (z/(e^z - 1))^m, extended in place; a
# lower order is a prefix.  At most _M_LIMIT lists of _N_LIMIT + 1 terms,
# except that bernoulli_number(n) extends the list of m = 1 to n + 1.
_CORE_CACHE: dict[int, list[Fraction]] = {}


def _core_power(m: int, order: int) -> list[Fraction]:
    """Coefficients of z^0..z^order in (z/(e^z - 1))^m = g^{-m}.

    With g = (e^z - 1)/z = sum_j z^j/(j+1)!, J. C. P. Miller's recurrence
    for powers of a series (Knuth, TAOCP Vol. 2, 4.7) gives c_0 = 1 and
    k c_k = sum_{j=1..k} ((1-m) j - k) c_{k-j}/(j+1)!: O(order^2) once
    per m, and each order after the first is a cached prefix.  Each sum
    is taken in integers over the lcm of its terms' denominators.
    """
    cs = _CORE_CACHE.setdefault(m, [Fraction(1)])
    for k in range(len(cs), order + 1):
        dens = [cs[k - j].denominator * factorial(j + 1)
                for j in range(1, k + 1)]
        big = lcm(*dens)
        acc = sum(((1 - m) * j - k) * cs[k - j].numerator * (big // d)
                  for j, d in enumerate(dens, 1))
        cs.append(Fraction(acc, big * k))
    return cs[:order + 1]


def bernoulli_number(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention): n! times the
    z^n coefficient of z/(e^z - 1), so B_n = B_n^{(1)}(0)."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    return factorial(n) * _core_power(1, n)[n]


def bernoulli_at(n: int, m: int, x) -> Fraction:
    """Exact B_n^{(m)}(x) at a rational x = u/v, without building the
    polynomial: n! sum_k c_k x^{n-k}/(n-k)! with the c_k of _core_power,
    one integer Horner pass over their common denominator D and v^n."""
    if not (0 <= n <= _N_LIMIT and 1 <= m <= _M_LIMIT):
        raise ValueError("bernoulli_at requires 0 <= n <= %d, 1 <= m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    cs = _core_power(m, n)
    d = lcm(*(c.denominator for c in cs))
    acc, vk, f = 0, 1, 1  # f = n!/i! at x^i, i from n down
    for i, c in zip(range(n, -1, -1), cs):
        acc = acc * u + c.numerator * (d // c.denominator) * f * vk
        vk *= v
        f *= i
    return Fraction(acc, d * v ** n)


def csc_power_coeffs(m: int, nmax: int) -> list[Fraction]:
    """Coefficients of z^{2n}, n = 0..nmax, in (z/sin z)^m:
    (-1)^n 4^n B_{2n}^{(m)}(m/2)/(2n)!."""
    if m < 1:
        raise ValueError("csc_power_coeffs requires m >= 1")
    if nmax < 0 or nmax > 50:
        raise ValueError("csc_power_coeffs limited to 0 <= N <= 50")
    half_m = Fraction(m, 2)
    return [Fraction((-1) ** n * 4 ** n)
            * bernoulli_at(2 * n, m, half_m) / factorial(2 * n)
            for n in range(nmax + 1)]


# Truncated power series held as coefficient lists [c_0, ..., c_N] of
# ints and Fractions, all of one length; nothing looks past z^N.

def _series_mul(s, t) -> list:
    """Truncated Cauchy product, summed in integers over the product of
    the factors' common denominators; an integral coefficient is an int."""
    ds = lcm(*(c.denominator for c in s))
    dt = lcm(*(c.denominator for c in t))
    a = [c.numerator * (ds // c.denominator) for c in s]
    b = [c.numerator * (dt // c.denominator) for c in t]
    d = ds * dt
    out = []
    for k in range(len(a)):
        acc = sum(a[i] * b[k - i] for i in range(k + 1) if a[i] and b[k - i])
        out.append(acc // d if acc % d == 0 else Fraction(acc, d))
    return out


def _series_pow(s, k: int) -> list:
    """s^k for k >= 0, by binary powering."""
    if k < 0:
        raise ValueError("_series_pow requires k >= 0")
    acc = [1] + [0] * (len(s) - 1)
    while k:
        if k & 1:
            acc = _series_mul(acc, s)
        k >>= 1
        if k:
            s = _series_mul(s, s)
    return acc
