"""Reference routes that the tests compare the package against, and
the Fraction views of package values that only tests read.

Fraction-valued oracles for the lemma-1 sums: harmonic numbers
H_k^{(m)}, the harmonic parts r_m(k) of the summand exponent's
derivatives, and F_{n,mu} built over Fraction in the g/z ring, an
independent route to what module lemma1 computes in integers.  A
Horner evaluation of ascending coefficient lists, such as those of
gen_bernoulli, the coefficients of B_n^{(m)}(x) from the integer row of
module bernoulli.  The rising factorial poch, and the saddle-point
coefficients c_m and b_m(a) over Fraction with it, the oracle of the
integer pairs of module exponents.  And the
reciprocal, exp and log1p of truncated power
series, coefficient lists [c_0, ..., c_N]: the reciprocal is the
second route to the generalized Bernoulli and csc-power coefficients,
and exp and log1p are the oracles of the log expansion in asymptotics.
The forward generation of a linear recurrence over Fraction, one
division by the leading coefficient per step, is the oracle of the
integer forward step of module recurrences; recurrence_generate and
aptekarev_seq read that step and Aptekarev's integer sums as
Fractions, and common_den reads such values back as ints over one
denominator.  fraction_of reads a BigFix as the exact Fraction it
stands for.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from bellgamma import kernel, lemma1
from bellgamma.bell import bell_ladder
from bellgamma.bernoulli import _M_LIMIT, _N_LIMIT, _core_row
from bellgamma.common import factorial
from bellgamma.recurrences import _aptekarev_ints, _grow, _initial_ints
from bellgamma.symring import SymPoly


def fraction_of(x) -> Fraction:
    """The exact value of the BigFix x."""
    return Fraction(x.mantissa, 10 ** x.scale)


class HarmonicCache:
    """Grow-on-demand table of generalized harmonic numbers H_k^{(m)}."""

    def __init__(self) -> None:
        self._rows: dict[int, list[Fraction]] = {}

    def get(self, k: int, m: int) -> Fraction:
        if k < 0:
            raise ValueError("harmonic index must be nonnegative")
        if m < 1:
            raise ValueError("harmonic order must be positive")
        row = self._rows.setdefault(m, [Fraction(0)])
        while len(row) <= k:
            i = len(row)
            row.append(row[-1] + Fraction(1, i ** m))
        return row[k]


_HARMONIC = HarmonicCache()


def harmonic(k: int, m: int) -> Fraction:
    """H_k^{(m)} = sum_{i=1}^k 1/i^m, with H_0^{(m)} = 0."""
    return _HARMONIC.get(k, m)


def r_val(a: int, n: int, k: int, m: int) -> Fraction:
    """r_m(k) = (m-1)! (a H_{n-k}^{(m)} + (-1)^m (a-1) H_k^{(m)})."""
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    if m < 1:
        raise ValueError("require m >= 1")
    return factorial(m - 1) * (a * harmonic(n - k, m)
                               + (-1) ** m * (a - 1) * harmonic(k, m))


def f_deriv_sym(a: int, n: int, k: int, m: int) -> SymPoly:
    """m-th derivative of the summand exponent at k, over the g/z ring.

    f'(k) = -g + a H_{n-k} - (a-1) H_k; for m >= 2 the digamma
    derivatives contribute (m-1)!((-1)^{m-1}(a-1) - a) z_m + r_m(k).
    The ring uses m_index = a-1 so values for all m combine directly.
    """
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    if not 1 <= m <= a - 1:
        raise ValueError("require 1 <= m <= a-1")
    mi = a - 1
    if m == 1:
        num = a * harmonic(n - k, 1) - (a - 1) * harmonic(k, 1)
        return SymPoly.const(num, mi) - SymPoly.gamma(mi)
    # read from lemma1 at each call, so that both routes use one c_m
    return (lemma1._deriv_coeff(a, m) * SymPoly.zeta(m, mi)
            + SymPoly.const(r_val(a, n, k, m), mi))


@functools.lru_cache(maxsize=32)
def _f_sym_all(a: int, n: int):
    """F_{n,mu} for every mu = 0..a-1 in one pass over k."""
    mu_max = a - 1
    mi = max(mu_max, 1)
    acc = [SymPoly.zero(mi) for _ in range(mu_max + 1)]
    for k, w in enumerate(kernel.weights(a, n)):
        if mu_max:
            xs = [f_deriv_sym(a, n, k, m) for m in range(1, mu_max + 1)]
            ys = bell_ladder(xs)
        else:
            ys = [SymPoly.one(mi)]
        for mu in range(mu_max + 1):
            acc[mu] = acc[mu] + w * ys[mu]
    return tuple(acc)


def F_sym(a: int, mu: int, n: int) -> SymPoly:
    """F_{n,mu} = sum_k k! C(n,k)^a Y_mu(f'(k),...,f^{(mu)}(k)) exactly."""
    if not 0 <= mu <= a - 1:
        raise ValueError("require 0 <= mu <= a-1")
    return _f_sym_all(a, n)[mu]


def horner(cs, x):
    """sum_i cs[i] x^i for the ascending coefficients cs: exact for int
    and Fraction x."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def gen_bernoulli(n: int, m: int) -> list:
    """The ascending coefficients of B_n^{(m)}(x): an int where the
    coefficient is integral, a Fraction otherwise.

    (z/(e^z-1))^m = (sum z^j/(j+1)!)^{-m}; with its coefficients c_k,
    B_n^{(m)}(x) = n! sum_k c_k x^{n-k}/(n-k)!.
    """
    if n < 0 or m < 1:
        raise ValueError("gen_bernoulli requires n >= 0, m >= 1")
    if n > _N_LIMIT or m > _M_LIMIT:
        raise ValueError("gen_bernoulli limited to n <= %d, m <= %d"
                         % (_N_LIMIT, _M_LIMIT))
    d, row = _core_row(m, n)
    nfac = factorial(n)
    coeffs = [Fraction(row[n - i] * (nfac // factorial(i)), d)
              for i in range(n + 1)]
    return [c.numerator if c.denominator == 1 else c for c in coeffs]


def _series_recip(s) -> list:
    """The multiplicative inverse, as Fractions; requires s(0) != 0."""
    if s[0] == 0:
        raise ValueError("_series_recip requires s(0) != 0")
    out = [1 / Fraction(s[0])]
    for i in range(1, len(s)):
        acc = sum((s[j] * out[i - j] for j in range(1, i + 1) if s[j]),
                  Fraction(0))
        out.append(-acc / s[0])
    return out


def ps_exp(s: list) -> list:
    """exp(s) for s(0) = 0, via (exp s)' = (exp s) * s'."""
    if s[0] != 0:
        raise ValueError("ps_exp requires s(0) = 0")
    out = [Fraction(1)]
    for i in range(1, len(s)):
        # i * out[i] = sum_{j=1..i} j * s[j] * out[i-j]
        acc = sum((j * s[j] * out[i - j] for j in range(1, i + 1) if s[j]),
                  Fraction(0))
        out.append(acc / i)
    return out


def ps_log1p(s: list) -> list:
    """log(1 + s) for s(0) = 0, by integrating s'/(1+s)."""
    if s[0] != 0:
        raise ValueError("ps_log1p requires s(0) = 0")
    inv = _series_recip([Fraction(1)] + list(s[1:]))
    out = [Fraction(0)]
    for i in range(1, len(s)):
        # the coefficient of z^{i-1} in s' * inv, integrated
        acc = sum((j * s[j] * inv[i - j] for j in range(1, i + 1) if s[j]),
                  Fraction(0))
        out.append(acc / i)
    return out


def poch(x, m: int):
    """Rising factorial x(x+1)...(x+m-1), with poch(x, 0) = 1.

    Works for Fraction, int, or float x; the result type follows x.
    """
    if m < 0:
        raise ValueError("poch requires m >= 0")
    r = x ** 0
    for i in range(m):
        r *= x + i
    return r


def lagrange_fraction(a: int, m: int) -> Fraction:
    """c_m = (2 - m/a)_{m-1} / m!, the series-reversion coefficient."""
    return poch(Fraction(2) - Fraction(m, a), m - 1) / factorial(m)


def bm_fraction(a: int) -> list:
    """b_1(a)..b_a(a): coefficients of -a log(1 + sum_{m<=a} (2-(m+1)/a)_m
    z^m/(m+1)!) minus sum_{m<=a} c_m z^m, over Fraction."""
    s = [Fraction(0)] * (a + 1)
    for m in range(1, a + 1):
        s[m] = poch(Fraction(2) - Fraction(m + 1, a), m) / factorial(m + 1)
    # L = log(1 + s) from L'(1 + s) = s':
    # L_i = s_i - (1/i) sum_{j<i} j L_j s_{i-j}
    log = [Fraction(0)] * (a + 1)
    for i in range(1, a + 1):
        acc = sum((j * log[j] * s[i - j] for j in range(1, i)), Fraction(0))
        log[i] = s[i] - acc / i
    return [-a * log[m] - lagrange_fraction(a, m) for m in range(1, a + 1)]


def recurrence_generate_fraction(spec, n_max: int) -> list:
    """y_0..y_{n_max} of a RecurrenceSpec grown forward over Fraction:
    y_{n+offsets[-1]} = (inhom(n) - sum_i c_i(n) y_{n+offsets[i]}) / c_lead(n),
    the route that the integer step of recurrence_generate replaced."""
    ys = [Fraction(*v) if type(v) is tuple else Fraction(v)
          for v in spec.initial]
    n = spec.n_min
    while len(ys) <= n_max:
        lead = spec.coeffs[-1](n)
        if lead == 0:
            raise ArithmeticError("leading coefficient vanishes at n=%d" % n)
        acc = Fraction(0)
        if spec.inhom is not None:
            num, den = spec.inhom
            dv = den(n)
            if dv == 0:
                raise ArithmeticError(
                    "inhomogeneous denominator vanishes at n=%d" % n)
            acc = Fraction(num(n), dv)
        for off, c in zip(spec.offsets[:-1], spec.coeffs[:-1]):
            acc -= c(n) * ys[n + off]
        ys.append(acc / lead)
        n += 1
    return ys[:n_max + 1]


def common_den(seq) -> tuple[list[int], int]:
    """(ys, den): the exact values seq (ints and Fractions) as ints ys
    over their least common denominator den, as recurrence_check reads
    a sequence."""
    den = math.lcm(*(Fraction(v).denominator for v in seq))
    return [int(v * den) for v in seq], den


def recurrence_generate(spec, n_max: int) -> list:
    """y_0..y_{n_max} of a RecurrenceSpec as Fractions, grown forward
    from spec.initial in integers by the package's step
    (recurrences._grow)."""
    (ys,), e = _initial_ints([spec])
    return list(map(Fraction, *_grow(spec, ys, e, n_max)))


def aptekarev_seq(n_max: int):
    """(q~, p~) explicit sums: q~_n = sum C(n,k)^2 (n+k)! (ints) and the
    matching numerator with harmonic weight H_{n+k} + 2H_{n-k} - 2H_k
    (Fractions), from recurrences._aptekarev_ints."""
    d, q, p = _aptekarev_ints(n_max)
    return q, [Fraction(v, d) for v in p]
