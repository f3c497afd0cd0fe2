"""Reference routes that the tests compare the package against.

Fraction-valued oracles for the lemma-1 sums: harmonic numbers
H_k^{(m)}, the harmonic parts r_m(k) of the summand exponent's
derivatives, and F_{n,mu} built over Fraction in the g/z ring, an
independent route to what module lemma1 computes in integers.  And
exp and log1p of truncated power series, coefficient lists
[c_0, ..., c_N], the oracles of the log expansion in asymptotics.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from bellgamma import kernel, lemma1
from bellgamma.bell import bell_ladder
from bellgamma.bernoulli import _series_recip
from bellgamma.numerics import Rat, factorial
from bellgamma.symring import SymPoly


class HarmonicCache:
    """Grow-on-demand table of generalized harmonic numbers H_k^{(m)}."""

    def __init__(self) -> None:
        self._rows: dict[int, list[Fraction]] = {}

    def get(self, k: int, m: int) -> Rat:
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


def harmonic(k: int, m: int) -> Rat:
    """H_k^{(m)} = sum_{i=1}^k 1/i^m, with H_0^{(m)} = 0."""
    return _HARMONIC.get(k, m)


def r_val(a: int, n: int, k: int, m: int) -> Rat:
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
    for k, w in kernel.weights(a, n):
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
