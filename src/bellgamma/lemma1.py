"""Lemma 1 on integer coefficients: the ring Z[G, Z_2, ..., Z_M] and the
scaled F_{n,nu} sums that sequences.lemma1_residual checks.

With D = lcm(1..n), G = D g and Z_m = D^m z_m, the m-th derivative of
the summand exponent scales to D^m f^{(m)}(k) = c_m Z_m + D^m r_m(k),
which has integer coefficients.  Y_nu is isobaric of weight nu, so one
Bell ladder on these values gives D^nu Y_nu(f'(k), ..., f^{(nu)}(k)) for
every nu at once.  Only lemma1_residual imports this module, so the
commands that never check lemma 1 never compile it.
"""

from __future__ import annotations

import functools
from operator import add

from . import kernel, sequences
from .bell import bell_ladder
from .numerics import factorial, lcm_upto
from .symring import alpha_poly


class ZPoly(dict):
    """Sparse polynomial over Z in the symbols of SymPoly: a dict from
    exponent tuples to ints, with the ring operations bell_ladder uses
    (+, *, integer scalars and ** 0).  Zero coefficients are kept;
    SymPoly(m_index, zpoly) drops them.
    """

    __slots__ = ()

    def __add__(self, other):
        out = ZPoly(self)
        for e, c in other.items():
            out[e] = out.get(e, 0) + c
        return out

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            return ZPoly({e: other * c for e, c in self.items()})
        out = ZPoly()
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k:
            raise ValueError("ZPoly supports only ** 0")
        return ZPoly({(0,) * len(next(iter(self))): 1})


@functools.lru_cache(maxsize=32)
def scaled_row(a: int, n: int):
    """(D, q_n, [D^mu p_{n,mu}], [D^nu F_{n,nu}]) for mu, nu up to a-1,
    with F over Z[G, Z_2..]: one kernel row serves every mu, and one
    Bell ladder per k every nu."""
    mu_max = a - 1
    q, p = kernel.seq_rows(a, n, n, mu_max)
    d = lcm_upto(n)
    sh = kernel.scaled_harmonics(n, mu_max, d)
    zero = (0,) * mu_max
    unit = [zero[:m] + (1,) + zero[m + 1:] for m in range(mu_max)]
    f = [ZPoly() for _ in range(a)]
    for k, w in kernel.weights(a, n):
        xs = [ZPoly({unit[m]: sequences._deriv_coeff(a, m + 1),
                     zero: factorial(m) * (a * sh[m][n - k]
                                           - (-1) ** m * (a - 1) * sh[m][k])})
              for m in range(mu_max)]
        for nu, y in enumerate(bell_ladder(xs)):
            f[nu] = f[nu] + w * y
    return d, q[0], [d ** mu * pm[0] for mu, pm in enumerate(p, 1)], f


@functools.lru_cache(maxsize=8)
def alpha_scaled(a: int) -> list:
    """alpha_0..alpha_{a-1} over Z[G, Z_2..]: Bell values at integer
    multiples of the symbols, so every coefficient is an integer."""
    return [ZPoly({e: c.numerator for e, c in alpha_poly(a, j).terms.items()})
            for j in range(a)]
