"""Lemma 1 on integer coefficients: the scaled F_{n,nu} sums that
sequences.lemma1_residual checks, as SymPolys over Z[G, Z_2, ..., Z_M].

With D = lcm(1..n), G = D g and Z_m = D^m z_m, the m-th derivative of
the summand exponent scales to D^m f^{(m)}(k) = c_m Z_m + D^m r_m(k),
which has integer coefficients.  Y_nu is isobaric of weight nu, so one
Bell ladder on these values gives D^nu Y_nu(f'(k), ..., f^{(nu)}(k)) for
every nu at once, and the alpha_mu, whose coefficients are integers,
read the same in G, Z_m as in g, z_m up to the factor D^mu.  Only
lemma1_residual imports this module, so the commands that never check
lemma 1 never compile it.
"""

from __future__ import annotations

import functools

from . import kernel, sequences
from .bell import bell_ladder
from .numerics import factorial, lcm_upto
from .symring import SymPoly


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
    f = [SymPoly.zero(mu_max)] * a
    for k, w in kernel.weights(a, n):
        xs = [SymPoly(mu_max, {
                  unit[m]: sequences._deriv_coeff(a, m + 1),
                  zero: factorial(m) * (a * sh[m][n - k]
                                        - (-1) ** m * (a - 1) * sh[m][k])})
              for m in range(mu_max)]
        for nu, y in enumerate(bell_ladder(xs)):
            f[nu] = f[nu] + w * y
    return d, q[0], [d ** mu * pm[0] for mu, pm in enumerate(p, 1)], f
