"""The sequence-summation kernel: rows of q_n and p_{n,mu}.

_pure does the integer-level work over a range of rows; this module
picks the harmonic scale d = lcm(1..n_hi) and adds the Fraction wrapping.
"""

from __future__ import annotations

from fractions import Fraction

from . import _pure
from .numerics import lcm_upto


def backend_name() -> str:
    """Name of the kernel implementation; always "pure"."""
    return "pure"


def raw_rows(a: int, n_lo: int, n_hi: int, mu_max: int):
    """Integer-level kernel output for rows n_lo..n_hi: (q, pnum, d).

    q[i] = q_{n_lo+i} exactly; pnum[mu-1][i] = p_{n_lo+i,mu} * d^mu with
    d = lcm(1..n_hi).
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if not 0 <= n_lo <= n_hi:
        raise ValueError("require 0 <= n_lo <= n_hi")
    if mu_max < 0:
        raise ValueError("mu_max must be nonnegative")
    d = lcm_upto(n_hi) if (mu_max and n_hi >= 1) else 1
    q, pnum = _pure.seq_rows(a, n_lo, n_hi, mu_max, d)
    return q, pnum, d


def seq_rows(a: int, n_lo: int, n_hi: int, mu_max: int):
    """(q, p) for rows n_lo..n_hi: q[i] = q_{n_lo+i} (int) and
    p[mu-1][i] = p_{n_lo+i,mu} (Fraction)."""
    q, pnum, d = raw_rows(a, n_lo, n_hi, mu_max)
    p = [[Fraction(v, d ** (mu + 1)) for v in row]
         for mu, row in enumerate(pnum)]
    return q, p


def seq_tables(a: int, n_max: int, mu_max: int):
    """(q, p) with q[n] = q_n (int) and p[mu-1][n] = p_{n,mu} (Fraction)
    for every n in 0..n_max."""
    return seq_rows(a, 0, n_max, mu_max)
