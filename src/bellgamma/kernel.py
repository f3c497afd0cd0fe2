"""The sequence-summation kernel: rows of q_n and p_{n,mu}.

Computes q_n = sum C(n,k)^a k! and p_{n,mu} for a range of rows n.  Each
row is one O(n) sum over k, so a single value costs one row, not a
table.  The weights w_k = C(n,k)^a k! advance by the exact ratio
(n-k+1)^a / k^{a-1}, so no power of a large binomial is ever formed, and
a q-only table is a plain sum of them.  The harmonic numbers
H_k^{(m)} are scaled by D^m, with D = lcm(1..n_hi) divisible by every
integer up to the last row, which keeps the whole inner loop in integer
arithmetic: the two halves of D^m r_m(k), one in H_{n-k} and one in H_k,
are tabulated once per call, and the Bell polynomial Y_mu is isobaric of
weight mu, so feeding it r_m * D^m yields exactly D^mu * Y_mu(r_1..r_mu).
This is also a constructive proof of the integrality statement
D_n^mu p_{n,mu} in Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .bell import bell_ladder
from .numerics import lcm_upto


def backend_name() -> str:
    """Name of the kernel implementation; always "pure"."""
    return "pure"


def weights(a: int, n: int):
    """Yield (k, C(n,k)^a k!) for k = 0..n.

    Each weight follows from the one before by the exact ratio
    w_k = w_{k-1} (n-k+1)^a / k^{a-1}, one product and one division by
    small integers, never a power of the large C(n,k)."""
    w = 1
    am1 = a - 1
    yield 0, w
    for k in range(1, n + 1):
        w = w * (n - k + 1) ** a // k ** am1
        yield k, w


def scaled_harmonics(n_max: int, m_max: int, d: int) -> list[list[int]]:
    """sh[m-1][i] = H_i^{(m)} * d^m, integers, for i <= n_max, m <= m_max.

    d must be divisible by every integer in 1..n_max.
    """
    out = []
    for m in range(1, m_max + 1):
        dm = d ** m
        row = [0] * (n_max + 1)
        acc = 0
        for i in range(1, n_max + 1):
            acc += dm // i ** m  # exact: i^m divides d^m
            row[i] = acc
        out.append(row)
    return out


def seq_rows(a: int, n_lo: int, n_hi: int, mu_max: int):
    """(q, p) for rows n_lo..n_hi: q[i] = q_{n_lo+i} (int) and
    p[mu-1][i] = p_{n_lo+i,mu} (Fraction)."""
    if a < 2:
        raise ValueError("a must be at least 2")
    if not 0 <= n_lo <= n_hi:
        raise ValueError("require 0 <= n_lo <= n_hi")
    if mu_max < 0:
        raise ValueError("mu_max must be nonnegative")
    d = lcm_upto(n_hi) if (mu_max and n_hi >= 1) else 1
    # D^m r_m(k) = hi[m-1][n-k] + lo[m-1][k], both halves once per call
    hi, lo = [], []
    for m, row in enumerate(scaled_harmonics(n_hi, mu_max, d), 1):
        c = factorial(m - 1)
        hi.append([c * a * v for v in row])
        c *= (-1) ** m * (a - 1)
        lo.append([c * v for v in row])
    dens = [d ** mu for mu in range(1, mu_max + 1)]
    q = []
    p = [[] for _ in range(mu_max)]
    for n in range(n_lo, n_hi + 1):
        qn = 0
        acc = [0] * mu_max
        for k, w in weights(a, n):
            qn += w
            if mu_max:
                ys = bell_ladder([h[n - k] + g[k] for h, g in zip(hi, lo)])
                for mu in range(mu_max):
                    acc[mu] += w * ys[mu + 1]
        q.append(qn)
        for mu in range(mu_max):
            p[mu].append(Fraction(acc[mu], dens[mu]))
    return q, p


def seq_tables(a: int, n_max: int, mu_max: int):
    """(q, p) with q[n] = q_n (int) and p[mu-1][n] = p_{n,mu} (Fraction)
    for every n in 0..n_max.

    sequences.q_seq/p_seq and the recurrences and integrality suites of
    `verify` build their tables here, one call per a."""
    return seq_rows(a, 0, n_max, mu_max)
