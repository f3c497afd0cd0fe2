"""Pure-Python sequence-summation kernel.

Computes q_n = sum C(n,k)^a k! and the scaled numerators
p_{n,mu} * D^mu for a range of rows n, where D is divisible by every
integer up to the last row.  Each row is one O(n) sum over k, so a single
value costs one row, not a table.  Scaling every harmonic number
H_k^{(m)} by D^m keeps the whole inner loop in integer arithmetic: the
Bell polynomial Y_mu is isobaric of weight mu, so feeding it r_m * D^m
yields exactly D^mu * Y_mu(r_1..r_mu).  This is also a constructive
proof of the integrality statement D_n^mu p_{n,mu} in Z.
"""

from __future__ import annotations

from math import factorial

from .bell import bell_ladder


def scaled_harmonics(n_max: int, m_max: int, d: int) -> list[list[int]]:
    """sh[m-1][i] = H_i^{(m)} * d^m, integers, for i <= n_max, m <= m_max."""
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


def seq_rows(a: int, n_lo: int, n_hi: int, mu_max: int, d: int):
    """(q, pnum) for rows n = n_lo..n_hi: q[i] = q_{n_lo+i} and
    pnum[mu-1][i] = p_{n_lo+i,mu} * d^mu.

    d must be divisible by every integer in 1..n_hi (the caller passes
    lcm(1..n_hi), or 1 when mu_max = 0).
    """
    sh = scaled_harmonics(n_hi, mu_max, d) if mu_max else []
    fac = [factorial(m - 1) for m in range(1, mu_max + 1)]
    sign = [(-1) ** m for m in range(1, mu_max + 1)]
    am1 = a - 1
    q = []
    pnum = [[] for _ in range(mu_max)]
    for n in range(n_lo, n_hi + 1):
        qn = 0
        acc = [0] * mu_max
        c = 1  # C(n, k), updated multiplicatively
        kf = 1  # k!
        for k in range(n + 1):
            if k:
                c = c * (n - k + 1) // k
                kf *= k
            w = c ** a * kf
            qn += w
            if mu_max:
                rs = [fac[m] * (a * sh[m][n - k] + sign[m] * am1 * sh[m][k])
                      for m in range(mu_max)]
                ys = bell_ladder(rs)
                for mu in range(mu_max):
                    acc[mu] += w * ys[mu + 1]
        q.append(qn)
        for mu in range(mu_max):
            pnum[mu].append(acc[mu])
    return q, pnum
