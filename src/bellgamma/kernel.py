"""The sequence-summation kernel: rows of q_n and p_{n,mu}.

Computes q_n = sum C(n,k)^a k! and p_{n,mu} for a range of rows n.  Each
row is one O(n) sum over k, so a single value costs one row, not a
table.  The weights w_k = C(n,k)^a k! advance by the exact ratio
(n-k+1)^a / k^{a-1}, so no power of a large binomial is ever formed, and
a q-only table is a plain sum of them.  The harmonic numbers
H_k^{(m)} are scaled by D^m, with D = lcm(1..n_hi) divisible by every
integer up to the last row, which keeps the whole row in integer
arithmetic: the two halves of D^m r_m(k), one in H_{n-k} and one in H_k,
are tabulated once per call, and the Bell polynomial Y_mu is isobaric of
weight mu, so feeding it r_m * D^m yields exactly D^mu * Y_mu(r_1..r_mu).
A row is one Bell ladder over Columns, the arguments' values over k =
0..n, whose results the weights sum.  This is also a constructive proof
of the integrality statement D_n^mu p_{n,mu} in Z.  `row` is the one
place a row is built: seq_rows forms its Fractions, and lemma 1 takes
its q_n and D^mu p_{n,mu} and runs its own ladder on its weights and
Columns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import factorial
from operator import add, mul

from .bell import bell_ladder
from .numerics import lcm_upto


def backend_name() -> str:
    """Name of the kernel implementation; always "pure"."""
    return "pure"


class Column(tuple):
    """Ints over k as one Bell-ladder argument: elementwise + and *, int
    scalars on either side, ** 0 a column of ones.  A tuple, so that
    `c += x` (as in SymPoly's ring operations) never extends it in place."""

    __slots__ = ()

    def __add__(self, other):
        return Column(map(add, self, repeat(other) if type(other) is int
                          else other))

    def __mul__(self, other):
        return Column(map(mul, self, repeat(other) if type(other) is int
                          else other))

    def __pow__(self, k: int):
        return Column(map(pow, self, repeat(k)))

    __radd__ = __add__
    __rmul__ = __mul__


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


def harmonic_halves(a: int, n_hi: int, mu_max: int):
    """(D, hi, lo) with D = lcm(1..n_hi) (1 when mu_max or n_hi is 0) and
    D^m r_m(k) = hi[m-1][n-k] + lo[m-1][k] for every row n <= n_hi,
    k <= n and m <= mu_max, where
    r_m(k) = (m-1)! (a H_{n-k}^{(m)} + (-1)^m (a-1) H_k^{(m)})."""
    d = lcm_upto(n_hi) if (mu_max and n_hi >= 1) else 1
    hi, lo = [], []
    for m, row in enumerate(scaled_harmonics(n_hi, mu_max, d), 1):
        c = factorial(m - 1)
        hi.append([c * a * v for v in row])
        c *= (-1) ** m * (a - 1)
        lo.append([c * v for v in row])
    return d, hi, lo


def r_columns(hi, lo, n: int) -> list:
    """Row n's Columns [D^m r_m(k), k = 0..n], m = 1.., from the halves."""
    return [Column(map(add, h[n::-1], g[:n + 1])) for h, g in zip(hi, lo)]


def row(a: int, n: int, halves):
    """(ws, cols, q_n, [D^mu p_{n,mu}, mu = 1..mu_max]) for row n, with
    halves = harmonic_halves(a, n_hi, mu_max) for some n_hi >= n: the
    weights C(n,k)^a k! and the Columns of D^m r_m(k) over k = 0..n, and
    the row's sums as ints, one Bell ladder over the Columns."""
    _, hi, lo = halves
    ws = [w for _, w in weights(a, n)]
    cols = r_columns(hi, lo, n)
    dp = [sum(map(mul, ws, y)) for y in bell_ladder(cols)[1:]] if cols else []
    return ws, cols, sum(ws), dp


def seq_rows(a: int, n_lo: int, n_hi: int, mu_max: int):
    """(q, p) for rows n_lo..n_hi: q[i] = q_{n_lo+i} (int) and
    p[mu-1][i] = p_{n_lo+i,mu} (Fraction): one kernel row each."""
    if a < 2:
        raise ValueError("a must be at least 2")
    if not 0 <= n_lo <= n_hi:
        raise ValueError("require 0 <= n_lo <= n_hi")
    if mu_max < 0:
        raise ValueError("mu_max must be nonnegative")
    halves = harmonic_halves(a, n_hi, mu_max)
    d = halves[0]
    q = []
    p = [[] for _ in range(mu_max)]
    for n in range(n_lo, n_hi + 1):
        _, _, qn, dp = row(a, n, halves)
        q.append(qn)
        for mu, (pm, v) in enumerate(zip(p, dp), 1):
            pm.append(Fraction(v, d ** mu))
    return q, p


def seq_tables(a: int, n_max: int, mu_max: int):
    """(q, p) with q[n] = q_n (int) and p[mu-1][n] = p_{n,mu} (Fraction)
    for every n in 0..n_max.

    sequences.q_seq/p_seq and the recurrences and integrality suites of
    `verify` build their tables here, one call per a."""
    return seq_rows(a, 0, n_max, mu_max)
