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
place a row is built, and int_rows, the one loop over rows, is the one
way in to q_n and D^mu p_{n,mu}: approx reads a single row from it,
table its listed rows, every step-th, over one harmonic table at the
last, and the library values q_at, p_at, q_seq and p_seq single rows or
ranges of rows (module values); the integrality and recurrences suites
check its ints.  Only lemma 1 calls `row` itself, for the weights and
Columns on which it runs its own ladder.  No part of the kernel forms a
Fraction.
"""

from itertools import repeat
from math import factorial
from operator import add, mul

from .bell import bell_ladder
from .common import lcm_upto


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


def weights(a: int, n: int) -> list:
    """[C(n,k)^a k! for k = 0..n].

    Each weight follows from the one before by the exact ratio
    w_k = w_{k-1} (n-k+1)^a / k^{a-1}, one product and one division by
    small integers, never a power of the large C(n,k)."""
    w = 1
    ws = [w]
    am1 = a - 1
    for k in range(1, n + 1):
        w = w * (n - k + 1) ** a // k ** am1
        ws.append(w)
    return ws


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


def check_mu(a: int, mu: int) -> None:
    """ValueError unless 1 <= mu <= a-1, the mu of a p_{n,mu}."""
    if not 1 <= mu <= a - 1:
        raise ValueError("require 1 <= mu <= a-1")


def row(a: int, n: int, halves):
    """(ws, cols, q_n, [D^mu p_{n,mu}, mu = 1..mu_max]) for row n, with
    halves = harmonic_halves(a, n_hi, mu_max) for some n_hi >= n: the
    weights C(n,k)^a k! and the Columns of D^m r_m(k) over k = 0..n, and
    the row's sums as ints, one Bell ladder over the Columns."""
    _, hi, lo = halves
    ws = weights(a, n)
    cols = [Column(map(add, h[n::-1], g[:n + 1])) for h, g in zip(hi, lo)]
    dp = [sum(map(mul, ws, y)) for y in bell_ladder(cols)[1:]] if cols else []
    return ws, cols, sum(ws), dp


def int_rows(a: int, n_lo: int, n_hi: int, mu_max: int, step: int = 1):
    """(D, q, dp) for rows n = n_lo, n_lo + step, ... up to n_hi, all
    ints: D = lcm(1..n_hi) (1 when mu_max or n_hi is 0), q[i] = q_n and
    dp[mu-1][i] = D^mu p_{n,mu} for the i-th row n: one kernel row each,
    over one harmonic_halves table."""
    if a < 2:
        raise ValueError("a must be at least 2")
    if not 0 <= n_lo <= n_hi:
        raise ValueError("require 0 <= n_lo <= n_hi")
    if mu_max < 0:
        raise ValueError("mu_max must be nonnegative")
    if step < 1:
        raise ValueError("step must be positive")
    halves = harmonic_halves(a, n_hi, mu_max)
    q = []
    dp = [[] for _ in range(mu_max)]
    for n in range(n_lo, n_hi + 1, step):
        _, _, qn, vs = row(a, n, halves)
        q.append(qn)
        for col, v in zip(dp, vs):
            col.append(v)
    return halves[0], q, dp
