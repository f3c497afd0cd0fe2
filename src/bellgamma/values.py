"""Exact values of q_n and p_{n,mu} for library callers.

q_n = sum_k C(n,k)^a k! and p_{n,mu} = sum_k C(n,k)^a k! Y_mu(r_1(k),...,
r_mu(k)), as ints and Fractions: single values (q_at, p_at) and prefix
tables (q_seq, p_seq).  Each comes straight from one kernel.int_rows
call, and nothing is cached between calls.  A single value is one
kernel row, an O(n) sum over k; q_seq and p_seq are rows 0..n_max,
O(n_max^2), and q_seq builds q alone.  No command loads this module:
approx and table read their rows from kernel.int_rows as integer pairs
(module sequences), so they never compile these routes or load
fractions.
"""

from fractions import Fraction

from . import kernel


def q_seq(a: int, n_max: int) -> list:
    """q_0..q_{n_max} as exact integers: the kernel rows of q alone."""
    return kernel.int_rows(a, 0, n_max, 0)[1]


def p_seq(a: int, mu: int, n_max: int) -> list:
    """p_{0,mu}..p_{n_max,mu} as exact Fractions, 1 <= mu <= a-1: the
    kernel rows of q and D^nu p_{n,nu}, nu = 1..mu, of which the last
    is returned over D^mu."""
    kernel.check_mu(a, mu)
    d, _, dp = kernel.int_rows(a, 0, n_max, mu)
    dm = d ** mu
    return [Fraction(v, dm) for v in dp[mu - 1]]


def q_at(a: int, n: int):
    """Single value q_n: one O(n) kernel row."""
    return kernel.int_rows(a, n, n, 0)[1][0]


def p_at(a: int, mu: int, n: int):
    """Single value p_{n,mu} as a Fraction: one O(n) kernel row."""
    kernel.check_mu(a, mu)
    d, _, dp = kernel.int_rows(a, n, n, mu)
    return Fraction(dp[mu - 1][0], d ** mu)
