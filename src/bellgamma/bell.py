"""Complete (exponential) Bell polynomials Y_n.

Evaluation is ring-generic: the arguments x_1..x_n may be ints,
Fractions, SymPoly, or anything supporting +, *, integer scalars and
** 0 (for the ring one).  Y follows the ascending recurrence

    Y_0 = 1,   Y_{j}(x_1..x_j) = sum_{i=0}^{j-1} C(j-1, i) x_{i+1} Y_{j-1-i}

with the partition-sum formula kept as an independent oracle:

    Y_n = sum over partitions (k_1..k_n), sum j*k_j = n, of
          n!/(k_1!...k_n!) * prod (x_j / j!)^{k_j}.

The ladder is the one production route, called once per kernel row (on
Columns of ints over k), per lemma-1 row (on SymPoly over Columns) and
per alpha_mu (on BigFix); it reads each binomial row C(j-1, .) from a
small cache and skips the factor C(j-1, 0) = 1.
"""

from __future__ import annotations

import functools
from math import comb, factorial

_PARTITION_LIMIT = 20


@functools.lru_cache(maxsize=32)
def _binomials(j: int) -> tuple:
    """(C(j, 0), ..., C(j, j))."""
    return tuple(comb(j, i) for i in range(j + 1))


def bell_ladder(xs) -> list:
    """[Y_0, Y_1, ..., Y_n] for n = len(xs), by the recurrence."""
    xs = list(xs)
    one = xs[0] ** 0 if xs else 1
    ys = [one]
    for j in range(1, len(xs) + 1):
        row = _binomials(j - 1)
        acc = xs[0] * ys[j - 1]  # C(j-1, 0) = 1
        for i in range(1, j):
            acc = acc + row[i] * xs[i] * ys[j - 1 - i]
        ys.append(acc)
    return ys


def bell_eval(xs):
    """Y_n(x_1..x_n); Y_0 = 1 for an empty argument list."""
    return bell_ladder(xs)[-1]


def partitions(n: int):
    """Yield partitions of n as multiplicity tuples (k_1..k_n),
    sum j*k_j = n."""
    ks = [0] * n

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield tuple(ks)
            return
        for j in range(min(largest, remaining), 0, -1):
            ks[j - 1] += 1
            yield from rec(remaining - j, j)
            ks[j - 1] -= 1

    if n == 0:
        yield ()
    else:
        yield from rec(n, n)


def partition_multinomial(k: tuple, n: int) -> int:
    """n! / (prod_j (j!)^{k_j} k_j!), verified to divide exactly."""
    if sum(j * kj for j, kj in enumerate(k, start=1)) != n:
        raise ValueError("multiplicities do not partition n")
    den = 1
    for j, kj in enumerate(k, start=1):
        den *= factorial(j) ** kj * factorial(kj)
    q, r = divmod(factorial(n), den)
    if r:
        raise ArithmeticError("partition multinomial is not an integer")
    return q


def bell_eval_partitions(xs):
    """Y_n by direct summation over partitions (oracle for bell_eval)."""
    xs = list(xs)
    n = len(xs)
    if n > _PARTITION_LIMIT:
        raise ValueError(f"partition sum limited to n <= {_PARTITION_LIMIT}")
    one = xs[0] ** 0 if xs else 1
    total = None
    for part in partitions(n):
        term = partition_multinomial(part, n) * one
        for j, kj in enumerate(part, start=1):
            if kj:
                term = term * xs[j - 1] ** kj
        total = term if total is None else total + term
    return total if total is not None else one
