"""Complete (exponential) Bell polynomials Y_n.

Evaluation is ring-generic: the arguments x_1..x_n may be ints,
Fractions, SymPoly, or anything supporting +, *, integer scalars and
** 0 (for the ring one).  Y follows the ascending recurrence

    Y_0 = 1,   Y_{j}(x_1..x_j) = sum_{i=0}^{j-1} C(j-1, i) x_{i+1} Y_{j-1-i}

with the partition-sum formula kept as an independent oracle in module
partition_sum, which only `verify --suite bell` and library callers
load.

The ladder is the one production route, called once per kernel row (on
Columns of ints over k), per lemma-1 row (on SymPoly over Columns) and
per alpha_mu (on BigFix); it reads each binomial row C(j-1, .) from a
small cache and skips the factor C(j-1, 0) = 1.

The paper's point is x_1 = gamma and x_m = c_m zeta(m), with the one
coefficient point_coeff gives; alpha_mu is Y_mu there.
"""

import functools
from math import comb, factorial


@functools.lru_cache(maxsize=32)
def _binomials(j: int) -> tuple:
    """(C(j, 0), ..., C(j, j))."""
    return tuple(comb(j, i) for i in range(j + 1))


def point_coeff(a: int, m: int) -> int:
    """c_m = (m-1)! (a + (-1)^m (a-1)), the factor of zeta(m) in the
    m-th argument of the paper's point (c_1 = 1, the factor of gamma):
    (m-1)! (a'+1 + (-1)^m a') with a' = a-1."""
    return factorial(m - 1) * (a + (-1) ** m * (a - 1))


def bell_ladder(xs) -> list:
    """[Y_0, Y_1, ..., Y_n] for n = len(xs), by the recurrence.

    The terms i = 0 and i = j-1 of Y_j have binomial 1, and the last,
    x_j Y_0, is x_j itself: Y_0 is the ring one, so it is added as it
    is, with no scaling and no product (exact in every ring here, BigFix
    included, whose one is 10^scale).
    """
    xs = list(xs)
    one = xs[0] ** 0 if xs else 1
    ys = [one]
    for j in range(1, len(xs) + 1):
        row = _binomials(j - 1)
        acc = xs[0] if j == 1 else xs[0] * ys[j - 1]  # C(j-1, 0) = 1
        for i in range(1, j - 1):
            acc = acc + row[i] * xs[i] * ys[j - 1 - i]
        if j > 1:  # C(j-1, j-1) x_j Y_0 is x_j: Y_0 is the ring one
            acc = acc + xs[j - 1]
        ys.append(acc)
    return ys


def bell_eval(xs):
    """Y_n(x_1..x_n); Y_0 = 1 for an empty argument list."""
    return bell_ladder(xs)[-1]
