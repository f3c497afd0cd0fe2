"""The partition-sum formula for Y_n, the Bell ladder's oracle, and the
`verify --suite bell` checks.

    Y_n = sum over partitions (k_1..k_n), sum j*k_j = n, of
          n!/(k_1!...k_n!) * prod (x_j / j!)^{k_j}.

bell_ladder (module bell) is the one production route to Y_n; this sum
is an independent second route, which suite_bell and the tests compare
it with.  Only that suite and library callers import this module, so no
approx or table request compiles it.
"""

from math import factorial

from .bell import bell_eval
from .common import binom

_PARTITION_LIMIT = 20


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


def suite_bell(args) -> list:
    """The checks of `verify --suite bell`: the ladder against the
    partition sum, the addition theorem and isobaric scaling."""
    import random
    from fractions import Fraction

    rng = random.Random(20250814)
    out = []
    ok = True
    for n in range(0, 9):
        for _ in range(4):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(n)]
            ok = ok and bell_eval(xs) == bell_eval_partitions(xs)
    out.append(("bell ladder vs partition sum, n<=8 random rationals", ok))
    ok = True
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        lhs = bell_eval([a + b for a, b in zip(xs, ys)])
        rhs = sum(binom(n, k) * bell_eval(xs[:k])
                  * bell_eval(ys[:n - k]) for k in range(n + 1))
        ok = ok and lhs == rhs
    out.append(("bell addition theorem, n<=7", ok))
    ok = True
    c = Fraction(3, 7)
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        scaled = [c ** (j + 1) * v for j, v in enumerate(xs)]
        ok = ok and bell_eval(scaled) == c ** n * bell_eval(xs)
    out.append(("bell isobaric scaling, n<=7", ok))
    return out
