"""Complete Bell polynomials: recurrence ladder vs partition-sum oracle."""

import random
from fractions import Fraction

import pytest

from bellgamma.bell import bell_eval, bell_ladder
from bellgamma.common import binom
from bellgamma.partition_sum import (
    bell_eval_partitions,
    partition_multinomial,
    partitions,
)


def rand_args(rng, n):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            for _ in range(n)]


def test_ladder_base_cases():
    assert bell_ladder([]) == [1]
    xs = [Fraction(5)]
    assert bell_ladder(xs) == [1, 5]


def test_explicit_expansions():
    # Y_2 .. Y_5 written out monomial by monomial.
    rng = random.Random(11)
    for _ in range(25):
        x1, x2, x3, x4, x5 = rand_args(rng, 5)
        ys = bell_ladder([x1, x2, x3, x4, x5])
        assert ys[2] == x1**2 + x2
        assert ys[3] == x1**3 + 3 * x1 * x2 + x3
        assert ys[4] == x1**4 + 6 * x1**2 * x2 + 4 * x1 * x3 + 3 * x2**2 + x4
        assert ys[5] == (x1**5 + 10 * x1**3 * x2 + 15 * x1 * x2**2
                         + 10 * x1**2 * x3 + 10 * x2 * x3 + 5 * x1 * x4 + x5)


def test_ladder_matches_partition_sum():
    rng = random.Random(20250814)
    for n in range(0, 9):
        for _ in range(6):
            xs = rand_args(rng, n)
            assert bell_ladder(xs)[n] == bell_eval_partitions(xs)
            assert bell_eval(xs) == bell_ladder(xs)[n]


def test_addition_theorem():
    # Y_n(x + y) = sum_k C(n,k) Y_k(x) Y_{n-k}(y)
    rng = random.Random(314)
    for n in range(0, 8):
        for _ in range(4):
            xs = rand_args(rng, n)
            ys = rand_args(rng, n)
            zs = [x + y for x, y in zip(xs, ys)]
            yx = bell_ladder(xs)
            yy = bell_ladder(ys)
            total = sum(binom(n, k) * yx[k] * yy[n - k] for k in range(n + 1))
            assert bell_ladder(zs)[n] == total


def test_isobaric_scaling():
    # Y_n(c x_1, c^2 x_2, ...) = c^n Y_n(x): every monomial has weight n.
    rng = random.Random(99)
    c = Fraction(3, 7)
    for n in range(0, 9):
        xs = rand_args(rng, n)
        scaled = [c ** (j + 1) * xs[j] for j in range(n)]
        assert bell_eval(scaled) == c ** n * bell_eval(xs)


def test_integer_closure():
    # Integer arguments give integer values.
    rng = random.Random(7)
    for _ in range(10):
        xs = [rng.randint(-5, 5) for _ in range(7)]
        for y in bell_ladder([Fraction(x) for x in xs]):
            assert y.denominator == 1


def test_exponential_moments():
    # All x_j = 1 gives the Bell numbers 1, 1, 2, 5, 15, 52, 203, 877.
    ys = bell_ladder([Fraction(1)] * 7)
    assert ys == [1, 1, 2, 5, 15, 52, 203, 877]


def test_partitions_enumeration():
    counts = [sum(1 for _ in partitions(n)) for n in range(0, 21)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                      176, 231, 297, 385, 490, 627]
    # Each partition of n is a tuple of multiplicities with weight n.
    for k in partitions(6):
        assert sum((j + 1) * kj for j, kj in enumerate(k)) == 6


def test_partition_multinomial_values():
    # n! / (prod k_j! (j!)^{k_j}) counts set partitions by block sizes.
    assert partition_multinomial((3,), 3) == 1        # 1+1+1
    assert partition_multinomial((1, 1), 3) == 3      # 1+2
    assert partition_multinomial((0, 0, 1), 3) == 1   # 3
    assert partition_multinomial((2, 1), 4) == 6      # 1+1+2
    with pytest.raises(ValueError):
        partition_multinomial((1, 1), 4)


def test_partition_sum_guard():
    with pytest.raises(ValueError):
        bell_eval_partitions([Fraction(1)] * 21)
