"""The sequence kernel against a direct Fraction oracle."""

from fractions import Fraction

import pytest

from bellgamma import kernel
from bellgamma.bell import bell_ladder
from bellgamma.numerics import binom, factorial, lcm_upto


def oracle_tables(a, n_max, mu_max):
    """Direct Fraction computation, no scaling tricks."""
    h = [[Fraction(0)] * (n_max + 1) for _ in range(mu_max + 1)]
    for m in range(1, mu_max + 1):
        for i in range(1, n_max + 1):
            h[m][i] = h[m][i - 1] + Fraction(1, i ** m)
    q = []
    p = [[] for _ in range(mu_max)]
    for n in range(n_max + 1):
        qn = 0
        acc = [Fraction(0)] * mu_max
        for k in range(n + 1):
            w = binom(n, k) ** a * factorial(k)
            qn += w
            rs = [factorial(m - 1) * (a * h[m][n - k]
                                      + (-1) ** m * (a - 1) * h[m][k])
                  for m in range(1, mu_max + 1)]
            ys = bell_ladder(rs)
            for mu in range(1, mu_max + 1):
                acc[mu - 1] += w * ys[mu]
        q.append(qn)
        for mu in range(mu_max):
            p[mu].append(acc[mu])
    return q, p


def test_backend_name():
    assert kernel.backend_name() == "pure"


def test_seq_tables_match_fraction_oracle():
    # every mu the CLI accepts, up to a - 1 = 7
    for a, n_max, mu_max in ((2, 12, 1), (3, 10, 2), (4, 8, 3), (6, 7, 5),
                             (8, 6, 7)):
        q, p = kernel.seq_tables(a, n_max, mu_max)
        oq, op = oracle_tables(a, n_max, mu_max)
        assert q == oq and all(isinstance(v, int) for v in q)
        assert p == op
        # the scale D = lcm(1..n_max) clears every denominator
        d = lcm_upto(n_max)
        for mu in range(1, mu_max + 1):
            assert all((v * d ** mu).denominator == 1 for v in p[mu - 1])


def test_row_range_matches_full_table():
    for a, n_max, mu_max in ((2, 14, 1), (3, 12, 2), (5, 9, 4)):
        q, p = kernel.seq_tables(a, n_max, mu_max)
        for n_lo, n_hi in ((0, 0), (0, n_max), (3, 7), (n_max, n_max)):
            rq, rp = kernel.seq_rows(a, n_lo, n_hi, mu_max)
            assert rq == q[n_lo:n_hi + 1]
            assert rp == [row[n_lo:n_hi + 1] for row in p]
    with pytest.raises(ValueError):
        kernel.seq_rows(3, 5, 4, 1)
    with pytest.raises(ValueError):
        kernel.seq_rows(3, -1, 4, 1)
    with pytest.raises(ValueError):
        kernel.seq_rows(1, 0, 5, 1)
    with pytest.raises(ValueError):
        kernel.seq_rows(3, 0, 5, -1)


def test_scaled_harmonics():
    d = lcm_upto(10)
    sh = kernel.scaled_harmonics(10, 3, d)
    for m in range(1, 4):
        for i in range(11):
            want = sum(Fraction(1, j ** m) for j in range(1, i + 1)) * d ** m
            assert sh[m - 1][i] == want


def test_weights():
    for a, n in ((2, 0), (3, 7), (5, 12)):
        assert list(kernel.weights(a, n)) == [
            (k, binom(n, k) ** a * factorial(k)) for k in range(n + 1)]


def test_mu_zero_needs_no_scaling(monkeypatch):
    def no_lcm(n):
        raise AssertionError("mu_max = 0 must not compute lcm(1..n)")

    monkeypatch.setattr(kernel, "lcm_upto", no_lcm)
    q, p = kernel.seq_rows(2, 0, 6, 0)
    assert p == []
    assert q[2] == sum(binom(2, k) ** 2 * factorial(k) for k in range(3))

