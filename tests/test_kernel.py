"""The sequence kernel against a direct Fraction oracle."""

from fractions import Fraction

import pytest

from bellgamma import kernel
from bellgamma.bell import bell_ladder
from bellgamma.common import binom, factorial, lcm_upto
from bellgamma.values import p_seq, q_seq


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


def over_denominator(d, dp):
    """The Fractions p_{n,mu} = dp[mu-1][i] / d^mu of an int_rows table."""
    return [[Fraction(v, d ** mu) for v in col]
            for mu, col in enumerate(dp, 1)]


def test_library_tables_match_fraction_oracle():
    # q_seq and p_seq, for every mu the CLI accepts, up to a - 1 = 7
    for a, n_max, mu_max in ((2, 12, 1), (3, 10, 2), (4, 8, 3), (6, 7, 5),
                             (8, 6, 7)):
        oq, op = oracle_tables(a, n_max, mu_max)
        q = q_seq(a, n_max)
        assert q == oq and all(isinstance(v, int) for v in q)
        # the scale D = lcm(1..n_max) clears every denominator
        d = lcm_upto(n_max)
        for mu in range(1, mu_max + 1):
            p = p_seq(a, mu, n_max)
            assert p == op[mu - 1]
            assert all((v * d ** mu).denominator == 1 for v in p)


def test_int_rows_are_the_tables_over_their_denominator():
    # the suites' integer table: D = lcm(1..n_hi), and D^mu p_{n,mu} ints
    for a, n_lo, n_hi, mu_max in ((2, 0, 12, 1), (4, 3, 8, 3), (8, 0, 6, 7),
                                  (3, 0, 5, 0), (5, 0, 0, 4)):
        d, q, dp = kernel.int_rows(a, n_lo, n_hi, mu_max)
        oq, op = oracle_tables(a, n_hi, mu_max)
        assert d == (lcm_upto(n_hi) if mu_max else 1)
        assert q == oq[n_lo:]
        assert len(dp) == mu_max
        for mu, col in enumerate(dp, 1):
            assert all(type(v) is int for v in col)
            assert col == [v * d ** mu for v in op[mu - 1][n_lo:]]


def test_rows_match_fraction_oracle_for_every_mu():
    # every a the CLI accepts and every mu = 0..a-1, as single rows and
    # as a range that starts past 0
    for a in range(2, 9):
        oq, op = oracle_tables(a, 13, a - 1)
        for mu_max in range(a):
            for n_lo, n_hi in ((0, 0), (1, 1), (13, 13), (5, 13)):
                d, q, dp = kernel.int_rows(a, n_lo, n_hi, mu_max)
                assert q == oq[n_lo:n_hi + 1]
                assert over_denominator(d, dp) == [
                    row[n_lo:n_hi + 1] for row in op[:mu_max]]


def test_one_bell_ladder_per_row(monkeypatch):
    from bellgamma import lemma1

    calls = {"kernel": 0, "lemma1": 0}

    def counting(module):
        def ladder(xs):
            calls[module] += 1
            return bell_ladder(xs)
        return ladder

    for module in (kernel, lemma1):
        monkeypatch.setattr(module, "bell_ladder",
                            counting(module.__name__.split(".")[-1]))
    for a, n_max, mu_max in ((2, 9, 1), (4, 6, 3), (8, 3, 7), (3, 5, 0)):
        calls.update(kernel=0, lemma1=0)
        kernel.int_rows(a, 0, n_max, mu_max)
        assert calls == {"kernel": (n_max + 1) if mu_max else 0, "lemma1": 0}
    for a, n in ((2, 0), (3, 7), (8, 4)):
        calls.update(kernel=0, lemma1=0)
        lemma1.scaled_row(a, n)
        assert calls == {"kernel": 1, "lemma1": 1}


def test_lemma1_builds_its_row_once(monkeypatch):
    # scaled_row takes q, D^mu p, the weights and the Columns from one
    # kernel row: one set of halves, one weight pass, one Column build,
    # and no range of rows.
    from bellgamma import lemma1

    calls = {}

    def counting(name):
        real = getattr(kernel, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    for name in ("harmonic_halves", "weights", "row", "int_rows"):
        monkeypatch.setattr(kernel, name, counting(name))
    for a, n in ((2, 0), (3, 7), (8, 4)):
        calls.update(harmonic_halves=0, weights=0, row=0, int_rows=0)
        lemma1.scaled_row(a, n)
        assert calls == {"harmonic_halves": 1, "weights": 1, "row": 1,
                         "int_rows": 0}


def test_column_ring_operations():
    c = kernel.Column([3, -1, 4])
    d = kernel.Column([2, 5, 0])
    assert c + d == (5, 4, 4) and c * d == (6, -5, 0)
    assert c + 0 == 0 + c == c and type(0 + c) is kernel.Column
    assert 2 * c == c * 2 == (6, -2, 8)
    assert c ** 0 == (1, 1, 1) and type(c ** 0) is kernel.Column
    total = c
    total += d  # a tuple: a new Column, c itself unchanged
    assert total == (5, 4, 4) and c == (3, -1, 4)


def test_row_range_matches_full_table():
    for a, n_max, mu_max in ((2, 14, 1), (3, 12, 2), (5, 9, 4)):
        d, q, dp = kernel.int_rows(a, 0, n_max, mu_max)
        p = over_denominator(d, dp)
        for n_lo, n_hi in ((0, 0), (0, n_max), (3, 7), (n_max, n_max)):
            rd, rq, rdp = kernel.int_rows(a, n_lo, n_hi, mu_max)
            assert rq == q[n_lo:n_hi + 1]
            assert over_denominator(rd, rdp) == [row[n_lo:n_hi + 1]
                                                 for row in p]
    with pytest.raises(ValueError):
        kernel.int_rows(3, 5, 4, 1)
    with pytest.raises(ValueError):
        kernel.int_rows(3, -1, 4, 1)
    with pytest.raises(ValueError):
        kernel.int_rows(1, 0, 5, 1)
    with pytest.raises(ValueError):
        kernel.int_rows(3, 0, 5, -1)


def test_scaled_harmonics():
    d = lcm_upto(10)
    sh = kernel.scaled_harmonics(10, 3, d)
    for m in range(1, 4):
        for i in range(11):
            want = sum(Fraction(1, j ** m) for j in range(1, i + 1)) * d ** m
            assert sh[m - 1][i] == want


def test_harmonic_halves_give_scaled_r():
    from oracles import r_val

    for a, n_hi, mu_max in ((2, 0, 1), (3, 9, 2), (8, 7, 7)):
        d, hi, lo = kernel.harmonic_halves(a, n_hi, mu_max)
        assert d == lcm_upto(n_hi)
        for n in range(n_hi + 1):
            for k in range(n + 1):
                for m in range(1, mu_max + 1):
                    assert (hi[m - 1][n - k] + lo[m - 1][k]
                            == d ** m * r_val(a, n, k, m))


def test_weights():
    for a, n in ((2, 0), (3, 7), (5, 12)):
        assert kernel.weights(a, n) == [
            binom(n, k) ** a * factorial(k) for k in range(n + 1)]


def test_mu_zero_needs_no_scaling(monkeypatch):
    def no_lcm(n):
        raise AssertionError("mu_max = 0 must not compute lcm(1..n)")

    monkeypatch.setattr(kernel, "lcm_upto", no_lcm)
    d, q, dp = kernel.int_rows(2, 0, 6, 0)
    assert d == 1 and dp == []
    assert q[2] == sum(binom(2, k) ** 2 * factorial(k) for k in range(3))

