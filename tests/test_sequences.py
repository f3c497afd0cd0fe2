"""Approximation sequences, exact identities, recurrences, and tails."""

import hashlib
import math
import random
import sys
from fractions import Fraction

import oracles
import pytest
from oracles import (F_sym, HarmonicCache, aptekarev_seq, common_den,
                     f_deriv_sym, fraction_of, harmonic, horner, r_val,
                     recurrence_generate)
from test_kernel import oracle_tables

from bellgamma import kernel, lemma1, recurrences
from bellgamma.bell import bell_ladder
from bellgamma.lemma1 import lemma1_residual
from bellgamma.common import PrecisionError, binom, factorial, lcm_upto
from bellgamma.numerics import BigFix, gamma_const
from bellgamma.recurrences import (
    RecurrenceSpec,
    make_paper_recurrences,
    recurrence_check,
)
from bellgamma.sequences import (
    _ROW_GUARD,
    ApproxRecord,
    _alpha_args,
    _ladder_radius,
    convergence_row,
    records_to_csv,
)
from bellgamma.symring import SymPoly, alpha_poly, lambda_coeff
from bellgamma.tail import tail_series
from bellgamma.values import p_at, p_seq, q_at, q_seq


def harmonic_direct(k, m):
    return sum(Fraction(1, j ** m) for j in range(1, k + 1))


def test_harmonic_values():
    assert harmonic(0, 1) == 0
    assert harmonic(4, 1) == Fraction(25, 12)
    assert harmonic(4, 2) == Fraction(205, 144)
    assert harmonic(3, 3) == 1 + Fraction(1, 8) + Fraction(1, 27)
    cache = HarmonicCache()
    for k in range(0, 12):
        for m in range(1, 4):
            assert cache.get(k, m) == harmonic_direct(k, m)


def test_r_val_examples():
    # r_m(k) = (m-1)! (a H_{n-k}^{(m)} + (-1)^m (a-1) H_k^{(m)})
    assert r_val(3, 2, 1, 1) == 1
    assert r_val(2, 1, 0, 2) == 2
    for a in (2, 3, 4):
        for n in (1, 3, 6):
            assert r_val(a, n, n, 1) == -(a - 1) * harmonic_direct(n, 1)
            assert r_val(a, n, 0, 1) == a * harmonic_direct(n, 1)
        for n in (3, 6):
            assert r_val(a, n, 2, 2) == (a * harmonic_direct(n - 2, 2)
                                         + (a - 1) * harmonic_direct(2, 2))
    with pytest.raises(ValueError):
        r_val(3, 1, 2, 1)


def test_qseq_small_tables():
    assert q_seq(2, 5) == [1, 2, 7, 34, 209, 1546]
    assert q_seq(3, 3) == [1, 2, 11, 88]
    assert q_seq(4, 3) == [1, 2, 19, 250]
    assert q_at(3, 2) == 11


def test_pseq_small_tables():
    assert p_seq(2, 1, 3) == [0, 1, 4, Fraction(59, 3)]
    assert p_seq(3, 1, 2) == [0, 1, Fraction(13, 2)]
    assert p_seq(3, 2, 2) == [0, 18, 95]
    assert p_seq(4, 1, 3) == [0, 1, 13, Fraction(409, 3)]
    assert p_seq(4, 2, 2) == [0, 32, 217]
    assert p_seq(4, 3, 2) == [0, 60, 402]
    assert p_at(4, 2, 3) == Fraction(26444, 9)
    assert p_at(4, 3, 3) == Fraction(50761, 9)


def test_pq_validation():
    with pytest.raises(ValueError):
        p_seq(3, 3, 5)
    with pytest.raises(ValueError):
        p_seq(3, 0, 5)
    with pytest.raises(ValueError):
        q_seq(1, 5)


def _recorded_rows(monkeypatch):
    """The argument tuples of every kernel.int_rows call from now on."""
    calls = []
    real = kernel.int_rows
    monkeypatch.setattr(kernel, "int_rows",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_q_seq_builds_q_alone(monkeypatch):
    calls = _recorded_rows(monkeypatch)
    assert q_seq(5, 12) == oracle_tables(5, 12, 0)[0]
    assert calls == [(5, 0, 12, 0)]


def test_p_seq_builds_up_to_its_mu(monkeypatch):
    calls = _recorded_rows(monkeypatch)
    assert p_seq(5, 2, 12) == oracle_tables(5, 12, 2)[1][1]
    assert calls == [(5, 0, 12, 2)]


@pytest.mark.parametrize("a", range(2, 9))
def test_single_values_in_every_cache_state(a):
    # Nothing caches q/p values, so the cold state is the only one.
    n_max = 10
    oq, op = oracle_tables(a, n_max, a - 1)
    for n in range(n_max + 1):
        assert q_at(a, n) == oq[n]
        for mu in range(1, a):
            assert p_at(a, mu, n) == op[mu - 1][n]


def test_convergence_row_reads_one_sum(monkeypatch):
    # one kernel row, over the harmonic table of that row and mu alone
    calls = []
    halves, row = kernel.harmonic_halves, kernel.row
    monkeypatch.setattr(kernel, "harmonic_halves",
                        lambda *args: calls.append(args) or halves(*args))
    monkeypatch.setattr(kernel, "row",
                        lambda *args: calls.append(args[:2]) or row(*args))
    rec = convergence_row(4, 2, 20)
    assert calls == [(4, 20, 2), (4, 20)]
    assert (rec.q, Fraction(rec.p_num, rec.p_den)) == (q_at(4, 20),
                                                        p_at(4, 2, 20))


def test_p_seq_against_direct_composition():
    # Route 2: assemble p_{n,mu} from r-values and the Bell ladder
    # in plain Fractions, no shared kernel code.
    for a, mu_max, n_max in ((2, 1, 25), (3, 2, 20), (4, 3, 12)):
        for mu in range(1, mu_max + 1):
            got = p_seq(a, mu, n_max)
            for n in range(n_max + 1):
                direct = Fraction(0)
                for k in range(n + 1):
                    w = binom(n, k) ** a * factorial(k)
                    rs = [r_val(a, n, k, m) for m in range(1, mu + 1)]
                    direct += w * bell_ladder(rs)[mu]
                assert got[n] == direct


def test_a2_closed_form_coincidence():
    # For a = 2, mu = 1 the Bell layer collapses to 2H_{n-k} - H_k.
    ps = p_seq(2, 1, 100)
    for n in range(101):
        direct = sum(binom(n, k) ** 2 * factorial(k)
                     * (2 * harmonic(n - k, 1) - harmonic(k, 1))
                     for k in range(n + 1))
        assert ps[n] == direct


def test_integrality():
    for a in (2, 3, 4):
        for mu in range(1, a):
            for n in range(0, 40):
                # lcm(1..n)^mu p_{n,mu} is an integer
                assert (lcm_upto(n) ** mu * p_at(a, mu, n)).denominator == 1
    # q_n are positive integers as built
    assert all(isinstance(v, int) and v > 0 for v in q_seq(4, 30))


def test_f_deriv_sym_structure():
    # m = 1 carries the -g symbol; m >= 2 is a rational constant.
    p = f_deriv_sym(3, 4, 1, 1)
    mi = p.m_index
    e_g = tuple([1] + [0] * (mi - 1))
    assert p.coeff(e_g) == -1
    assert p.constant_part() == 3 * harmonic(3, 1) - 2 * harmonic(1, 1)
    for m in (2, 3):
        q = f_deriv_sym(4, 5, 2, m)
        assert q.gamma_degree() == 0
        zsign = (-1) ** (m - 1)
        want = factorial(m - 1) * (zsign * 3 - 4) * Fraction(0) \
            + r_val(4, 5, 2, m)
        # zeta coefficient: (m-1)! ((-1)^{m-1}(a-1) - a)
        e_z = [0] * q.m_index
        e_z[m - 1] = 1
        assert q.coeff(tuple(e_z)) == factorial(m - 1) * (zsign * 3 - 4)
        assert q.constant_part() == want


def test_F_sym_examples():
    # F_{n,0} is the plain denominator sum.
    for a, n in ((2, 4), (3, 3)):
        f0 = F_sym(a, 0, n)
        assert f0.gamma_degree() == 0
        assert f0.constant_part() == q_at(a, n)
    f = F_sym(3, 1, 2)
    assert str(f) == "-11*g + 13/2"
    assert F_sym(2, 1, 0).coeff((1,)) == -1 or str(F_sym(2, 1, 0)) == "-g"


def test_F_sym_degree_and_leading_coeff():
    # g-degree mu, leading coefficient (-1)^mu q_n.
    for a in (2, 3, 4):
        for mu in range(1, a):
            for n in (0, 1, 3, 6):
                f = F_sym(a, mu, n)
                assert f.gamma_degree() == mu
                mi = f.m_index
                lead = tuple([mu] + [0] * (mi - 1))
                assert f.coeff(lead) == (-1) ** mu * q_at(a, n)


def test_F_sym_mu1_links_p_and_q():
    # For mu = 1 the combination identity reads F_{n,1} = p_{n,1} - q_n g.
    for a in (2, 3, 4):
        for n in range(0, 8):
            f = F_sym(a, 1, n)
            mi = f.m_index
            assert f.constant_part() == p_at(a, 1, n)
            assert f.coeff(tuple([1] + [0] * (mi - 1))) == -q_at(a, n)


def test_lemma1_residual_zero():
    for a in (2, 3, 4):
        for mu in range(1, a):
            for n in range(0, 10):
                assert lemma1_residual(a, mu, n).is_zero()


def lemma1_oracle(a, mu, n):
    """The residual built over Fraction from the SymPoly F_{n,nu}."""
    mi = a - 1
    res = (SymPoly.const(p_at(a, mu, n), mi)
           - q_at(a, n) * alpha_poly(a, mu, mi))
    for nu in range(1, mu + 1):
        res = res - lambda_coeff(a, mu, nu) * F_sym(a, nu, n)
    return res


_ROW = kernel.row


def perturbed_rows(dp, dq):
    """kernel.row with D^mu p_{n,mu} moved by dp and q_n by dq: int_rows,
    and so p_at and q_at, reads its rows there too, so on single rows,
    where D = lcm(1..n), p_{n,mu} moves by dp/lcm(1..n)^mu for both the
    residual and its oracle."""

    def row(a, n, halves):
        ws, cols, q, p = _ROW(a, n, halves)
        return ws, cols, q + dq, [v + dp for v in p]
    return row


@pytest.fixture
def fresh_lemma1_caches():
    oracles._f_sym_all.cache_clear()
    yield
    oracles._f_sym_all.cache_clear()


def test_lemma1_residual_matches_oracle(monkeypatch, fresh_lemma1_caches):
    # The integer residual, unscaled, equals the Fraction one coefficient
    # by coefficient, also when p is off by 1/D^mu or q off by 1, and
    # each of those makes every residual nonzero.
    for a in range(2, 9):
        for n in range(0, 9):
            for dp, dq in ((0, 0), (1, 0), (0, 1)):
                monkeypatch.setattr(kernel, "row", perturbed_rows(dp, dq))
                for mu in range(1, a):
                    got = lemma1_residual(a, mu, n)
                    assert got == lemma1_oracle(a, mu, n)
                    assert got.is_zero() == (dp == dq == 0)


@pytest.mark.parametrize("m_bad", [2, 3])
def test_lemma1_residual_detects_wrong_zeta_coeff(m_bad, monkeypatch,
                                                  fresh_lemma1_caches):
    # With c_m of f^{(m)} off by 1, the residual gains
    # -binom(mu,m) p_{n,mu-m} z_m (p_{n,0} = q_n) for mu >= m, plus terms
    # of higher degree in z_m, and still equals the Fraction oracle.
    real = lemma1._deriv_coeff
    monkeypatch.setattr(lemma1, "_deriv_coeff",
                        lambda a, m: real(a, m) + (m == m_bad))
    for a in range(m_bad + 1, 9):
        z_m = tuple(int(i == m_bad - 1) for i in range(a - 1))
        for n in range(0, 9):
            for mu in range(1, a):
                got = lemma1_residual(a, mu, n)
                assert got == lemma1_oracle(a, mu, n)
                if mu < m_bad:
                    assert got.is_zero()
                    continue
                low = q_at(a, n) if mu == m_bad else p_at(a, mu - m_bad, n)
                assert got.coeff(z_m) == -binom(mu, m_bad) * low
                assert not got.is_zero() or low == 0


def test_make_paper_recurrences_shape():
    specs = make_paper_recurrences()
    assert sorted(specs) == [
        "a2_p1", "a2_q", "a3_p1", "a3_p2", "a3_q", "a4_p1", "a4_p2",
        "a4_p3", "a4_q", "aptekarev_p", "aptekarev_q", "rivoal_p", "rivoal_q",
    ]
    apt = specs["aptekarev_q"]
    assert apt.order == 3 and apt.n_min == 2
    assert apt.initial == (1, 3, 50)
    # initial values: ints, and the others as (num, den) pairs
    riv = specs["rivoal_p"]
    assert riv.initial == (-1, 4, (77, 4))
    assert specs["rivoal_q"].initial == (1, 7, (65, 2))
    assert specs["a3_p2"].inhom is not None
    assert specs["a3_q"].inhom is None
    assert specs["a4_p3"].initial == (0, 60, 402, (50761, 9))


def test_recurrences_hold_midrange():
    specs = make_paper_recurrences()
    qs = {a: q_seq(a, 40) for a in (2, 3, 4)}
    data = {
        "a2_q": qs[2], "a2_p1": p_seq(2, 1, 40),
        "a3_q": qs[3], "a3_p1": p_seq(3, 1, 40), "a3_p2": p_seq(3, 2, 40),
        "a4_q": qs[4], "a4_p1": p_seq(4, 1, 40), "a4_p2": p_seq(4, 2, 40),
        "a4_p3": p_seq(4, 3, 40),
    }
    for name, seq in data.items():
        spec = specs[name]
        lo = max(spec.n_min, 3)
        hi = 40 - max(spec.offsets)
        ys, den = common_den(seq)
        assert recurrence_check(spec, ys, range(lo, hi), den) is True, name


def test_recurrence_falsification():
    specs = make_paper_recurrences()
    seq = q_seq(3, 20)
    seq[10] += 1
    assert recurrence_check(specs["a3_q"], seq, range(8, 12)) is False


def test_inhomogeneous_check_sees_one_unit_of_the_scale():
    # p_{n,3} for a = 4 has denominator dividing D^3: a change by 1/D^3
    # in one value is the smallest the table can carry.  On the ints
    # D^3 p_{n,3} over D^3, as the suite reads them; a wrong common
    # denominator fails the inhomogeneous check.
    spec = make_paper_recurrences()["a4_p3"]
    d, _, dp = kernel.int_rows(4, 0, 30, 3)
    ys = dp[2]
    assert d == lcm_upto(30)
    assert recurrence_check(spec, ys, range(2, 29), d ** 3) is True
    assert recurrence_check(spec, ys, range(2, 29), 2 * d ** 3) is False
    ys[15] += 1
    assert recurrence_check(spec, ys, range(2, 29), d ** 3) is False
    assert recurrence_check(spec, ys, range(2, 13), d ** 3) is True


def _fractional_spec():
    """(spec, ys): c0(n) y_n + c1(n) y_{n+1} = num(n)/den(n), every
    polynomial with non-integer coefficients, and y_0..y_20 grown by
    hand in Fraction arithmetic."""
    c0 = (Fraction(1, 3), Fraction(2, 5))
    c1 = (Fraction(-7, 2), 0, Fraction(1, 4))
    num = (Fraction(5, 6), Fraction(-1, 9))
    den = (Fraction(2, 3), 1)

    def at(cs, n):
        return sum(c * n ** i for i, c in enumerate(cs))

    ys = [Fraction(3, 7)]
    for n in range(20):
        ys.append((at(num, n) / at(den, n) - at(c0, n) * ys[n]) / at(c1, n))
    spec = RecurrenceSpec(
        "fractional", (0, 1),
        (lambda n: horner(c0, n), lambda n: horner(c1, n)),
        (lambda n: horner(num, n), lambda n: horner(den, n)), (ys[0],), 0)
    return spec, ys


def test_recurrence_check_fraction_coefficients():
    spec, ys = _fractional_spec()
    ints, den = common_den(ys)
    assert recurrence_check(spec, ints, range(20), den) is True
    assert recurrence_generate(spec, 20) == ys
    ys[9] += Fraction(1, 10 ** 9)
    ints, den = common_den(ys)
    assert recurrence_check(spec, ints, range(20), den) is False
    assert recurrence_check(spec, ints, range(8), den) is True


def test_integer_generation_matches_fraction_oracle():
    # every paper spec (the inhomogeneous a2_p1, a3_p2 and a4_p3 too)
    # and a spec with Fraction coefficients, at every n_max <= 60
    specs = list(make_paper_recurrences().values()) + [_fractional_spec()[0]]
    for spec in specs:
        want = oracles.recurrence_generate_fraction(spec, 60)
        for n_max in range(61):
            got = recurrence_generate(spec, n_max)
            assert got == want[:n_max + 1], (spec.name, n_max)
        assert all(type(v) is Fraction for v in got), spec.name


def test_generation_stops_at_a_vanishing_coefficient():
    # (n-5) y_{n+1} = (n-5) y_n: y_6 needs a division by 0 at n = 5
    toy = RecurrenceSpec("toy", (0, 1), (lambda n: 5 - n, lambda n: n - 5),
                         None, (1,), 0)
    pole = RecurrenceSpec("pole", (0, 1), (lambda n: 1, lambda n: 1),
                          (lambda n: 1, lambda n: n), (1,), 0)
    for generate in (recurrence_generate, oracles.recurrence_generate_fraction):
        assert generate(toy, 5) == [1] * 6
        assert generate(pole, 0) == [1]
        for spec, n_max in ((toy, 6), (pole, 1)):
            with pytest.raises(ArithmeticError):
                generate(spec, n_max)


def test_recurrence_generate_matches_sums():
    specs = make_paper_recurrences()
    assert recurrence_generate(specs["a2_q"], 25) == q_seq(2, 25)
    assert recurrence_generate(specs["a2_p1"], 25) == p_seq(2, 1, 25)
    assert recurrence_generate(specs["a3_q"], 25) == q_seq(3, 25)
    assert recurrence_generate(specs["a3_p2"], 25) == p_seq(3, 2, 25)
    assert recurrence_generate(specs["a4_q"], 20) == q_seq(4, 20)
    assert recurrence_generate(specs["a4_p3"], 20) == p_seq(4, 3, 20)


def test_rivoal_sequences_approach_gamma():
    specs = make_paper_recurrences()
    qs = recurrence_generate(specs["rivoal_q"], 30)
    ps = recurrence_generate(specs["rivoal_p"], 30)
    errs = [abs(float(Fraction(p) / Fraction(q)) - 0.5772156649015329)
            for p, q in zip(ps[2:], qs[2:])]
    assert errs[-1] < 1e-10
    assert errs[-1] < errs[0]


# sha256 of y_0..y_30, joined by spaces as str prints them, and y_30: the
# suite checks Rivoal's recurrences only through how fast p_n/q_n
# approaches gamma, and these pins fix the values themselves.
RIVOAL_30 = {
    "rivoal_q": ("0e9da5800f1c299c85e408bbfc9e5c623dc899cbeff286a1676c11077d6b24e4",
                 Fraction(5415883599112832899640532863311265135095451,
                          24113896346562823512391680000000)),
    "rivoal_p": ("d40c1d34d3f7ea577df35c662e3ce0e28404c98b19da6e9472498fd0983273a1",
                 Fraction(2427014466376437013210661949510823564822376790014551697,
                          18721141433073507965736632784519168000000000)),
}


def test_rivoal_gamma_enclosure_matches_gamma_const():
    # the recurrences suite does not load numerics, so it carries gamma
    # to 100 decimals; digits 101..110 of gamma are 1463144724
    g = gamma_const(110)
    assert g.scale == 110 and g.mantissa // 10 ** 10 == recurrences._GAMMA_100


def test_rivoal_generation_pinned():
    specs = make_paper_recurrences()
    for name, (digest, y30) in RIVOAL_30.items():
        ys = recurrence_generate(specs[name], 30)
        assert ys[30] == y30, name
        text = " ".join(map(str, ys)).encode()
        assert hashlib.sha256(text).hexdigest() == digest, name


def test_paper_coefficients_are_ints():
    # a / in a coefficient would turn the exact check into float arithmetic
    for name, spec in make_paper_recurrences().items():
        parts = spec.coeffs + (spec.inhom or ())
        for n in range(61):
            assert all(type(c(n)) is int for c in parts), (name, n)


def test_recurrence_check_validation():
    specs = make_paper_recurrences()
    with pytest.raises(ValueError):
        recurrence_check(specs["a3_q"], q_seq(3, 20), range(1, 5))
    with pytest.raises(ValueError):
        recurrence_check(specs["a3_q"], q_seq(3, 5), range(3, 10))


def test_recurrence_spec_validation():
    def one(n):
        return 1

    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (1, 0), (one, one), None, (1, 2), 0)
    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (0, 1), (one,), None, (1, 2), 0)
    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (-1, 0), (one, one), None, (1,), 0)
    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (0, 1), (one, one), None, (1, 2, 3), 0)


def test_recurrence_checks_where_leading_coefficient_vanishes():
    # [n != 5] y_{n+1} = y_n holds for a constant sequence at every n but
    # 5, where the leading coefficient vanishes and y_5 = 1 does not: the
    # check divides by nothing, so it checks that point too.
    spec = RecurrenceSpec("toy", (0, 1),
                          (lambda n: -1, lambda n: int(n != 5)), None, (1,), 0)
    seq = [1] * 12
    assert recurrence_check(spec, seq, range(0, 5)) is True
    assert recurrence_check(spec, seq, range(6, 10)) is True
    assert recurrence_check(spec, seq, range(5, 6)) is False
    assert recurrence_check(spec, seq, range(0, 10)) is False


def test_recurrence_inhom_pole():
    spec = RecurrenceSpec("pole", (0, 1), (lambda n: 1, lambda n: 1),
                          (lambda n: 1, lambda n: n),  # den vanishes at 0
                          (1,), 0)
    with pytest.raises(ArithmeticError):
        recurrence_check(spec, [1] * 5, range(0, 2))


def test_aptekarev_values():
    qs, ps = aptekarev_seq(4)
    assert qs[:3] == [1, 3, 50]
    assert ps[:3] == [0, 2, 31]
    # hand value: n = 1 gives k=0 term 1*1*1*(H_1 + 2H_1 - 0) = 3H_1,
    # k=1 term 1*2*(H_2 + 0 - 2H_1) = 2H_2 - 4H_1; total 2H_2 - H_1 = 2.
    assert ps[1] == 2
    specs = make_paper_recurrences()
    assert recurrence_check(specs["aptekarev_q"], qs, range(2, 3)) is True
    ints, den = common_den(ps)
    assert recurrence_check(specs["aptekarev_p"], ints, range(2, 3),
                            den) is True


def test_aptekarev_recurrence_generates_sums():
    qs, ps = aptekarev_seq(15)
    specs = make_paper_recurrences()
    assert recurrence_generate(specs["aptekarev_q"], 15) == qs
    assert recurrence_generate(specs["aptekarev_p"], 15) == ps


def test_tail_series_first_term_and_bound():
    for a in (2, 3, 4):
        for u in (-a, -1, 0, 1, a):
            for n in (5, 10, 20):
                t = fraction_of(tail_series(a, u, n, 30))
                t0 = Fraction((-1) ** (a - 1), (n + 1) ** a)
                assert abs(t) <= Fraction(math.ceil(math.e * 10**6), 10**6) \
                    / (n + 1) ** a
                assert abs(t - t0) <= Fraction(2, ((n + 1) * (n + 2)) ** a)
                assert (t < 0) == (a % 2 == 0)


def tail_fraction(a, u, n, digits):
    """Reference: the alternating tail summed term by term in Fractions."""
    bound = Fraction(1, 10 ** (digits + 5))
    acc = Fraction(0)
    k = 0
    num = 1
    den = 1
    while True:
        t = Fraction(num, den)
        if t < bound:
            break
        acc += -t if ((u + 1) * k + a - 1) % 2 else t
        k += 1
        num *= k ** (a - 1)
        den *= (n + 1 + k) ** a
    return acc / (n + 1) ** a


def test_tail_series_matches_fraction_loop(monkeypatch):
    # The exact rational handed to BigFix is compared, not only its digits.
    seen = []
    real = BigFix.from_ratio
    monkeypatch.setattr(BigFix, "from_ratio", classmethod(
        lambda cls, num, den, scale: seen.append(Fraction(num, den))
        or real(num, den, scale)))
    cases = [(a, u, n, digits) for a in range(2, 6) for u in range(-a, a + 1)
             for n in (1, 2, 5, 20, 37) for digits in (1, 30, 400)]
    # long series of hundreds of terms: every a, both parities of u (the
    # sign pattern) and of a, at the smallest and the largest n
    cases += [(2, 0, 1, 3000), (3, 1, 37, 3000), (4, 1, 1, 3000),
              (5, 0, 37, 3000)]
    for a, u, n, digits in cases:
        want = tail_fraction(a, u, n, digits)
        got = tail_series(a, u, n, digits)
        assert seen.pop() == want
        assert (got.mantissa, got.scale) == (
            real(want.numerator, want.denominator, digits).mantissa, digits)


def test_tail_series_depends_on_u_parity():
    t_even = fraction_of(tail_series(3, 0, 8, 25))
    t_even2 = fraction_of(tail_series(3, 2, 8, 25))
    t_odd = fraction_of(tail_series(3, 1, 8, 25))
    assert t_even == t_even2
    assert t_even != t_odd


def test_tail_series_validation():
    with pytest.raises(ValueError):
        tail_series(3, 4, 10, 20)
    with pytest.raises(ValueError):
        tail_series(3, 0, 0, 20)
    with pytest.raises(ValueError):
        tail_series(3, 0, 10, 0)


def test_convergence_row_n0():
    rec = convergence_row(2, 1, 0)
    assert rec == ApproxRecord(2, 1, 0, 0, 1, 1,
                               rec.err_log, rec.predicted_exponent)
    assert Fraction(rec.p_num, rec.p_den) == 0
    # error is |gamma - 0| = gamma
    assert math.isclose(rec.err_log, math.log(0.5772156649015329),
                        rel_tol=1e-9)
    assert rec.predicted_exponent == 0.0


def test_convergence_row_tracks_prediction():
    rec = convergence_row(3, 1, 30)
    assert rec.q == q_at(3, 30)
    assert Fraction(rec.p_num, rec.p_den) == p_at(3, 1, 30)
    assert rec.err_log < 0
    assert abs(rec.err_log / rec.predicted_exponent - 1) < 0.5
    nxt = convergence_row(3, 1, 60)
    assert nxt.err_log < rec.err_log


def test_convergence_row_precision_failure():
    with pytest.raises(PrecisionError):
        convergence_row(3, 1, 50, digits=2)


def test_alpha_radius_is_one_integer_at_every_scale():
    # convergence_row takes the radius at its own scale s > _ROW_GUARD,
    # and a failed row's hint, "raise digits to d + k", assumes the
    # radius at s + k is the same
    for a in range(2, 9):
        for mu in range(1, a):
            radii = {_ladder_radius(*_alpha_args(a, mu, s))
                     for s in (1000, 400, 100, 50, 23, 22, _ROW_GUARD + 1)}
            assert len(radii) == 1, (a, mu, radii)


def test_records_to_csv():
    rows = [convergence_row(2, 1, 0), convergence_row(2, 1, 3)]
    text = records_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "a,mu,n,p_num,p_den,q,err_log10,predicted_log10"
    assert lines[1] == "2,1,0,0,1,1,-0.238662,0"
    assert lines[2].startswith("2,1,3,59,3,34,")


def test_records_to_csv_past_int_str_limit():
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int->str limit")
    q = q_at(2, 1548)  # 4301 digits, one past the default limit of 4300
    p = Fraction(-3 * q - 1, 7)
    rec = ApproxRecord(2, 1, 1548, p.numerator, p.denominator, q, -2.0, -3.0)
    old = sys.get_int_max_str_digits()
    try:
        set_limit(0)
        want = "2,1,1548,%d,%d,%d,-0.868589,-1.30288" % (
            rec.p_num, rec.p_den, q)
        set_limit(4300)
        text = records_to_csv([rec])
    finally:
        set_limit(old)
    assert text.splitlines()[1] == want
