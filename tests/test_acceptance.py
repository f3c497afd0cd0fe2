"""Acceptance gate: one test per headline claim, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Each test enforces the stated tolerance and its runtime budget.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from bellgamma.asymptotics import bm_coeffs
from bellgamma.bell import bell_ladder
from bellgamma.bernoulli import bernoulli_at, csc_power_coeffs
from bellgamma.bernoulli import _series_mul, _series_pow
from bellgamma.common import binom, factorial, lcm_upto
from bellgamma.exponents import corollary_exponent, qn_log_asymptotic
from bellgamma.numerics import gamma_const
from bellgamma.partition_sum import bell_eval_partitions
from bellgamma.lemma1 import lemma1_residual
from bellgamma.recurrences import make_paper_recurrences, recurrence_check
from bellgamma.saddle import _p_dp, saddle_roots, saddle_seed
from bellgamma.sequences import convergence_row
from bellgamma.tail import tail_series
from bellgamma.values import p_seq, q_seq
from oracles import (aptekarev_seq, common_den, fraction_of, gen_bernoulli,
                     recurrence_generate)


def _report(num, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    print("[acceptance] criterion %d: %s (%s, %.1fs < %ds)"
          % (num, "PASS" if ok else "FAIL", detail, elapsed, budget))
    assert ok, detail
    assert elapsed < budget, "criterion %d exceeded %ds" % (num, budget)


def test_criterion_1_sequence_value_regression():
    t0 = time.perf_counter()
    ok = True
    ok &= q_seq(3, 2) == [1, 2, 11]
    ok &= p_seq(3, 1, 2) == [0, 1, Fraction(13, 2)]
    ok &= p_seq(3, 2, 2) == [0, 18, 95]
    ok &= q_seq(4, 3) == [1, 2, 19, 250]
    ok &= p_seq(4, 1, 3) == [0, 1, 13, Fraction(409, 3)]
    ok &= p_seq(4, 2, 3) == [0, 32, 217, Fraction(26444, 9)]
    ok &= p_seq(4, 3, 3) == [0, 60, 402, Fraction(50761, 9)]
    ok &= q_seq(2, 1) == [1, 2]
    ok &= p_seq(2, 1, 1) == [0, 1]
    qt, pt = aptekarev_seq(2)
    ok &= qt == [1, 3, 50] and pt == [0, 2, 31]
    specs = make_paper_recurrences()
    ok &= recurrence_generate(specs["rivoal_q"], 2) == [1, 7, Fraction(65, 2)]
    ok &= recurrence_generate(specs["rivoal_p"], 2) == [-1, 4, Fraction(77, 4)]
    _report(1, ok, "explicit sequence values exact", t0, 1)


def test_criterion_2_combination_identity_exact():
    t0 = time.perf_counter()
    bad = [(a, mu, n)
           for a in (2, 3, 4, 5)
           for mu in range(1, a)
           for n in range(0, 31)
           if not lemma1_residual(a, mu, n).is_zero()]
    _report(2, not bad, "residual identically zero for a<=5, n<=30", t0, 60)


def test_criterion_3_recurrence_suite():
    t0 = time.perf_counter()
    specs = make_paper_recurrences()
    n_hi = 150
    qt, pt = aptekarev_seq(n_hi + 1)
    data = {
        "aptekarev_q": qt, "aptekarev_p": pt,
        "rivoal_q": recurrence_generate(specs["rivoal_q"], n_hi + 3),
        "rivoal_p": recurrence_generate(specs["rivoal_p"], n_hi + 3),
        "a2_q": q_seq(2, n_hi + 2), "a2_p1": p_seq(2, 1, n_hi + 2),
        "a3_q": q_seq(3, n_hi + 1), "a3_p1": p_seq(3, 1, n_hi + 1),
        "a3_p2": p_seq(3, 2, n_hi + 1),
        "a4_q": q_seq(4, n_hi + 2), "a4_p1": p_seq(4, 1, n_hi + 2),
        "a4_p2": p_seq(4, 2, n_hi + 2), "a4_p3": p_seq(4, 3, n_hi + 2),
    }
    ok = True
    for name, seq in data.items():
        spec = specs[name]
        ys, den = common_den(seq)
        if not recurrence_check(spec, ys, range(3, n_hi + 1), den):
            ok = False
            break
    # consistency of the generated family with its limit
    g = 0.5772156649015329
    errs = [abs(float(Fraction(p) / Fraction(q)) - g)
            for p, q in zip(data["rivoal_p"][3:], data["rivoal_q"][3:])]
    ok &= errs[-1] < errs[0]
    _report(3, ok, "five recurrence families exact for 3<=n<=150", t0, 120)


def test_criterion_4_integrality():
    t0 = time.perf_counter()
    n_hi = 150
    ok = True
    for a in (2, 3, 4, 5):
        qs = q_seq(a, n_hi)
        ok &= all(isinstance(v, int) and v > 0 for v in qs)
        for mu in range(1, a):
            ps = p_seq(a, mu, n_hi)
            for n in range(n_hi + 1):
                d = lcm_upto(n) ** mu
                if (d * ps[n]).denominator != 1:
                    ok = False
    _report(4, ok, "q_n integral, D_n^mu p_n integral up to n=150", t0, 120)


def test_criterion_5_convergence_window():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for a, mus, ns in ((3, (1, 2), (50, 100, 200)),
                       (4, (1, 2, 3), (50, 100))):
        for mu in mus:
            errs = []
            for n in ns:
                rec = convergence_row(a, mu, n)
                e_pred = corollary_exponent(a, n)
                lo, hi = 1.15 * e_pred - 5, 0.85 * e_pred + 5
                if not lo <= rec.err_log <= hi:
                    ok = False
                    detail.append("a=%d mu=%d n=%d err=%.1f window=[%.1f,%.1f]"
                                  % (a, mu, n, rec.err_log, lo, hi))
                errs.append(rec.err_log)
            if not all(x > y for x, y in zip(errs, errs[1:])):
                ok = False
                detail.append("a=%d mu=%d not decreasing" % (a, mu))
    _report(5, ok, "; ".join(detail) or "measured error inside predicted window",
            t0, 300)


def test_criterion_6_qn_growth():
    t0 = time.perf_counter()
    qs = q_seq(3, 1000)
    ratios = {n: math.exp(math.log(qs[n]) - qn_log_asymptotic(3, n))
              for n in (250, 500, 1000)}
    ok = 0.7 <= ratios[500] <= 1.4
    ok &= abs(ratios[1000] - 1) < abs(ratios[250] - 1)
    _report(6, ok, "q_n growth ratio %.4f at n=500" % ratios[500], t0, 120)


def test_criterion_7_first_sequence_error_constant():
    t0 = time.perf_counter()
    n = 400
    qt, pt = aptekarev_seq(n)
    g = fraction_of(gamma_const(80))
    diff = float(Fraction(pt[n]) / qt[n] - g)
    pred = 2 * math.pi * math.exp(-2 * math.sqrt(2 * n))
    ratio = diff / pred
    ok = 0.8 <= ratio <= 1.25
    _report(7, ok, "error-constant ratio %.4f at n=400" % ratio, t0, 60)


def test_criterion_8_exponent_coefficients():
    t0 = time.perf_counter()
    ok = bm_coeffs(3) == [-3, -1, Fraction(-1, 3)]
    b4 = bm_coeffs(4)
    ok &= b4[:3] == [-4, Fraction(-3, 2), Fraction(-5, 8)]
    for a in range(2, 9):
        b = bm_coeffs(a)
        ok &= b[0] == -a
        ok &= b[1] == Fraction(1 - a, 2)
        if a >= 3:
            ok &= b[2] == Fraction((1 - a) * (2 * a - 3), 6 * a)
    # error exponents: -(9/2)n^{2/3} + (3/2)n^{1/3} and
    # -4n^{3/4} + 3n^{1/2} - (5/8)n^{1/4}, coefficient-exact
    cos3 = {1: Fraction(-1, 2), 2: Fraction(-1, 2)}
    cos4 = {1: Fraction(0), 2: Fraction(-1), 3: Fraction(0)}
    got3 = [(-1) ** m * bm_coeffs(3)[m - 1] * (cos3[m] - 1) for m in (1, 2)]
    got4 = [(-1) ** m * bm_coeffs(4)[m - 1] * (cos4[m] - 1) for m in (1, 2, 3)]
    ok &= got3 == [Fraction(-9, 2), Fraction(3, 2)]
    ok &= got4 == [Fraction(-4), Fraction(3), Fraction(-5, 8)]
    # q_n exponents: 3n^{2/3} - n^{1/3} + 1/3 and 4n^{3/4} - (3/2)n^{1/2}
    # + (5/8)n^{1/4} + const
    qn3 = [(-1) ** m * bm_coeffs(3)[m - 1] for m in (1, 2, 3)]
    qn4 = [(-1) ** m * bm_coeffs(4)[m - 1] for m in (1, 2, 3)]
    ok &= qn3 == [3, -1, Fraction(1, 3)]
    ok &= qn4 == [4, Fraction(-3, 2), Fraction(5, 8)]
    # float evaluators agree with the frozen coefficients
    for n in (50, 500):
        want = float(Fraction(-9, 2)) * n ** (2 / 3) + 1.5 * n ** (1 / 3)
        ok &= math.isclose(corollary_exponent(3, n), want, rel_tol=1e-12)
    _report(8, ok, "b_m vectors and example exponents exact", t0, 5)


def test_criterion_9_tail_bound():
    t0 = time.perf_counter()
    ok = True
    for a in (2, 3, 4):
        for u in range(-a, a + 1):
            for n in (5, 10, 20):
                # (n+1)^-a is the first term; the later ones and the
                # 30-digit truncation and rounding move it by at most
                # 2/(n+2)^a + (n+1)^a 10^-30 of itself
                tail = fraction_of(tail_series(a, u, n, 30))
                if (abs((n + 1) ** a * abs(tail) - 1)
                        > Fraction(2, (n + 2) ** a)
                        + Fraction((n + 1) ** a, 10 ** 30)):
                    ok = False
    _report(9, ok, "|(n+1)^a |tail| - 1| <= 2/(n+2)^a + (n+1)^a 10^-30 "
            "on all 63 cases", t0, 10)


def test_criterion_10_bell_bernoulli_suites():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(20250814)
    # recurrence ladder vs partition-sum oracle
    for n in range(0, 9):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        ok &= bell_ladder(xs)[n] == bell_eval_partitions(xs)
    # Bell addition theorem
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
              for _ in range(n)]
        ys = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
              for _ in range(n)]
        lhs = bell_ladder([x + y for x, y in zip(xs, ys)])[n]
        yx, yy = bell_ladder(xs), bell_ladder(ys)
        ok &= lhs == sum(binom(n, k) * yx[k] * yy[n - k]
                         for k in range(n + 1))
    # Bernoulli addition, recursion, falling-factorial, even-order sum,
    # odd vanishing
    for n in range(0, 7):
        for m in range(1, 5):
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            y = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            ok &= bernoulli_at(n, m + m, x + y) == sum(
                binom(n, k) * bernoulli_at(k, m, x)
                * bernoulli_at(n - k, m, y) for k in range(n + 1))
            ok &= m * bernoulli_at(n, m + 1, x) == (
                (m - n) * bernoulli_at(n, m, x)
                + (n * (x - m) * bernoulli_at(n - 1, m, x) if n else 0))
    for m in range(0, 7):
        want = [1]
        for j in range(1, m + 1):  # times x - j
            want = [lo - j * hi for lo, hi in zip([0] + want, want + [0])]
        ok &= gen_bernoulli(m, m + 1) == want
    for m in range(2, 13, 2):
        ok &= sum(binom(m, k) * 2 ** k
                  * bernoulli_at(k, m + 1, Fraction(m + 1, 2))
                  for k in range(m + 1)) == 0
    for m in range(1, 7):
        for n in range(0, 6):
            ok &= bernoulli_at(2 * n + 1, m, Fraction(m, 2)) == 0
    # cosecant-power coefficients, N <= 15: (z/sin z)^m (sin z/z)^m = 1
    sin_over_z = [Fraction((-1) ** j, factorial(2 * j + 1))
                  for j in range(16)]
    for m in range(1, 6):
        ok &= _series_mul(csc_power_coeffs(m, 15),
                          _series_pow(sin_over_z, m)) == [1] + [0] * 15
    ok &= csc_power_coeffs(1, 2) == [1, Fraction(1, 6), Fraction(7, 360)]
    _report(10, ok, "Bell and Bernoulli identity suites exact", t0, 60)


def test_criterion_11_saddle_roots():
    t0 = time.perf_counter()
    n = 10 ** 6
    ok = True
    for a in (2, 3, 4):
        for u in range(-a, a + 1):
            roots = [r.as_complex() for r in saddle_roots(a, u, n)]
            ok &= len(roots) == a
            ok &= len({(round(z.real, 9), round(z.imag, 9))
                       for z in roots}) == a
            for k, z in enumerate(roots):
                resid = abs(cmath.exp(1j * math.pi * u) * n * (z - 1) ** a
                            - z ** (a - 1))
                ok &= resid / n < 1e-8
                ok &= abs(z - saddle_seed(a, u, n, k)) < 1e-3
                # the Newton correction bounds the root's error: the
                # residual alone lets a root 1e-5 off pass at a = 3, 4
                val, slope = _p_dp(a, u, n, z)
                ok &= abs(val / slope) <= 1e-12 * abs(z)
    _report(11, ok, "refined saddle roots distinct, residual < 1e-8 n, "
            "Newton correction <= 1e-12 |t|", t0, 10)
