"""The exact identity suites behind `bellgamma verify`.

Each suite takes the parsed command-line namespace, in which the flags
it reads (a, nmax, digits) hold the suite's defaults when not given,
and returns a list of (check name, passed) pairs; SUITES maps the names
accepted by `verify --suite` to them.  Only the verify command imports
this module, and each suite imports the modules it runs itself, so a
request compiles only its suite's code: the bell suite never loads
sequences or bernoulli, and the tail suite adds module tail alone, for
instance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numerics import binom, lcm_upto


def _suite_lemma1(args):
    from . import lemma1

    a, nmax = args.a, args.nmax
    # n outer, so each F_{n,.} is built once and serves every mu
    ok = dict.fromkeys(range(1, a), True)
    for n in range(nmax + 1):
        for mu in ok:
            ok[mu] = ok[mu] and lemma1.lemma1_residual(a, mu, n).is_zero()
    return [("lemma1 residual zero: a=%d mu=%d n=0..%d" % (a, mu, nmax), good)
            for mu, good in ok.items()]


def _suite_recurrences(args):
    from . import kernel, recurrences as rec

    nmax = args.nmax
    tables = {a: kernel.seq_tables(a, nmax, a - 1) for a in (2, 3, 4)}
    apt = rec.aptekarev_seq(nmax)
    out = []
    for name, spec in rec.make_paper_recurrences().items():
        family, _, which = name.partition("_")
        source = "explicit sum"
        if family == "aptekarev":
            ys = apt[which == "p"]
        elif family == "rivoal":
            ys, source = rec.recurrence_generate(spec, nmax), "generated values"
        else:  # "a3_q", "a3_p2": q or p_mu of a = 3 from its table
            q, p = tables[int(family[1:])]
            ys = q if which == "q" else p[int(which[1:]) - 1]
        hi = nmax - spec.offsets[-1]
        out.append(("recurrence %s vs %s, n=%d..%d" % (name, source,
                                                       spec.n_min, hi),
                    rec.recurrence_check(spec, ys, range(spec.n_min, hi + 1))))
    return out


def _suite_integrality(args):
    from . import kernel

    a, nmax = args.a, args.nmax
    q, p = kernel.seq_tables(a, nmax, a - 1)
    out = [("integrality q_n positive integers: a=%d n=0..%d" % (a, nmax),
            all(isinstance(v, int) and v > 0 for v in q))]
    for mu, row in enumerate(p, 1):
        ok = all((lcm_upto(n) ** mu * v).denominator == 1
                 for n, v in enumerate(row))
        out.append(("integrality lcm(1..n)^%d p_{n,%d} integral: a=%d n=0..%d"
                    % (mu, mu, a, nmax), ok))
    return out


def _suite_bernoulli(args):
    from . import bernoulli

    x = bernoulli.PolyQ.x()
    out = []
    ok = True
    for m in range(0, 9):
        want = bernoulli.PolyQ.const(1)
        for j in range(1, m + 1):
            want = want * (x - j)
        ok = ok and bernoulli.gen_bernoulli(m, m + 1) == want
    out.append(("bernoulli falling-factorial identity m=0..8", ok))
    ok = True
    for m in range(1, 9):
        for n in range(0, 9):
            lhs = m * bernoulli.gen_bernoulli(n, m + 1)
            rhs = (m - n) * bernoulli.gen_bernoulli(n, m)
            if n:
                rhs = rhs + n * (x - m) * bernoulli.gen_bernoulli(n - 1, m)
            ok = ok and lhs == rhs
    out.append(("bernoulli order-raising recursion n,m<=8", ok))
    ok = True
    y = Fraction(1, 3)
    for m in range(1, 6):
        for n in range(0, 9):
            lhs = bernoulli.gen_bernoulli(n, m)(x + y)
            rhs = sum((binom(n, k) * bernoulli.bernoulli_at(k, m, y))
                      * x ** (n - k) for k in range(n + 1))
            ok = ok and lhs == rhs
    out.append(("bernoulli addition formula at y=1/3, n<=8 m<=5", ok))
    ok = True
    for m in range(2, 13, 2):
        s = sum(binom(m, k) * bernoulli.bernoulli_at(k, m + 1,
                                                     Fraction(m + 1, 2)) * 2 ** k
                for k in range(m + 1))
        ok = ok and s == 0
    out.append(("bernoulli even-order alternating sum m=2,4,..,12", ok))
    ok = True
    for m in range(1, 7):
        for n in range(0, 7):
            ok = ok and bernoulli.bernoulli_at(2 * n + 1, m,
                                               Fraction(m, 2)) == 0
    out.append(("bernoulli odd values vanish at midpoint m<=6 n<=6", ok))
    ok = True
    try:
        for m in range(1, 6):
            cs = bernoulli.csc_power_coeffs(m, 15)
            ok = ok and len(cs) == 16 and cs[0] == 1
        ok = ok and bernoulli.csc_power_coeffs(1, 2) == [1, Fraction(1, 6),
                                                         Fraction(7, 360)]
    except ArithmeticError:
        ok = False
    out.append(("bernoulli csc-power dual-route coefficients m<=5 N<=15", ok))
    return out


def _suite_bell(args):
    import random

    from . import bell

    rng = random.Random(20250814)
    out = []
    ok = True
    for n in range(0, 9):
        for _ in range(4):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(n)]
            ok = ok and bell.bell_eval(xs) == bell.bell_eval_partitions(xs)
    out.append(("bell ladder vs partition sum, n<=8 random rationals", ok))
    ok = True
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        lhs = bell.bell_eval([a + b for a, b in zip(xs, ys)])
        rhs = sum(binom(n, k) * bell.bell_eval(xs[:k])
                  * bell.bell_eval(ys[:n - k]) for k in range(n + 1))
        ok = ok and lhs == rhs
    out.append(("bell addition theorem, n<=7", ok))
    ok = True
    c = Fraction(3, 7)
    for n in range(0, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)]
        scaled = [c ** (j + 1) * v for j, v in enumerate(xs)]
        ok = ok and bell.bell_eval(scaled) == c ** n * bell.bell_eval(xs)
    out.append(("bell isobaric scaling, n<=7", ok))
    return out


def _suite_tail(args):
    from . import tail

    out = []
    for a in (2, 3, 4):
        ok = True
        for u in range(-a, a + 1):
            for n in (5, 10, 20):
                t = tail.tail_series(a, u, n, args.digits)
                ok = ok and abs(float(t)) <= math.e / (n + 1) ** a
        out.append(("tail bound |sum| <= e/(n+1)^%d: all |u|<=%d, "
                    "n in {5,10,20}" % (a, a), ok))
    return out


def _suite_saddle(args):
    from .saddle import root_report

    n = 10 ** 6
    out = []
    for a in (2, 3, 4):
        ok = True
        for u in range(-a, a + 1):
            try:
                rows = root_report(a, u, n)
            except ArithmeticError:
                ok = False
                continue
            ok = ok and len(rows) == a
            for _, _, _, res, dist in rows:
                ok = ok and res < 1e-8 and dist < 1e-3
        out.append(("saddle roots refined: a=%d, all |u|<=%d, n=10^6" % (a, a),
                    ok))
    return out


SUITES = {
    "lemma1": _suite_lemma1,
    "recurrences": _suite_recurrences,
    "integrality": _suite_integrality,
    "bernoulli": _suite_bernoulli,
    "bell": _suite_bell,
    "tail": _suite_tail,
    "saddle": _suite_saddle,
}
