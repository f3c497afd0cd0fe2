"""The exact identity suites behind `bellgamma verify`.

Each suite takes the parsed command-line namespace, in which the flags
it reads (a, nmax, digits) hold the suite's defaults when not given,
and returns a list of (check name, passed) pairs; SUITES maps the names
accepted by `verify --suite` to them, and cmd_verify, the `verify`
command, prints their results.  Only that command imports this module,
and each suite imports the modules it runs itself, so a request
compiles only its suite's code: the bell suite never loads sequences or
bernoulli, for instance, and only the tail suite loads numerics (with
module tail).
"""

import math
from fractions import Fraction

from .common import EXIT_OK, EXIT_VERIFY, binom, lcm_upto


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


# Euler's constant truncated to 100 decimals, the source of the Rivoal
# check (the recurrences suite does not load numerics)
_GAMMA_100 = int("5772156649015328606065120900824024310421593359399235988057"
                 "672348848677267776646709369470632917467495")


def _rivoal_vs_gamma(rec, specs, nmax):
    """Rivoal's q_n, p_n from their recurrences, n = 1..min(nmax, 868):
    |p_n/q_n - gamma| < 10^-floor(n^(2/3)) for every gamma in
    [_GAMMA_100, _GAMMA_100 + 1] / 10^100, a width 10^-10 of the bound
    at n = 868.  For n <= 600 the errors lie between 10^-1.1 n^(2/3) and
    10^-2.3 n^(2/3); a mistyped coefficient leaves them near 10^-5."""
    hi = min(nmax, 868)
    qs, ps = (rec.recurrence_generate(specs[name], hi)
              for name in ("rivoal_q", "rivoal_p"))
    lo_g = Fraction(_GAMMA_100, 10 ** 100)
    hi_g = lo_g + Fraction(1, 10 ** 100)
    ok, k = True, 0
    for n in range(1, hi + 1):
        k += (k + 1) ** 3 <= n * n  # floor(n^(2/3)) grows by 1 at most
        eps = Fraction(1, 10 ** k)
        ok = ok and hi_g - eps < ps[n] / qs[n] < lo_g + eps
    return ("recurrence rivoal_q, rivoal_p vs gamma to 100 digits: "
            "|p_n/q_n - gamma| < 10^-floor(n^(2/3)), n=1..%d" % hi, ok)


def _suite_recurrences(args):
    from . import kernel, recurrences as rec

    nmax = args.nmax
    tables = {a: kernel.seq_tables(a, nmax, a - 1) for a in (2, 3, 4)}
    apt = rec.aptekarev_seq(nmax)
    specs = rec.make_paper_recurrences()
    out = []
    for name, spec in specs.items():
        family, _, which = name.partition("_")
        if family == "rivoal":  # one check of the pair, in rivoal_q's place
            if which == "q":
                out.append(_rivoal_vs_gamma(rec, specs, nmax))
            continue
        if family == "aptekarev":
            ys = apt[which == "p"]
        else:  # "a3_q", "a3_p2": q or p_mu of a = 3 from its table
            q, p = tables[int(family[1:])]
            ys = q if which == "q" else p[int(which[1:]) - 1]
        hi = nmax - spec.offsets[-1]
        out.append(("recurrence %s vs explicit sum, n=%d..%d"
                    % (name, spec.n_min, hi),
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

    b_at = bernoulli.bernoulli_at
    # Each identity equates polynomials in x of degree <= n, so it holds
    # exactly when it holds at the n + 1 points x = 0..n.
    out = [("bernoulli falling-factorial identity m=0..8",
            all(b_at(m, m + 1, x) == math.prod(x - j for j in range(1, m + 1))
                for m in range(0, 9) for x in range(m + 1)))]
    out.append(("bernoulli order-raising recursion n,m<=8",
                all(m * b_at(n, m + 1, x)
                    == (m - n) * b_at(n, m, x)
                    + (n * (x - m) * b_at(n - 1, m, x) if n else 0)
                    for m in range(1, 9) for n in range(0, 9)
                    for x in range(n + 1))))
    y = Fraction(1, 3)
    ok = True
    for m in range(1, 6):
        at_y = [b_at(k, m, y) for k in range(9)]
        ok = ok and all(b_at(n, m, x + y)
                        == sum(binom(n, k) * at_y[k] * x ** (n - k)
                               for k in range(n + 1))
                        for n in range(0, 9) for x in range(n + 1))
    out.append(("bernoulli addition formula at y=1/3, n<=8 m<=5", ok))
    out.append(("bernoulli even-order alternating sum m=2,4,..,12",
                all(sum(binom(m, k) * 2 ** k
                        * b_at(k, m + 1, Fraction(m + 1, 2))
                        for k in range(m + 1)) == 0
                    for m in range(2, 13, 2))))
    out.append(("bernoulli odd values vanish at midpoint m<=6 n<=6",
                all(b_at(2 * n + 1, m, Fraction(m, 2)) == 0
                    for m in range(1, 7) for n in range(7))))
    # the inverse of (sin z/z)^m is unique: the product is 1 exactly when
    # every coefficient of (z/sin z)^m is right
    sin_over_z = [Fraction((-1) ** j, math.factorial(2 * j + 1))
                  for j in range(16)]
    ok = bernoulli.csc_power_coeffs(1, 2) == [1, Fraction(1, 6),
                                              Fraction(7, 360)]
    for m in range(1, 6):
        cs = bernoulli.csc_power_coeffs(m, 15)
        ok = ok and (bernoulli._series_mul(
            cs, bernoulli._series_pow(sin_over_z, m)) == [1] + [0] * 15)
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

    # (n+1)^a |sum| = 1 + r, with |r| <= 2/(n+2)^a for the later terms
    # (each at most half the one before) and (n+1)^a 10^-digits for the
    # truncation and rounding
    out = []
    for a in (2, 3, 4):
        ok = True
        for u in range(-a, a + 1):
            for n in (5, 10, 20):
                t = tail.tail_series(a, u, n, args.digits).to_fraction()
                ok = ok and (abs((n + 1) ** a * abs(t) - 1)
                             <= Fraction(2, (n + 2) ** a)
                             + Fraction((n + 1) ** a, 10 ** args.digits))
        out.append(("tail first term |(n+1)^%d |sum| - 1| <= 2/(n+2)^%d + "
                    "(n+1)^%d 10^-digits: all |u|<=%d, n in {5,10,20}"
                    % (a, a, a, a), ok))
    return out


def _suite_saddle(args):
    from .saddle import _p_dp, root_report

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
            for _, re, im, res, dist in rows:
                # the Newton correction bounds the root's error
                t = complex(re, im)
                val, slope = _p_dp(a, u, n, t)
                ok = (ok and res < 1e-8 and dist < 1e-3
                      and abs(val / slope) <= 1e-12 * abs(t))
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


def cmd_verify(args) -> tuple[str, int]:
    """The `verify` command: one PASS or FAIL line per check of the
    suite, then the count; exit 1 when any check failed."""
    checks = SUITES[args.suite](args)
    lines = []
    passed = 0
    for name, ok in checks:
        lines.append(("PASS " if ok else "FAIL ") + name)
        passed += ok
    lines.append("%d/%d checks passed" % (passed, len(checks)))
    return ("\n".join(lines) + "\n",
            EXIT_OK if passed == len(checks) else EXIT_VERIFY)
