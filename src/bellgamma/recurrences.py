"""The classical linear recurrences of the approximation sequences.

Five families (Aptekarev's, Rivoal's, and the q/p families of a = 2, 3,
4) as RecurrenceSpec values, an exact integer check of a spec against a
sequence, forward generation from the initial values, and the explicit
sums of Aptekarev's sequences.  Every coefficient of the five families
is an integer polynomial in n, stored as a function of n that returns
an int, and every initial value an int or an integer pair (num, den).
Everything here is in integers from end to end: a sequence is read as
ints over one common denominator (the kernel's integer table
kernel.int_rows, Aptekarev's sums over lcm(1..2 nmax)), and a pair is
grown by a forward step that never divides.  So this module imports no
fractions.  suite_recurrences is `verify --suite recurrences`; only that
suite and library callers import this module, and it imports neither
symring nor sequences nor bernoulli.
"""

import math
from collections import namedtuple

from . import kernel
from .common import factorial, lcm_upto


class RecurrenceSpec(namedtuple(
        "RecurrenceSpec", "name offsets coeffs inhom initial n_min")):
    """Linear recurrence sum_i coeffs[i](n) y_{n+offsets[i]} = inhom(n).

    offsets are ascending taps relative to the running index n; the
    relation is asserted for n >= n_min.  Each coefficient is a callable
    of n that returns an exact value: an int for the paper's families,
    whose coefficients are integer polynomials in n.  inhom is a (num,
    den) pair of such callables or None for the homogeneous case.
    initial lists y_0..y_{n_min + offsets[-1] - 1}, exactly the values a
    forward generation needs, each an int, a Fraction or an integer pair
    (num, den) with den > 0 that stands for num/den.
    """

    __slots__ = ()

    def __new__(cls, name: str, offsets: tuple, coeffs: tuple,
                inhom: tuple | None, initial: tuple, n_min: int):
        if list(offsets) != sorted(set(offsets)):
            raise ValueError("offsets must be strictly ascending")
        if len(offsets) != len(coeffs):
            raise ValueError("one coefficient polynomial per tap")
        if n_min + offsets[0] < 0:
            raise ValueError("n_min leaves a tap below index 0")
        if len(initial) != n_min + offsets[-1]:
            raise ValueError("initial values must cover y_0..y_{n_min+max_offset-1}")
        return super().__new__(cls, name, offsets, coeffs, inhom, initial,
                               n_min)

    @property
    def order(self) -> int:
        return self.offsets[-1] - self.offsets[0]


def recurrence_check(spec: RecurrenceSpec, seq, n_range,
                     den: int = 1) -> bool:
    """Exact check of spec against seq at every n in n_range, where seq
    holds ints over the common denominator L = den, y_n = seq[n]/L.
    sum_i c_i(n) L y_{n+off_i} d(n) is compared with u(n) L, where
    (u, d) = spec.inhom (with 0 for a homogeneous relation), in integers
    when the coefficients are ints.  The check divides by no
    coefficient, so it holds also where the leading one vanishes."""
    for n in n_range:
        if n < spec.n_min:
            raise ValueError("relation not asserted below n_min=%d" % spec.n_min)
        if n + spec.offsets[-1] >= len(seq):
            raise ValueError("sequence too short for n=%d" % n)
        lhs = sum(c(n) * seq[n + off]
                  for c, off in zip(spec.coeffs, spec.offsets))
        rhs = 0
        if spec.inhom is not None:
            u, d = spec.inhom
            dv = d(n)
            if dv == 0:
                raise ArithmeticError(
                    "inhomogeneous denominator vanishes at n=%d" % n)
            lhs *= dv
            rhs = u(n) * den
        if lhs != rhs:
            return False
    return True


def _grow(spec: RecurrenceSpec, ys: list, e, n_max: int):
    """(Y, E) with y_j = Y[j] / E[j] for j = 0..n_max, grown forward from
    ys, the initial values as ints over the common denominator e.

    The forward step never divides: it multiplies the running
    denominator by the row's leading coefficient (and inhomogeneous
    denominator) and scales the values still in the taps' reach by the
    same factor.  Two specs with the same coefficients and inhom,
    started over the same e, share every E[j]."""
    lo = spec.offsets[0]
    ys = ys[:n_max + 1]
    es = [e] * len(ys)
    n = spec.n_min
    window = ys[n + lo:]  # y_{n+lo} .. y_{n+offsets[-1]-1}, over e
    while len(ys) <= n_max:
        cs = [c(n) for c in spec.coeffs]
        f = cs.pop()
        if f == 0:
            raise ArithmeticError("leading coefficient vanishes at n=%d" % n)
        acc = -sum(c * window[off - lo] for c, off in zip(cs, spec.offsets))
        if spec.inhom is not None:
            num, den = spec.inhom
            dv = den(n)
            if dv == 0:
                raise ArithmeticError(
                    "inhomogeneous denominator vanishes at n=%d" % n)
            acc = num(n) * e + dv * acc
            f *= dv
        e *= f
        window = [y * f for y in window[1:]]
        window.append(acc)
        ys.append(acc)
        es.append(e)
        n += 1
    return ys, es


def _initial_ints(specs) -> tuple:
    """(yss, e): the initial values of each spec as ints over e, the lcm
    of all their denominators."""
    pairs = [[v if type(v) is tuple else (v.numerator, v.denominator)
              for v in spec.initial] for spec in specs]
    e = math.lcm(*(d for ps in pairs for _, d in ps))
    return [[v * (e // d) for v, d in ps] for ps in pairs], e


def _horner(cs: tuple, n):
    """sum_i cs[i] n^i for the ascending integer coefficients cs: an
    int at an int n."""
    acc = 0
    for c in reversed(cs):
        acc = acc * n + c
    return acc


def make_paper_recurrences() -> dict:
    """The five classical recurrence families with their initial values
    (ints, and (num, den) pairs for the others); every coefficient is an
    integer polynomial in n, written as a function of n."""
    recs = {}

    apt_offsets = (-2, -1, 0, 1)
    apt_coeffs = (
        lambda n: -(n ** 2) * (n - 1) ** 2 * (16 * n + 1),
        lambda n: n ** 2 * (256 * n ** 3 - 240 * n ** 2 + 64 * n - 7),
        lambda n: -(128 * n ** 3 + 40 * n ** 2 - 82 * n - 45),
        lambda n: 16 * n - 15,
    )
    for name, init in (("aptekarev_q", (1, 3, 50)),
                       ("aptekarev_p", (0, 2, 31))):
        recs[name] = RecurrenceSpec(name, apt_offsets, apt_coeffs, None,
                                    init, 2)

    riv_offsets = (0, 1, 2, 3)
    riv_coeffs = (
        lambda n: -((n + 2) ** 2) * (8 * n + 19) * (8 * n + 27),
        lambda n: (8 * n + 27) * (24 * n ** 3 + 105 * n ** 2 + 124 * n + 25),
        lambda n: -(n + 3) * (8 * n + 11) * (24 * n ** 2 + 145 * n + 215),
        lambda n: (n + 3) ** 2 * (8 * n + 11) * (8 * n + 19),
    )
    for name, init in (("rivoal_q", (1, 7, (65, 2))),
                       ("rivoal_p", (-1, 4, (77, 4)))):
        recs[name] = RecurrenceSpec(name, riv_offsets, riv_coeffs, None,
                                    init, 0)

    a2_offsets = (0, 1, 2)
    a2_coeffs = (lambda n: (n + 1) ** 2, lambda n: -2 * (n + 2), lambda n: 1)
    recs["a2_q"] = RecurrenceSpec("a2_q", a2_offsets, a2_coeffs, None,
                                  (1, 2), 0)
    recs["a2_p1"] = RecurrenceSpec("a2_p1", a2_offsets, a2_coeffs,
                                   (lambda n: -n, lambda n: n + 2), (0, 1), 0)

    a3_offsets = (-2, -1, 0, 1)
    a3_coeffs = (
        lambda n: -n * (n - 1) ** 3 * (8 * n - 1),
        lambda n: n * (24 * n ** 3 - 75 * n ** 2 + 52 * n - 5),
        lambda n: -(24 * n ** 3 + 13 * n ** 2 - 32 * n - 18),
        lambda n: (n + 1) * (8 * n - 9),
    )
    a3_inhom = (lambda n: 2 * (8 * n ** 4 - 17 * n ** 3 + 74 * n ** 2
                               - 12 * n - 9),
                lambda n: n * (n + 1))
    for name, init, inhom in (
            ("a3_q", (1, 2, 11), None),
            ("a3_p1", (0, 1, (13, 2)), None),
            ("a3_p2", (0, 18, 95), a3_inhom)):
        recs[name] = RecurrenceSpec(name, a3_offsets, a3_coeffs, inhom,
                                    init, 2)

    a4_offsets = (-2, -1, 0, 1, 2)
    a4_coeffs = (
        lambda n: n ** 2 * (n - 1) ** 4 * (729 * n ** 4 + 2754 * n ** 3
                                           + 3717 * n ** 2 + 2084 * n + 398),
        lambda n: -(n ** 2) * (2916 * n ** 7 + 28512 * n ** 6
                               + 61848 * n ** 5 + 37667 * n ** 4
                               - 12898 * n ** 3 - 17463 * n ** 2
                               - 2692 * n + 398),
        lambda n: _horner((168, 2680, 13528, 24204, -13062, -85776, -82674,
                           -18468, 4374), n),
        lambda n: -_horner((312, 1320, -2370, -13008, 947, 20862, 14661,
                            2916), n),
        lambda n: (n + 2) ** 2 * (729 * n ** 4 - 162 * n ** 3 - 171 * n ** 2
                                  - 4 * n + 6),
    )
    a4_inhom = (lambda n: -6 * _horner((3184, 30840, 105332, 100424, -194460,
                                        -549106, -490669, -179680, -17424,
                                        2754, 729), n),
                lambda n: n * (n + 1) ** 2 * (n + 2))
    for name, init, inhom in (
            ("a4_q", (1, 2, 19, 250), None),
            ("a4_p1", (0, 1, 13, (409, 3)), None),
            ("a4_p2", (0, 32, 217, (26444, 9)), None),
            ("a4_p3", (0, 60, 402, (50761, 9)), a4_inhom)):
        recs[name] = RecurrenceSpec(name, a4_offsets, a4_coeffs, inhom,
                                    init, 2)
    return recs


def _aptekarev_ints(n_max: int):
    """(d, q, p) with d = lcm(1..2 n_max) (1 for n_max = 0), q[n] = q~_n
    and p[n] = d p~_n, all ints: Aptekarev's explicit sums
    q~_n = sum_k C(n,k)^2 (n+k)! and p~_n, the same sum with the harmonic
    weight H_{n+k} + 2 H_{n-k} - 2 H_k.  Their weights C(n,k)^2 (n+k)!
    are n! C(n,k)^2 (n+1)...(n+k), so each row sums the smaller
    C(n,k)^2 (n+1)...(n+k), each from the one before by the term ratio
    (n-k+1)^2 (n+k) / k^2, and multiplies its two sums by n! once."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    d = lcm_upto(2 * n_max) if n_max >= 1 else 1
    sh = kernel.scaled_harmonics(2 * n_max, 1, d)[0]
    q = []
    p = []
    for n in range(n_max + 1):
        w = 1
        qn = pn = 0
        for k in range(n + 1):
            if k:
                w = w * (n - k + 1) ** 2 * (n + k) // (k * k)
            qn += w
            pn += w * (sh[n + k] + 2 * sh[n - k] - 2 * sh[k])
        f = factorial(n)
        q.append(f * qn)
        p.append(f * pn)
    return d, q, p


# Euler's constant truncated to 100 decimals, the source of the Rivoal
# check (the recurrences suite does not load numerics)
_GAMMA_100 = int("5772156649015328606065120900824024310421593359399235988057"
                 "672348848677267776646709369470632917467495")


def _rivoal_vs_gamma(specs, nmax):
    """Rivoal's q_n, p_n from their recurrences, n = 1..min(nmax, 868):
    |p_n/q_n - gamma| < 10^-floor(n^(2/3)) for every gamma in
    [_GAMMA_100, _GAMMA_100 + 1] / 10^100, a width 10^-10 of the bound
    at n = 868.  For n <= 600 the errors lie between 10^-1.1 n^(2/3) and
    10^-2.3 n^(2/3); a mistyped coefficient leaves them near 10^-5.
    Both are grown in integers over one running denominator, so
    p_n/q_n = P_n/Q_n, compared with the bounds by cross-multiplication."""
    hi = min(nmax, 868)
    pair = [specs["rivoal_q"], specs["rivoal_p"]]
    inits, e = _initial_ints(pair)
    qs, ps = (_grow(spec, ys, e, hi)[0] for spec, ys in zip(pair, inits))
    s = 10 ** 100
    ok, k = True, 0
    for n in range(1, hi + 1):
        k += (k + 1) ** 3 <= n * n  # floor(n^(2/3)) grows by 1 at most
        t = 10 ** k
        p, q = (ps[n], qs[n]) if qs[n] > 0 else (-ps[n], -qs[n])
        # (G+1)/s - 1/t < p/q < G/s + 1/t, times s t q > 0
        ok = ok and (((_GAMMA_100 + 1) * t - s) * q < p * (s * t)
                     < (_GAMMA_100 * t + s) * q)
    return ("recurrence rivoal_q, rivoal_p vs gamma to 100 digits: "
            "|p_n/q_n - gamma| < 10^-floor(n^(2/3)), n=1..%d" % hi, ok)


def suite_recurrences(args) -> list:
    """The checks of `verify --suite recurrences`: each family's
    recurrence against its explicit sums or kernel table, and Rivoal's
    pair against gamma.  Every value is an int over a common
    denominator: 1 for q, D^mu for D^mu p_{n,mu} (kernel.int_rows) and
    lcm(1..2 nmax) for Aptekarev's p~."""
    nmax = args.nmax
    tables = {a: kernel.int_rows(a, 0, nmax, a - 1) for a in (2, 3, 4)}
    apt = _aptekarev_ints(nmax)
    specs = make_paper_recurrences()
    out = []
    for name, spec in specs.items():
        family, _, which = name.partition("_")
        if family == "rivoal":  # one check of the pair, in rivoal_q's place
            if which == "q":
                out.append(_rivoal_vs_gamma(specs, nmax))
            continue
        if family == "aptekarev":
            d, q, p = apt
            ys, den = (p, d) if which == "p" else (q, 1)
        else:  # "a3_q", "a3_p2": q or D^mu p_mu of a = 3 from its table
            d, q, dp = tables[int(family[1:])]
            if which == "q":
                ys, den = q, 1
            else:
                mu = int(which[1:])
                ys, den = dp[mu - 1], d ** mu
        hi = nmax - spec.offsets[-1]
        out.append(("recurrence %s vs explicit sum, n=%d..%d"
                    % (name, spec.n_min, hi),
                    recurrence_check(spec, ys, range(spec.n_min, hi + 1),
                                     den)))
    return out
