"""The classical linear recurrences of the approximation sequences.

Five families (Aptekarev's, Rivoal's, and the q/p families of a = 2, 3,
4) as RecurrenceSpec values, an exact integer check of a spec against a
sequence, forward generation from the initial values, and the explicit
sums of Aptekarev's sequences.  Only `verify --suite recurrences` and
library callers import this module.  It imports neither symring nor
sequences; make_paper_recurrences loads bernoulli for PolyQ alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import kernel
from .numerics import factorial, lcm_upto


class RecurrenceSpec(namedtuple(
        "RecurrenceSpec", "name offsets coeffs inhom initial n_min")):
    """Linear recurrence sum_i coeffs[i](n) y_{n+offsets[i]} = inhom(n).

    offsets are ascending taps relative to the running index n; the
    relation is asserted for n >= n_min.  inhom is a (num, den) pair of
    polynomials or None for the homogeneous case.  initial lists
    y_0..y_{n_min + offsets[-1] - 1}, exactly the values a forward
    generation needs.
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


def recurrence_check(spec: RecurrenceSpec, seq, n_range) -> bool:
    """Exact check of spec against seq at every n in n_range, in integers:
    with L the lcm of seq's denominators, c(n) = h_c(n)/D_c (PolyQ.scaled)
    and D the lcm of the taps' D_c, sum_i h_i(n) (D/D_i) L y_{n+off_i}
    is compared with D L num(n)/den(n).  A vanishing leading coefficient
    is reported and the point skipped."""
    big = math.lcm(*(v.denominator for v in seq))
    ys = [v.numerator * (big // v.denominator) for v in seq]
    # a homogeneous relation as num/den = 0/1
    polys = [c.scaled() for c in spec.coeffs] + (
        [c.scaled() for c in spec.inhom] if spec.inhom
        else [(1, (0,)), (1, (1,))])
    d = math.lcm(*(dc for dc, _ in polys[:-2]))
    (dn, _), (dd, _) = polys[-2:]
    scale = dd * big * d
    for n in n_range:
        if n < spec.n_min:
            raise ValueError("relation not asserted below n_min=%d" % spec.n_min)
        if n + spec.offsets[-1] >= len(seq):
            raise ValueError("sequence too short for n=%d" % n)
        hs = []
        for _, cs in polys:
            h = 0
            for c in cs:
                h = h * n + c
            hs.append(h)
        *hs, hn, hd = hs
        if hs[-1] == 0:
            import logging  # here alone: it adds ~3 ms to every start-up

            logging.getLogger(__name__).warning(
                "%s: leading coefficient vanishes at n=%d, point skipped",
                spec.name, n)
            continue
        if hd == 0:
            raise ArithmeticError(
                "inhomogeneous denominator vanishes at n=%d" % n)
        lhs = sum(h * (d // dc) * ys[n + off]
                  for h, (dc, _), off in zip(hs, polys, spec.offsets))
        if lhs * dn * hd != hn * scale:
            return False
    return True


def recurrence_generate(spec: RecurrenceSpec, n_max: int) -> list:
    """y_0..y_{n_max} grown forward from spec.initial."""
    ys = [Fraction(v) for v in spec.initial]
    n = spec.n_min
    while len(ys) <= n_max:
        lead = spec.coeffs[-1](n)
        if lead == 0:
            raise ArithmeticError("leading coefficient vanishes at n=%d" % n)
        acc = Fraction(0)
        if spec.inhom is not None:
            num, den = spec.inhom
            dv = den(n)
            if dv == 0:
                raise ArithmeticError(
                    "inhomogeneous denominator vanishes at n=%d" % n)
            acc = num(n) / dv
        for off, c in zip(spec.offsets[:-1], spec.coeffs[:-1]):
            acc -= c(n) * ys[n + off]
        ys.append(acc / lead)
        n += 1
    return ys[:n_max + 1]


def make_paper_recurrences() -> dict:
    """The five classical recurrence families with their initial values."""
    from .bernoulli import PolyQ

    n = PolyQ.x()
    recs = {}

    apt_offsets = (-2, -1, 0, 1)
    apt_coeffs = (
        -(n ** 2) * (n - 1) ** 2 * (16 * n + 1),
        n ** 2 * (256 * n ** 3 - 240 * n ** 2 + 64 * n - 7),
        -(128 * n ** 3 + 40 * n ** 2 - 82 * n - 45),
        16 * n - 15,
    )
    for name, init in (("aptekarev_q", (1, 3, 50)),
                       ("aptekarev_p", (0, 2, 31))):
        recs[name] = RecurrenceSpec(name, apt_offsets, apt_coeffs, None,
                                    tuple(Fraction(v) for v in init), 2)

    riv_offsets = (0, 1, 2, 3)
    riv_coeffs = (
        -((n + 2) ** 2) * (8 * n + 19) * (8 * n + 27),
        (8 * n + 27) * (24 * n ** 3 + 105 * n ** 2 + 124 * n + 25),
        -(n + 3) * (8 * n + 11) * (24 * n ** 2 + 145 * n + 215),
        (n + 3) ** 2 * (8 * n + 11) * (8 * n + 19),
    )
    for name, init in (("rivoal_q", (1, 7, Fraction(65, 2))),
                       ("rivoal_p", (-1, 4, Fraction(77, 4)))):
        recs[name] = RecurrenceSpec(name, riv_offsets, riv_coeffs, None,
                                    tuple(Fraction(v) for v in init), 0)

    a2_offsets = (0, 1, 2)
    a2_coeffs = ((n + 1) ** 2, -2 * (n + 2), PolyQ.const(1))
    recs["a2_q"] = RecurrenceSpec("a2_q", a2_offsets, a2_coeffs, None,
                                  (Fraction(1), Fraction(2)), 0)
    recs["a2_p1"] = RecurrenceSpec("a2_p1", a2_offsets, a2_coeffs,
                                   (-n, n + 2), (Fraction(0), Fraction(1)), 0)

    a3_offsets = (-2, -1, 0, 1)
    a3_coeffs = (
        -n * (n - 1) ** 3 * (8 * n - 1),
        n * (24 * n ** 3 - 75 * n ** 2 + 52 * n - 5),
        -(24 * n ** 3 + 13 * n ** 2 - 32 * n - 18),
        (n + 1) * (8 * n - 9),
    )
    a3_inhom = (2 * (8 * n ** 4 - 17 * n ** 3 + 74 * n ** 2 - 12 * n - 9),
                n * (n + 1))
    for name, init, inhom in (
            ("a3_q", (1, 2, 11), None),
            ("a3_p1", (0, 1, Fraction(13, 2)), None),
            ("a3_p2", (0, 18, 95), a3_inhom)):
        recs[name] = RecurrenceSpec(name, a3_offsets, a3_coeffs, inhom,
                                    tuple(Fraction(v) for v in init), 2)

    a4_offsets = (-2, -1, 0, 1, 2)
    a4_coeffs = (
        n ** 2 * (n - 1) ** 4 * (729 * n ** 4 + 2754 * n ** 3
                                 + 3717 * n ** 2 + 2084 * n + 398),
        -(n ** 2) * (2916 * n ** 7 + 28512 * n ** 6 + 61848 * n ** 5
                     + 37667 * n ** 4 - 12898 * n ** 3 - 17463 * n ** 2
                     - 2692 * n + 398),
        PolyQ([168, 2680, 13528, 24204, -13062, -85776, -82674, -18468, 4374]),
        -PolyQ([312, 1320, -2370, -13008, 947, 20862, 14661, 2916]),
        (n + 2) ** 2 * (729 * n ** 4 - 162 * n ** 3 - 171 * n ** 2
                        - 4 * n + 6),
    )
    a4_inhom = (-6 * PolyQ([3184, 30840, 105332, 100424, -194460, -549106,
                            -490669, -179680, -17424, 2754, 729]),
                n * (n + 1) ** 2 * (n + 2))
    for name, init, inhom in (
            ("a4_q", (1, 2, 19, 250), None),
            ("a4_p1", (0, 1, 13, Fraction(409, 3)), None),
            ("a4_p2", (0, 32, 217, Fraction(26444, 9)), None),
            ("a4_p3", (0, 60, 402, Fraction(50761, 9)), a4_inhom)):
        recs[name] = RecurrenceSpec(name, a4_offsets, a4_coeffs, inhom,
                                    tuple(Fraction(v) for v in init), 2)
    return recs


def aptekarev_seq(n_max: int):
    """(q~, p~) explicit sums: q~_n = sum C(n,k)^2 (n+k)! and the
    matching numerator with harmonic weight H_{n+k} + 2H_{n-k} - 2H_k."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    d = lcm_upto(2 * n_max) if n_max >= 1 else 1
    sh = kernel.scaled_harmonics(2 * n_max, 1, d)[0]
    q = []
    p = []
    for n in range(n_max + 1):
        qn = 0
        pnum = 0
        c = 1
        f = factorial(n)
        for k in range(n + 1):
            if k:
                c = c * (n - k + 1) // k
                f *= n + k
            w = c * c * f
            qn += w
            pnum += w * (sh[n + k] + 2 * sh[n - k] - 2 * sh[k])
        q.append(qn)
        p.append(Fraction(pnum, d))
    return q, p
