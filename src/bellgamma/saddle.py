"""Saddle roots of e^{i pi u} n (t-1)^a - t^{a-1}, refined by complex
Newton iteration from the order-3 expansion seed.

Only the `roots` command, check_roots and cmd_roots, and `verify
--suite saddle`, suite_saddle, load this module; it is kept apart from
exponents so that approx and table, which need the exponents alone,
never compile it or load cmath.  The seeds' c_m are
exponents.lagrange_pair's integer pairs, so neither command loads
asymptotics or fractions.
"""

import cmath
import math
import sys
from collections import namedtuple

from .common import EXIT_OK, UsageError, _json
from .exponents import lagrange_pair

# Past 10^63 the a = 4 saddle roots, about n^{-1/4} from 1 and from each
# other, come within a few units of double rounding of one another, and
# Newton's iteration no longer brings the residual to the rounding level
# of its evaluation: for u = -4, -2, 0, 2, 4 it fails from 7*10^63 on.
# A scan of m*10^k, m = 1..9, k = 3..64, refined every a = 2..8,
# |u| <= a, to distinct roots up to 6*10^63.
_ROOTS_N_MAX = 10 ** 63


class CPoint(namedtuple("CPoint", "re im")):
    """A double-precision complex point; components must be finite."""

    __slots__ = ()

    def __new__(cls, re: float, im: float):
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError("CPoint components must be finite")
        return super().__new__(cls, re, im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


class RootRefinementError(ArithmeticError):
    """Newton refinement failed; carries the seed and last residual."""

    def __init__(self, seed: complex, residual: float):
        super().__init__("no convergence from seed %r (residual %.3g)"
                         % (seed, residual))
        self.seed = seed
        self.residual = residual


def saddle_seed(a: int, u: int, n: int, k: int) -> complex:
    """Order-3 expansion seed for the k-th root, k = 0..a-1."""
    t = 1 + 0j
    for m in (1, 2, 3):
        phase = cmath.exp(1j * m * (2 * math.pi * k - math.pi * u) / a)
        num, den = lagrange_pair(a, m)
        t += num / den * phase / n ** (m / a)
    return t


def _p_dp(a: int, u: int, n: int, t: complex) -> tuple:
    """p(t) = e^{i pi u} n (t-1)^a - t^{a-1} and its derivative p'(t)."""
    e_n = cmath.exp(1j * math.pi * u) * n
    return (e_n * (t - 1) ** a - t ** (a - 1),
            e_n * a * (t - 1) ** (a - 1) - (a - 1) * t ** (a - 2))


def saddle_roots(a: int, u: int, n: int) -> list:
    """All a roots of e^{i pi u} n (t-1)^a - t^{a-1}, Newton-refined.

    Each root starts from saddle_seed and is refined until |p(t)| is at
    the rounding level of its own evaluation, 8 eps (n |t-1|^a +
    |t|^{a-1} + |t| |p'(t)|), the last term for the rounding of t
    itself; it must get there within 100 iterations, or
    RootRefinementError carries the seed and final residual.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if abs(u) > a:
        raise ValueError("require |u| <= a")
    if n < 1000:
        raise ValueError("n must be at least 10^3")
    eps8 = 8 * sys.float_info.epsilon
    roots = []
    for k in range(a):
        seed = saddle_seed(a, u, n, k)
        t = seed
        for _ in range(100):
            val, slope = _p_dp(a, u, n, t)
            if abs(val) <= eps8 * (n * abs(t - 1) ** a + abs(t) ** (a - 1)
                                   + abs(t) * abs(slope)):
                break
            t = t - val / slope
        else:
            raise RootRefinementError(seed, abs(_p_dp(a, u, n, t)[0]))
        roots.append(CPoint(t.real, t.imag))
    if len({(r.re, r.im) for r in roots}) != a:
        raise ArithmeticError("refined roots collide; expected %d distinct" % a)
    return roots


def root_report(a: int, u: int, n: int) -> list:
    """(k, re, im, residual_over_n, seed_distance) for each saddle root.

    residual_over_n is |e^{i pi u} n (t-1)^a - t^{a-1}| / n at the refined
    root t, and seed_distance is |t - saddle_seed(a, u, n, k)|.
    """
    rows = []
    for k, r in enumerate(saddle_roots(a, u, n)):
        t = r.as_complex()
        res = abs(_p_dp(a, u, n, t)[0]) / n
        rows.append((k, r.re, r.im, res, abs(t - saddle_seed(a, u, n, k))))
    return rows


def suite_saddle(args) -> list:
    """The checks of `verify --suite saddle`: root_report refines every
    root for a = 2, 3, 4 and |u| <= a at n = 10^6, to the seed's
    neighbourhood and a Newton correction at the rounding level."""
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


def check_roots(args) -> None:
    """The `roots` command's own checks: |u| <= a and
    1000 <= n <= _ROOTS_N_MAX."""
    if abs(args.u) > args.a:
        raise UsageError("--u must satisfy |u| <= a")
    if args.n < 1000:
        raise UsageError("--n must be at least 1000")
    if args.n > _ROOTS_N_MAX:
        raise UsageError("--n must be at most 10^63")


def cmd_roots(args) -> tuple[str, int]:
    """The `roots` command: root_report as csv, json or text."""
    rows = root_report(args.a, args.u, args.n)
    if args.fmt == "json":
        objs = [{"k": k, "re": re, "im": im, "residual_over_n": res,
                 "seed_distance": dist} for k, re, im, res, dist in rows]
        text = _json(objs)
    elif args.fmt == "csv":
        lines = ["k,re,im,residual_over_n,seed_distance"]
        lines += ["%d,%.12g,%.12g,%.6g,%.6g" % row for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(
            "root %d: re=%.12g im=%.12g |p|/n=%.6g seed_distance=%.6g\n" % row
            for row in rows)
    return text, EXIT_OK
