"""Saddle roots of e^{i pi u} n (t-1)^a - t^{a-1}, refined by complex
Newton iteration from the order-3 expansion seed.

Only the `roots` command and `verify --suite saddle` load this module;
it is kept apart from asymptotics so that approx and table, which need
the exponents alone, never compile it or load cmath.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .asymptotics import lagrange_coeff


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
        t += float(lagrange_coeff(a, m)) * phase / n ** (m / a)
    return t


def saddle_roots(a: int, u: int, n: int) -> list:
    """All a roots of e^{i pi u} n (t-1)^a - t^{a-1}, Newton-refined.

    Each root starts from saddle_seed and must reach |p(t)| < 1e-10 n
    within 100 iterations; failure raises RootRefinementError with the
    seed and final residual.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if abs(u) > a:
        raise ValueError("require |u| <= a")
    if n < 1000:
        raise ValueError("n must be at least 10^3")
    e_u = cmath.exp(1j * math.pi * u)

    def p(t):
        return e_u * n * (t - 1) ** a - t ** (a - 1)

    def dp(t):
        return e_u * n * a * (t - 1) ** (a - 1) - (a - 1) * t ** (a - 2)

    tol = 1e-10 * n
    roots = []
    for k in range(a):
        seed = saddle_seed(a, u, n, k)
        t = seed
        for _ in range(100):
            val = p(t)
            if abs(val) < tol:
                break
            t = t - val / dp(t)
        else:
            raise RootRefinementError(seed, abs(p(t)))
        roots.append(CPoint(t.real, t.imag))
    if len({(r.re, r.im) for r in roots}) != a:
        raise ArithmeticError("refined roots collide; expected %d distinct" % a)
    return roots


def root_report(a: int, u: int, n: int) -> list:
    """(k, re, im, residual_over_n, seed_distance) for each saddle root.

    residual_over_n is |e^{i pi u} n (t-1)^a - t^{a-1}| / n at the refined
    root t, and seed_distance is |t - saddle_seed(a, u, n, k)|.
    """
    e_u = complex(math.cos(math.pi * u), math.sin(math.pi * u))
    rows = []
    for k, r in enumerate(saddle_roots(a, u, n)):
        t = r.as_complex()
        res = abs(e_u * n * (t - 1) ** a - t ** (a - 1)) / n
        rows.append((k, r.re, r.im, res, abs(t - saddle_seed(a, u, n, k))))
    return rows
