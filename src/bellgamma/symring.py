"""Sparse polynomials over Q in the formal symbols g, z2, ..., zM.

g stands for Euler's constant and z_m for zeta(m); lemma 1 alone (module
lemma1 and the tests' oracles) checks its identity exactly in this ring.
Exponent keys are tuples (e_g, e_z2, ..., e_zM) of length M; M is the
largest zeta index in scope (M = 1 means g only).

Coefficients are ints or Fractions: int inputs stay ints, so a
polynomial over Z (the scaled lemma-1 sums, the alpha_mu) is computed in
integer arithmetic, and any other input is coerced to Fraction unless
the constructor is told not to (lemma 1's Columns).  Zeros are never
stored.  The constructor validates its exponent keys; the ring
operations build their results directly from valid keys.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from operator import add

from .bell import bell_ladder
from .numerics import binom

_new = object.__new__


class SymPoly:
    """Immutable sparse polynomial keyed by exponent tuples."""

    __slots__ = ("m_index", "terms")

    def __init__(self, m_index: int, terms=None, *, coerce: bool = True):
        """coerce=False keeps non-int coefficients as given, not Fractions:
        ring elements with +, * and int scalars, as the kernel's Columns
        over k on which lemma 1 runs one Bell ladder per row."""
        if m_index < 1:
            raise ValueError("m_index must be >= 1")
        self.m_index = m_index
        clean = {}
        for expo, c in (terms or {}).items():
            if coerce and type(c) is not int:
                c = Fraction(c)
            if not c:
                continue
            expo = tuple(expo)
            if len(expo) != m_index or min(expo) < 0:
                raise ValueError("bad exponent vector %r for M=%d"
                                 % (expo, m_index))
            clean[expo] = c
        self.terms = clean

    # constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, m_index: int) -> "SymPoly":
        return cls(m_index, {})

    @classmethod
    def one(cls, m_index: int) -> "SymPoly":
        return cls.const(1, m_index)

    @classmethod
    def const(cls, c, m_index: int) -> "SymPoly":
        return cls(m_index, {(0,) * m_index: c})

    @classmethod
    def gamma(cls, m_index: int) -> "SymPoly":
        return cls(m_index, {(1,) + (0,) * (m_index - 1): 1})

    @classmethod
    def zeta(cls, m: int, m_index: int) -> "SymPoly":
        if not 2 <= m <= m_index:
            raise ValueError(f"zeta index {m} out of scope (M={m_index})")
        return cls(m_index, {(0,) * (m - 1) + (1,) + (0,) * (m_index - m): 1})

    # ring operations --------------------------------------------------------
    # Results are made by _new, slots set in place: on the small lemma-1
    # polynomials a constructor call per result would dominate the work.

    def __add__(self, other):
        # SymPoly first: isinstance against Fraction, an ABC, is slow
        if not isinstance(other, SymPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SymPoly.const(other, self.m_index)
        if self.m_index != other.m_index:
            raise ValueError("SymPoly M mismatch: %d vs %d"
                             % (self.m_index, other.m_index))
        out = self.terms.copy()
        for e, c in other.terms.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        r = _new(SymPoly)
        r.m_index = self.m_index
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        r = _new(SymPoly)
        r.m_index = self.m_index
        if not isinstance(other, SymPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            r.terms = ({e: other * c for e, c in self.terms.items()}
                       if other else {})
            return r
        if self.m_index != other.m_index:
            raise ValueError("SymPoly M mismatch: %d vs %d"
                             % (self.m_index, other.m_index))
        out = {}
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = SymPoly.one(self.m_index)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymPoly.const(other, self.m_index)
        return (isinstance(other, SymPoly) and self.m_index == other.m_index
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m_index, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # inspection -------------------------------------------------------------

    def coeff(self, expo) -> int | Fraction:
        return self.terms.get(tuple(expo), 0)

    def gamma_degree(self) -> int:
        return max((e[0] for e in self.terms), default=0)

    def constant_part(self) -> int | Fraction:
        return self.terms.get((0,) * self.m_index, 0)

    # rendering --------------------------------------------------------------

    @staticmethod
    def _mono_str(expo) -> str:
        parts = []
        names = ["g"] + [f"z{m}" for m in range(2, len(expo) + 1)]
        for name, e in zip(names, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # sort: total degree descending, then lexicographic
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        out = []
        for e in keys:
            c = self.terms[e]
            mono = self._mono_str(e)
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            if out and not piece.startswith("-"):
                out.append("+ " + piece)
            elif out:
                out.append("- " + piece[1:])
            else:
                out.append(piece)
        return " ".join(out)

    def __repr__(self) -> str:
        return f"SymPoly({self})"


def alpha_poly(a: int, mu: int, m_index: int | None = None) -> SymPoly:
    """Y_mu at the gamma/zeta point, as a SymPoly; alpha_poly(a,0) = 1.

    The Bell arguments are integer multiples of the symbols, so every
    coefficient is an int.  Results are cached and shared: a SymPoly is
    never modified in place.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    if mu < 0 or mu > a - 1:
        raise ValueError(f"mu={mu} out of range for a={a}")
    if m_index is None:
        m_index = max(a - 1, 1)
    return _alpha_poly(a, mu, m_index)


@functools.lru_cache(maxsize=64)
def _alpha_poly(a: int, mu: int, m_index: int) -> SymPoly:
    """Y_mu at x_1 = g, x_m = (m-1)! (a + (-1)^m (a-1)) z_m."""
    if mu == 0:
        return SymPoly.one(m_index)
    xs = [SymPoly.gamma(m_index)]
    for m in range(2, mu + 1):
        scal = factorial(m - 1) * (a + (-1) ** m * (a - 1))
        xs.append(scal * SymPoly.zeta(m, m_index))
    return bell_ladder(xs)[mu]


def lambda_coeff(a: int, mu: int, nu: int) -> SymPoly:
    """binom(mu, nu) * Y_{mu-nu} at the gamma/zeta point."""
    if not 1 <= nu <= mu:
        raise ValueError("lambda_coeff requires 1 <= nu <= mu")
    if not 1 <= mu <= a - 1:
        raise ValueError("lambda_coeff requires 1 <= mu <= a-1")
    return binom(mu, nu) * alpha_poly(a, mu - nu)
