"""The alternating tail of the integral remainder, in exact integers.

Only `verify --suite tail` and library callers import this module, and
it imports numerics alone, so that suite compiles none of the ring or
kernel code.
"""

from __future__ import annotations

from fractions import Fraction

from .numerics import BigFix


def tail_series(a: int, u: int, n: int, digits: int) -> BigFix:
    """Alternating remainder sum (n+1)^{-a} sum_k (-1)^{(u+1)k+a-1}
    k!^{a-1} / ((n+2)_k)^a, truncated when terms drop below
    10^{-digits-5}.  Terms decay at least like 1/k!."""
    if abs(u) > a:
        raise ValueError("require |u| <= a")
    if n < 1:
        raise ValueError("require n >= 1")
    if digits < 1:
        raise ValueError("digits must be positive")
    # Term k is num/den; the partial sum is acc/den over the same
    # running denominator.  num * 10^(digits+5) is carried as a running
    # product too, so no step multiplies two large integers.
    acc = 0
    k = 0
    num = 1
    num_scaled = 10 ** (digits + 5)
    den = 1
    while num_scaled >= den:
        if ((u + 1) * k + a - 1) % 2:
            acc -= num
        else:
            acc += num
        k += 1
        f = (n + 1 + k) ** a
        g = k ** (a - 1)
        num *= g
        num_scaled *= g
        den *= f
        acc *= f
    return BigFix.from_fraction(Fraction(acc, den * (n + 1) ** a), digits)
