"""The alternating tail of the integral remainder, in exact integers.

suite_tail is `verify --suite tail`.  Only that suite and library
callers import this module, and it imports common alone: the suite
rounds each truncated sum from its integer pair (_tail_ratio), and only
tail_series, the library's BigFix value, imports numerics.  So that
suite compiles none of the ring, kernel or BigFix code and loads no
fractions.
"""

from .common import _div_nearest


def _tail_ratio(a: int, u: int, n: int, digits: int) -> tuple[int, int]:
    """(num, den), den > 0, with num/den the alternating remainder sum
    (n+1)^{-a} sum_k (-1)^{(u+1)k+a-1} k!^{a-1} / ((n+2)_k)^a,
    truncated when terms drop below 10^{-digits-5}.  Terms decay at
    least like 1/k!."""
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
    return acc, den * (n + 1) ** a


def tail_series(a: int, u: int, n: int, digits: int):
    """The sum of _tail_ratio(a, u, n, digits) as a BigFix at `digits`,
    rounded to nearest."""
    from .numerics import BigFix

    return BigFix.from_ratio(*_tail_ratio(a, u, n, digits), digits)


def suite_tail(args) -> list:
    """The checks of `verify --suite tail`: the first term sets the size
    of tail_series, for a = 2, 3, 4, every |u| <= a and n in {5, 10, 20}."""
    # (n+1)^a |sum| = 1 + r, with |r| <= 2/(n+2)^a for the later terms
    # (each at most half the one before) and (n+1)^a 10^-digits for the
    # truncation and rounding; with A = (n+1)^a, B = (n+2)^a and the
    # sum's mantissa M at scale 10^-digits, that is, times 10^digits B,
    # |A |M| - 10^digits| B <= 2 10^digits + A B
    one = 10 ** args.digits
    out = []
    for a in (2, 3, 4):
        ok = True
        for u in range(-a, a + 1):
            for n in (5, 10, 20):
                num, den = _tail_ratio(a, u, n, args.digits)
                m = _div_nearest(num * one, den)  # tail_series's mantissa
                big_a, big_b = (n + 1) ** a, (n + 2) ** a
                ok = ok and (abs(big_a * abs(m) - one) * big_b
                             <= 2 * one + big_a * big_b)
        out.append(("tail first term |(n+1)^%d |sum| - 1| <= 2/(n+2)^%d + "
                    "(n+1)^%d 10^-digits: all |u|<=%d, n in {5,10,20}"
                    % (a, a, a, a), ok))
    return out
