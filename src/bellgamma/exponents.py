"""Growth exponents of the linear forms and of q_n, from integer
coefficients.

The saddle-point coefficients c_m (series reversion) and b_m(a) (a power
series log expansion) are computed here as integer pairs (numerator,
denominator), denominator positive, and each exponent is a double.  A
pair's value is taken as num / den: int true division is correctly
rounded, so it is the double of the exact rational.  approx and table
read the predicted exponent (corollary_exponent) here and table the q_n
main term, roots and the saddle suite the c_m of the root seeds, and
asymptotics wraps the b_m(a) pairs as Fractions for its profiles.  The
linear-form exponent, which only the asymptotics command evaluates,
lives in module asymptotics (linform_exponent), so approx and table do
not compile it.  So only the commands that print a coefficient load
fractions.
"""

import functools
import math

from .common import factorial


def lagrange_pair(a: int, m: int) -> tuple[int, int]:
    """(C_m, a^{m-1} m!) with C_m = prod_{i<m-1} ((2+i) a - m), so that
    C_m / (a^{m-1} m!) = (2 - m/a)_{m-1} / m! = c_m, the series-reversion
    coefficient.  The pair is not reduced."""
    if a < 2 or m < 1:
        raise ValueError("require a >= 2 and m >= 1")
    c = 1
    for i in range(m - 1):
        c *= (2 + i) * a - m
    return c, a ** (m - 1) * factorial(m)


@functools.lru_cache(maxsize=16)
def bm_pairs(a: int) -> tuple:
    """b_1(a)..b_a(a) as (num, den) pairs: the coefficients of
    -a log(1 + sum_{m<=a} (2-(m+1)/a)_m z^m/(m+1)!) minus
    sum_{m<=a} c_m z^m, in integers.

    With K = (a+1)!, s_m = sigma_m / (aK)^m, where
    sigma_m = K^m prod_{i<m} ((2+i) a - m - 1) / (m+1)! is an integer.
    log(1 + s) = sum_m mu_m z^m / (m! (aK)^m), where L' (1 + s) = s'
    gives the integers mu_i = i! sigma_i
    - sum_{j<i} ((i-1)!/(j-1)!) mu_j sigma_{i-j}.  With c_m = C_m a K^m
    / (m! (aK)^m), b_m = -a (mu_m + C_m K^m) / (m! (aK)^m).  The pairs
    are not reduced."""
    if a < 2:
        raise ValueError("a must be at least 2")
    k = factorial(a + 1)
    sigma = [0]
    for m in range(1, a + 1):
        c = k ** m
        for i in range(m):
            c *= (2 + i) * a - m - 1
        sigma.append(c // factorial(m + 1))
    mu = [0]
    for i in range(1, a + 1):
        acc = factorial(i) * sigma[i]
        for j in range(1, i):
            acc -= factorial(i - 1) // factorial(j - 1) * mu[j] * sigma[i - j]
        mu.append(acc)
    return tuple((-a * (mu[m] + lagrange_pair(a, m)[0] * k ** m),
                  factorial(m) * (a * k) ** m) for m in range(1, a + 1))


def corollary_exponent(a: int, n: int) -> float:
    """sum_{m=1}^{a-1} (-1)^m b_m(a) (cos(2 pi m / a) - 1) n^{1-m/a},
    for n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum((-1) ** m * (num / den) * (math.cos(2 * math.pi * m / a) - 1)
               * float(n) ** (1 - m / a)
               for m, (num, den) in enumerate(bm_pairs(a)[:-1], 1))


def qn_log_asymptotic(a: int, n: int) -> float:
    """Natural log of the q_n main term.

    log n! - log(sqrt(a) (2 pi)^{(a-1)/2}) - (a-1)^2/(2a) log n
    + sum_{m=1}^{a} (-1)^m b_m(a) n^{1-m/a}; the m = a term is the
    constant b_a(a).  log n! is lgamma(n + 1), in double precision; it
    overflows (OverflowError) past n of about 2.5e305.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    val = math.lgamma(n + 1)
    val -= 0.5 * math.log(a) + (a - 1) / 2 * math.log(2 * math.pi)
    val -= (a - 1) ** 2 / (2 * a) * math.log(n)
    val += sum((-1) ** m * (num / den) * float(n) ** (1 - m / a)
               for m, (num, den) in enumerate(bm_pairs(a), 1))
    return val
