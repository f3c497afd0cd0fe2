"""Lemma 1, the residual identity linking p_{n,mu}, q_n and F_{n,nu},
checked on integer coefficients over Z[G, Z_2, ..., Z_M].

With D = lcm(1..n), G = D g and Z_m = D^m z_m, the m-th derivative of
the summand exponent scales to D^m f^{(m)}(k) = c_m Z_m + D^m r_m(k),
which has integer coefficients.  Y_nu is isobaric of weight nu, so one
Bell ladder on these values, D^m r_m(k) a kernel Column over k, gives
D^nu Y_nu(f'(k), ..., f^{(nu)}(k)) for every k and nu at once, and the
alpha_mu, with integer coefficients, read the same in G, Z_m as in g,
z_m up to the factor D^mu.  Each row is built once, by kernel.row: its
q_n and D^mu p_{n,mu} enter the residual as they are, and its weights
and Columns feed that ladder.  Nothing is cached: suite_lemma1, which
is `verify --suite lemma1`, builds one row per n and checks every mu on
it.  Only that suite and library callers import this module; its
Fraction oracle F_sym is in the tests.
"""

from fractions import Fraction
from operator import mul

from . import kernel
from .bell import bell_ladder, point_coeff
from .symring import SymPoly, alpha_poly, lambda_coeff


def _deriv_coeff(a: int, m: int) -> int:
    """-c_m = (m-1)!((-1)^{m-1}(a-1) - a), c_m = point_coeff(a, m), the
    coefficient of z_m in the m-th derivative of the summand exponent
    (z_1 = g: -c_1 = -1)."""
    return -point_coeff(a, m)


def scaled_row(a: int, n: int):
    """(D, q_n, [D^mu p_{n,mu}], [D^nu F_{n,nu}]) for mu, nu up to a-1,
    all over Z, F in Z[G, Z_2..]: one kernel row gives q_n, every
    D^mu p_{n,mu}, the weights and the Columns of D^m r_m(k), and one
    Bell ladder over c_m Z_m + (those Columns) gives every F."""
    mu_max = a - 1
    halves = kernel.harmonic_halves(a, n, mu_max)
    ws, cols, q, dp = kernel.row(a, n, halves)
    zero = (0,) * mu_max
    xs = [SymPoly(mu_max, {zero[:m] + (1,) + zero[m + 1:]:
                           _deriv_coeff(a, m + 1), zero: col})
          for m, col in enumerate(cols)]
    f = [SymPoly(mu_max, {e: c * sum(ws) if type(c) is int
                          else sum(map(mul, ws, c))
                          for e, c in y.terms.items()})
         for y in bell_ladder(xs)]
    return halves[0], q, dp, f


def _scaled_residual(a: int, mu: int, row) -> SymPoly:
    """D^mu times lemma1_residual(a, mu, n), over Z[G, Z_2..], from
    row = scaled_row(a, n)."""
    _, q, dp, f = row
    res = -q * alpha_poly(a, mu) + dp[mu - 1]
    for nu in range(1, mu + 1):
        res = res - lambda_coeff(a, mu, nu) * f[nu]
    return res


def lemma1_residual(a: int, mu: int, n: int) -> SymPoly:
    """p_{n,mu} - q_n alpha_mu - sum_nu binom(mu,nu) alpha_{mu-nu} F_{n,nu}.

    The residual identity asserts this is the zero polynomial for every
    n; any nonzero return value is a counterexample witness.  It is
    formed in integers, as D^mu times itself over Z[G, Z_2..]
    (_scaled_residual), and the coefficient of a monomial of weight w is
    unscaled by D^{mu-w}.
    """
    kernel.check_mu(a, mu)
    row = scaled_row(a, n)
    d = row[0]
    return SymPoly(a - 1, {
        e: Fraction(c, d ** (mu - sum(i * x for i, x in enumerate(e, 1))))
        for e, c in _scaled_residual(a, mu, row).terms.items()})


def suite_lemma1(args) -> list:
    """The checks of `verify --suite lemma1`: lemma1_residual is zero for
    every mu < a and n <= nmax."""
    a, nmax = args.a, args.nmax
    # n outer, so each row and its F_{n,.} are built once and serve every
    # mu; the residual is zero exactly when D^mu times it is
    ok = dict.fromkeys(range(1, a), True)
    for n in range(nmax + 1):
        row = scaled_row(a, n)
        for mu in ok:
            ok[mu] = ok[mu] and _scaled_residual(a, mu, row).is_zero()
    return [("lemma1 residual zero: a=%d mu=%d n=0..%d" % (a, mu, nmax), good)
            for mu, good in ok.items()]
