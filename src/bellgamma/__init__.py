"""Exact rational approximations to Bell-polynomial combinations of
Euler's constant and zeta values, with every structural identity about
them checkable in exact arithmetic."""

from .asymptotics import (CPoint, ExponentProfile, RootRefinementError,
                          bm_coeffs, corollary_exponent, exponent_profile,
                          lagrange_coeff, linform_exponent, profile_to_json,
                          qn_log_asymptotic, root_report, saddle_roots,
                          saddle_seed)
from .bell import (bell_eval, bell_eval_partitions, bell_ladder,
                   partition_multinomial, partitions)
from .bernoulli import PolyQ, bernoulli_at, csc_power_coeffs, gen_bernoulli
from .kernel import backend_name, seq_tables
from .numerics import (BigFix, PrecisionError, Rat, bernoulli_number, binom,
                       factorial, gamma_const, lcm_upto, poch, zeta_const)
from .powerseries import (SeriesQ, ps_exp, ps_log1p, ps_mul, ps_pow,
                          ps_recip)
from .sequences import (ApproxRecord, HarmonicCache, RecurrenceSpec,
                        aptekarev_seq, convergence_row, f_deriv_sym, F_sym,
                        harmonic, integrality_check, lemma1_residual,
                        make_paper_recurrences, p_at, p_seq, q_at, q_seq,
                        r_val, records_to_csv, recurrence_check,
                        recurrence_generate, tail_series)
from .symring import SymPoly, alpha_mu, alpha_poly, lambda_coeff, sp_eval

__version__ = "0.1.0"

__all__ = [
    "ApproxRecord", "BigFix", "CPoint", "ExponentProfile", "F_sym",
    "HarmonicCache", "PolyQ", "PrecisionError", "Rat", "RecurrenceSpec",
    "RootRefinementError", "SeriesQ", "SymPoly", "alpha_mu", "alpha_poly",
    "aptekarev_seq", "backend_name", "bell_eval", "bell_eval_partitions",
    "bell_ladder", "bernoulli_at", "bernoulli_number", "binom", "bm_coeffs",
    "convergence_row", "corollary_exponent", "csc_power_coeffs",
    "exponent_profile", "f_deriv_sym", "factorial", "gamma_const",
    "gen_bernoulli", "harmonic", "integrality_check", "lagrange_coeff",
    "lambda_coeff", "lcm_upto", "lemma1_residual", "linform_exponent",
    "make_paper_recurrences", "p_at", "p_seq", "partition_multinomial",
    "partitions", "poch", "profile_to_json", "ps_exp", "ps_log1p", "ps_mul",
    "ps_pow", "ps_recip", "q_at", "q_seq", "qn_log_asymptotic", "r_val",
    "records_to_csv", "root_report", "recurrence_check", "recurrence_generate",
    "saddle_roots", "saddle_seed", "seq_tables", "sp_eval", "tail_series",
    "zeta_const",
]
