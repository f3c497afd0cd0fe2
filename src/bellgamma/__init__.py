"""Exact rational approximations to Bell-polynomial combinations of
Euler's constant and zeta values, with every structural identity about
them checkable in exact arithmetic.

The public names below are loaded on first use (PEP 562), so importing
the package, or one of its modules such as `bellgamma.cli`, compiles
only the modules that are actually used.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it provides
_MODULES = {
    "asymptotics": (
        "ExponentProfile", "bm_coeffs", "corollary_exponent",
        "exponent_profile", "lagrange_coeff", "linform_exponent",
        "qn_log_asymptotic"),
    "bell": (
        "bell_eval", "bell_eval_partitions", "bell_ladder",
        "partition_multinomial", "partitions"),
    "bernoulli": ("PolyQ", "bernoulli_at", "bernoulli_number",
                  "csc_power_coeffs", "gen_bernoulli"),
    "kernel": ("backend_name", "seq_tables"),
    "lemma1": ("lemma1_residual",),
    "numerics": (
        "BigFix", "PrecisionError", "Rat", "binom", "factorial",
        "gamma_const", "lcm_upto", "poch", "zeta_const"),
    "recurrences": (
        "RecurrenceSpec", "aptekarev_seq", "make_paper_recurrences",
        "recurrence_check", "recurrence_generate"),
    "saddle": ("CPoint", "RootRefinementError", "root_report",
               "saddle_roots", "saddle_seed"),
    "sequences": (
        "ApproxRecord", "convergence_row", "p_at", "p_seq", "q_at", "q_seq",
        "records_to_csv"),
    "symring": ("SymPoly", "alpha_poly", "lambda_coeff"),
    "tail": ("tail_series",),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
