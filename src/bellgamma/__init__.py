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
        "ExponentProfile", "bm_coeffs", "exponent_profile",
        "linform_exponent"),
    "bell": ("bell_eval", "bell_ladder"),
    "bernoulli": ("bernoulli_at", "bernoulli_number", "csc_power_coeffs"),
    "common": ("PrecisionError", "binom", "factorial", "lcm_upto"),
    "exponents": (
        "bm_pairs", "corollary_exponent", "lagrange_pair", "qn_log_asymptotic"),
    "kernel": ("backend_name",),
    "lemma1": ("lemma1_residual",),
    "numerics": ("BigFix", "gamma_const", "zeta_const"),
    "partition_sum": (
        "bell_eval_partitions", "partition_multinomial", "partitions"),
    "recurrences": (
        "RecurrenceSpec", "make_paper_recurrences", "recurrence_check"),
    "saddle": ("CPoint", "RootRefinementError", "root_report",
               "saddle_roots", "saddle_seed"),
    "sequences": ("ApproxRecord", "convergence_row", "records_to_csv"),
    "symring": ("SymPoly", "alpha_poly", "lambda_coeff"),
    "tail": ("tail_series",),
    "values": ("p_at", "p_seq", "q_at", "q_seq"),
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
