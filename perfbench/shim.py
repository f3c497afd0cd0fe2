"""Traced entry point: `bellgamma.cli.main` with spans around public functions.

    python3 perfbench/shim.py SPANS_OUT CLI_ARG...

Runs the CLI exactly as `python3 -m bellgamma.cli CLI_ARG...` would, so
stdout and the exit code are the same.  Before `main` starts it wraps the
functions in TARGETS, in the module that defines each and in every
bellgamma module that imported it by name.  Each call appends one span
(name, start, end, parent span index, selected arguments) to an in-memory
list, which is written as JSON to SPANS_OUT when the process exits,
together with the time the package import took.

Inner-loop helpers (bell_ladder, harmonic, the SymPoly and PolyQ
operators) are deliberately not wrapped: a span per call would cost more
than the work it measures.  A target missing from the version under test
is skipped, so its metrics read 0 rather than the run failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name, argument names recorded on the span)
TARGETS = (
    ("bellgamma.kernel", "seq_tables", "kernel.seq_tables", ("a", "n_max", "mu_max")),
    ("bellgamma.sequences", "q_at", "sequences.q_at", ()),
    ("bellgamma.sequences", "p_at", "sequences.p_at", ()),
    ("bellgamma.sequences", "q_seq", "sequences.q_seq", ("n_max",)),
    ("bellgamma.sequences", "p_seq", "sequences.p_seq", ("n_max",)),
    ("bellgamma.sequences", "convergence_row", "sequences.convergence_row", ()),
    ("bellgamma.sequences", "lemma1_residual", "sequences.lemma1_residual", ()),
    ("bellgamma.sequences", "F_sym", "sequences.F_sym", ()),
    ("bellgamma.sequences", "recurrence_check", "sequences.recurrence_check", ()),
    ("bellgamma.sequences", "recurrence_generate", "sequences.recurrence_generate", ()),
    ("bellgamma.sequences", "aptekarev_seq", "sequences.aptekarev_seq", ()),
    ("bellgamma.sequences", "integrality_check", "sequences.integrality_check", ()),
    ("bellgamma.sequences", "tail_series", "sequences.tail_series", ()),
    ("bellgamma.numerics", "gamma_const", "numerics.gamma_const", ("digits",)),
    ("bellgamma.numerics", "zeta_const", "numerics.zeta_const", ("m", "digits")),
    ("bellgamma.numerics", "lcm_upto", "numerics.lcm_upto", ()),
    ("bellgamma.numerics", "BigFix.ln", "numerics.BigFix.ln", ()),
    ("bellgamma.numerics", "BigFix.from_fraction", "numerics.BigFix.from_fraction", ()),
    ("bellgamma.numerics", "BigFix.to_decimal", "numerics.BigFix.to_decimal", ()),
    ("bellgamma.symring", "sp_eval", "symring.sp_eval", ()),
    ("bellgamma.symring", "alpha_poly", "symring.alpha_poly", ()),
    ("bellgamma.bell", "bell_eval", "bell.bell_eval", ()),
    ("bellgamma.bell", "bell_eval_partitions", "bell.bell_eval_partitions", ()),
    ("bellgamma.bernoulli", "csc_power_coeffs", "bernoulli.csc_power_coeffs", ()),
    ("bellgamma.bernoulli", "gen_bernoulli", "bernoulli.gen_bernoulli", ()),
    ("bellgamma.asymptotics", "corollary_exponent", "asymptotics.corollary_exponent", ()),
    ("bellgamma.asymptotics", "saddle_roots", "asymptotics.saddle_roots", ()),
    ("bellgamma.asymptotics", "exponent_profile", "asymptotics.exponent_profile", ()),
    ("bellgamma.cli", "main", "cli.main", ()),
)


class Tracer:
    """Span recorder; spans[i] = [name, start, end, parent index, args]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, keys: tuple):
        code = fn.__code__
        params = code.co_varnames[:code.co_argcount]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = None
            if keys:
                bound = dict(zip(params, args), **kwargs)
                rec = {k: bound.get(k) for k in keys}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> dict:
        """Wrap every target; returns {span name: wrapper}."""
        wrappers = {}
        for modname, attr, name, keys in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                continue  # gone from this version: its metrics read 0
            if isinstance(raw, classmethod):
                wrapped = self.wrap(name, raw.__func__, keys)
                setattr(owner, leaf, classmethod(wrapped))
            elif path:
                wrapped = self.wrap(name, raw, keys)
                setattr(owner, leaf, wrapped)
            else:
                wrapped = self.wrap(name, raw, keys)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("bellgamma"):
                        for key, val in list(vars(mod).items()):
                            if val is raw:
                                setattr(mod, key, wrapped)
            wrappers[name] = wrapped
        return wrappers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    importlib.import_module("bellgamma.cli")
    import_s = perf_counter() - t0
    tracer = Tracer()
    cli_main = tracer.install()["cli.main"]
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
