"""The `table` command: convergence rows over an inclusive n range.

The listed rows are measured by one sequences.convergence_rows call, all
at the digits sequences._row_digits chooses for the deepest of them.
They are printed as csv, json or a text grid, with an optional q_n /
main-term column (qn_log_asymptotic, module exponents).  Only the table
command imports this module, so no approx request compiles it.
"""

import math

from .common import EXIT_OK, _json
from .exponents import qn_log_asymptotic
from .numerics import LN10
from .sequences import _row_digits, convergence_rows, records_to_csv


def _qn_ratio(a: int, n: int, q: int) -> float | None:
    """q = q_n over the asymptotic main term of q_n; None for n = 0."""
    if n < 1:
        return None
    return math.exp(math.log(q) - qn_log_asymptotic(a, n))


def cmd_table(args) -> tuple[str, int]:
    """The `table` command: convergence rows over args.n_range."""
    start, stop, step = args.n_range
    ns = range(start, stop + 1, step)
    # The last row first: a range past the limit is refused before it is
    # listed.
    _row_digits(args, ns[-1])
    digits = max(_row_digits(args, n) for n in ns)
    rows = convergence_rows(args.a, args.mu, ns, digits)
    ratios = ([_qn_ratio(args.a, r.n, r.q) for r in rows]
              if args.qn_ratio else None)
    if args.fmt == "json":
        objs = []
        for i, r in enumerate(rows):
            obj = {"a": r.a, "mu": r.mu, "n": r.n,
                   "p_num": r.p_num, "p_den": r.p_den,
                   "q": r.q, "err_log10": r.err_log / LN10,
                   "predicted_log10": r.predicted_exponent / LN10}
            if ratios is not None:
                obj["qn_ratio"] = ratios[i]
            objs.append(obj)
        text = _json(objs)
    else:
        text = records_to_csv(rows)
        if ratios is not None:
            lines = text.splitlines()
            lines[0] += ",qn_ratio"
            for i, v in enumerate(ratios):
                lines[i + 1] += "," + ("" if v is None else "%.6g" % v)
            text = "\n".join(lines) + "\n"
        if args.fmt == "text":
            grid = [line.split(",") for line in text.splitlines()]
            widths = [max(len(row[i]) for row in grid)
                      for i in range(len(grid[0]))]
            text = "\n".join("  ".join(cell.rjust(w)
                                       for cell, w in zip(row, widths))
                             for row in grid) + "\n"
    return text, EXIT_OK
