"""The `constants` command: gamma and zeta(2)..zeta(M) at chosen digits.

The values come from the oracles of module numerics; only the constants
command imports this module, so no approx or table request compiles it.
"""

from .common import EXIT_OK, UsageError, _json
from .numerics import gamma_const, zeta_const


def check_constants(args) -> None:
    """The `constants` command's own check: --zeta-max is in 2..20."""
    if not 2 <= args.zeta_max <= 20:
        raise UsageError("--zeta-max out of range 2..20")


def cmd_constants(args) -> tuple[str, int]:
    """The `constants` command: gamma and zeta(2)..zeta(--zeta-max)."""
    digits = args.digits if args.digits is not None else args.env_digits
    ms = range(2, args.zeta_max + 1)
    names = ["gamma"] + ["zeta(%d)" % m for m in ms]
    vals = [gamma_const(digits)] + [zeta_const(m, digits) for m in ms]
    if args.fmt == "json":
        obj = {"digits": digits,
               "gamma": vals[0].to_decimal(),
               "zeta": {str(m): v.to_decimal() for m, v in zip(ms, vals[1:])}}
        text = _json(obj)
    elif args.fmt == "csv":
        text = "name,value\n" + "".join(
            "%s,%s\n" % (n, v.to_decimal()) for n, v in zip(names, vals))
    else:
        text = "".join("%s = %s\n" % (n, v.to_decimal())
                       for n, v in zip(names, vals))
    return text, EXIT_OK
