"""The argparse reading of the command line, for what the direct reader
leaves to it.

cli.main reads a well-formed command line from its flag table without
argparse.  It imports this module only for any other command line: to
print --help, to report a usage error, or to read a spelling argparse
accepts beyond the direct reader's (abbreviations, --flag=value,
repeats, --).  build_parser takes that table as its argument, so this
module never imports bellgamma.cli, which runs as __main__ under
`python -m bellgamma.cli` and would compile a second time.
"""

import argparse

_COMMAND_HELP = {
    "approx": "one approximation row",
    "table": "convergence table over an n range",
    "verify": "exact identity suites",
    "constants": "gamma and zeta reference values",
    "asymptotics": "exponent coefficient profiles",
    "roots": "saddle-root refinement report",
}


def build_parser(flags):
    """The argparse parser of flags, cli._FLAGS: each command's flags as
    (option, dest, kind, default, required, help, metavar)."""
    ap = argparse.ArgumentParser(
        prog="bellgamma",
        description="Exact rational approximations to Bell-polynomial "
                    "combinations of gamma and zeta values.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, command_flags in flags.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for option, dest, kind, default, required, text, metavar in (
                command_flags):
            kwargs = {"dest": dest, "default": default, "help": text}
            if kind is None:
                kwargs["action"] = "store_true"
            elif kind is int:
                kwargs["type"] = int
            elif kind is not str:
                kwargs["choices"] = kind
            if required:
                kwargs["required"] = True
            if metavar:
                kwargs["metavar"] = metavar
            p.add_argument(option, **kwargs)
    return ap
