"""The `verify` command and the integrality suite.

A suite takes the parsed command-line namespace, in which the flags it
reads (a, nmax, digits) hold the suite's defaults when not given, and
returns a list of (check name, passed) pairs.  check_verify, run before
the output is opened, rejects a flag the suite does not read and puts
those defaults in (SUITE_FLAGS).  Each suite is the public function
suite_<name> of the module that SUITES gives for its name, next to the
code it checks: lemma1, recurrences, bernoulli, tail and saddle hold
their own, and the bell suite lives in partition_sum with the
partition-sum oracle it compares the Bell ladder with.  The integrality
suite stays here, because kernel is compiled by every approx and table
request, which runs no suite.  cmd_verify, the `verify` command, imports
the suite's module and prints its results; only that command imports
this module.  So a request compiles its own suite and no other: the bell
suite never loads sequences or bernoulli, for instance, and no suite
loads numerics.  The integrality suite works in integers, on the
kernel's integer table (kernel.int_rows).
"""

import importlib

from .common import EXIT_OK, EXIT_VERIFY, UsageError, lcm_upto

# suite name -> the module that defines suite_<name>
SUITES = {"lemma1": "lemma1", "recurrences": "recurrences",
          "integrality": "verify", "bernoulli": "bernoulli",
          "bell": "partition_sum",
          "tail": "tail", "saddle": "saddle"}
# The flags each suite reads, with their defaults; passing it any other
# is a usage error.
SUITE_FLAGS = {"lemma1": {"a": 3, "nmax": 10}, "recurrences": {"nmax": 60},
               "integrality": {"a": 3, "nmax": 50}, "bernoulli": {},
               "bell": {}, "tail": {"digits": 30}, "saddle": {}}


def check_verify(args) -> None:
    """The `verify` command's own checks: the suite reads every flag
    given, and --nmax is in its range; then each flag the suite reads
    and was not given gets the suite's default."""
    for flag in ("a", "nmax", "digits"):
        if (getattr(args, flag) is not None
                and flag not in SUITE_FLAGS[args.suite]):
            raise UsageError("--%s is not read by the %s suite"
                             % (flag, args.suite))
    if args.nmax is not None and args.nmax < 0:
        raise UsageError("--nmax must be nonnegative")
    if args.suite == "recurrences" and args.nmax is not None:
        if args.nmax < 6:
            raise UsageError("--nmax too small for the recurrence suite")
    for flag, default in SUITE_FLAGS[args.suite].items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)


def cmd_verify(args) -> tuple[str, int]:
    """The `verify` command: one PASS or FAIL line per check of the
    suite, then the count; exit 1 when any check failed."""
    module = importlib.import_module("." + SUITES[args.suite], __package__)
    checks = getattr(module, "suite_" + args.suite)(args)
    lines = []
    passed = 0
    for name, ok in checks:
        lines.append(("PASS " if ok else "FAIL ") + name)
        passed += ok
    lines.append("%d/%d checks passed" % (passed, len(checks)))
    return ("\n".join(lines) + "\n",
            EXIT_OK if passed == len(checks) else EXIT_VERIFY)


def suite_integrality(args) -> list:
    """The checks of `verify --suite integrality`: q_n and
    lcm(1..n)^mu p_{n,mu} are integers, over the kernel table
    kernel.int_rows of rows n = 0..nmax.  It gives D^mu p_{n,mu} = v, an
    int, with D = lcm(1..nmax), so lcm(1..n)^mu p_{n,mu} is an integer
    when D^mu divides lcm(1..n)^mu v."""
    from . import kernel

    a, nmax = args.a, args.nmax
    d, q, dp = kernel.int_rows(a, 0, nmax, a - 1)
    out = [("integrality q_n positive integers: a=%d n=0..%d" % (a, nmax),
            all(isinstance(v, int) and v > 0 for v in q))]
    for mu, col in enumerate(dp, 1):
        dmu = d ** mu
        ok = all(lcm_upto(n) ** mu * v % dmu == 0 for n, v in enumerate(col))
        out.append(("integrality lcm(1..n)^%d p_{n,%d} integral: a=%d n=0..%d"
                    % (mu, mu, a, nmax), ok))
    return out
