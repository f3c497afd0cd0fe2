"""Whether the CLI of this checkout prints what another checkout's does.

    python3 tests/same_output.py OTHER_SRC [--count N] [--seeds S ...]

OTHER_SRC is the src/ directory of the other checkout.  The command
lines are the first N (default 200) requests of each of perfbench's
sweep, points and exact workloads for each seed (default 1 2 3), read
from perfbench/workloads.py, followed by EXTRA_ARGVS: tables whose rows
need widely spread digits, and requests that exit 2 or 3.
Each runs as `python3 -m bellgamma.cli`, once with this checkout's src/
first on PYTHONPATH and once with OTHER_SRC, BELLGAMMA_DIGITS unset, two
command lines at a time.  Every command line whose stdout, stderr or
exit code differs is printed, and the script exits 1 if there is one,
else 0.  Not collected by pytest: the name does not start with test_.
"""

import argparse
import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("sweep", "points", "exact")

# Tables whose rows, measured alone, would take widely spread digits
# (exit 0), then requests that fail: precision failures (exit 3), within
# and past the radius, and usage errors (exit 2), both of _read_argv and
# of argparse.
EXTRA_ARGVS = (
    "table --a 2 --mu 1 --n 100:1500:350 --format json",
    "table --a 4 --mu 3 --n 0:1200:150",
    "approx --a 3 --mu 2 --n 50 --digits 2",
    "approx --a 2 --mu 1 --n 400 --digits 5",
    "approx --a 2 --mu 1 --n 100 --digits 2",
    "approx --a 8 --mu 7 --n 60 --digits 3 --format json",
    "table --a 4 --mu 2 --n 0:100:100 --digits 10",
    "table --a 3 --mu 1 --n 0:40:10 --digits 4 --format csv",
    "table --a 3 --mu 2 --n 0:1000:250 --digits 40",
    "approx --a 3 --mu 1 --n 100000000000000000000000",
    "approx --a 9 --mu 1 --n 5",
    "approx --a 3 --mu 3 --n 5",
    "approx --a 3 --mu 1 --n -1",
    "approx --a 3 --mu 1 --n 5 --digits 0",
    "approx --a 3 --mu 1",
    "approx --a=3 --mu 1 --n 5 --digits x",
    "table --a 3 --mu 1 --n 5:2",
    "table --a 3 --mu 1 --n 0:x",
    "verify --suite tail --a 3",
    "verify --suite recurrences --nmax 5",
    "constants --zeta-max 30",
    "approx --a 3 --mu 1 --n 5 --out no-such-directory/row.txt",
    "roots --a 3 --n 10",
    "asymptotics --a 3 --n 0",
    "asymptotics --a 3 --kind corollary --n 1" + "0" * 309,
    "asymptotics --a 4 --n 1" + "0" * 306,
    "roots --a 3 --u -4",
    "roots --a 5 --n 1" + "0" * 62 + "1",
    "verify --suite integrality --nmax -1",
    "bogus",
)


def argvs(count: int, seeds) -> list:
    """The command lines compared, as strings, in order."""
    out = []
    for workload in WORKLOADS:
        for seed in seeds:
            stream = workloads.requests(workload, seed)
            out += [" ".join(argv) for argv in itertools.islice(stream, count)]
    return out + list(EXTRA_ARGVS)


def run(src: str, argv: str) -> tuple:
    """(exit code, stdout, stderr) of the CLI from src on argv."""
    env = {k: v for k, v in os.environ.items() if k != "BELLGAMMA_DIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-m", "bellgamma.cli"]
                         + argv.split(), env=env, capture_output=True)
    return out.returncode, out.stdout, out.stderr


def compare(other: str, argv: str):
    """None when both checkouts agree on argv, else a line saying how
    they differ."""
    mine, theirs = run(os.path.join(ROOT, "src"), argv), run(other, argv)
    if mine == theirs:
        return None
    what = [name for name, x, y in zip(("exit code", "stdout", "stderr"),
                                       mine, theirs) if x != y]
    return "%s: differs in %s (exit %d here, %d there)" % (
        argv, " and ".join(what), mine[0], theirs[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other_src")
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(args.other_src, "bellgamma")):
        ap.error("no bellgamma package under %r" % args.other_src)
    lines = argvs(args.count, args.seeds)
    with ThreadPoolExecutor(max_workers=2) as pool:
        diffs = [d for d in pool.map(
            lambda a: compare(args.other_src, a), lines) if d]
    for d in diffs:
        print(d)
    print("%d command lines, %d differ" % (len(lines), len(diffs)))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
