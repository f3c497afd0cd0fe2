"""How much of the code a command compiles it never runs.

    python3 tests/compile_share.py ["approx --a 5 --mu 3 --n 60" ...]

For each command line given (one argument each; DEFAULT_ARGVS when none
is), a child, with this checkout's src/ first on PYTHONPATH, runs the
front end as `python -m bellgamma.cli` does, as __main__, with every
Python call traced by sys.setprofile.  The script then parses each loaded module of the package, the front end included,
and prints the AST nodes of its source (what the process compiled) and
the nodes that sit in functions and lambdas whose code never ran, with
their share.  A function that never ran is counted whole, with what it
nests; within one that ran, only the nested functions that never ran
are counted.  Not collected by pytest: the name does not start with
test_.
"""

import ast
import json
import os
import subprocess
import sys

# One command line per command kind, the approx and table ones shaped
# like the requests of perfbench's points and sweep workloads.
DEFAULT_ARGVS = (
    "approx --a 5 --mu 3 --n 60 --format json",
    "table --a 4 --mu 3 --n 0:240:30 --format json",
    "verify --suite tail --digits 30",
    "constants --digits 200 --zeta-max 3 --format json",
    "asymptotics --a 4 --n 100 --format json",
    "roots --a 3 --format json",
)

# The child: run the front end as __main__ under a profile hook that
# records (file, first line, name) of every code object called, then
# print the package's loaded source files and those calls as json.
_CHILD = r"""
import importlib.util, json, runpy, sys
called = set()

def hook(frame, event, arg):
    if event == "call":
        c = frame.f_code
        called.add((c.co_filename, c.co_firstlineno, c.co_name))

sys.setprofile(hook)
try:
    runpy.run_module("bellgamma.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
finally:
    sys.setprofile(None)
files = sorted({m.__file__ for name, m in list(sys.modules.items())
                if name.startswith("bellgamma")}
               | {importlib.util.find_spec("bellgamma.cli").origin})
sys.stdout.flush()
sys.stderr.write("\n" + json.dumps({"code": code, "files": files,
                                    "called": sorted(called)}) + "\n")
"""

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _size(node) -> int:
    return sum(1 for _ in ast.walk(node))


def _first_line(node) -> int:
    """The co_firstlineno of a function's code: its first decorator's
    line, else the def's."""
    return min([node.lineno]
               + [d.lineno for d in getattr(node, "decorator_list", ())])


def _name(node) -> str:
    return "<lambda>" if isinstance(node, ast.Lambda) else node.name


def _dead_nodes(node, path: str, called: set) -> int:
    """Nodes under `node` in functions whose code never ran."""
    dead = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS) and (
                path, _first_line(child), _name(child)) not in called:
            dead += _size(child)
        else:
            dead += _dead_nodes(child, path, called)
    return dead


def compile_share(argv: str) -> dict:
    """{"argv", "exit", "modules": {name: (nodes, dead)}, "nodes",
    "dead", "share"} for one command line."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _CHILD] + argv.split(),
                         env=env, capture_output=True, text=True)
    report = json.loads(out.stderr.splitlines()[-1])
    called = {tuple(c) for c in report["called"]}
    modules = {}
    for path in report["files"]:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        name = os.path.relpath(path, src)[:-3].replace(os.sep, ".")
        modules[name] = (_size(tree), _dead_nodes(tree, path, called))
    nodes = sum(n for n, _ in modules.values())
    dead = sum(d for _, d in modules.values())
    return {"argv": argv, "exit": report["code"], "modules": modules,
            "nodes": nodes, "dead": dead, "share": dead / nodes}


def main(argvs) -> int:
    for argv in argvs or DEFAULT_ARGVS:
        r = compile_share(argv)
        print("%s  (exit %s)" % (r["argv"], r["exit"]))
        for name, (nodes, dead) in sorted(r["modules"].items()):
            print("  %-24s %6d nodes %6d never called" % (name, nodes, dead))
        print("  %-24s %6d nodes %6d never called (%.1f%%)"
              % ("total", r["nodes"], r["dead"], 100 * r["share"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
