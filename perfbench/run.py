#!/usr/bin/env python3
"""Cold-CLI benchmark for bellgamma.

    python3 perfbench/run.py --workload {sweep,points,exact,defects} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package under test is `src/` next to this
directory.  One client sends requests from a seeded generator
(perfbench/workloads.py) as a closed loop: each request is a fresh
`python3 -m bellgamma.cli` child, and the next starts only after the
previous one has exited, so every request pays the CLI's cold start.

--trace 0 runs the loop for S seconds and reports the end-to-end metrics.
--trace 1 runs it untraced for S/2 seconds, then replays the same
requests through perfbench/shim.py, which records spans around the
public functions of each layer, and reports per-layer metrics from them.

Outside the timed region every output is checked by perfbench/check.py
and its sha256 compared with the replay (--trace 1) and with earlier runs
of the same code in the same environment (kept in .perfbench/).  A
request that exits non-zero, prints a wrong answer or prints different
bytes for the same argv counts as failed.

Stdout ends with an env line, a detail line and one result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"correct" is false only when an output was wrong or not reproducible;
crashes count in "failed" alone.  Seed 1009 is held out: use it only
to confirm a claim that was developed on other seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# Every request is preceded by a calibration child (launcher.calibrate),
# and every reported time is its wall time scaled by CAL_REF_S / (that
# calibration's wall time): the time it would have taken with the machine
# at reference speed.  On the shared 2-core x86-64 VM the bounds were set
# on, speed drifts by 20-50% within minutes; the scaling takes most of
# that out while staying independent of the code under test.  CAL_REF_S
# is about the calibration's median there (Python 3.11.7).
CAL_REF_S = 0.022
REQUEST_TIMEOUT_S = 60.0


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package, wrong import path)."""


def child_env() -> dict:
    """The pinned environment of every child: this checkout's src/ only,
    no BELLGAMMA_DIGITS and Python's default int->str digit limit."""
    env = dict(os.environ)
    for var in ("BELLGAMMA_DIGITS", "PYTHONINTMAXSTRDIGITS", "PYTHONSTARTUP",
                "PYTHONHOME", "PYTHONSAFEPATH", "PYTHONNOUSERSITE"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_rev() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def probe(env: dict) -> dict:
    """Import the package in a child (which also writes its bytecode cache)
    and return what the environment record needs from it."""
    if not (SRC / "bellgamma" / "cli.py").is_file():
        raise SetupError("no package at %s" % (SRC / "bellgamma"))
    code = ("import json, sys, bellgamma.cli, bellgamma.kernel as k; "
            "b = getattr(k, 'backend_name', None); "
            "print(json.dumps({'file': bellgamma.cli.__file__, "
            "'backend': b and b(), 'python': sys.version.split()[0]}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode:
        raise SetupError("cannot import bellgamma.cli: %s" % out.stderr.strip())
    info = json.loads(out.stdout)
    if Path(info["file"]).resolve().parent.parent != SRC:
        raise SetupError("bellgamma imported from %s, not %s" % (info["file"], SRC))
    return info


class Launcher:
    """The perfbench/launcher.py process that forks and times every child.

    It runs in its own session, so close() can stop it together with any
    child it still has."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def run(self, cmd: list, stdout: Path, stderr: Path) -> dict:
        req = {"cmd": [sys.executable, *cmd], "env": self.env, "cwd": str(ROOT),
               "stdout": str(stdout), "stderr": str(stderr),
               "timeout": REQUEST_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        """End of input stops the launcher; if it is still waiting on a
        child (an interrupted run), its whole session is killed."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Result:
    """One finished request."""

    __slots__ = ("argv", "cal", "scale", "latency", "code", "maxrss_kb",
                 "stdout", "stderr", "digest", "spans")

    def __init__(self, argv, cal, latency, code, maxrss_kb, stdout, stderr):
        self.argv = argv
        self.cal = cal
        self.scale = None
        self.latency = latency
        self.code = code
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.digest = hashlib.sha256(stdout).hexdigest()
        self.spans = None

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def apply_calibration(results: list) -> None:
    """Set each result's scale from the calibrations run just before it
    and just before the next request, which bracket it in time."""
    for r, nxt in zip(results, results[1:] + results[-1:]):
        r.scale = 2 * CAL_REF_S / (r.cal + nxt.cal)


def measure_setup(launcher: Launcher, scratch: Path) -> list:
    """Fresh interpreters that only import bellgamma.cli, as results."""
    out = []
    for _ in range(SETUP_REPEATS):
        rep = launcher.run(["-c", "import bellgamma.cli"],
                           scratch / "stdout", scratch / "stderr")
        if rep["status"]:
            raise SetupError("import bellgamma.cli failed")
        out.append(Result([], rep["cal"], rep["end"] - rep["start"], 0,
                          rep["maxrss_kb"], b"", b""))
    apply_calibration(out)
    return out


def run_request(launcher: Launcher, argv: list, scratch: Path,
                traced: bool = False) -> Result:
    """Run one CLI request; its wall time runs from fork to exit."""
    spans_out = scratch / "spans.json"
    if traced:
        cmd = [str(HERE / "shim.py"), str(spans_out), *argv]
    else:
        cmd = ["-m", "bellgamma.cli", *argv]
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    rep = launcher.run(cmd, out_path, err_path)
    res = Result(argv, rep["cal"], rep["end"] - rep["start"],
                 os.waitstatus_to_exitcode(rep["status"]), rep["maxrss_kb"],
                 out_path.read_bytes(), err_path.read_bytes())
    if traced and spans_out.exists():
        res.spans = json.loads(spans_out.read_text())
        spans_out.unlink()
    return res


def closed_loop(launcher: Launcher, argvs, seconds: float, scratch: Path) -> list:
    """Send requests back to back until they have taken `seconds` of wall
    time together; the request that crosses the limit is finished and
    kept.  Time the client spends between requests is not counted."""
    results = []
    busy = 0.0
    for argv in argvs:
        if busy >= seconds:
            break
        results.append(run_request(launcher, argv, scratch))
        busy += results[-1].latency
    apply_calibration(results)
    return results


def completed_per_second(results: list, seconds: float, scaled: bool = True) -> float:
    """Requests completed per second of request time, over the first
    `seconds` of wall request time; the request crossing that limit
    counts by its share inside, in both sums."""
    done = busy = spent = 0.0
    for r in results:
        share = min(1.0, max(0.0, (seconds - busy) / r.latency))
        done += share
        spent += share * (r.scaled if scaled else r.latency)
        busy += r.latency
    return done / spent


def tail(latencies: list) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    requests beyond it, i.e. the 11th-largest latency."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 0.0, n
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# per-layer aggregation of the traced replay
# ---------------------------------------------------------------------------

SELF_TIMES = (
    "kernel.seq_tables",
    "sequences.convergence_row", "sequences.lemma1_residual", "sequences.F_sym",
    "sequences.recurrence_check", "sequences.recurrence_generate",
    "sequences.aptekarev_seq", "sequences.integrality_check",
    "sequences.tail_series",
    "numerics.gamma_const", "numerics.zeta_const", "numerics.lcm_upto",
    "numerics.BigFix.ln", "numerics.BigFix.from_fraction",
    "numerics.BigFix.to_decimal",
    "symring.sp_eval", "symring.alpha_poly",
    "bell.bell_eval", "bell.bell_eval_partitions",
    "bernoulli.csc_power_coeffs", "bernoulli.gen_bernoulli",
    "asymptotics.corollary_exponent", "asymptotics.saddle_roots",
    "asymptotics.exponent_profile",
    "cli.main",
)
CALL_COUNTS = (
    "kernel.seq_tables", "sequences.q_at", "sequences.p_at", "sequences.q_seq",
    "sequences.p_seq", "sequences.convergence_row", "numerics.gamma_const",
    "numerics.zeta_const", "symring.sp_eval",
)


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics summed over the traced replay."""
    self_s = dict.fromkeys(SELF_TIMES, 0.0)
    calls = dict.fromkeys(CALL_COUNTS, 0)
    summands = built = served = max_n = max_digits = 0
    repeats = {"numerics.gamma_const": 0, "numerics.zeta_const": 0}
    for res in traced:
        spans = res.spans["spans"] if res.spans else []
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        seen = set()
        for (name, t0, t1, _, args), covered in zip(spans, child_time):
            if name in self_s:
                self_s[name] += (t1 - t0 - covered) * res.scale
            if name in calls:
                calls[name] += 1
            if name == "kernel.seq_tables":
                n, mu = args["n_max"], args["mu_max"]
                summands += (n + 1) * (n + 2) // 2
                built += (n + 1) * (mu + 1)
                max_n = max(max_n, n)
            elif name in ("sequences.q_at", "sequences.p_at"):
                served += 1
            elif name in ("sequences.q_seq", "sequences.p_seq"):
                served += args["n_max"] + 1
            elif name in repeats:
                key = (name, args.get("m"), args["digits"])
                repeats[name] += key in seen
                seen.add(key)
                max_digits = max(max_digits, args["digits"])
    time_traced = sum(r.scaled for r in traced)
    time_plain = sum(r.scaled for r in untraced)
    imports = [r.spans["import_s"] * r.scale for r in traced if r.spans]
    out = {
        "kernel.seq_tables.calls": (calls["kernel.seq_tables"], "count"),
        "kernel.seq_tables.self_s": (self_s["kernel.seq_tables"], "s"),
        "kernel.summands": (summands, "count"),
        "kernel.max_n": (max_n, "n"),
    }
    for name in ("q_at", "p_at", "q_seq", "p_seq", "convergence_row"):
        out["sequences.%s.calls" % name] = (calls["sequences." + name], "count")
    out["sequences.values_served"] = (served, "count")
    out["sequences.values_built"] = (built, "count")
    out["sequences.build_useful_ratio"] = (served / built if built else 0.0, "ratio")
    for name in SELF_TIMES:
        if name.startswith("sequences."):
            out[name + ".self_s"] = (self_s[name], "s")
    for name in ("numerics.gamma_const", "numerics.zeta_const"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
        out[name + ".repeat_calls"] = (repeats[name], "count")
    out["numerics.max_digits"] = (max_digits, "digits")
    for name in ("numerics.BigFix.ln", "numerics.BigFix.from_fraction",
                 "numerics.BigFix.to_decimal", "numerics.lcm_upto"):
        out[name + ".self_s"] = (self_s[name], "s")
    out["symring.sp_eval.calls"] = (calls["symring.sp_eval"], "count")
    for name in SELF_TIMES:
        if name.split(".")[0] in ("symring", "bell", "bernoulli", "asymptotics"):
            out[name + ".self_s"] = (self_s[name], "s")
    out["cli.self_s"] = (self_s["cli.main"], "s")
    out["process.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    out["trace.overhead_frac"] = ((time_traced - time_plain) / time_plain, "ratio")
    out["trace.requests"] = (len(traced), "count")
    return out


# ---------------------------------------------------------------------------
# determinism store
# ---------------------------------------------------------------------------

def _argv_key(argv: list) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()


def compare_digests(env_record: dict, results: list) -> set:
    """Indices of results whose stdout differs from an earlier run of the
    same argv with the same code and environment; records new digests.
    Runs in other environments are kept apart, never compared."""
    keys = ("python", "nproc", "machine", "backend", "bellgamma_pure", "src_sha256")
    fingerprint = hashlib.sha256(json.dumps(
        [env_record[k] for k in keys]).encode()).hexdigest()[:16]
    path = STATE / ("digests-%s.json" % fingerprint)
    store = json.loads(path.read_text()) if path.exists() else {}
    bad = set()
    for i, r in enumerate(results):
        key = _argv_key(r.argv)
        if store.setdefault(key, r.digest) != r.digest:
            bad.add(i)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store))
    os.replace(tmp, path)
    return bad


# ---------------------------------------------------------------------------

def measure(args, env: dict, info: dict) -> tuple:
    """Set-up timing, the closed loop and, with --trace 1, the replay."""
    STATE.mkdir(exist_ok=True)
    window = args.seconds / 2 if args.trace else args.seconds
    with tempfile.TemporaryDirectory(dir=STATE) as tmp, Launcher(env) as launcher:
        scratch = Path(tmp)
        setup = measure_setup(launcher, scratch)
        env_record = {
            "python": info["python"],
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "backend": info["backend"],
            "bellgamma_pure": os.environ.get("BELLGAMMA_PURE", ""),
            "git_rev": _git_rev(),
            "src_sha256": _tree_digest(SRC),
            "bench_sha256": _tree_digest(HERE),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        print(json.dumps({"env": env_record}), flush=True)
        results = closed_loop(launcher, workloads.requests(args.workload, args.seed),
                              window, scratch)
        traced = []
        if args.trace:
            traced = [run_request(launcher, r.argv, scratch, traced=True)
                      for r in results]
            apply_calibration(traced)
    return window, env_record, setup, results, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.set_int_max_str_digits(0)  # the checker parses long outputs
    # on SIGTERM, unwind so the launcher and its child are stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = child_env()
    try:
        window, env_record, setup, results, traced = measure(args, env, probe(env))
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    wrong = {}
    for i, r in enumerate(results):
        why = check.check(r.argv, r.code, r.stdout)
        if why:
            wrong[i] = why
    unstable = compare_digests(env_record, results)
    unstable |= {i for i, (r, t) in enumerate(zip(results, traced))
                 if r.digest != t.digest or r.code != t.code}
    failed = set(wrong) | unstable
    crashed = {i for i, r in enumerate(results) if r.code != 0}
    correct = not (set(wrong) - crashed) and not unstable

    latencies = [r.scaled for r in results]
    tail_value, tail_pct, n = tail(latencies)
    detail = {
        "requests": n,
        "failed_frac": len(failed) / n,
        "latency_tail_percentile": tail_pct,
        "calibration_s": statistics.median(r.cal for r in results),
        "wall": {"setup_s": statistics.median(r.latency for r in setup),
                 "requests_per_s": completed_per_second(results, window, scaled=False),
                 "latency_p50_s": statistics.median(r.latency for r in results),
                 "latency_tail_s": tail([r.latency for r in results])[0]},
        "failures": [{"argv": results[i].argv,
                      "why": wrong.get(i, "stdout differs between runs"),
                      "stderr_tail": results[i].stderr.decode(errors="replace")[-200:]}
                     for i in sorted(failed)][:10],
    }
    print(json.dumps({"detail": detail}), flush=True)

    if args.trace:
        metrics = layer_metrics(traced, results)
    else:
        metrics = {
            "setup_s": (statistics.median(r.scaled for r in setup), "s"),
            "requests_per_s": (completed_per_second(results, window), "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
            "ok_frac": ((n - len(failed)) / n, "ratio"),
        }
    result = {
        "correct": correct,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env_record, "detail": detail, "result": result,
                             "requests": [[r.latency, r.cal] for r in results]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
