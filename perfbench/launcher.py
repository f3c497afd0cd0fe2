"""Small process that starts the CLI children and times them.

    python3 -S perfbench/launcher.py

Reads one JSON request per stdin line, {"cmd": [...], "env": {...},
"cwd": dir, "stdout": file, "stderr": file, "timeout": seconds}, runs
one calibration child, spawns the command with its output sent to the
two files, waits for it and writes one JSON line back: {"cal", "start",
"end", "status", "maxrss_kb"}.  "cal" is the calibration child's wall
time in seconds; start and end are time.perf_counter() values.

Why a separate process: Linux counts the RSS a child had before exec
into its ru_maxrss.  The benchmark itself is larger than a CLI child, so
children forked from it would all report the benchmark's own size.  This
launcher starts without `site` and imports little, so it stays smaller
than any child it starts.
"""

import json
import os
import signal
import sys
import time


def _kill_child(pid: int):
    def handler(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return handler


# A fixed job for a fresh interpreter: start-up plus small big-int and
# dict work.  It imports nothing from the code under test (-E -S), so its
# wall time tracks only how fast the machine runs a Python process at
# that moment.
_CALIBRATION = """
x = 3
for i in range(3000):
    x = (x * 1000003 + i) % (1 << 521)
d = {}
for i in range(20000):
    d[i & 1023] = d.get(i & 1023, 0) + i
"""


def calibrate() -> float:
    """Wall time of one calibration child, fork to exit."""
    cmd = [sys.executable, "-E", "-S", "-c", _CALIBRATION]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, {})
    os.waitpid(pid, 0)
    return time.perf_counter() - start


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        os.chdir(req["cwd"])
        cal = calibrate()
        start = time.perf_counter()
        pid = os.posix_spawn(req["cmd"][0], req["cmd"], req["env"], file_actions=actions)
        signal.signal(signal.SIGALRM, _kill_child(pid))
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.write(json.dumps({"cal": cal, "start": start, "end": end, "status": status,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
