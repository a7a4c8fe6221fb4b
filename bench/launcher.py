"""Starts the benchmark's child processes from a process that stays small.

On Linux a child's max-RSS, as `os.wait4` reports it, starts at its parent's
peak RSS. The benchmark process loads numpy, scipy and robocal to generate
inputs, so children it started itself would report at least its own peak.
`run.py` therefore starts this launcher before those imports and sends it
one JSON request per line on stdin: {"argv", "cwd", "env", "timeout_s"}.
The launcher runs the child, waits for it, and answers with one JSON line:
{"code", "wall_s", "cpu_s", "rss_mb", "stdout", "stderr"}.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time


def run(request: dict) -> dict:
    cwd = request["cwd"]
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=cwd, env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read().decode(errors="replace"),
                "stderr": err.read().decode(errors="replace")}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
