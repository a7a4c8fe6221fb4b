"""Benchmark of the robocal command-line program.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in bench/workloads.py, or `all`. The seed fixes
the generated inputs. With --trace 0 the workload's CLI commands run as child
processes, strictly one at a time, for about S seconds, and the end-to-end
metrics are reported as medians over the repetitions; times are scaled to a
fixed machine speed, measured by bench/reference.py in every repetition, and
also printed as measured. With --trace 1 the same
commands run in this process, alternately untraced and with every robocal
layer wrapped, and the per-layer metrics are reported. Every repetition's
outputs are checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; lines before it record the
environment and print each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

MIN_REPS = 5
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 30.0  # one command takes a few seconds
# Median wall and CPU time of bench/reference.py on a quiet machine (2 vCPUs of
# an Intel Xeon; Python 3.11, numpy 2.4, scipy 1.17). The end-to-end
# times are reported at this speed; see measure_children.
REFERENCE_WALL_S = 0.90
REFERENCE_CPU_S = 0.89

# Modules that load numpy or robocal (workloads, catalogue, spans) are imported
# inside functions, after main() has set the path and the thread environment.


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


# The program's matrices are small; BLAS threads would only add contention
# with other processes on the machine, and noise.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **ONE_THREAD,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Launcher:
    """Runs children one at a time through bench/launcher.py, which is started
    while this process is still small (see launcher.py for why)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path) -> Child:
        request = {"argv": [sys.executable, *argv], "cwd": str(cwd), "env": child_env(),
                   "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return Child(**json.loads(self._proc.stdout.readline()))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    with contextlib.suppress(Exception):  # the config layout differs by numpy version
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


class Outcome:
    """Invocations attempted and failures (failed invocations plus failed checks)."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.quality: dict[str, float] = {}
        self._first_stdouts: list[str] | None = None

    def invoked(self, argv, code: int, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            self.problems.append(f"{' '.join(argv)} exited {code}: {tail[0]}")

    def judge(self, prepared, workdir: Path, stdouts: list[str], label: str) -> None:
        if self._first_stdouts is None:
            self._first_stdouts = stdouts
        elif stdouts != self._first_stdouts:
            self.problems.append(f"stdout of the {label} repetition differs from the first")
        try:
            problems, quality = prepared.check(workdir, stdouts)
        except Exception:  # a check that cannot read the outputs is a failed check
            problems, quality = [traceback.format_exc(limit=1).strip()], {}
        self.problems += problems
        self.quality = quality or self.quality

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": len(self.problems), "metrics": metrics,
                "problems": self.problems}


def _keep_going(outcome: Outcome, start: float, rep_s: list[float], seconds: float) -> bool:
    """At least one repetition runs. After that: no failure yet, and another
    repetition fits in the measuring window or the minimum is unmet."""
    if not rep_s:
        return True
    if outcome.problems:
        return False
    return len(rep_s) < MIN_REPS or time.perf_counter() - start + max(rep_s) <= seconds


def measure_children(launcher: Launcher, workload, prepared, workdir: Path,
                     seconds: float) -> dict:
    from catalogue import END_TO_END

    outcome = Outcome()

    def child(argv):
        result = launcher.run(argv, workdir)
        outcome.invoked(argv, result.code, result.stderr)
        return result

    version = ["-m", "robocal.cli", "--version"]
    reference = [str(Path(__file__).with_name("reference.py"))]
    child(version)  # warm-up: byte-code compilation and file cache
    child(reference)

    # Each repetition also runs one start-up child, which samples setup_s, and
    # the reference program, which samples the machine's speed, over the same
    # window as the workload's commands.
    walls, cpus, rss, setup, ref_wall, ref_cpu, rep_s = [], [], [], [], [], [], []
    start = time.perf_counter()
    while _keep_going(outcome, start, rep_s, seconds):
        began = time.perf_counter()
        rep = [child(["-m", "robocal.cli", *cmd]) for cmd in prepared.commands]
        setup.append(child(version).wall_s)
        ref = child(reference)
        ref_wall.append(ref.wall_s)
        ref_cpu.append(ref.cpu_s)
        rep_s.append(time.perf_counter() - began)
        walls.append(sum(c.wall_s for c in rep))
        cpus.append(sum(c.cpu_s for c in rep))
        rss.append(max(c.rss_mb for c in rep))
        outcome.judge(prepared, workdir, [c.stdout for c in rep], f"#{len(walls)}")

    # Times at the reference speed: each repetition's times are divided by how
    # much slower than on a quiet machine the reference ran in that repetition,
    # which cancels a slowdown of the machine that lasts a few seconds or more.
    slow_wall = [r / REFERENCE_WALL_S for r in ref_wall]
    slow_cpu = [r / REFERENCE_CPU_S for r in ref_cpu]
    wall = statistics.median(w / k for w, k in zip(walls, slow_wall))
    values = {"wall_s": wall,
              "cpu_s": statistics.median(c / k for c, k in zip(cpus, slow_cpu)),
              "peak_rss_mb": statistics.median(rss),
              "setup_s": statistics.median(s / k for s, k in zip(setup, slow_wall)),
              "units_per_s": prepared.units / wall}
    print(f"# {workload.name}: {len(walls)} repetitions of {len(prepared.commands)} "
          f"command(s), {prepared.units:g} {workload.unit} each (the unit of units_per_s)")
    print(f"# {workload.name}: as measured, median wall {statistics.median(walls):.6g} s, "
          f"cpu {statistics.median(cpus):.6g} s, setup {statistics.median(setup):.6g} s; "
          f"the reference program ran {statistics.median(slow_wall):.4g}x (wall) and "
          f"{statistics.median(slow_cpu):.4g}x (cpu) its quiet time")
    return outcome.result({m.name: {"value": values[m.name], "unit": m.unit}
                           for m in END_TO_END})


def _in_process(prepared, workdir: Path, outcome: Outcome):
    """One repetition through robocal.cli.main in this process."""
    import robocal.cli

    stdouts, wall = [], 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in prepared.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = robocal.cli.main(argv)
                except Exception:  # an uncaught error is a failed invocation
                    traceback.print_exc(file=err)
                    code = 1
                wall += time.perf_counter() - start
            outcome.invoked(argv, code, err.getvalue())
            stdouts.append(out.getvalue())
    finally:
        os.chdir(cwd)
    return wall, stdouts


def import_times(launcher: Launcher, workdir: Path, outcome: Outcome) -> dict:
    from spans import parse_importtime

    runs = []
    for _ in range(IMPORTTIME_REPS):
        argv = ["-X", "importtime", "-c", "import robocal.cli"]
        result = launcher.run(argv, workdir)
        outcome.invoked(argv, result.code, result.stderr)
        runs.append(parse_importtime(result.stderr))
    return {pkg: statistics.median(r[pkg] for r in runs) for pkg in runs[0]}


def measure_traced(launcher: Launcher, workload, prepared, workdir: Path,
                   seconds: float) -> dict:
    from catalogue import PER_LAYER, TraceView
    from spans import Tracer

    outcome = Outcome()
    imports = import_times(launcher, workdir, outcome)
    tracer = Tracer()
    _, stdouts = _in_process(prepared, workdir, outcome)  # warm-up, checked
    outcome.judge(prepared, workdir, stdouts, "warm-up")
    plain, traced = [], []
    start = time.perf_counter()
    while _keep_going(outcome, start, [u + t for u, t in zip(plain, traced)], seconds):
        wall, stdouts = _in_process(prepared, workdir, outcome)
        plain.append(wall)
        outcome.judge(prepared, workdir, stdouts, f"untraced #{len(plain)}")
        with tracer.installed():
            wall, stdouts = _in_process(prepared, workdir, outcome)
        traced.append(wall)
        outcome.judge(prepared, workdir, stdouts, f"traced #{len(traced)}")

    tracer.write(WORK / f"spans-{workload.name}.json")
    view = TraceView(tracer.summarize(), len(traced), sum(traced), sum(plain),
                     imports, outcome.quality)
    print(f"# {workload.name}: {len(traced)} traced and {len(plain)} untraced "
          f"in-process repetitions, {len(tracer.start)} spans")
    return outcome.result({m.name: {"value": m.value(view), "unit": m.unit}
                           for m in PER_LAYER})


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepared = workload.prepare(seed, workdir)
        if trace:
            return measure_traced(launcher, workload, prepared, workdir, seconds)
        return measure_children(launcher, workload, prepared, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, result: dict) -> None:
    for problem in result.pop("problems"):
        print(f"# {name} FAILED: {problem}")
    print(f"# {name}: error_rate = {result['failed']}/{result['attempted']}")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robocal" / "cli.py").is_file():
        print(f"error: no robocal sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    launcher = Launcher()  # before numpy, scipy and robocal load
    try:
        sys.path.insert(0, str(SRC))
        os.environ.update(ONE_THREAD)  # before numpy loads, for the in-process runs
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            parser.error(f"unknown workload {unknown[0]!r}; "
                         f"known: {', '.join(WORKLOADS)}, all")
        print("# env " + json.dumps(environment(), sort_keys=True))
        for name in names:
            report(name, run_workload(launcher, name, args.seed, args.seconds,
                                      bool(args.trace)))
    finally:
        launcher.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
