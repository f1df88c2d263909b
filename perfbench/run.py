"""hamlab CLI benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each session runs in a fresh worker process (see worker.py): one client in a
closed loop calls ``hamlab.cli.main`` once per command, in-process, with
nothing running concurrently.  Sessions repeat with the same seeded inputs
while the next one is predicted to end within S seconds; at least one runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over the run:

- ``wall_s``: summed wall time of a session's commands;
- ``setup_s``: from starting a worker until it is ready to run, which covers
  interpreter start, ``import hamlab`` and writing the seeded inputs.  Extra
  workers that are stopped once ready add samples;
- ``peak_rss_mb``: ``ru_maxrss`` of a worker, which serves one session.

With ``--trace 1`` untraced and traced sessions alternate, and the last line
reports the per-layer metrics of the traced sessions (see tracer.py) plus
``trace_overhead_s``, the traced minus the untraced median ``wall_s``.

``attempted`` counts the commands run and ``failed`` those whose exit code
or output was wrong; ``ops_failed_frac`` is printed above the last line.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BUDGET_S = 170.0  # the whole run, under the 180 s a run may take
SETUP_ONLY = 6  # workers per untraced run that only set up

sys.path.insert(0, str(HERE))
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SessionError(Exception):
    """A worker crashed, hung or printed no result."""


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("cli.bytes_"):
        return "B"
    return "count"


class Worker:
    """One worker process, started in a fresh session directory."""

    def __init__(self, workload: str, seed: int, trace: bool, index: int, deadline: float):
        self.deadline = deadline
        self.workdir = WORK / f"session-{index}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        argv = [sys.executable, "-I", str(HERE / "worker.py"), workload, str(seed),
                "1" if trace else "0", str(self.workdir)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 0.0)

    def wait_ready(self) -> float:
        """Seconds from start until the worker reported ready."""
        ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - self.start
        if line.strip() != "ready":
            raise SessionError(f"worker was not ready: {line!r}")
        return setup

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=self.remaining())
            result = json.loads(out.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            raise SessionError(f"worker gave no result: {exc!r}") from exc
        if self.proc.returncode != 0:
            raise SessionError(f"worker exited with {self.proc.returncode}")
        return result

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_session(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    """One full session: its set-up time, results and, if traced, layer metrics."""
    worker = Worker(workload, seed, trace, index, deadline)
    try:
        setup = worker.wait_ready()
        result = worker.result()
        result["setup_s"] = setup
        result["session_s"] = time.perf_counter() - worker.start
        if trace:
            with open(worker.workdir / "trace.json", encoding="utf-8") as handle:
                dump = json.load(handle)
            result["layers"] = summarize(dump, {"cli.bytes_read": result["bytes_read"],
                                                "cli.bytes_written": result["bytes_written"]})
    finally:
        worker.close()
    return result


def setup_only(workload: str, seed: int, index: int, deadline: float) -> float:
    worker = Worker(workload, seed, False, index, deadline)
    try:
        return worker.wait_ready()
    finally:
        worker.close()


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set-up samples, then untraced and traced sessions until the next
    session would end after ``seconds``."""
    begin = time.monotonic()
    deadline = begin + BUDGET_S
    setups = [] if trace else [setup_only(workload, seed, i, deadline) for i in range(SETUP_ONLY)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        use_trace = trace and len(traced) < len(plain)
        session = run_session(workload, seed, use_trace, len(plain) + len(traced), deadline)
        (traced if use_trace else plain).append(session)
        if trace and not traced:
            continue
        longest = max(s["session_s"] for s in plain + traced)
        if time.monotonic() - begin + longest > seconds:
            return setups + [s["setup_s"] for s in plain], plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit so that workers are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hamlab" / "cli.py").is_file():
        print(f"error: no hamlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, plain, traced = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    sessions = plain + traced
    attempted = sum(s["attempted"] for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    for failure in failures:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}", file=sys.stderr)
        print(failure["stderr"], file=sys.stderr, end="")
    identical = len({s["digest"] for s in sessions}) == 1
    if not identical:
        print("FAILED sessions wrote different outputs from the same inputs", file=sys.stderr)

    wall = statistics.median(s["wall_s"] for s in plain)
    if args.trace:
        layers = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        layers["trace_overhead_s"] = statistics.median(s["wall_s"] for s in traced) - wall
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in plain),
                            "unit": "MiB"},
        }

    print(f"# workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced sessions, {len(setups)} set-ups")
    for argv, times in zip(plain[0]["argv"], zip(*(s["seconds"] for s in plain))):
        print(f"# {statistics.median(times):8.4f} s  hamlab {' '.join(argv)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed_frac {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops attempted)")
    print(json.dumps({"correct": not failures and identical, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
