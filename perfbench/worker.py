"""One verification session in a fresh process.

Usage: python -I perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

The worker imports hamlab from the checkout's ``src``, writes the seeded
inputs into WORKDIR, installs the tracer when TRACE is 1, and prints
``ready``.  Everything up to that line is set-up.  It then calls
``hamlab.cli.main(argv)`` for each command in turn with stdout captured,
checks each output after its command's timer has stopped, and prints one
JSON line with the session's results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    sys.path.insert(0, str(SRC))
    import hamlab.cli

    if not Path(hamlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hamlab was imported from {hamlab.__file__}, not from {SRC}")
    return hamlab.cli


def run_command(cli, argv: list[str]):
    """Exit code (None if main raised), stdout, stderr and seconds of one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the session
        code = None
        stderr.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return code, stdout.getvalue(), stderr.getvalue(), seconds


def main(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    cli = import_cli()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Output

    commands = WORKLOADS[workload](seed, workdir)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(workdir)
    print("ready", flush=True)

    digest = hashlib.sha256()
    seconds = []
    failures = []
    bytes_read = bytes_written = 0
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        code, stdout, stderr, took = run_command(cli, command.argv)
        seconds.append(took)
        reason = command.verify(Output(code, stdout, workdir))
        if reason is not None:
            failures.append({"argv": command.argv, "reason": reason, "stderr": stderr[-2000:]})
        digest.update(json.dumps([command.argv, stdout]).encode())
        bytes_read += sum(os.path.getsize(p) for p in command.reads if os.path.exists(p))
        for path in command.writes:
            if os.path.exists(path):
                bytes_written += os.path.getsize(path)
                digest.update(Path(path).read_bytes())
    result = {
        "wall_s": sum(seconds),
        "seconds": seconds,
        "argv": [command.argv for command in commands],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(commands),
        "failures": failures,
        "digest": digest.hexdigest(),
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
    }
    if tracer is not None:
        tracer.dump(workdir / "trace.json")
    return result


if __name__ == "__main__":
    name, seed_text, trace_text, directory = sys.argv[1:5]
    print(json.dumps(main(name, int(seed_text), trace_text == "1", Path(directory))),
          flush=True)
