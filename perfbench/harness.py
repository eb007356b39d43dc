"""Process launching, failure accounting and checks for one benchmark run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"


@dataclass
class JobResult:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    trace: dict = None

    @property
    def ok(self):
        return self.returncode == 0


class Run:
    """State of one benchmark run: its work directory, deadline, the operations
    attempted and failed, and the checks and notes it prints."""

    def __init__(self, src: Path, work: Path, deadline: float, seconds: int, trace: bool):
        self.src = src
        self.work = work
        self.deadline = deadline
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.checks = []   # (name, ok, detail)
        self.notes = []    # (name, value, unit) printed but not part of the metrics
        self._seq = 0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def note(self, name, value, unit):
        self.notes.append((name, value, unit))

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)

    def job(self, kind, args, traced=False) -> JobResult:
        """Run one operation in a fresh child process and wait for it.

        The child's peak RSS comes from wait4. A child that exits nonzero, is
        killed by a signal (the OOM killer, or the deadline) counts as failed.
        """
        self._seq += 1
        tag = f"{self._seq:03d}-{kind}"
        trace_path = self.work / f"{tag}.trace.json"
        out_path = self.work / f"{tag}.out"
        argv = [sys.executable, str(CHILD), str(self.src),
                str(trace_path) if traced or kind.startswith("probe-") else "-", kind, *map(str, args)]
        self.attempted += 1
        launched = time.time()
        start = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(argv, cwd=self.work, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # never leave a child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        reaped = time.time()
        result = JobResult(wall, usage.ru_maxrss / 1024.0, proc.returncode)
        if not result.ok:
            self.failed += 1
            tail = out_path.read_text(errors="replace").strip().splitlines()[-5:]
            print(f"operation {tag} {' '.join(map(str, args))} failed with code "
                  f"{proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
        elif trace_path.exists():
            result.trace = json.loads(trace_path.read_text())
            if "wall" in result.trace:  # interpreter start-up and exit, seen from outside
                began, ended = result.trace.pop("wall")
                spans = result.trace["spans"]
                spans["cli.process_start"] = [1, began - launched, began - launched]
                spans["cli.process_exit"] = [1, reaped - ended, reaped - ended]
        return result

    def cli(self, *args, traced=False) -> JobResult:
        return self.job("cli", args, traced)
