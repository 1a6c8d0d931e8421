"""Process plumbing and reference-speed bookkeeping for one benchmark run."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from refkernel import R0_SECONDS, ReferenceKernel

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: The reference may overlap this much program CPU before the run fails.
GUARD_LIMIT = 0.05


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of process ``pid`` (from /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """VmHWM of process ``pid`` in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


class Host:
    """The reference kernel plus the guard against background program work.

    Every process that runs the program (the worker, the server) is
    *watched* while it is alive; its CPU time while the kernel runs counts
    against the guard.
    """

    def __init__(self) -> None:
        self.kernel = ReferenceKernel()
        self.kernel.run()
        self.refs: list[float] = []
        self.guard_cpu = 0.0
        self.guard_pids: set[int] = set()

    def watch(self, pid: int) -> None:
        self.guard_pids.add(pid)

    def unwatch(self, pid: int) -> None:
        self.guard_pids.discard(pid)

    def ref(self) -> float:
        """Run the kernel while the program is idle; returns its duration."""
        pids = sorted(self.guard_pids)
        before = self._settle(pids)
        r = self.kernel.run()
        after = [cpu_seconds(pid) for pid in pids]
        self.guard_cpu += sum(a - b for a, b in zip(after, before))
        self.refs.append(r)
        return r

    @staticmethod
    def _settle(pids: list[int]) -> list[float]:
        """Wait (up to 0.2 s) until the watched processes use no CPU for
        one clock-tick interval, so work they finish after answering (log
        lines, freeing the old generation) does not overlap the kernel."""
        cpu = [cpu_seconds(pid) for pid in pids]
        if not pids:
            return cpu
        for _ in range(10):
            time.sleep(2 / _CLK_TCK)
            now_cpu = [cpu_seconds(pid) for pid in pids]
            if now_cpu == cpu:
                break
            cpu = now_cpu
        return cpu

    @staticmethod
    def scale(r_before: float, r_after: float) -> float:
        """Factor turning a raw time bracketed by two refs into ref speed."""
        return R0_SECONDS / ((r_before + r_after) / 2)

    def guard_share(self) -> float:
        total = sum(self.refs)
        return self.guard_cpu / total if total else 0.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src"), str(root / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM, wait, SIGKILL as a last resort; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except BrokenPipeError:
                pass


def spawn(args: list[str], root: Path, cwd: Path) -> subprocess.Popen:
    """Start a Python child; its stderr goes to ``cwd/stderr-<pid>.log``."""
    log = tempfile.NamedTemporaryFile(
        "w", dir=cwd, prefix="stderr-", suffix=".log", delete=False
    )
    with log:
        return subprocess.Popen(
            [sys.executable, *args],
            cwd=cwd,
            env=child_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )


def stderr_tail(cwd: Path, lines: int = 15) -> str:
    """The last lines of every child's stderr log (for failure reports)."""
    out = []
    for log in sorted(cwd.glob("stderr-*.log")):
        text = log.read_text().strip().splitlines()[-lines:]
        if text:
            out.append(f"--- {log.name}\n" + "\n".join(text))
    return "\n".join(out)


def now() -> float:
    return time.perf_counter()
