"""Child processes of the ledger: one-shot CLI ops and the serve daemon.

Everything the ledger times end to end runs here, outside the harness
process, the way a user runs it: ``python -m repro ...`` children and a
``repro serve`` daemon spoken to over HTTP. The harness only spawns,
waits, and reads what the kernel accounted to the child.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
#: The checkout this file sits in (benchmarks/ledger/procs.py -> root).
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: An op still running after this long is killed (whole process group)
#: and counted failed.
OP_TIMEOUT_S = 60.0
#: What the reference job takes on the host all durations are reported
#: for (close to what it takes on the builder's host in a quiet minute).
REFERENCE_NOMINAL_S = 0.1


def child_env() -> dict:
    """The environment every child runs in (noise hygiene, see README).

    Hash seed pinned so dict/set iteration order cannot differ run to run;
    BLAS/OpenMP pools pinned to one thread because unpinned OpenBLAS spins
    up workers whose CPU time exceeds the single-process child's wall time.
    Cache/jobs variables of the caller's shell must not leak into an op.
    """
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_WARM_POOL", "REPRO_FAULTS"):
        env.pop(name, None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclasses.dataclass
class CliResult:
    """What one ``python -m repro`` child cost and produced."""

    wall_s: float  # spawn to exit
    cpu_s: float  # user + system seconds of the child (os.wait4 rusage)
    rss_mb: float  # ru_maxrss
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _spawn_and_wait(argv: Sequence[str], cwd: str, timeout: float) -> dict:
    """Spawn one child, wait for it, account for it (runs in the spawner).

    Output goes to files (a pipe would make the child's last write wait on
    a reader). The child leads its own process group so a timeout kills
    whatever it spawned too.
    """
    with open(os.path.join(cwd, "op.stdout"), "wb") as out, open(
        os.path.join(cwd, "op.stderr"), "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timed_out = threading.Event()

        def expire() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
        # The child was reaped here, not by Popen: tell it so.
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit_code": proc.returncode,
        "timed_out": timed_out.is_set(),
    }


def _serve_spawn_requests() -> None:
    """The spawner's loop: one JSON request per line in, one reply out."""
    for line in sys.stdin:
        request = json.loads(line)
        reply = _spawn_and_wait(request["argv"], request["cwd"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class _Spawner:
    """A small stdlib-only process that spawns the CLI ops for the harness.

    Linux folds the spawning process's peak resident set into the child's
    ``ru_maxrss`` at exec, so a child of the harness itself (which imports
    the whole program for the oracle) reported the *harness's* 57 MB, not
    its own 47 MB. Children of this 9 MB process report their own.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        atexit.register(self.close)

    def request(self, argv: Sequence[str], cwd: str, timeout: float) -> dict:
        line = json.dumps({"argv": list(argv), "cwd": cwd, "timeout": timeout})
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        return json.loads(reply)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait()


_spawner: Optional[_Spawner] = None


def _request(argv: Sequence[str], cwd: Path, timeout: float) -> dict:
    global _spawner
    if _spawner is None:
        _spawner = _Spawner()
    return _spawner.request(argv, str(cwd), timeout)


def run_cli(
    args: Sequence[str], *, cwd: Path, timeout: float = OP_TIMEOUT_S
) -> CliResult:
    """Run ``python -m repro <args>`` in ``cwd`` and account for it."""
    reply = _request([sys.executable, "-m", "repro", *args], cwd, timeout)
    return CliResult(
        stdout=(cwd / "op.stdout").read_bytes(),
        stderr=(cwd / "op.stderr").read_bytes(),
        **reply,
    )


def run_reference(cwd: Path) -> Tuple[float, float]:
    """One reference job in a fresh interpreter: (wall, CPU) seconds.

    Spawned and accounted for exactly like a CLI op (see reference.py).
    """
    reply = _request([sys.executable, str(HERE / "reference.py")], cwd, OP_TIMEOUT_S)
    if reply["exit_code"] != 0:
        raise RuntimeError(f"the reference job exited with code {reply['exit_code']}")
    return reply["wall_s"], reply["cpu_s"]


class HostSpeed:
    """Turns seconds measured here and now into seconds of the nominal host.

    The nominal host is the one on which the reference job takes
    ``REFERENCE_NOMINAL_S``. Whatever was just measured is scaled by how
    the reference job ran right before and right after it.
    """

    def __init__(self, cwd: Path) -> None:
        self.cwd = cwd
        self.last = run_reference(cwd)

    def nominal(self, wall_s: float, cpu_s: float = 0.0) -> Tuple[float, float]:
        """Wall and CPU seconds of what just ended, on the nominal host."""
        before, self.last = self.last, run_reference(self.cwd)
        return (
            wall_s * 2 * REFERENCE_NOMINAL_S / (before[0] + self.last[0]),
            cpu_s * 2 * REFERENCE_NOMINAL_S / (before[1] + self.last[1]),
        )


def time_import(module: str, repeats: int) -> float:
    """Fastest of ``repeats`` cold ``python -c "import <module>"`` children."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=child_env(),
            check=True,
            stdin=subprocess.DEVNULL,
        )
        best = min(best, time.perf_counter() - start)
    return best


class Daemon:
    """One ``repro serve`` child with defaults (sequential, no cache dir)."""

    def __init__(self, workdir: Path, extra_args: Sequence[str] = ()) -> None:
        self._stderr = open(workdir / "serve.stderr", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            cwd=workdir,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        # Linux encodes "CPU-time clock of process <pid>" as a clock id
        # (MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)). It has nanosecond
        # resolution and includes exited handler threads, where
        # /proc/<pid>/stat only has 10 ms ticks.
        self._cpu_clock = ((~self.pid) << 3) | 2
        try:
            self.url = self._read_url()
        except Exception:
            self.stop()
            raise

    def _read_url(self) -> str:
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    def cpu_s(self) -> float:
        """User + system seconds the daemon has burned so far."""
        return time.clock_gettime(self._cpu_clock)

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (VmHWM)."""
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), then make sure it is gone."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(self.pid)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


if __name__ == "__main__":
    _serve_spawn_requests()
