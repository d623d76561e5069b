"""Stand up and tear down the real serving topology: one ``repro.cli
serve`` process over a plain store and one ``repro.cli frontdoor``
process in front of it, both on ephemeral ports of the loopback
interface."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional

#: How long a process may take to print its listening line.
START_TIMEOUT_S = 60.0
#: How long a drained shutdown may take before the process is killed.
STOP_TIMEOUT_S = 20.0

#: Every process a topology started and has not yet reaped, so the
#: entry point can kill them if the run is cut short.
_LIVE: "set[subprocess.Popen]" = set()


def kill_leftovers() -> None:
    """Kill and reap every process a topology left running."""
    for proc in list(_LIVE):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _LIVE.discard(proc)


class Topology:
    """The ``serve`` and ``frontdoor`` processes of one set-up."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.procs: List[subprocess.Popen] = []
        self.serve: Optional[subprocess.Popen] = None
        self.direct_port = 0
        self.door_port = 0

    def start(self, store_dir: str, schema_path: str) -> None:
        self.serve, self.direct_port = self._spawn(
            "serve",
            ["serve", store_dir, "--schema", schema_path, "--port", "0"],
        )
        _, self.door_port = self._spawn(
            "frontdoor",
            ["frontdoor", "--primary", f"127.0.0.1:{self.direct_port}", "--port", "0"],
        )

    def _spawn(self, name: str, args: List[str]) -> "tuple[subprocess.Popen, int]":
        log = open(os.path.join(self.workdir, f"{name}.log"), "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=subprocess.PIPE, stderr=log, env=self.env, cwd=self.root,
            )
        finally:
            log.close()
        self.procs.append(proc)
        _LIVE.add(proc)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError(f"{name} printed no listening line in {START_TIMEOUT_S}s")
            line = proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"{name} exited with {proc.wait()} before listening")
            # "serving STORE on 127.0.0.1:PORT" / "front door on 127.0.0.1:PORT — ..."
            for word in line.split():
                if word.startswith("127.0.0.1:"):
                    return proc, int(word.split(":", 1)[1])

    def pin(self, cpu: int) -> None:
        """Move every thread of both processes onto ``cpu``; threads
        they start later inherit it."""
        for proc in self.procs:
            for tid in os.listdir(f"/proc/{proc.pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), {cpu})
                except ProcessLookupError:
                    pass  # the thread ended meanwhile

    def serve_peak_rss_mb(self) -> float:
        """Peak resident set of the ``serve`` process (``VmHWM``)."""
        with open(f"/proc/{self.serve.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM every process (the front door first), wait for each
        to drain and exit, and kill any that does not."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            _LIVE.discard(proc)
        self.procs = []
