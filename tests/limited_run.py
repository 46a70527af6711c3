"""Run a snippet in a child Python under memory and CPU limits, so that a
test of code that could loop or allocate without end fails in seconds
instead of taking the machine's memory."""

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_limited(code: str, mem_mib: int = 512, cpu_s: int = 5,
                timeout: float = 30) -> tuple[int, str]:
    """Run code with ``python -c`` in a child that can import
    violationheap, its address space capped at mem_mib MiB and its CPU
    time at cpu_s seconds; subprocess kills it and raises TimeoutExpired
    after timeout seconds of wall time.  Returns the exit status (minus
    the signal number when a signal ended it, as SIGXCPU does at the
    CPU limit) and the child's stderr."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem_mib << 20, mem_mib << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stderr
