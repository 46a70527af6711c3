"""Run a snippet in a child Python under memory and CPU limits, so that a
test of code that could loop or allocate without end fails in seconds
instead of taking the machine's memory."""

import os
import resource
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PATH = (str(TESTS.parent / "src"), str(TESTS))
MEM_MIB = 512      # the child's address space
CPU_S = 5          # the child's CPU time
TIMEOUT_S = 30     # the child's wall time


def run_limited(code: str, *args: str) -> tuple[int, str]:
    """Run code with ``python -c``, args as its ``sys.argv[1:]``, in a
    child that can import violationheap and the modules of tests/, its
    address space capped at MEM_MIB MiB and its CPU time at CPU_S
    seconds; subprocess kills it and raises TimeoutExpired after
    TIMEOUT_S seconds of wall time.  Returns the exit status (minus
    the signal number when a signal ended it, as SIGXCPU does at the
    CPU limit) and the child's stderr."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEM_MIB << 20, MEM_MIB << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_S, CPU_S))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (*PATH, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return done.returncode, done.stderr
