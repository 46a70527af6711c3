"""Peak resident memory of one workload unit, in a process of its own.

    python3 perfbench/peak_rss.py <workload> < pickled-inputs > pickled-result

``run.py`` starts this script once per untraced run.  It reads the
workload's inputs pickled on stdin, imports the package from ``src/``,
runs the unit once, and writes "+" (sent as soon as it has started)
and then the pickle of

    ((output, counters), ru_maxrss MiB with inputs loaded,
     ru_maxrss MiB after the unit)

to stdout.  The set-ups, the reference answer and the timing loop run
in the parent, so their transient memory cannot set this peak: it
covers only the interpreter, the package, the inputs and the unit.
"""

from __future__ import annotations

import pickle
import resource
import sys

import cases
import run


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    case = cases.CASES[sys.argv[1]]
    sys.stdout.buffer.write(b"+")   # started; see run.peak_rss_probe
    sys.stdout.buffer.flush()
    data = sys.stdin.buffer.read()
    if not data:   # the parent stopped before sending inputs
        return 1
    pkg = run.load_package()
    inputs = pickle.loads(data)
    del data
    loaded = maxrss_mib()
    out = case.run(pkg, inputs, run.heap_factories(pkg, case)["violation"])
    peak = maxrss_mib()
    pickle.dump((out, loaded, peak), sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
