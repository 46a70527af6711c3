"""Frozen calibration kernel for drift-normalised timing.

``kernel`` heap-sorts a fixed list of integers with a textbook array
binary heap written in plain Python.  It imports nothing from the
package under test, so no change to the package can move it; timed
alternately with each workload repetition in the same process, it
measures how fast this interpreter on this machine runs plain Python
right now.  ``norm_time`` is a workload's time divided by this one.

Do not edit this file: every ``norm_time`` ever recorded is relative
to exactly this code and this input.
"""

from __future__ import annotations

KERNEL_N = 20_000

# Fixed scale for times reported in seconds after normalisation: the
# median kernel time over 158 benchmark runs on a 2-vCPU VM under
# CPython 3.11.7 (each run's own kernel median ranged 0.037-0.149 s).
KERNEL_REF_S = 0.053


def _fixed_keys(n: int) -> list:
    # 64-bit linear congruential generator (Knuth's MMIX constants), so
    # the input never depends on the random module's implementation
    x = 0x2545F4914F6CDD1D
    out = []
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        out.append(x >> 4)
    return out


_KEYS = _fixed_keys(KERNEL_N)
_SORTED = sorted(_KEYS)


def _sift_down(a: list, i: int, n: int) -> None:
    x = a[i]
    while True:
        c = 2 * i + 1
        if c >= n:
            break
        if c + 1 < n and a[c + 1] > a[c]:
            c += 1
        if a[c] <= x:
            break
        a[i] = a[c]
        i = c
    a[i] = x


def kernel() -> None:
    """Sort a copy of the fixed keys in place with a max-heap."""
    a = list(_KEYS)
    n = len(a)
    for i in range(n // 2 - 1, -1, -1):
        _sift_down(a, i, n)
    for end in range(n - 1, 0, -1):
        a[0], a[end] = a[end], a[0]
        _sift_down(a, 0, end)
    if a != _SORTED:
        raise AssertionError("calibration kernel mis-sorted its input")
