"""Mergeable priority queue with rank-repair decrease-key, plus the
instrumentation around it: structural audits, potential telemetry, a
brute-force differential oracle, baseline heaps, benchmark drivers, and
a command line front end."""

from .heap_core import (
    EmptyHeapError,
    HeapError,
    NodeHandle,
    StaleHandleError,
    Telemetry,
    ViolationHeap,
    rank_from_pair,
)

__all__ = [
    "EmptyHeapError",
    "HeapError",
    "NodeHandle",
    "StaleHandleError",
    "Telemetry",
    "ViolationHeap",
    "rank_from_pair",
]
