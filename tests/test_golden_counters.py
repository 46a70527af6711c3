"""Every (run, heap) row of the golden-counter table, tests/golden.py,
run and compared."""

from dataclasses import fields

import pytest

from golden import GOLDEN, RUNS
from violationheap.heap_core import Telemetry


@pytest.mark.parametrize("run, name", GOLDEN)
def test_golden_counters(run, name):
    record = RUNS[run](name)
    if run == "dijkstra":
        assert record.checksum == 182835793
    if run.startswith("differential"):
        assert record.passed
    assert tuple(getattr(record, f.name) for f in fields(Telemetry)) == GOLDEN[run, name]
