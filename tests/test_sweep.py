"""A fixed slice of `tools/sweep.py`, run as the tool runs it, so "same bytes" is checked by every test run."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("sweep", Path(__file__).resolve().parents[1] / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# `python3 tools/sweep.py 32`; the full sweep's line is in CHANGES.md.
SLICE_LINE = (
    "sessions 4505 stalls 0 disagreements 0 digest f837c8566ae6304fe9a11b0139fed51d3a5fb8be5c7497ceb9d44201cf5f7dd9"
)


def test_sweep_runs_every_ordered_pair():
    assert len(sweep.sessions()) == 3 * 2 * 155 * 155 == 144_150


def test_every_32nd_session_runs_the_same():
    assert sweep.sweep(32) == SLICE_LINE
