"""A fixed slice of `tools/sweep.py`, run as the tool runs it, so "same bytes" is checked by every test run."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("sweep", Path(__file__).resolve().parents[1] / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# `python3 tools/sweep.py 32`; the full sweep's line is in CHANGES.md.
SLICE_LINE = (
    "sessions 4505 stalls 0 disagreements 0 digest f837c8566ae6304fe9a11b0139fed51d3a5fb8be5c7497ceb9d44201cf5f7dd9"
)


# Its outcome table: sessions per class of `sweep.CLASSES`, by protocol and timeout.
SLICE_TABLE = {
    ("common", 1): (191, 364, 178, 18),
    ("common", 8): (571, 161, 19, 0),
    ("linked", 1): (191, 363, 181, 16),
    ("linked", 8): (567, 171, 11, 2),
    ("data-for-sig", 1): (186, 367, 184, 13),
    ("data-for-sig", 8): (571, 157, 21, 2),
}


@pytest.fixture(scope="module")
def every_32nd():
    return sweep.sweep(32)


def test_sweep_runs_every_ordered_pair():
    assert len(sweep.sessions()) == 3 * 2 * 155 * 155 == 144_150


def test_every_32nd_session_runs_the_same(every_32nd):
    assert every_32nd[0] == SLICE_LINE


def test_every_32nd_session_falls_in_the_same_outcome_class(every_32nd):
    assert every_32nd[1] == SLICE_TABLE


def test_committed_table_counts_every_session():
    assert sum(map(sum, sweep.TABLE.values())) == len(sweep.sessions())
