"""tools/bench_pairs.py's summary: the pair counts, medians and quartiles a
benchmark file reports for one metric, and the BLAS block it records.  No
benchmark is run."""

import importlib.util
import os

import pytest

from highwaynet import ops

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# pair 0 ties, the change is lower in pair 1 and higher in pair 2
PARENT, CHANGE = [1.0, 2.0, 3.0], [1.0, 1.5, 4.0]


def test_a_tie_counts_for_neither_side():
    s = bench_pairs.summary(PARENT, CHANGE, "lower")
    assert s["change_lower_in"] == 1 and s["pairs"] == 3
    assert s["parent_runs"] == PARENT and s["change_runs"] == CHANGE


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summary(PARENT, CHANGE, "higher")
    assert s["change_higher_in"] == 1 and "change_lower_in" not in s
    assert bench_pairs.summary(PARENT, [2.0, 3.0, 4.0], "higher")["change_higher_in"] == 3


def test_quartiles_are_inclusive_and_interpolated():
    """For [1, 2, 4, 8] the inclusive quartiles sit at positions 0.75 and 2.25
    of the sorted runs: 1.75 and 5.0 (the exclusive ones would be 1.25 and 7.0)."""
    s = bench_pairs.summary([8.0, 1.0, 4.0, 2.0], [3.0, 3.0, 3.0, 3.0], "lower")
    assert s["parent_quartiles"] == pytest.approx([1.75, 5.0])
    assert s["parent_median"] == 3.0
    assert s["change_quartiles"] == [3.0, 3.0] and s["change_median"] == 3.0


def test_blas_reports_what_the_library_reports_in_process():
    """A fresh process on this tree's sources names the same build, core and
    thread count as ops.set_blas_threads(1) here (the test session runs at 1)."""
    assert bench_pairs.blas(bench_pairs.ROOT) == ops.set_blas_threads(1)
