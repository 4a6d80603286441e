"""The Python calls a sweep makes per class stay within a stated budget.

Calls are counted with sys.setprofile, one per "call" event: each Python
function frame, and each resumption of a generator.  The count is exact
and the same on every run, so it shows work added to the per-class path
where wall time on a noisy host cannot.  The CSV renderer is the one
the command line hands a sweep.
"""

from __future__ import annotations

import io
import os
import sys

import pytest

import branch_invariants
from branch_invariants import EnumerationBounds, sweep
from branch_invariants.cli import _csv_line, main

BOX = EnumerationBounds(8, 40)
CLASSES = 569
# measured on CPython 3.11: 61.58 per class here, where the work done once
# per stage key is shared by few classes, and 38.03 on the (12, 100) box.
# 3.10 opens a frame for the same functions, comprehensions and generator
# resumptions.  The margin is one call per class: room for a small change
# of path, not for an undone cut (the tree before the inline guards and
# the records built in one update made 54,684 calls here, 96.11 per
# class, and the tree before the first cuts 75,620, 132.90 per class).
MEASURED_CALLS = 35_038
MARGIN_CALLS = CLASSES


def count_calls(fn, within: str | None = None) -> int:
    """The "call" events while fn runs; with within, only those of code in files under it."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and (within is None or frame.f_code.co_filename.startswith(within)):
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(saved)
    return calls


def csv_sweep():
    rows, summary = sweep(BOX, workers=1, render=_csv_line)
    assert summary.classes == len(rows) == CLASSES and summary.failed == 0


def test_a_sweep_makes_the_same_calls_on_every_run_within_its_budget():
    csv_sweep()  # anything made on a first run is made before the count
    first, second = count_calls(csv_sweep), count_calls(csv_sweep)
    assert first == second
    assert first <= MEASURED_CALLS + MARGIN_CALLS, f"{first / CLASSES:.2f} calls per class"


# cold `invariants --format json` queries, each on a new stage table as every
# query is, so each pays the whole stage-record path: marking, checking and
# summing its stages.  Only the package's own calls are counted, once the
# parser and the layout templates are built: argparse's and enum's differ
# from one Python to the next.  Measured on CPython 3.11, where the tree
# before the inline guards and the records built in one update made 166,
# 208 and 213 (with the standard library's calls, 221, 269 and 271 then
# and 169, 201 and 202 here).
QUERY_CALLS = {"2:1995": 121, "87:233": 149, "4:6,7": 152}
PACKAGE = os.path.dirname(branch_invariants.__file__) + os.sep


def json_query(exponents: str):
    def query():
        saved, sys.stdout = sys.stdout, io.StringIO()
        try:
            assert main(["invariants", "--char-exponents", exponents, "--format", "json"]) == 0
        finally:
            sys.stdout = saved
    return query


@pytest.mark.parametrize("exponents, measured", QUERY_CALLS.items())
def test_a_cold_query_makes_the_same_calls_on_every_run_within_its_budget(exponents, measured):
    query = json_query(exponents)
    query()  # the parser and the templates are built before the count
    first, second = count_calls(query, PACKAGE), count_calls(query, PACKAGE)
    assert first == second
    assert first <= measured, f"{first} calls"
