"""The Python calls a sweep makes per class stay within a stated budget.

Calls are counted with sys.setprofile, one per "call" event: each Python
function frame, and each resumption of a generator.  The count is exact
and the same on every run, so it shows work added to the per-class path
where wall time on a noisy host cannot.  The CSV renderer is the one
the command line hands a sweep.
"""

from __future__ import annotations

import sys

from branch_invariants import EnumerationBounds, sweep
from branch_invariants.cli import _csv_line

BOX = EnumerationBounds(8, 40)
CLASSES = 569
# measured on CPython 3.11: 96.06 per class here, where the work done once
# per stage key is shared by few classes, and 60.57 on the (12, 100) box.
# 3.10 opens a frame for the same functions, comprehensions and generator
# resumptions.  The margin is one call per class: room for a small change
# of path, not for an undone cut (the tree before the cuts made 75,620
# calls here, 132.90 per class).
MEASURED_CALLS = 54_660
MARGIN_CALLS = CLASSES


def count_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
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
