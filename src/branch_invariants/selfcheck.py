"""Named identity suite over an enumeration box.

Each class goes through the same single evaluation pass and the same
IDENTITIES table as full_report and the sweep, so a broken formula is
attributed to a named identity instead of surfacing as a stray
exception; an internal invariant violation raised inside the pass is
charged to the identity of the step that raised it, while an input or
limit error (such as a sieve above SIEVE_LIMIT) propagates.  Two checks
exist only here.  Invariance under appended smooth points compares the
stage-table sums of the pass with one sum over the whole sequence plus
the sums of the appended run of k = 1, 2, 5 free points of multiplicity
1; no sequence is rebuilt per class.  A pointwise scan of the moduli
dimension term runs serially after the box, walked as the sweep walks
it.  The suite reports one result per identity; a result carries the
first failing class in enumeration order.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from operator import add

from .combinatorics import CharacteristicExponents
from .errors import InternalInvariantViolation, failing_rows
from .enumeration import EnumerationBounds, _walk
from .invariants import IDENTITIES, _SUM_NAMES, _evaluate, _run_sums, moduli_dim_term
from .resolution import _FREE, Run

SIGMA_BOUND_LIMIT = 10**6


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _sigma_pointwise() -> CheckResult:
    """4 sigma(k) >= (k - 2)(k - 4) for every k up to the scan limit."""
    for k in range(2, SIGMA_BOUND_LIMIT + 1):
        if 4 * moduli_dim_term(k) < (k - 2) * (k - 4):
            return CheckResult(
                "sigma_pointwise_bound", False, f"violated at k = {k}"
            )
    return CheckResult("sigma_pointwise_bound", True)


def _suite_run(leaves, table: dict) -> dict[str, str]:
    """The first failure of each identity on the classes of leaves, by name.

    leaves are (parent node, class) pairs, as the walk yields them, and
    each class is evaluated from its parent's carry (see invariants._evaluate).
    """
    failures: dict[str, str] = {}

    def fail(name: str, c: CharacteristicExponents, detail: str) -> None:
        failures.setdefault(name, f"first failure at {c}: {detail}")

    appended: dict = {}  # the sums of k smooth points appended in a stage, by (k, stage)
    for parent, c in leaves:
        try:
            v = _evaluate(c, table, parent)
        except InternalInvariantViolation as exc:
            fail(exc.identity, c, str(exc))
            continue
        for name, detail in failing_rows(IDENTITIES, v):
            fail(name, c, detail)
        # a minimal sequence ends on a satellite run, so the appended run
        # stays a run of its own and adds its sums to the whole's
        whole, stage = _run_sums(v.seq.runs), v.seq.runs[-1].stage
        want = (v.n, *[getattr(v, name) for name in _SUM_NAMES])
        for k in (1, 2, 5):
            if (k, stage) not in appended:
                appended[k, stage] = _run_sums((Run(1, k, _FREE, stage),))
            if (v.seq.origin_multiplicity, *map(add, whole, appended[k, stage])) != want:
                fail("resolution_invariance", c, f"changed after appending {k} points")
                break
    return failures


def run_identity_suite(bounds: EnumerationBounds) -> list[CheckResult]:
    """Evaluate every named identity over all classes in bounds, then the sigma scan."""
    failures: dict[str, str] = {}
    with closing(_walk(bounds, _suite_run, None)) as runs:
        for run in runs:
            failures = run | failures  # runs are in enumeration order: the earliest stands
    names = [name for name, _ in IDENTITIES] + ["resolution_invariance"]
    results = [
        CheckResult(name, name not in failures, failures.get(name, ""))
        for name in names
    ]
    results.append(_sigma_pointwise())
    return results
