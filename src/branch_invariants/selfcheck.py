"""Named identity suite over an enumeration box.

Each class goes through the same single evaluation pass and the same
IDENTITIES table as full_report and the sweep, so a broken formula is
attributed to a named identity instead of surfacing as a stray
exception; an internal invariant violation raised inside the pass is
charged to the identity of the step that raised it, while an input or
limit error (such as a sieve above SIEVE_LIMIT) propagates.  Two checks
exist only here: invariance under appended smooth points, and a
pointwise scan of the moduli dimension term, run serially after the
box, walked as the sweep walks it.  The suite reports one result per
identity; a result carries the first failing class in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .combinatorics import CharacteristicExponents
from .errors import InternalInvariantViolation, failing_rows
from .enumeration import EnumerationBounds, _walk
from .invariants import (
    IDENTITIES,
    _evaluate,
    _sequence_values,
    moduli_dim_term,
)
from .resolution import append_smooth_points

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


def _suite_run(classes, table: dict) -> dict[str, str]:
    """The first failure of each identity on classes, by name."""
    failures: dict[str, str] = {}

    def fail(name: str, c: CharacteristicExponents, detail: str) -> None:
        failures.setdefault(name, f"first failure at {c}: {detail}")

    for c in classes:
        try:
            v = _evaluate(c, table)
        except InternalInvariantViolation as exc:
            fail(exc.identity, c, str(exc))
            continue
        for name, detail in failing_rows(IDENTITIES, v):
            fail(name, c, detail)
        for k in (1, 2, 5):
            ext = _sequence_values(append_smooth_points(v.seq, k), SimpleNamespace())
            if any(value != getattr(v, key) for key, value in vars(ext).items()):
                fail("resolution_invariance", c, f"changed after appending {k} points")
                break
    return failures


def run_identity_suite(bounds: EnumerationBounds) -> list[CheckResult]:
    """Evaluate every named identity over all classes in bounds, then the sigma scan."""
    failures: dict[str, str] = {}
    for run in _walk(bounds, _suite_run, None):
        failures = run | failures  # runs are in enumeration order: the earliest stands
    names = [name for name, _ in IDENTITIES] + ["resolution_invariance"]
    results = [
        CheckResult(name, name not in failures, failures.get(name, ""))
        for name in names
    ]
    results.append(_sigma_pointwise())
    return results
