"""Named identity suite over an enumeration box.

Each class goes through the same single evaluation pass and the same
IDENTITIES table as full_report and the sweep, so a broken formula is
attributed to a named identity instead of surfacing as a stray
exception; an error raised inside the pass is charged to the identity
of the step that raised it.  Two checks exist only here: invariance
under appended smooth points, and a pointwise scan of the moduli
dimension term.  The suite reports one result per identity; a result
carries the first class on which the identity failed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import CharacteristicExponents
from .errors import BranchInvariantError
from .enumeration import EnumerationBounds, enumerate_classes
from .invariants import (
    IDENTITIES,
    _differential_gap_formula,
    _evaluate,
    _failures,
    _minimal_tjurina_formula,
    generic_component_dim,
    milnor_number,
    moduli_dim_term,
    mu_constant_stratum_dim,
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


def run_identity_suite(bounds: EnumerationBounds) -> list[CheckResult]:
    """Evaluate every named identity over all classes in bounds."""
    failures: dict[str, str] = {}

    def fail(name: str, c: CharacteristicExponents, detail: str) -> None:
        failures.setdefault(name, f"first failure at {c}: {detail}")

    for c in enumerate_classes(bounds):
        try:
            v = _evaluate(c)
        except BranchInvariantError as exc:
            fail(exc.identity, c, str(exc))
            continue
        for name, detail in _failures(v):
            fail(name, c, detail)
        for k in (1, 2, 5):
            ext = append_smooth_points(v.seq, k)
            same = (
                milnor_number(ext) == v.mu
                and mu_constant_stratum_dim(ext) == v.tau_minus
                and generic_component_dim(ext) == v.q_min
                and _minimal_tjurina_formula(ext) == v.tau_min
                and _differential_gap_formula(ext) == v.delta_gaps
            )
            if not same:
                fail("resolution_invariance", c, f"changed after appending {k} points")
                break
    names = [name for name, _ in IDENTITIES] + ["resolution_invariance"]
    results = [
        CheckResult(name, name not in failures, failures.get(name, ""))
        for name in names
    ]
    results.append(_sigma_pointwise())
    return results
