"""Topological invariants of irreducible plane curve singularities.

Encode an equisingularity class by characteristic exponents or by its
value semigroup, compute the multiplicity sequence of its minimal
embedded resolution, and from that the Milnor number, the dimension of
the constant-Milnor stratum, the generic moduli dimension, the minimal
Tjurina number with its sharp lower bound, the quotient mu/tau_min, and
the generic count of differential-value gaps.  Enumeration and sweep
helpers verify the defining identities over boxes of classes.
"""

from types import ModuleType as _ModuleType

from .combinatorics import (
    CharacteristicExponents,
    SemigroupGenerators,
    char_exponents_from_semigroup,
    conductor,
    gap_count,
    semigroup_from_char_exponents,
    validate_char_exponents,
    validate_semigroup,
)
from .enumeration import (
    EnumerationBounds,
    SweepRecord,
    SweepSummary,
    enumerate_classes,
    evaluate_class,
    sweep,
)
from .errors import (
    BranchInvariantError,
    DivisibilityViolationError,
    DomainError,
    GcdNotOneError,
    InternalInvariantViolation,
    NegativeGapCountError,
    NonIncreasingError,
    NotPlaneError,
    NotSingularError,
    OverflowLimitError,
    ValidationError,
)
from .invariants import (
    InvariantReport,
    adjusted_multiplicity,
    differential_gap_count,
    dimca_greuel_margin,
    full_report,
    generic_component_dim,
    milnor_number,
    minimal_tjurina,
    moduli_dim_term,
    mu_constant_stratum_dim,
    report_gap_count,
    tjurina_lower_bound,
)
from .resolution import (
    MultiplicitySequence,
    PointKind,
    Run,
    append_smooth_points,
    multiplicity_sequence,
)
from .selfcheck import CheckResult, run_identity_suite

__version__ = "0.1.0"

# the public names imported above, not the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
