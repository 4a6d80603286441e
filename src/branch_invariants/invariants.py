"""Numerical invariants of an equisingularity class.

Everything here is exact integer arithmetic over a multiplicity
sequence.  Each invariant that admits two independent expressions is
computed both ways and compared at runtime; a mismatch raises
InternalInvariantViolation because it can only come from a bug.

Quantities, with e_p the multiplicity at point p and e'_p the adjusted
multiplicity (e_p at the origin, e_p + 1 at free points, e_p + 2 at
satellite points):

    milnor_number            mu      = sum e_p (e_p - 1)
    mu_constant_stratum_dim  tau-    = sum (e'_p - 2)(e'_p - 3)/2
    generic_component_dim    q_min   = sum sigma(e'_p)
    minimal_tjurina          tau_min = closed formula, checked against
                                       q_min + mu - tau-
    differential_gap_count           = tau_min - mu/2 - n + 1, checked
                                       against a closed sum over points

with sigma(k) = (k-2)(k-4)/4 for even k and (k-3)^2/4 for odd k.
Multiplicity-1 free points contribute zero to every sum, so invariants
are stable under extending a resolution past the minimal one.

Every sum runs over the runs of the sequence (see resolution), one
count * term per run of equal points, so its cost does not grow with
the number of points.  Each product and each running total is checked
against the 64-bit range; every term is non-negative, so this raises
exactly when the point-by-point sum would.

The public functions above check themselves for library callers.  A
whole class goes through one private pass instead, which computes every
quantity once from the raw pieces, and through IDENTITIES, the one
ordered table of named per-class identities that full_report, the sweep
and the check suite all run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from types import SimpleNamespace
from typing import Callable

from .combinatorics import (
    CharacteristicExponents,
    _conductor_formula,
    _conductor_sieve_disagreement,
    _exponents_from_generators,
    _members_below,
    _membership_sieve,
    semigroup_from_char_exponents,
)
from .errors import (
    BranchInvariantError,
    DomainError,
    InternalInvariantViolation,
    NegativeGapCountError,
    check_int64,
)
from .resolution import (
    InfinitelyNearPoint,
    MultiplicitySequence,
    Run,
    _build_sequence,
    _FREE,
    _ORIGIN,
)


def decimal_ratio(num: int, den: int, places: int = 6) -> str:
    """num/den rendered to a fixed number of places, ties to even."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(num) / Decimal(den)
        return str(q.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))


def _exact_div(a: int, b: int, what: str) -> int:
    """Division that must be exact; a remainder means a broken formula."""
    q, r = divmod(a, b)
    if r != 0:
        raise InternalInvariantViolation(f"{what}: {a} is not divisible by {b}")
    return q


def moduli_dim_term(k: int) -> int:
    """Contribution of one resolution point to the generic moduli dimension.

    (k-2)(k-4)/4 for even k, (k-3)^2/4 for odd k; defined for k >= 2.
    """
    if k < 2:
        raise DomainError(f"moduli term needs k >= 2, got {k}")
    check_int64(k * k)
    if k % 2 == 0:
        return _exact_div((k - 2) * (k - 4), 4, "even moduli term")
    return _exact_div((k - 3) * (k - 3), 4, "odd moduli term")


def adjusted_multiplicity(p: InfinitelyNearPoint | Run) -> int:
    """e_p at the origin, e_p + 1 at free points, e_p + 2 at satellites."""
    if p.kind is _ORIGIN:
        return p.multiplicity
    if p.kind is _FREE:
        return p.multiplicity + 1
    return p.multiplicity + 2


def milnor_number(m: MultiplicitySequence) -> int:
    """Milnor number as sum of e_p(e_p - 1) over the resolution points."""
    mu = 0
    for e, count, _, _ in m.runs:
        term = count * e * (e - 1)
        mu += term
        check_int64(term, mu)
    if mu % 2 != 0:
        raise InternalInvariantViolation(f"Milnor number {mu} is odd")
    return mu


def mu_constant_stratum_dim(m: MultiplicitySequence) -> int:
    """Dimension of the stratum of constant Milnor number.

    Sum of (e' - 2)(e' - 3)/2 over points, e' the adjusted multiplicity.
    """
    total = 0
    for run in m.runs:
        k = adjusted_multiplicity(run)
        term = run.count * _exact_div((k - 2) * (k - 3), 2, "stratum dimension term")
        total += term
        check_int64(term, total)
    return total


def generic_component_dim(m: MultiplicitySequence) -> int:
    """Dimension of the moduli component of the generic curve in the class."""
    total = 0
    for run in m.runs:
        term = run.count * moduli_dim_term(adjusted_multiplicity(run))
        total += term
        check_int64(term, total)
    return total


def _minimal_tjurina_formula(m: MultiplicitySequence) -> int:
    """Closed form for the minimal Tjurina number in the class."""
    n = m.origin_multiplicity
    check_int64(n * n)
    total = moduli_dim_term(n) + _exact_div(n * n + 3 * n - 6, 2, "origin term")
    check_int64(total)
    for e, count, kind, _ in m.runs[1:]:  # past the origin: free or satellite
        if kind is _FREE:
            num = (e - 1) * (e + 2) + 2 * moduli_dim_term(e + 1)
            term = count * _exact_div(num, 2, "free point term")
        else:
            num = e * (e - 1) + 2 * moduli_dim_term(e + 2)
            term = count * _exact_div(num, 2, "satellite point term")
        total += term
        check_int64(term, total)
    return total


def minimal_tjurina(m: MultiplicitySequence) -> int:
    """Minimal Tjurina number over the equisingularity class.

    The closed formula must agree with generic_component_dim + milnor
    - mu_constant_stratum_dim; the two routes share no terms.
    """
    closed = _minimal_tjurina_formula(m)
    recombined = generic_component_dim(m) + milnor_number(m) - mu_constant_stratum_dim(m)
    if closed != recombined:
        raise InternalInvariantViolation(
            f"minimal Tjurina double computation disagrees: "
            f"closed {closed} vs recombined {recombined}"
        )
    return closed


def tjurina_lower_bound(n: int) -> int:
    """Sharp lower bound for the Tjurina number at multiplicity n.

    3n^2/4 - 1 for even n, 3(n^2 - 1)/4 for odd n; attained exactly by
    the class of one pair (n; n + 1).
    """
    if n < 2:
        raise DomainError(f"lower bound needs multiplicity >= 2, got {n}")
    check_int64(n * n)
    if n % 2 == 0:
        return _exact_div(3 * n * n, 4, "even lower bound") - 1
    return _exact_div(3 * (n * n - 1), 4, "odd lower bound")


def _differential_gap_formula(m: MultiplicitySequence) -> int:
    """Closed sum for the generic count of differential-value gaps."""
    n = m.origin_multiplicity
    total = moduli_dim_term(n) + n - 2
    check_int64(total)
    for e, count, kind, _ in m.runs[1:]:  # past the origin: free or satellite
        if kind is _FREE:
            term = count * ((e - 1) + moduli_dim_term(e + 1))
        else:
            term = count * moduli_dim_term(e + 2)
        total += term
        check_int64(term, total)
    return total


def differential_gap_count(m: MultiplicitySequence) -> int:
    """Generic number of gaps of the value set of Kahler differentials.

    Computed as tau_min - mu/2 - n + 1 and checked against the closed
    sum over resolution points; both must agree and be non-negative.
    """
    n = m.origin_multiplicity
    rearranged = (
        minimal_tjurina(m) - _exact_div(milnor_number(m), 2, "half Milnor") - n + 1
    )
    closed = _differential_gap_formula(m)
    if rearranged != closed:
        raise InternalInvariantViolation(
            f"gap count double computation disagrees: "
            f"rearranged {rearranged} vs closed {closed}"
        )
    if closed < 0:
        raise NegativeGapCountError(f"gap count {closed} is negative")
    return closed


@dataclass(frozen=True)
class InvariantReport:
    """All numeric invariants of one equisingularity class."""

    n: int
    mu: int
    tau_minus: int
    q_min: int
    tau_min: int
    quotient_num: int
    quotient_den: int
    tau_lower_bound: int
    delta_gen_gaps: int

    def quotient_decimal(self, places: int = 6) -> str:
        """mu/tau_min rounded half-even to the given number of places."""
        return decimal_ratio(self.quotient_num, self.quotient_den, places)


def report_gap_count(r: InvariantReport) -> int:
    """Gap count recomputed from report fields alone.

    tau_min - mu/2 - n + 1; negative output means the report fields are
    mutually inconsistent and raises NegativeGapCountError.
    """
    gaps = r.tau_min - _exact_div(r.mu, 2, "half Milnor") - r.n + 1
    if gaps < 0:
        raise NegativeGapCountError(
            f"report with mu={r.mu}, tau_min={r.tau_min}, n={r.n} "
            f"implies {gaps} gaps"
        )
    return gaps


def dimca_greuel_margin(r: InvariantReport) -> int:
    """4 tau_min - 3 mu, the slack in the quotient bound mu/tau_min < 4/3.

    Any record with mu and tau_min fields will do, not only a report.
    """
    check_int64(4 * r.tau_min, 3 * r.mu)
    return 4 * r.tau_min - 3 * r.mu


def _evaluate(c: CharacteristicExponents) -> SimpleNamespace:
    """Every quantity of c that IDENTITIES compares, each computed once.

    Works from the raw pieces, not the self-checking wrappers.  An error
    raised on the way gets an `identity` attribute: the identity charged
    with it, which is the one of the step that was running.
    """
    v = SimpleNamespace(c=c)
    step = "semigroup_round_trip"
    try:
        v.s = semigroup_from_char_exponents(c)
        v.back = _exponents_from_generators(v.s)
        step = "multiplicity_total_sum"
        v.seq = _build_sequence(c)  # its sum identities are table rows
        step = "conductor_sieve_agreement"
        v.conductor = _conductor_formula(v.s)
        v.sieve = _membership_sieve(v.s.gens, v.conductor + c.n)
        v.gaps = v.conductor - _members_below(v.sieve, v.conductor)
        step = "tau_min_double_computation"
        v.mu = milnor_number(v.seq)
        v.tau_minus = mu_constant_stratum_dim(v.seq)
        v.q_min = generic_component_dim(v.seq)
        v.tau_min = _minimal_tjurina_formula(v.seq)
        v.delta_gaps = _differential_gap_formula(v.seq)
        v.bound = tjurina_lower_bound(c.n)
        v.free_slack = sum(
            (e - 1) * count
            for e, count, kind, _ in v.seq.runs
            if kind is _FREE
        )
    except BranchInvariantError as exc:
        exc.identity = step
        raise
    return v


def _lower_bound(v: SimpleNamespace) -> str | None:
    """tau_min >= bound, with equality exactly on the class (n; n + 1)."""
    sharp = v.c.beta == (v.c.n + 1,)
    if v.tau_min < v.bound or (v.tau_min == v.bound) != sharp:
        return f"tau_min {v.tau_min} vs bound {v.bound}"
    return None


def _dimca_greuel(v: SimpleNamespace) -> str | None:
    margin = dimca_greuel_margin(v)
    if margin <= 0 or margin < 2 * v.c.n - 3 + v.free_slack:
        return f"margin {margin}"
    return None


def _zariski_one_pair(v: SimpleNamespace) -> str | None:
    """Zariski's stratum dimension (n-3)(m-3)/2 + [m/n] - 1 of (n; m)."""
    if v.c.g != 1:
        return None
    n, m = v.c.n, v.c.beta[0]
    zariski = (n - 3) * (m - 3) // 2 + m // n - 1
    return None if v.tau_minus == zariski else f"{v.tau_minus} vs {zariski}"


# (name, check) in reporting order: check returns None when the identity
# holds on the class, else a one-line detail
IDENTITIES: tuple[tuple[str, Callable[[SimpleNamespace], str | None]], ...] = (
    ("semigroup_round_trip",
     lambda v: None if v.back == v.c else f"came back different through {v.s}"),
    ("gcd_chain_consistency",
     lambda v: None if v.s.gcd_chain == v.c.gcd_chain
     else f"{v.s.gcd_chain} vs {v.c.gcd_chain}"),
    ("conductor_sieve_agreement",
     lambda v: _conductor_sieve_disagreement(v.s, v.conductor, v.sieve)),
    ("semigroup_symmetry",
     lambda v: None if 2 * v.gaps == v.conductor else "gap count is not conductor/2"),
    ("multiplicity_total_sum",
     lambda v: None if v.seq.sum_total() == v.c.beta[-1] + v.c.n - 1
     else f"sum {v.seq.sum_total()}"),
    ("multiplicity_free_sum",
     lambda v: None if v.c.n + v.seq.sum_free() == v.c.beta[-1]
     else f"free sum {v.seq.sum_free()}"),
    ("multiplicity_satellite_sum",
     lambda v: None if v.seq.sum_satellite() == v.c.n - 1
     else f"satellite sum {v.seq.sum_satellite()}"),
    ("milnor_vs_conductor",
     lambda v: None if v.mu == v.conductor
     else f"mu {v.mu} vs conductor {v.conductor}"),
    ("tau_min_double_computation",
     lambda v: None if v.tau_min == v.q_min + v.mu - v.tau_minus
     else f"closed {v.tau_min} vs recombined {v.q_min + v.mu - v.tau_minus}"),
    ("tau_min_lower_bound", _lower_bound),
    ("dimca_greuel_margin", _dimca_greuel),
    ("gap_count_double_computation",
     lambda v: None if 0 <= v.delta_gaps == v.tau_min - v.mu // 2 - v.c.n + 1
     else f"closed {v.delta_gaps}"),
    ("zariski_one_pair", _zariski_one_pair),
)


def _failures(v: SimpleNamespace) -> list[tuple[str, str]]:
    """(name, detail) of every identity that fails on v, in table order."""
    return [(name, d) for name, check in IDENTITIES if (d := check(v)) is not None]


def _checked_report(v: SimpleNamespace) -> InvariantReport:
    """The report of v; raises naming the first identity that fails on it."""
    failures = _failures(v)
    if failures:
        name, detail = failures[0]
        raise InternalInvariantViolation(f"{v.c}: {name} failed: {detail}")
    common = math.gcd(v.mu, v.tau_min)
    return InvariantReport(
        n=v.c.n,
        mu=v.mu,
        tau_minus=v.tau_minus,
        q_min=v.q_min,
        tau_min=v.tau_min,
        quotient_num=v.mu // common,
        quotient_den=v.tau_min // common,
        tau_lower_bound=v.bound,
        delta_gen_gaps=v.delta_gaps,
    )


def full_report(c: CharacteristicExponents) -> InvariantReport:
    """Compute every invariant of the class and check every identity.

    Raises InternalInvariantViolation naming the first IDENTITIES row
    that fails on c: Milnor number vs conductor vs twice the semigroup
    gap count, both Tjurina routes, both gap-count routes, the quotient
    margin, the sharp lower bound, and the rest of the table.
    """
    return _checked_report(_evaluate(c))
