"""Numerical invariants of an equisingularity class.

Everything here is exact integer arithmetic over a multiplicity
sequence.  Quantities, with e_p the multiplicity at point p and e'_p the
adjusted multiplicity (e_p at the origin, e_p + 1 at free points, e_p + 2
at satellite points):

    milnor_number            mu      = sum e_p (e_p - 1)
    mu_constant_stratum_dim  tau-    = sum (e'_p - 2)(e'_p - 3)/2
    generic_component_dim    q_min   = sum sigma(e'_p)
    minimal_tjurina          tau_min = closed sum over points
    differential_gap_count           = closed sum over points

with sigma(k) = (k-2)(k-4)/4 for even k and (k-3)^2/4 for odd k.
Multiplicity-1 free points contribute zero to every sum, so invariants
are stable under extending a resolution past the minimal one.  Each sum
is _run_sum of a per-point term, the exact sum of count * term over runs
(see resolution) checked once, at its total, to stay in 64 bits; terms
are non-negative, so no product or partial sum exceeds the total.
Each sum is also additive over stages: in its tau_min_double_computation
step the evaluation pass adds up the values of the class's stage records
(see resolution), one pass over the stage keys the class kept from
validation, filling a record's values by the same routes over its runs
when first asked; a class of one stage copies its record's values.

IDENTITIES is the one ordered table of named per-class identities: the
semigroup round trip, combinatorics.SEMIGROUP_IDENTITIES,
resolution.SEQUENCE_IDENTITIES, then the rows declared here, among them
both routes to tau_min and both routes to the gap count.  A whole class
goes through one private pass that computes every quantity once, and
full_report, the sweep and the check suite run the whole table on it.
minimal_tjurina, differential_gap_count and report_gap_count run their
rows of the same table; a failing row raises InternalInvariantViolation
naming it, because it can only come from a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter, mul
from types import SimpleNamespace
from typing import Callable

from .combinatorics import (
    SEMIGROUP_IDENTITIES,
    CharacteristicExponents,
    _conductor_formula,
    _exponents_from_generators,
    _read_sieve,
    semigroup_from_char_exponents,
)
from .errors import (
    INT64_MAX,
    INT64_MIN,
    DomainError,
    InternalInvariantViolation,
    NegativeGapCountError,
    OverflowLimitError,
    ValidationError,
    check_int64,
    check_rows,
    exact_div,
)
from .resolution import (
    SEQUENCE_IDENTITIES,
    MultiplicitySequence,
    Run,
    _build_sequence,
    _FREE,
    _kind_error,
    _ORIGIN,
    _SATELLITE,
)


def decimal_ratio(num: int, den: int) -> str:
    """num/den rendered to exactly 6 decimal places, ties to even; num >= 0, den >= 1."""
    q, r = divmod(num * 10**6, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return f"{q // 10**6}.{q % 10**6:06d}"


# the largest k with k * k in signed 64 bits: only a larger k needs its square checked
_SQUARE_ROOT_MAX = math.isqrt(INT64_MAX)


def moduli_dim_term(k: int) -> int:
    """Contribution of one resolution point to the generic moduli dimension.

    (k-2)(k-4)/4 for even k, (k-3)^2/4 for odd k; defined for k >= 2.
    Its tests and divisions are inline: check_int64, the domain error and
    exact_div run only to refuse, in that order.
    """
    if type(k) is not int or not 2 <= k <= _SQUARE_ROOT_MAX:
        check_int64(k)
        if k < 2:
            raise DomainError(f"moduli term needs k >= 2, got {k}")
        check_int64(k * k)  # k is past _SQUARE_ROOT_MAX, so this raises
    if k % 2 == 0:
        t = (k - 2) * (k - 4)
        return t // 4 if t % 4 == 0 else exact_div(t, 4, "even moduli term")
    t = (k - 3) * (k - 3)
    return t // 4 if t % 4 == 0 else exact_div(t, 4, "odd moduli term")


def adjusted_multiplicity(p: Run) -> int:
    """e_p at the origin, e_p + 1 at free points, e_p + 2 at satellites.

    The multiplicity must be exactly an int and the kind a PointKind, both
    tested inline: this runs on every run of every sum, and the checks'
    calls only on a refusal.
    """
    m, kind = p.multiplicity, p.kind
    if type(m) is not int:
        check_int64(m)
    k = m if kind is _ORIGIN else m + 1 if kind is _FREE else m + 2 if kind is _SATELLITE else None
    if k is None:
        raise _kind_error(kind)
    if k > INT64_MAX:  # an origin past 64 bits, or the + 1 or + 2 past the edge
        check_int64(k)
    return k


_COUNT = itemgetter(1)  # a run's count, read without a Python frame per run


def _run_sum(m: MultiplicitySequence, term: Callable[[Run], int]) -> int:
    """Sum of term(p) over the points p of m, as count * term(run) per run.

    The sum is exact and only its total is checked to stay in 64 bits:
    no term is negative, so no product or partial sum exceeds the total.
    The check is inline, and check_int64 runs only to refuse.
    """
    total = sum(map(mul, map(_COUNT, m.runs), map(term, m.runs)))
    if type(total) is not int or not INT64_MIN <= total <= INT64_MAX:
        check_int64(total)
    return total


def _tjurina_term(p: Run) -> int:
    """sigma(e') plus (e^2+3e-6)/2 at the origin, (e-1)(e+2)/2 free, e(e-1)/2 else.

    sigma(k) is floor((k-3)^2/4) here, not moduli_dim_term(k): the two agree
    for k >= 2, and q_min, on the other tau_min route, reads moduli_dim_term.
    """
    e, k = p.multiplicity, adjusted_multiplicity(p)
    if p.kind is _ORIGIN:
        twice = e * e + 3 * e - 6
    elif p.kind is _FREE:
        twice = (e - 1) * (e + 2)
    else:
        twice = e * (e - 1)
    half = twice // 2 if twice % 2 == 0 else exact_div(twice, 2, "tau_min term")
    return (k - 3) * (k - 3) // 4 + half


def _gap_term(p: Run) -> int:
    """sigma(e') plus e - 2 at the origin, e - 1 at free points, 0 at satellites."""
    e = p.multiplicity
    rest = e - 2 if p.kind is _ORIGIN else e - 1 if p.kind is _FREE else 0
    return moduli_dim_term(adjusted_multiplicity(p)) + rest


def milnor_number(m: MultiplicitySequence) -> int:
    """Milnor number as sum of e_p(e_p - 1) over the resolution points."""
    mu = _run_sum(m, lambda p: p.multiplicity * (p.multiplicity - 1))
    if mu % 2 != 0:
        raise InternalInvariantViolation(f"Milnor number {mu} is odd")
    return mu


def _stratum_term(p: Run) -> int:
    """(e' - 2)(e' - 3)/2, defined for e' >= 2 as moduli_dim_term is."""
    k = adjusted_multiplicity(p)
    if k < 2:
        raise DomainError(f"stratum term needs k >= 2, got {k}")
    return math.comb(k - 2, 2)


def mu_constant_stratum_dim(m: MultiplicitySequence) -> int:
    """Dimension of the stratum of constant Milnor number.

    Sum of (e' - 2)(e' - 3)/2 over points, e' the adjusted multiplicity.
    """
    return _run_sum(m, _stratum_term)


def generic_component_dim(m: MultiplicitySequence) -> int:
    """Dimension of the moduli component of the generic curve in the class."""
    return _run_sum(m, lambda p: moduli_dim_term(adjusted_multiplicity(p)))


def _minimal_tjurina_formula(m: MultiplicitySequence) -> int:
    """Closed form for the minimal Tjurina number in the class."""
    return _run_sum(m, _tjurina_term)


def _differential_gap_formula(m: MultiplicitySequence) -> int:
    """Closed sum for the generic count of differential-value gaps."""
    return _run_sum(m, _gap_term)


_SUM_NAMES = ("mu", "tau_minus", "q_min", "tau_min", "delta_gen_gaps", "free_slack")


def _run_sums(m) -> tuple[int, ...]:
    """The per-point sums IDENTITIES compares, named by _SUM_NAMES, over m.runs."""
    return (milnor_number(m), mu_constant_stratum_dim(m), generic_component_dim(m),
            _minimal_tjurina_formula(m), _differential_gap_formula(m),
            _run_sum(m, lambda p: p.multiplicity - 1 if p.kind is _FREE else 0))


def _sequence_values(m: MultiplicitySequence, v: SimpleNamespace) -> SimpleNamespace:
    """v with every quantity of m that IDENTITIES compares, each computed once."""
    v.n = m.origin_multiplicity
    vars(v).update(zip(_SUM_NAMES, _run_sums(m)))
    return v


def _stage_sums(v: _Pass, table: dict) -> None:
    """Set v.n and the _SUM_NAMES of v.c as sums of its stages' values in table.

    Values are kept once complete, and a single stage's are copied; a
    total out of 64 bits raises the error that the sum over v.seq raises.
    Each stage value is a checked sum of non-negative terms, so only the
    totals' upper edge is tested inline.
    """
    try:
        totals = None
        for key in v.c.stage_keys:
            stage = table[key]
            if stage.values is None:
                stage.values = _run_sums(stage)  # each checked to 64 bits
            totals = stage.values if totals is None else tuple(map(add, totals, stage.values))
        if max(totals) > INT64_MAX:
            check_int64(*totals)
    except OverflowLimitError:
        _run_sums(v.seq)
        raise
    v.n = v.c.n
    # the _SUM_NAMES in order, set one by one: after an update of vars(v)
    # CPython 3.11 reads the attributes of v more slowly (see _Pass)
    v.mu, v.tau_minus, v.q_min, v.tau_min, v.delta_gen_gaps, v.free_slack = totals


def minimal_tjurina(m: MultiplicitySequence) -> int:
    """Minimal Tjurina number over the equisingularity class.

    The closed formula, once the tau_min_double_computation row holds:
    it agrees with q_min + mu - tau-.  The two routes share no sigma term:
    the closed one writes sigma(e') as floor((e'-3)^2/4) and q_min reads
    moduli_dim_term, so a broken sigma fails that row.
    """
    v = _sequence_values(m, SimpleNamespace())
    check_rows(IDENTITIES, v, ("tau_min_double_computation",))
    return v.tau_min


def tjurina_lower_bound(n: int) -> int:
    """Sharp lower bound for the Tjurina number at multiplicity n.

    3n^2/4 - 1 for even n, 3(n^2 - 1)/4 for odd n; attained exactly by
    the class of one pair (n; n + 1).
    """
    check_int64(n)
    if n < 2:
        raise DomainError(f"lower bound needs multiplicity >= 2, got {n}")
    if n > _SQUARE_ROOT_MAX:
        check_int64(n * n)
    if n % 2 == 0:
        return exact_div(3 * n * n, 4, "even lower bound") - 1
    return exact_div(3 * (n * n - 1), 4, "odd lower bound")


def _rearranged_gaps(v) -> int:
    """The gap count tau_min - mu/2 - n + 1 of any record with those fields."""
    mu = v.mu
    return v.tau_min - (mu // 2 if mu % 2 == 0 else exact_div(mu, 2, "half Milnor")) - v.n + 1


def differential_gap_count(m: MultiplicitySequence) -> int:
    """Generic number of gaps of the value set of Kahler differentials.

    The closed sum over points, once report_gap_count accepts it.
    """
    return report_gap_count(_sequence_values(m, SimpleNamespace()))


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

    def quotient_decimal(self) -> str:
        """mu/tau_min rounded half-even to exactly 6 decimal places."""
        return decimal_ratio(self.quotient_num, self.quotient_den)


def report_gap_count(r: InvariantReport) -> int:
    """Gap count of a report, checked against its other fields alone.

    r.delta_gen_gaps, returned once the rows tau_min_double_computation
    and gap_count_double_computation hold on r; any record with the
    report's invariant fields will do.  A negative count by either route
    means the fields are mutually inconsistent and raises
    NegativeGapCountError.
    """
    rearranged = _rearranged_gaps(r)
    if min(r.delta_gen_gaps, rearranged) < 0:
        raise NegativeGapCountError(
            f"gap count {r.delta_gen_gaps}, rearranged {rearranged}, is negative"
        )
    names = ("tau_min_double_computation", "gap_count_double_computation")
    check_rows(IDENTITIES, r, names)
    return r.delta_gen_gaps


def dimca_greuel_margin(r: InvariantReport) -> int:
    """4 tau_min - 3 mu, the slack in the quotient bound mu/tau_min < 4/3.

    Any record with mu and tau_min fields will do, not only a report.
    """
    check_int64(r.tau_min, r.mu, 4 * r.tau_min, 3 * r.mu)
    margin = 4 * r.tau_min - 3 * r.mu
    if not INT64_MIN <= margin <= INT64_MAX:
        check_int64(margin)
    return margin


class _Pass:
    """The quantities of one class that the evaluation pass computes, as attributes.

    A plain class rather than SimpleNamespace: CPython 3.11 reads the
    attributes of a plain class's instances faster, and the IDENTITIES
    rows read dozens of them per class.  A (12, 100) CSV sweep ran about
    6 % faster for it.
    """


def _evaluate(c: CharacteristicExponents, table: dict) -> _Pass:
    """Every quantity of c that IDENTITIES compares, each computed once.

    Works from the raw pieces, not the self-checking wrappers.  An
    internal invariant violation raised on the way gets an `identity`
    attribute: the identity charged with it, which is the one of the step
    that was running.  c is valid, so a ValidationError from the map to
    its generators is a bug too, raised as a violation of the round trip.
    Any other error, such as an overflow or a sieve above SIEVE_LIMIT, is
    about the input, and propagates.
    """
    v = _Pass()
    v.c = c
    step = "semigroup_round_trip"
    try:
        try:
            v.s = semigroup_from_char_exponents(c)
        except ValidationError as exc:  # c is valid, so its generators must be
            raise InternalInvariantViolation(f"{c}: {step} failed: {exc}") from exc
        v.back = _exponents_from_generators(v.s)
        step = "multiplicity_total_sum"
        v.seq = _build_sequence(c, table)  # its sum identities are table rows
        step = "conductor_sieve_agreement"
        v.conductor = _conductor_formula(v.s)
        _read_sieve(v)
        step = "tau_min_double_computation"
        _stage_sums(v, table)
        # once per multiplicity per table, under the int key n beside the stage keys
        bound = table.get(c.n)
        if bound is None:
            bound = table[c.n] = tjurina_lower_bound(c.n)
        v.tau_lower_bound = bound
    except InternalInvariantViolation as exc:
        exc.identity = step
        raise
    return v


def _lower_bound(v: SimpleNamespace) -> str | None:
    """tau_min >= bound, with equality exactly on the class (n; n + 1)."""
    sharp = v.c.beta == (v.c.n + 1,)
    if v.tau_min < v.tau_lower_bound or (v.tau_min == v.tau_lower_bound) != sharp:
        return f"tau_min {v.tau_min} vs bound {v.tau_lower_bound}"
    return None


def _dimca_greuel(v: SimpleNamespace) -> str | None:
    """The margin of dimca_greuel_margin, unchecked: in the pass mu and tau_min are checked totals.

    Under the sieve gate mu = c < 2**22 and tau_min < mu, so neither
    product can leave 64 bits; the public function keeps its checks for
    any other record.
    """
    margin = 4 * v.tau_min - 3 * v.mu
    if margin <= 0 or margin < 2 * v.c.n - 3 + v.free_slack:
        return f"margin {margin}"
    return None


def _zariski_one_pair(v: SimpleNamespace) -> str | None:
    """Zariski's stratum dimension (n-3)(m-3)/2 + [m/n] - 1 of (n; m)."""
    if len(v.c.beta) != 1:
        return None
    n, m = v.c.n, v.c.beta[0]
    zariski = (n - 3) * (m - 3) // 2 + m // n - 1
    return None if v.tau_minus == zariski else f"{v.tau_minus} vs {zariski}"


# (name, check) in reporting order: check returns None when the identity
# holds on the class, else a one-line detail.  The semigroup and sequence
# rows are declared next to what they check; a row run by a public
# function reads only what that function can supply.
IDENTITIES: tuple[tuple[str, Callable[[SimpleNamespace], str | None]], ...] = (
    ("semigroup_round_trip",
     lambda v: None if v.back == (v.c.n, v.c.beta) else f"came back different through {v.s}"),
    *SEMIGROUP_IDENTITIES,
    *SEQUENCE_IDENTITIES,
    ("milnor_vs_conductor",
     lambda v: None if v.mu == v.conductor
     else f"mu {v.mu} vs conductor {v.conductor}"),
    ("tau_min_double_computation",
     lambda v: None if v.tau_min == (recombined := v.q_min + v.mu - v.tau_minus)
     else f"closed {v.tau_min} vs recombined {recombined}"),
    ("tau_min_lower_bound", _lower_bound),
    ("dimca_greuel_margin", _dimca_greuel),
    ("gap_count_double_computation",
     lambda v: None if 0 <= v.delta_gen_gaps == _rearranged_gaps(v)
     else f"closed {v.delta_gen_gaps}"),
    ("zariski_one_pair", _zariski_one_pair),
)


def _checked_report(v: _Pass) -> InvariantReport:
    """The report of v; raises naming the first identity that fails on it.

    Every row runs on v; check_rows runs the table again only once a row
    has failed, for the message.  The report is the one InvariantReport(...)
    builds, its fields set in one update rather than one setattr each.
    """
    for _, check in IDENTITIES:
        if check(v) is not None:
            check_rows(IDENTITIES, v, subject=v.c)
    mu, tau_min = v.mu, v.tau_min
    common = math.gcd(mu, tau_min)
    r = object.__new__(InvariantReport)
    r.__dict__.update(
        n=v.n, mu=mu, tau_minus=v.tau_minus, q_min=v.q_min, tau_min=tau_min,
        quotient_num=mu // common, quotient_den=tau_min // common,
        tau_lower_bound=v.tau_lower_bound, delta_gen_gaps=v.delta_gen_gaps,
    )
    return r


def full_report(c: CharacteristicExponents) -> InvariantReport:
    """Compute every invariant of the class and check every identity.

    Raises InternalInvariantViolation naming the first IDENTITIES row
    that fails on c: Milnor number vs conductor vs twice the semigroup
    gap count, both Tjurina routes, both gap-count routes, the quotient
    margin, the sharp lower bound, and the rest of the table.
    """
    return _checked_report(_evaluate(c, {}))
