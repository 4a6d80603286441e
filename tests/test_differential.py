"""Random classes beyond the swept boxes, checked against the oracles."""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, starmap
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from branch_invariants import (
    BranchInvariantError,
    CharacteristicExponents,
    DomainError,
    MultiplicitySequence,
    OverflowLimitError,
    PointKind,
    Run,
    append_smooth_points,
    conductor,
    differential_gap_count,
    full_report,
    gap_count,
    generic_component_dim,
    milnor_number,
    minimal_tjurina,
    mu_constant_stratum_dim,
    multiplicity_sequence,
    semigroup_from_char_exponents,
    tjurina_lower_bound,
)
from branch_invariants.combinatorics import _conductor_formula
from branch_invariants.errors import INT64_MAX
from branch_invariants.invariants import (
    _SUM_NAMES,
    _differential_gap_formula,
    _evaluate,
    _minimal_tjurina_formula,
    _sequence_values,
)
from branch_invariants.resolution import _mark_stage
from oracles import (
    blowup_multiplicity_sequence,
    naive_conductor_and_gaps,
    semigroup_reference,
    sequence_sum_reference,
)

MAX_MULT = 16  # so g <= 4: each pair at least halves the running gcd
MAX_BETA = 300
DEEP_MULT = 32  # so g <= 5
DEEP_BETA = 200


@st.composite
def classes(draw, max_mult=MAX_MULT, max_beta=MAX_BETA) -> CharacteristicExponents:
    """Admissible (n; beta_1, ..., beta_g) with n <= max_mult, beta_g <= max_beta.

    Each exponent is drawn among those that lower the gcd to a chosen
    proper divisor; all but the last stay in the lower half of what is
    left, so the next pair always has more than n values to choose from.
    """
    n = draw(st.integers(2, max_mult))
    e, beta = n, []
    while e > 1:
        e_next = draw(st.sampled_from([d for d in range(1, e) if e % d == 0]))
        low = (beta[-1] if beta else n) + 1
        high = max_beta if e_next == 1 else (low + max_beta) // 2
        beta.append(draw(st.sampled_from(
            [b for b in range(low, high + 1) if math.gcd(e, b) == e_next]
        )))
        e = e_next
    return CharacteristicExponents(n, tuple(beta))


@settings(max_examples=100, deadline=None)
@given(classes())
def test_full_report_matches_oracles(c):
    r = full_report(c)  # raises unless every identity holds
    want_conductor, want_gaps = naive_conductor_and_gaps(
        semigroup_from_char_exponents(c).gens
    )
    assert r.mu == want_conductor == 2 * len(want_gaps)
    assert conductor(semigroup_from_char_exponents(c)) == want_conductor
    got = [(p.multiplicity, p.kind.value) for p in multiplicity_sequence(c).points]
    assert got == blowup_multiplicity_sequence(c.n, c.beta)


def sigma(k: int) -> int:
    """The moduli dimension term, restated: (k-2)(k-4)/4 or (k-3)^2/4."""
    return (k - 2) * (k - 4) // 4 if k % 2 == 0 else (k - 3) ** 2 // 4


def pointwise_sums(m) -> tuple[int, int, int, int, int]:
    """mu, tau-, q_min, tau_min and the gap count, summed point by point."""
    points = m.points
    n = points[0].multiplicity
    adjusted = [
        p.multiplicity + {"origin": 0, "free": 1, "satellite": 2}[p.kind.value]
        for p in points
    ]
    mu = sum(p.multiplicity * (p.multiplicity - 1) for p in points)
    tau_minus = sum((k - 2) * (k - 3) // 2 for k in adjusted)
    q_min = sum(sigma(k) for k in adjusted)
    tau_min = sigma(n) + (n * n + 3 * n - 6) // 2
    gaps = sigma(n) + n - 2
    for p in points[1:]:
        e = p.multiplicity
        if p.kind.value == "free":
            tau_min += ((e - 1) * (e + 2) + 2 * sigma(e + 1)) // 2
            gaps += e - 1 + sigma(e + 1)
        else:
            tau_min += (e * (e - 1) + 2 * sigma(e + 2)) // 2
            gaps += sigma(e + 2)
    return mu, tau_minus, q_min, tau_min, gaps


@settings(max_examples=100, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA))
def test_runs_expand_to_the_blowup_sequence(c):
    got = [(p.multiplicity, p.kind.value) for p in multiplicity_sequence(c).points]
    assert got == blowup_multiplicity_sequence(c.n, c.beta)


@settings(max_examples=100, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA))
def test_bitset_sieve_matches_enumeration(c):
    s = semigroup_from_char_exponents(c)
    want_conductor, want_gaps = naive_conductor_and_gaps(s.gens)
    assert conductor(s) == want_conductor
    assert gap_count(s) == len(want_gaps)


@settings(max_examples=100, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA), st.integers(0, 3))
def test_run_sums_match_pointwise_sums(c, extra):
    m = append_smooth_points(multiplicity_sequence(c), extra)
    assert (
        milnor_number(m),
        mu_constant_stratum_dim(m),
        generic_component_dim(m),
        _minimal_tjurina_formula(m),
        _differential_gap_formula(m),
    ) == pointwise_sums(m)
    assert minimal_tjurina(m) == pointwise_sums(m)[3]
    assert differential_gap_count(m) == pointwise_sums(m)[4]


@settings(max_examples=100, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA), st.integers(0, 3))
def test_points_are_runs_of_one_that_rebuild_the_sequence(c, extra):
    m = append_smooth_points(multiplicity_sequence(c), extra)
    points = m.points
    assert all(type(p) is Run and p.count == 1 for p in points)
    assert len(points) == sum(r.count for r in m.runs)
    assert MultiplicitySequence(points) == m


@st.composite
def huge_classes(draw) -> CharacteristicExponents:
    """Admissible classes with g <= 5 whose values reach the int64 edges.

    n is the product of the multipliers n_i = e_{i-1}/e_i, and each
    beta_i = e_i k with k prime to n_i, drawn from a share of the room
    left below INT64_MAX that leaves space for the pairs still to come.
    """
    g = draw(st.integers(1, 5))
    mults = [draw(st.integers(2, 2 ** (62 // g))) for _ in range(g)]
    e = math.prod(mults)
    n, beta = e, []
    for i, n_i in enumerate(mults):
        e //= n_i
        low = (beta[-1] if beta else n) // e + 1
        room = (INT64_MAX // e - low) >> (8 * (g - 1 - i))
        k = low + draw(st.integers(0, room))
        while math.gcd(k, n_i) != 1:
            k += 1
        beta.append(e * k)
    assume(beta[-1] <= INT64_MAX)
    return CharacteristicExponents(n, tuple(beta))


def unchecked_sequence(c: CharacteristicExponents) -> MultiplicitySequence:
    """The sequence of c from its stages' runs, before SEQUENCE_IDENTITIES run."""
    return MultiplicitySequence(tuple(chain.from_iterable(starmap(_mark_stage, c.stage_keys))))


@settings(max_examples=200, deadline=None)
@given(huge_classes())
@example(CharacteristicExponents(2, (10**18 + 1,)))
@example(CharacteristicExponents(3037000499, (3037000500,)))
@example(CharacteristicExponents(3, (INT64_MAX,)))
@example(CharacteristicExponents(2, (INT64_MAX,)))  # mu = tau_min = INT64_MAX - 1
def test_runs_reach_the_int64_edges(c):
    """No sieve and no expansion: closed forms only, or an overflow error.

    The sequence is built without its checked sums, so mu and tau_min are
    reached even where multiplicity_sequence refuses the class.
    """
    try:
        m = unchecked_sequence(c)
        mu = milnor_number(m)
        tau_min = minimal_tjurina(m)
        bound = tjurina_lower_bound(c.n)
        conductor_formula = _conductor_formula(semigroup_from_char_exponents(c))
    except OverflowLimitError:
        return
    assert mu == conductor_formula
    assert tau_min >= bound
    assert 3 * mu < 4 * tau_min


def test_int64_edge_example_values():
    m = multiplicity_sequence(CharacteristicExponents(2, (10**18 + 1,)))
    assert milnor_number(m) == 10**18
    assert len(m.runs) == 4
    edge = CharacteristicExponents(3, (INT64_MAX,))
    with pytest.raises(OverflowLimitError):
        multiplicity_sequence(edge)  # its sum of multiplicities leaves 64 bits
    with pytest.raises(OverflowLimitError):
        milnor_number(unchecked_sequence(edge))
    m = unchecked_sequence(CharacteristicExponents(2, (INT64_MAX,)))
    assert milnor_number(m) == minimal_tjurina(m) == INT64_MAX - 1


@settings(max_examples=200, deadline=None)
@given(huge_classes())
@example(CharacteristicExponents(3, (2**62 + 1,)))  # mu = INT64_MAX + 1
@example(CharacteristicExponents(3, (2**62 - 2,)))  # mu = INT64_MAX - 5
@example(CharacteristicExponents(3, (INT64_MAX,)))
@example(CharacteristicExponents(10, (576540315836020665, 1634362939506820639)))
def test_run_sums_are_checked_at_their_exact_totals(c):
    """The exact sum over the points when it fits in 64 bits, else an overflow error."""
    for extra in (0, 1, 2, 5):
        m = append_smooth_points(unchecked_sequence(c), extra)
        adjusted = [r.multiplicity + {"origin": 0, "free": 1, "satellite": 2}[r.kind.value]
                    for r in m.runs]
        mu = sum(r.count * r.multiplicity * (r.multiplicity - 1) for r in m.runs)
        tau_minus = sum(r.count * (k - 2) * (k - 3) // 2 for r, k in zip(m.runs, adjusted))
        for sum_of, want in ((milnor_number, mu), (mu_constant_stratum_dim, tau_minus)):
            if want <= INT64_MAX:
                assert sum_of(m) == want
            else:
                with pytest.raises(OverflowLimitError):
                    sum_of(m)


# one stage table across all drawn examples, so later examples hit stages
# that earlier ones filled
SHARED_STAGES: dict = {}


def stage_route(c):
    """The evaluation pass's sequence and sums, from its stage records on SHARED_STAGES."""
    v = _evaluate(c, SHARED_STAGES)
    return {name: getattr(v, name) for name in ("seq", "n", *_SUM_NAMES)}


def run_sum_route(c):
    """The same values from the whole sequence, one run sum per quantity."""
    m = unchecked_sequence(c)
    return {"seq": m, **vars(_sequence_values(m, SimpleNamespace()))}


def outcome(route, c):
    try:
        return route(c)
    except BranchInvariantError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA))
def test_stage_sums_match_run_sums(c):
    assert stage_route(c) == run_sum_route(c)


@settings(max_examples=200, deadline=None)
@given(huge_classes())
@example(CharacteristicExponents(3, (INT64_MAX,)))
# mu leaves 64 bits inside stage 2, past where stage 1's total alone reaches
@example(CharacteristicExponents(10, (576540315836020665, 1634362939506820639)))
@example(CharacteristicExponents(2, (4194301,)))  # huge values are refused; this one is not
def test_stage_sums_fail_as_run_sums_do(c):
    """Equal values, or a refusal at the conductor or the sieve that marks no stage of c."""
    before = dict(SHARED_STAGES)
    got = outcome(stage_route, c)
    if type(got) is dict:
        assert got == run_sum_route(c)
    else:
        assert got[0] in (OverflowLimitError, DomainError)
        assert SHARED_STAGES == before


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA), huge_classes()))
@example(CharacteristicExponents(4, (2**62 + 2, 2**62 + 3)))  # the accumulator leaves 64 bits
# the accumulator of the third generator leaves 64 bits, the second's does not
@example(CharacteristicExponents(8, (2**60 + 4, 2**61 + 2, 2**61 + 3)))
def test_generators_match_the_quadratic_formula(c):
    """The running accumulator gives the generators, or the error, of the O(g^2) sums."""
    assert outcome(semigroup_from_char_exponents, c) == outcome(semigroup_reference, c)


_KINDS = st.sampled_from([PointKind.FREE, PointKind.SATELLITE])


@st.composite
def run_tuples(draw) -> tuple[Run, ...]:
    """An origin run, then free and satellite runs up to the int64 edges.

    Multiplicities, kinds and stages come from small pools, so neighbours
    often merge, and a count may be 0, so a run may be dropped.
    """
    big = st.integers(1, INT64_MAX)
    runs = [Run(draw(st.one_of(st.integers(1, 4), big)), 1, PointKind.ORIGIN, 1)]
    runs += draw(st.lists(st.builds(
        Run, st.one_of(st.integers(1, 3), big), st.one_of(st.integers(0, 2), big),
        _KINDS, st.integers(1, 2),
    ), max_size=8))
    return tuple(runs)


SEQUENCE_SUMS = [
    (MultiplicitySequence.sum_total, None),
    (MultiplicitySequence.sum_free, PointKind.FREE),
    (MultiplicitySequence.sum_satellite, PointKind.SATELLITE),
]


@settings(max_examples=300, deadline=None)
@given(run_tuples())
@example((Run(3, 1, PointKind.ORIGIN, 1), Run(2, 1, PointKind.FREE, 1),
          Run(2, 0, PointKind.SATELLITE, 1), Run(2, 2, PointKind.FREE, 1)))  # 0 dropped, 2s merge
@example((Run(2, 1, PointKind.ORIGIN, 1), Run(INT64_MAX // 2 + 1, 2, PointKind.SATELLITE, 1)))
def test_sequence_sums_match_one_pass_per_sum(runs):
    m = MultiplicitySequence(runs)
    for method, kind in SEQUENCE_SUMS:
        assert outcome(method, m) == outcome(partial(sequence_sum_reference, kind=kind), m)
