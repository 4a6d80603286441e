"""Overflow checks made only where a value can leave 64 bits refuse what they refused before.

The generator validator checks a domination product n_i * v_i only when
the inequality it tests fails, the conductor formula tests only the
upper edge of its positive terms and partial sums, and moduli_dim_term
and tjurina_lower_bound check a square only above isqrt(INT64_MAX).
Each must give the value, or the error type and message, of the
reference in tests/oracles.py that checked every such value.  The
dimca_greuel_margin row computes its margin unchecked from the pass's
checked mu and tau_min, and must read the margin of the public
dimca_greuel_margin, which keeps its checks.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from branch_invariants import (
    CharacteristicExponents,
    dimca_greuel_margin,
    full_report,
    moduli_dim_term,
    tjurina_lower_bound,
)
from branch_invariants.combinatorics import (
    _conductor_formula,
    _validate_generators,
    semigroup_from_char_exponents,
)
from branch_invariants.errors import INT64_MAX, INT64_MIN
from branch_invariants.invariants import IDENTITIES, _evaluate
from oracles import (
    conductor_formula_reference,
    moduli_dim_term_reference,
    tjurina_lower_bound_reference,
    validate_generators_reference,
)
from test_differential import classes, huge_classes, outcome

ROOT = math.isqrt(INT64_MAX)  # 3037000499, the largest k with k * k in 64 bits

EDGE_INTS = st.one_of(
    st.integers(-8, 64),
    st.integers(ROOT - 64, ROOT + 64),
    st.integers(INT64_MAX - 64, INT64_MAX + 64),
    st.integers(INT64_MIN - 64, INT64_MIN + 64),
    st.integers(INT64_MIN, INT64_MAX),
)


@st.composite
def edge_generators(draw) -> tuple[int, ...]:
    """g = 1 to 4 generators whose gcd chain tends to fall by 2 to 5 a step, up to INT64_MAX.

    v_i is e_i times a small or a near-edge factor, so domination
    products n_i * v_i fall on both sides of INT64_MAX; a factor sharing
    a prime with n_i, or an unordered draw, fails another condition.
    """
    mults = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    e = math.prod(mults)
    gens = [e]
    for n_i in mults:
        e //= n_i
        gens.append(e * draw(st.one_of(st.integers(1, 64),
                                       st.integers(INT64_MAX // (8 * e), INT64_MAX // e))))
    return tuple(gens)


@settings(max_examples=300, deadline=None)
@given(st.one_of(edge_generators(), st.lists(EDGE_INTS, min_size=2, max_size=5).map(tuple)))
@example((4, 6, 9223372036854775807))  # 2 * 6 fits: not a plane semigroup
@example((4, 4611686018427387906, 9223372036854775807))  # 2 * v_1 leaves 64 bits
@example((4, 9223372036854775806, 9223372036854775807))
def test_generator_validation_refuses_as_before(gens):
    assert outcome(_validate_generators, gens) == outcome(validate_generators_reference, gens)


def conductor_of(formula, c: CharacteristicExponents) -> int:
    return formula(semigroup_from_char_exponents(c))


@settings(max_examples=300, deadline=None)
@given(huge_classes().filter(lambda c: c.g <= 4))
@example(CharacteristicExponents(3, (INT64_MAX,)))  # the term 2 * INT64_MAX, pinned by CI
@example(CharacteristicExponents(2, (INT64_MAX,)))  # c = INT64_MAX - 1 fits
# the term (n - 1) v_1 = 2**63 leaves 64 bits while the sum 2**63 - 2**31 does not
@example(CharacteristicExponents(2**31 + 1, (2**32,)))
def test_conductor_formula_refuses_as_before(c):
    assert (outcome(partial(conductor_of, _conductor_formula), c)
            == outcome(partial(conductor_of, conductor_formula_reference), c))


@settings(max_examples=300, deadline=None)
@given(EDGE_INTS)
@example(ROOT)
@example(ROOT + 1)
@example(2)
@example(1)
def test_squares_are_refused_as_before(k):
    assert outcome(moduli_dim_term, k) == outcome(moduli_dim_term_reference, k)
    assert outcome(tjurina_lower_bound, k) == outcome(tjurina_lower_bound_reference, k)


MARGIN_ROW = dict(IDENTITIES)["dimca_greuel_margin"]


@settings(max_examples=200, deadline=None)
@given(classes(max_beta=150))
@example(CharacteristicExponents(2, (3,)))
@example(CharacteristicExponents(2, (2001,)))  # conductor 2000
@example(CharacteristicExponents(16, (24, 28, 30, 31)))
def test_the_margin_row_reads_the_public_margin(c):
    v = _evaluate(c, {})
    assume(v.conductor <= 2000)
    assert MARGIN_ROW(v) is None
    v.free_slack = INT64_MAX  # no margin is that large, so the row names the one it computed
    assert MARGIN_ROW(v) == f"margin {dimca_greuel_margin(full_report(c))}"


# the hand-made records of test_identities.test_dimca_greuel_rule_counts_free_slack
@pytest.mark.parametrize("mu, tau_min, free_slack, detail", [
    (24, 20, 2, "margin 8"),
    (24, 18, -100, "margin 0"),
])
def test_the_margin_row_names_the_margin_of_a_hand_made_record(mu, tau_min, free_slack, detail):
    v = SimpleNamespace(c=CharacteristicExponents(5, (7,)), mu=mu, tau_min=tau_min,
                        free_slack=free_slack)
    assert MARGIN_ROW(v) == detail == f"margin {dimca_greuel_margin(v)}"
