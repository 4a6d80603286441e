"""Random classes beyond the swept boxes, checked against the oracles."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from branch_invariants import (
    CharacteristicExponents,
    conductor,
    full_report,
    multiplicity_sequence,
    semigroup_from_char_exponents,
)
from oracles import blowup_multiplicity_sequence, naive_conductor_and_gaps

MAX_MULT = 16  # so g <= 4: each pair at least halves the running gcd
MAX_BETA = 300


@st.composite
def classes(draw) -> CharacteristicExponents:
    """Admissible (n; beta_1, ..., beta_g) with n <= 16 and beta_g <= 300.

    Each exponent is drawn among those that lower the gcd to a chosen
    proper divisor; all but the last stay in the lower half of what is
    left, so the next pair always has more than n values to choose from.
    """
    n = draw(st.integers(2, MAX_MULT))
    e, beta = n, []
    while e > 1:
        e_next = draw(st.sampled_from([d for d in range(1, e) if e % d == 0]))
        low = (beta[-1] if beta else n) + 1
        high = MAX_BETA if e_next == 1 else (low + MAX_BETA) // 2
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
