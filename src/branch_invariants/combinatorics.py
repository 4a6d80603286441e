"""Characteristic exponents and value semigroups of plane branches.

An equisingularity class of an irreducible plane curve germ is encoded
either by its characteristic exponents (n; b_1, ..., b_g) or by the
minimal generators (v_0, ..., v_g) of its semigroup of values.  The two
encodings carry the same information; this module validates both,
converts in both directions, and computes the conductor and the gap
count of the semigroup.  Both are cross-checked against a membership
sieve held as one integer bitset, refused above SIEVE_LIMIT cells.

SEMIGROUP_IDENTITIES holds the semigroup rows of invariants.IDENTITIES:
gcd_chain_consistency, conductor_sieve_agreement and semigroup_symmetry.
conductor and gap_count run the last two on the semigroup they are given.

Conventions.  n >= 2 is the multiplicity, g >= 1 the number of
characteristic pairs.  The gcd chain is e_0 = n, e_i = gcd(e_{i-1}, b_i);
admissibility requires n < b_1 < ... < b_g, each b_i not divisible by
e_{i-1}, and e_g = 1.  Smooth branches (g = 0) are rejected everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import floordiv
from types import SimpleNamespace

from .errors import (
    INT64_MAX,
    INT64_MIN,
    DivisibilityViolationError,
    DomainError,
    GcdNotOneError,
    InternalInvariantViolation,
    NonIncreasingError,
    NotPlaneError,
    NotSingularError,
    check_int64,
    check_rows,
    echo_plain,
    exact_div,
)

# The membership sieve (c + n cells) and the expanded point list (never
# more than c + n points) grow with the input, so both are refused above
# this size: 512 KiB of bitset, bounded time, and still room for classes
# like (97; 20000) with conductor 1.9 * 10**6.
SIEVE_LIMIT = 2**22


@dataclass(frozen=True)
class CharacteristicExponents:
    """Validated characteristic exponents (n; beta_1, ..., beta_g).

    Construction runs the full admissibility check (check_int64 first: each
    value exactly int, never a bool or numpy integer, and never coerced) and
    raises a ValidationError subclass naming the first violated condition.
    """

    n: int
    beta: tuple[int, ...]
    # (e_0, e_1, ..., e_g) with e_0 = n and e_i = gcd(e_{i-1}, beta_i), and
    # the key (beta_i - beta_{i-1}, e_{i-1}, i) of each resolution stage
    # with beta_0 = 0 (see resolution), kept from validation; n and beta
    # alone decide equality and hash
    gcd_chain: tuple[int, ...] = field(init=False, repr=False, compare=False)
    stage_keys: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, beta) -> None:
        beta = tuple(beta)
        chain, keys = _validate_exponents(n, beta)
        self.__dict__.update(n=n, beta=beta, gcd_chain=chain, stage_keys=keys)

    @property
    def g(self) -> int:
        return len(self.beta)

    def __str__(self) -> str:
        return f"({self.n}; {', '.join(str(b) for b in self.beta)})"


def _validate_exponents(n: int, beta: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
    """The gcd chain and stage keys of (n; beta), once every admissibility condition holds.

    The key (beta_i - beta_{i-1}, e_{i-1}, i) of stage i, with beta_0 = 0,
    is made in the gcd-chain loop; it raises nothing, so the refusals
    come in the same order.
    """
    for value in (n, *beta):  # the integer rule, inline; check_int64 only refuses
        if type(value) is not int or not INT64_MIN <= value <= INT64_MAX:
            check_int64(n, *beta)
    if len(beta) == 0 or n < 2:
        raise NotSingularError(
            f"(n={n}, g={len(beta)}) describes a smooth branch; need n >= 2 and g >= 1"
        )
    prev = n
    for i, b in enumerate(beta, start=1):
        if b <= prev:
            raise NonIncreasingError(
                f"exponents must satisfy n < beta_1 < ... < beta_g; "
                f"beta_{i} = {b} is not greater than {prev}"
            )
        prev = b
    chain, keys = [n], []
    for i, (prev, b) in enumerate(zip((0, *beta), beta), start=1):
        if b % chain[-1] == 0:
            raise DivisibilityViolationError(
                f"beta_{i} = {b} is divisible by e_{i - 1} = {chain[-1]}"
            )
        keys.append((b - prev, chain[-1], i))
        chain.append(math.gcd(chain[-1], b))
    if chain[-1] != 1:
        raise GcdNotOneError(f"gcd chain ends at e_g = {chain[-1]}, not 1")
    return tuple(chain), tuple(keys)


@dataclass(frozen=True)
class SemigroupGenerators:
    """Minimal generators (v_0, ..., v_g) of a plane-branch value semigroup.

    Construction validates the plane-branch conditions: v_0 >= 2, the gcd
    chain e_i = gcd(v_0, ..., v_i) strictly decreases to 1, and each
    generator dominates its predecessor via (e_{i-1}/e_i) v_i < v_{i+1}.
    Each v_i must be exactly int (check_int64): no bool, numpy integer or coercion.
    """

    gens: tuple[int, ...]
    # e_i = gcd(v_0, ..., v_i) for i <= g, and n_i = e_{i-1}/e_i, kept from validation
    gcd_chain: tuple[int, ...] = field(init=False, repr=False, compare=False)
    multipliers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, gens) -> None:
        gens = tuple(gens)
        chain, mult = _validate_generators(gens)
        self.__dict__.update(gens=gens, gcd_chain=chain, multipliers=mult)

    @property
    def n(self) -> int:
        return self.gens[0]

    @property
    def g(self) -> int:
        return len(self.gens) - 1

    def __str__(self) -> str:
        return f"<{', '.join(str(v) for v in self.gens)}>"


def _validate_generators(gens: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The gcd chain and multipliers of gens, once every plane-branch condition holds."""
    for value in gens:  # the integer rule, inline; check_int64 only refuses
        if type(value) is not int or not INT64_MIN <= value <= INT64_MAX:
            check_int64(*gens)
    if len(gens) < 2 or gens[0] < 2:
        raise NotSingularError(
            f"generators {echo_plain(list(gens))} describe a smooth branch; "
            f"need v_0 >= 2 and at least two generators"
        )
    if gens[1] <= gens[0]:
        raise NonIncreasingError(
            f"v_1 = {gens[1]} must exceed the multiplicity v_0 = {gens[0]}"
        )
    chain = list(accumulate(gens, math.gcd))
    mult = tuple(map(floordiv, chain, chain[1:]))
    # the domination inequality is diagnosed first: inputs like <4, 6, 12>
    # fail several conditions at once and the useful message is this one
    for i, n_i in enumerate(mult[:-1], start=1):
        if n_i * gens[i] >= gens[i + 1]:
            # gens[i] > 0 and gens[i + 1] fits in 64 bits, so only a product
            # that fails the test can leave the range
            check_int64(n_i * gens[i])
            raise NotPlaneError(
                f"not a plane-branch semigroup: "
                f"{n_i} * {gens[i]} = {n_i * gens[i]} is not < {gens[i + 1]}"
            )
    for i in range(1, len(gens)):
        if chain[i] == chain[i - 1]:
            raise DivisibilityViolationError(
                f"v_{i} = {gens[i]} is divisible by gcd(v_0..v_{i - 1}) = {chain[i - 1]}"
            )
    if chain[-1] != 1:
        raise GcdNotOneError(f"gcd of all generators is {chain[-1]}, not 1")
    return tuple(chain), mult


def _iterable(values, what: str):
    """values, once it is iterable; anything else raises DomainError naming its type."""
    try:
        iter(values)
    except TypeError:
        raise DomainError(
            f"{what} must be an iterable of ints, got "
            f"{type(values).__name__} {echo_plain(repr(values))}"
        ) from None
    return values


def validate_char_exponents(n: int, beta) -> CharacteristicExponents:
    """Validate (n; beta_1, ..., beta_g) and return the frozen record."""
    return CharacteristicExponents(n, _iterable(beta, "exponents"))


def validate_semigroup(gens) -> SemigroupGenerators:
    """Validate semigroup generators and return the frozen record."""
    return SemigroupGenerators(_iterable(gens, "generators"))


def _admissible_after(e: int, exponents):
    """The exponents b of exponents that may follow a gcd chain at e: those e does not divide.

    The one-step check of the enumeration walk, lazy over a range of any
    length: each b is tested by e.__rmod__ (b % e), with no Python frame.
    """
    return filter(e.__rmod__, exponents)


def _semigroup_root(n: int) -> tuple:
    """The carry of multiplicity n and no exponent, that _generator_step grows."""
    return (n,), (n,), (), 0, 1 - n


def _generator_step(carry: tuple, e: int, b: int, e_next: int) -> tuple:
    """The carry of the exponents (n; beta_1, ..., beta_k, b), from the carry of (n; beta_1, ..., beta_k).

    A carry is (gens, chain, multipliers, acc, partial): the generators
    v_0, ..., v_k with their gcd chain and multipliers as
    SemigroupGenerators keeps them, both computed from the generators;
    acc = sum_{j<=k} (e_{j-1} - e_j) beta_j, which the next generator
    divides by e_k; and partial = 1 - v_0 + sum_{j<=k} (n_j - 1) v_j, the
    closed-form conductor so far.  e = e_k and e_next = gcd(e_k, b) are the
    class's own gcd chain.  e must divide acc, or exact_div refuses it.
    The generator v = acc/e + b is tested as _validate_generators tests
    the last of gens + (v,): 64 bits, with acc, then domination over v_k,
    divisibility, and a chain at 1 once e_next is 1; exact_div,
    check_int64 and _validate_generators run only to refuse.  partial is
    not checked here: it stays below the next generator, so only a
    class's last term can leave 64 bits first (see invariants._evaluate).
    """
    gens, chain, mult, acc, partial = carry
    q, r = divmod(acc, e)
    if r:
        exact_div(acc, e, "generator accumulator")
    v = q + b
    if acc > INT64_MAX or v > INT64_MAX:
        check_int64(acc, v)
    last = chain[-1]
    g = math.gcd(last, v)
    if v <= (mult[-1] * gens[-1] if mult else gens[0]) or g == last or (e_next == 1 and g != 1):
        _validate_generators(gens + (v,))  # raises, naming the first condition v breaks
    return (gens + (v,), chain + (g,), mult + (last // g,), acc + (e - e_next) * b,
            partial + (last // g - 1) * v)


def semigroup_from_char_exponents(c: CharacteristicExponents) -> SemigroupGenerators:
    """Minimal semigroup generators of the class with exponents c.

    v_0 = n, v_1 = beta_1, and each later generator accumulates the
    differences of the gcd chain:
    v_{i+1} = sum_{j<=i} ((e_{j-1} - e_j)/e_i) beta_j + beta_{i+1}.
    One _generator_step per exponent keeps the sum running and tests its
    generator, so each is checked once; the evaluation pass grows the
    same carry down the enumeration tree.
    """
    carry = _semigroup_root(c.n)
    for e, b, e_next in zip(c.gcd_chain, c.beta, c.gcd_chain[1:]):
        carry = _generator_step(carry, e, b, e_next)
    s = object.__new__(SemigroupGenerators)
    s.__dict__.update(gens=carry[0], gcd_chain=carry[1], multipliers=carry[2])
    return s


def _exponents_from_generators(s: SemigroupGenerators) -> tuple[int, tuple[int, ...]]:
    """Solve v_{i+1} = n_i v_i - beta_i + beta_{i+1} for the exponents.

    Returns the raw pair (n, beta), not yet validated: the round trip
    compares it with the class it came from, and a class it equals is
    already valid.
    """
    beta = [s.gens[1]]
    for i in range(1, len(s.gens) - 1):
        beta.append(s.gens[i + 1] - s.multipliers[i - 1] * s.gens[i] + beta[i - 1])
    return s.gens[0], tuple(beta)


def char_exponents_from_semigroup(s: SemigroupGenerators) -> CharacteristicExponents:
    """Invert semigroup generators back to characteristic exponents.

    Uses the recursion v_{i+1} = n_i v_i - beta_i + beta_{i+1}; the result
    is re-validated on construction, and the round trip is checked.
    """
    c = CharacteristicExponents(*_exponents_from_generators(s))
    if semigroup_from_char_exponents(c).gens != s.gens:
        raise InternalInvariantViolation(
            f"round trip through exponents changed {s} into "
            f"{semigroup_from_char_exponents(c)}"
        )
    return c


def _membership_sieve(gens: tuple[int, ...], limit: int) -> int:
    """Bitset of the semigroup below limit: bit v is set iff v is a sum of gens.

    Each generator is closed over by shift-doubling, so the cost is
    O(g log(limit / v_0)) big-int operations rather than O(g * limit)
    steps.  A limit above SIEVE_LIMIT raises DomainError before any
    allocation.
    """
    if limit > SIEVE_LIMIT:
        raise DomainError(
            f"membership sieve of {limit} cells exceeds the limit of "
            f"{SIEVE_LIMIT} (SIEVE_LIMIT)"
        )
    if limit <= 0:
        return 0
    mask = (1 << limit) - 1
    sieve = 1
    for gen in gens:
        shift = gen
        while shift < limit:
            sieve |= sieve << shift
            shift <<= 1
        # a bit at or above limit only shifts to bits above it, so one mask per generator will do
        sieve &= mask
    return sieve


def _conductor_formula(s: SemigroupGenerators) -> int:
    """Closed form sum_i (n_i - 1) v_i - v_0 + 1 for the conductor.

    Each term and partial sum is refused as it leaves 64 bits: terms are
    positive (n_i >= 2, v_i >= 1), so only the upper edge is tested inline.
    """
    c = 1 - s.gens[0]
    for n_i, v in zip(s.multipliers, s.gens[1:]):
        term = (n_i - 1) * v
        c += term
        if term > INT64_MAX or c > INT64_MAX:
            check_int64(term, c)
    return c


def _read_sieve(v: SimpleNamespace) -> SimpleNamespace:
    """v with the sieve of length c + v_0 for v.s, v.conductor and the gaps below c."""
    v.sieve = _membership_sieve(v.s.gens, v.conductor + v.s.gens[0])
    # max(c, 0): a broken conductor formula must reach its row, not a negative shift
    v.gaps = v.conductor - (v.sieve & ((1 << max(v.conductor, 0)) - 1)).bit_count()
    return v


def _conductor_sieve_agreement(v: SimpleNamespace) -> str | None:
    """c - 1 must be a gap and the next v_0 values members, in v.sieve."""
    s, c = v.s, v.conductor
    if c < 1 or (v.sieve >> (c - 1)) & 1:
        return f"conductor formula gave {c} for {s} but {c - 1} is not a gap"
    window = (1 << s.gens[0]) - 1
    if (v.sieve >> c) & window != window:
        return f"conductor formula gave {c} for {s} but a larger gap exists"
    return None


# the rows of invariants.IDENTITIES about the semigroup, in table order
SEMIGROUP_IDENTITIES = (
    ("gcd_chain_consistency",
     lambda v: None if v.s.gcd_chain == v.c.gcd_chain
     else f"{v.s.gcd_chain} vs {v.c.gcd_chain}"),
    ("conductor_sieve_agreement", _conductor_sieve_agreement),
    ("semigroup_symmetry",
     lambda v: None if 2 * v.gaps == v.conductor else "gap count is not conductor/2"),
)


def _checked_semigroup(s: SemigroupGenerators, names: tuple[str, ...]) -> SimpleNamespace:
    """Conductor, sieve and gap count of s, once the named rows hold on them."""
    v = _read_sieve(SimpleNamespace(s=s, conductor=_conductor_formula(s)))
    check_rows(SEMIGROUP_IDENTITIES, v, names, s)
    return v


def conductor(s: SemigroupGenerators) -> int:
    """Smallest c with c + N contained in the semigroup.

    Computed by the closed form sum_i (n_i - 1) v_i - v_0 + 1 and
    cross-checked against an explicit membership sieve by the
    conductor_sieve_agreement row.
    """
    return _checked_semigroup(s, ("conductor_sieve_agreement",)).conductor


def gap_count(s: SemigroupGenerators) -> int:
    """Number of naturals missing from the semigroup.

    Counted from the conductor's membership sieve, once the rows
    conductor_sieve_agreement and semigroup_symmetry hold.
    """
    names = ("conductor_sieve_agreement", "semigroup_symmetry")
    return _checked_semigroup(s, names).gaps
