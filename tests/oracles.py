"""Independent reference computations used only by the tests.

Apart from the last eight, nothing here shares algorithms with the
package: multiplicity sequences come from simulating blow-ups on an
exact Puiseux parameterization, semigroup gaps from growing the member
set generator by generator, and enumeration from filtering raw tuples.  Agreement between these and the
package is what the derived test values rest on.

The last eight are earlier package routes, kept here to pin the faster
ones that replaced them: rendering a ratio through a 50-digit Decimal,
checking resolution invariance on sequences rebuilt with appended
smooth points, the sequence sums as one generator pass each over the
runs, the semigroup generators with each accumulator summed anew, and
four functions that checked every product or partial sum to 64 bits
where the package now checks only where a value can leave that range.

After them come the JSON shapes, as dicts, that the command line's
templates must lay out byte for byte as json.dumps(indent=2) does: a
class, a report, and json.dumps's layout of an item in a top-level list.
Then comes the invariants command's earlier route, which built the class
three times (full_report, then the semigroup and the sequence again)
and rendered them with the command line's templates.  Last is the
command line's earlier parse route: argparse's top-level pass over
every argv, then the error for the words it left over.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from itertools import accumulate, combinations

from branch_invariants import (
    CharacteristicExponents,
    InvariantReport,
    SemigroupGenerators,
    SweepRecord,
    enumerate_classes,
    full_report,
    multiplicity_sequence,
    semigroup_from_char_exponents,
)
import branch_invariants.cli as cli
from branch_invariants.errors import (
    DivisibilityViolationError,
    DomainError,
    GcdNotOneError,
    InternalInvariantViolation,
    NonIncreasingError,
    NotPlaneError,
    NotSingularError,
    check_int64,
    echo_plain,
    exact_div,
)
from branch_invariants.invariants import _SUM_NAMES, _evaluate, _run_sums
from branch_invariants.resolution import MultiplicitySequence, PointKind, append_smooth_points

# arithmetic over GF(P): exact, fast, and an accidental zero would need a
# true value divisible by this prime, which the small prime coefficients
# used below cannot produce at these sizes
P = (1 << 61) - 1

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class Series:
    """Dense truncated power series over GF(P): coeffs[k] is the t^k term."""

    def __init__(self, coeffs: list[int], prec: int):
        self.coeffs = [c % P for c in coeffs[:prec]] + [0] * max(
            0, prec - len(coeffs)
        )
        self.prec = prec

    def order(self) -> int | None:
        """Exponent of the lowest nonzero term, None when zero to precision."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def shift_down(self, d: int) -> "Series":
        return Series(self.coeffs[d:], self.prec - d)

    def divide(self, other: "Series") -> "Series":
        """self / other, requiring ord(self) >= ord(other)."""
        d = other.order()
        if d is None:
            raise ZeroDivisionError("division by a zero series")
        a = self.shift_down(d)
        b = other.shift_down(d)
        inv0 = pow(b.coeffs[0], P - 2, P)
        prec = min(a.prec, b.prec)
        out = [0] * prec
        rem = list(a.coeffs[:prec])
        for k in range(prec):
            q = (rem[k] * inv0) % P
            out[k] = q
            if q:
                for j in range(k, prec):
                    rem[j] = (rem[j] - q * b.coeffs[j - k]) % P
        return Series(out, prec)

    def minus_constant(self) -> "Series":
        out = list(self.coeffs)
        out[0] = 0
        return Series(out, self.prec)


def blowup_multiplicity_sequence(n: int, betas: tuple[int, ...]):
    """Multiplicity sequence read off a simulated embedded resolution.

    The branch is parameterized x = t^n, y = sum of prime-coefficient
    terms t^beta_i.  Each blow-up rewrites the parameterization in the
    chart containing the strict transform and tracks which of the two
    coordinate axes are exceptional; a point is recorded as long as the
    total transform still fails to have normal crossings there.  Returns
    a list of (multiplicity, kind) with kind one of "origin", "free",
    "satellite".
    """
    prec = 2 * (n + betas[-1]) + 32
    u = Series([0] * n + [1], prec)
    v_coeffs = [0] * (betas[-1] + 1)
    for i, b in enumerate(betas):
        v_coeffs[b] = _SMALL_PRIMES[i % len(_SMALL_PRIMES)]
    v = Series(v_coeffs, prec)
    exc_u, exc_v = False, False
    kind = "origin"
    points: list[tuple[int, str]] = []
    for _ in range(4 * (n + betas[-1])):
        ord_u, ord_v = u.order(), v.order()
        if ord_u is None:
            raise AssertionError("first coordinate vanished identically")
        mult = ord_u if ord_v is None else min(ord_u, ord_v)
        needs_blowup = (
            mult >= 2
            or (exc_u and exc_v)
            or (exc_u and ord_u >= 2)
            or (exc_v and ord_v is not None and ord_v >= 2)
        )
        if not needs_blowup:
            return points
        points.append((mult, kind))
        if ord_v is not None and ord_v < ord_u:
            u, v = v, u
            exc_u, exc_v = exc_v, exc_u
        quot = v.divide(u)
        d = quot.order()
        if d is None or d > 0:
            # strict transform meets the new exceptional line at the
            # origin of the chart, which also lies on the old v-axis
            kind = "satellite" if exc_v else "free"
            v = quot
            exc_u = True
        else:
            # meets the new exceptional line away from every old axis
            kind = "free"
            v = quot.minus_constant()
            exc_u, exc_v = True, False
    raise AssertionError(f"simulation did not terminate for ({n}; {betas})")


def naive_semigroup_members(gens: tuple[int, ...], limit: int) -> set[int]:
    """Member set below limit, grown breadth-first from 0."""
    members: set[int] = set()
    frontier = [0]
    while frontier:
        value = frontier.pop()
        if value >= limit or value in members:
            continue
        members.add(value)
        frontier.extend(value + g for g in gens)
    return members


def naive_conductor_and_gaps(gens: tuple[int, ...]) -> tuple[int, list[int]]:
    """Conductor and sorted gap list found purely by enumeration."""
    # a window of min(gens) consecutive members proves everything above it
    window = min(gens)
    limit = window
    while True:
        members = naive_semigroup_members(gens, limit + window)
        run = 0
        for v in range(limit + window):
            run = run + 1 if v in members else 0
            if run == window:
                conductor = v - window + 1
                gaps = sorted(x for x in range(conductor) if x not in members)
                return conductor, gaps
        limit *= 2


def brute_force_classes(max_mult: int, max_beta: int, max_pairs: int | None = None):
    """Admissible exponent tuples by generate-and-filter, in sorted order.

    Validity is restated from scratch: strictly increasing exponents
    above n, each one not divisible by the running gcd, chain ending at 1.
    """

    def admissible(n: int, betas: tuple[int, ...]) -> bool:
        if len(betas) == 0 or any(b <= n for b in betas):
            return False
        if list(betas) != sorted(set(betas)):
            return False
        e = n
        for b in betas:
            if b % e == 0:
                return False
            e = math.gcd(e, b)
        return e == 1

    found = []
    for n in range(2, max_mult + 1):
        longest = max_pairs if max_pairs is not None else n.bit_length()
        for g in range(1, longest + 1):
            for betas in combinations(range(n + 1, max_beta + 1), g):
                if admissible(n, betas):
                    found.append((n, betas))
    found.sort()
    return found


def decimal_ratio_reference(num: int, den: int) -> str:
    """num/den through a 50-digit Decimal, quantized half-even to 6 places."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(num) / Decimal(den)
        return str(q.quantize(Decimal("1e-6"), rounding=ROUND_HALF_EVEN))


def resolution_invariance_reference(bounds) -> tuple[bool, str]:
    """(passed, detail) of resolution_invariance over bounds, on rebuilt sequences.

    Each class that passes the evaluation pass has its sequence rebuilt
    with k = 1, 2, 5 smooth points appended, and every quantity of the
    rebuilt one, summed through this module's own binding of _run_sums as
    the suite's are through its own, is compared with the pass's; the
    detail names the first class that differs, in enumeration order.
    """
    for c in enumerate_classes(bounds):
        try:
            v = _evaluate(c, {})
        except InternalInvariantViolation:
            continue
        for k in (1, 2, 5):
            m = append_smooth_points(v.seq, k)
            ext = dict(zip(_SUM_NAMES, _run_sums(m.runs)), n=m.origin_multiplicity)
            if any(value != getattr(v, key) for key, value in ext.items()):
                return False, f"first failure at {c}: changed after appending {k} points"
    return True, ""


def sequence_sum_reference(m: MultiplicitySequence, kind: PointKind | None = None) -> int:
    """Sum of multiplicity * count over the runs of m of kind (every run when None).

    One generator pass over m.runs, its total checked to 64 bits.
    """
    total = sum(mult * count for mult, count, k, _ in m.runs if kind is None or k is kind)
    check_int64(total)
    return total


def semigroup_reference(c: CharacteristicExponents) -> SemigroupGenerators:
    """The generators of c, each accumulator summed from j = 1 again: O(g^2)."""
    chain = c.gcd_chain
    gens = [c.n, c.beta[0]]
    for i in range(1, c.g):
        acc = sum((chain[j - 1] - chain[j]) * c.beta[j - 1] for j in range(1, i + 1))
        v = exact_div(acc, chain[i], "generator accumulator") + c.beta[i]
        check_int64(acc, v)
        gens.append(v)
    return SemigroupGenerators(tuple(gens))


def validate_generators_reference(gens: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The gcd chain and multipliers of gens, each domination product checked first."""
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
    mult = tuple(e // e_next for e, e_next in zip(chain, chain[1:]))
    for i, n_i in enumerate(mult[:-1], start=1):
        check_int64(n_i * gens[i])
        if n_i * gens[i] >= gens[i + 1]:
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


def conductor_formula_reference(s: SemigroupGenerators) -> int:
    """sum_i (n_i - 1) v_i - v_0 + 1, every term and partial sum checked."""
    c = 1 - s.n
    for n_i, v in zip(s.multipliers, s.gens[1:]):
        term = (n_i - 1) * v
        check_int64(term)
        c += term
        check_int64(c)
    return c


def moduli_dim_term_reference(k: int) -> int:
    """(k-2)(k-4)/4 for even k, (k-3)^2/4 for odd k >= 2, with k * k always checked."""
    check_int64(k)
    if k < 2:
        raise DomainError(f"moduli term needs k >= 2, got {k}")
    check_int64(k * k)
    if k % 2 == 0:
        return exact_div((k - 2) * (k - 4), 4, "even moduli term")
    return exact_div((k - 3) * (k - 3), 4, "odd moduli term")


def tjurina_lower_bound_reference(n: int) -> int:
    """3n^2/4 - 1 for even n, 3(n^2 - 1)/4 for odd n >= 2, with n * n always checked."""
    check_int64(n)
    if n < 2:
        raise DomainError(f"lower bound needs multiplicity >= 2, got {n}")
    check_int64(n * n)
    if n % 2 == 0:
        return exact_div(3 * n * n, 4, "even lower bound") - 1
    return exact_div(3 * (n * n - 1), 4, "odd lower bound")


def _report_dict(r: InvariantReport) -> dict:
    """The report's JSON object, as a dict: the shape cli._json_report lays out."""
    return {
        "n": r.n,
        "mu": r.mu,
        "tau_minus": r.tau_minus,
        "q_min": r.q_min,
        "tau_min": r.tau_min,
        "quotient": {
            "num": r.quotient_num,
            "den": r.quotient_den,
            "decimal": r.quotient_decimal(),
        },
        "tau_lower_bound": r.tau_lower_bound,
        "delta_gen_gaps": r.delta_gen_gaps,
    }


def _class_dict(c: CharacteristicExponents) -> dict:
    """The class's JSON object, as a dict: the shape cli._json_class lays out."""
    return {"n": c.n, "beta": list(c.beta)}


def _json_item(obj) -> str:
    """obj as json.dumps(indent=2) lays it out in a list under a top-level key."""
    return json.dumps(obj, indent=2).replace("\n", "\n    ")


def invariants_reference(c: CharacteristicExponents, fmt: str) -> str:
    """The invariants command's stdout for c in fmt, by the three-call route.

    full_report first, so a refused class raises its error before
    anything is rendered; then the semigroup and the sequence are built
    again and rendered with the command line's templates.
    """
    r = full_report(c)
    s = semigroup_from_char_exponents(c)
    m = multiplicity_sequence(c)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if fmt == "json":
            head = cli._INVARIANTS_HEAD % (cli._json_class(c, 1), cli._json_ints(s.gens, 1))
            tail = cli._INVARIANTS_TAIL % cli._json_report(r, 1)
            cli._repeated(m, cli._json_point, cli._ITEM_SEP, head, tail)
        elif fmt == "csv":
            header = ",".join(cli.CSV_COLUMNS + ["multiplicity_sequence"])
            row = cli._csv_row(SweepRecord(c, s, r))
            cli._repeated(m, cli._compact_point, ";", f"{header}\n{row},", "\n")
        else:
            head = f"class            {c}\nsemigroup        {s}\nmultiplicity sequence:\n"
            tail = "".join([
                f"\nmu               {r.mu}",
                f"\ntau_minus        {r.tau_minus}",
                f"\nq_min            {r.q_min}",
                f"\ntau_min          {r.tau_min}",
                f"\nmu/tau_min       {r.quotient_num}/{r.quotient_den} = {r.quotient_decimal()}",
                f"\ntau lower bound  {r.tau_lower_bound}",
                f"\ndelta_gen gaps   {r.delta_gen_gaps}\n",
            ])
            cli._repeated(m, cli._table_point, "\n", head, tail)
    return out.getvalue()


def parse_reference(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser's reading of argv by the top-level pass, whatever argv's first word.

    The subparsers action hands what follows a command word to that
    command's parser; words nobody read end in the top-level parser's
    "unrecognized arguments" error.
    """
    args, extras = parser.parse_known_args(argv)
    if extras:
        parser.error(f"unrecognized arguments: {echo_plain(' '.join(extras))}")
    return args
