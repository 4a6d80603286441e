"""Inputs of the benchmark workloads, built from a seed.

This module is imported by the fresh interpreter that measures set-up
time, so it depends on nothing beyond ``math`` and ``random``.  The
package under test never sees the seed: it receives only the argument
lists built here.

Workloads (all closed loop, one caller):

    box-sweep      sweep of the (12, 100) box to CSV, serial
    box-sweep-par  the same sweep with two pool workers
    tall-classes   single-class ``invariants --format json`` queries:
                   half long chains, half wide conductors
    check-suite    ``check`` at its default box (10, 60)
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("box-sweep", "box-sweep-par", "tall-classes", "check-suite")
# the workloads BENCHMARK.json declares; check-suite runs only by hand
GATED = WORKLOADS[:3]

SWEEP_BOX = (12, 100)
SWEEP_CLASSES = 13157
CHECK_BOX = (10, 60)
CHECK_CLASSES = 2043
# run_identity_suite on this box does almost no per-class work, so its
# time is the fixed sigma scan
FIXED_COST_BOX = (2, 3)
PAR_WORKERS = 2

# tall-classes size ranges; each query's size is spread over its half's
# range by slot, and the seed jitters it and picks the exact exponents,
# so every seed gives the same mix of costs
TALL_QUERIES = 96
LONG_N = (2, 6)
LONG_POINTS = (1000, 3000)
LONG_BETA_MAX = 20000
WIDE_N = (30, 100)
WIDE_CONDUCTOR = (20000, 100000)
WIDE_POINTS_MAX = 200


def box_of(workload: str) -> tuple[int, int]:
    """Box whose classes the workload evaluates.

    tall-classes enumerates nothing; its enumeration and pool layer
    metrics are taken on the check box as a fixed reference.
    """
    return SWEEP_BOX if workload.startswith("box-sweep") else CHECK_BOX


def workers_of(workload: str) -> int:
    return PAR_WORKERS if workload == "box-sweep-par" else 1


def sweep_argv(out_path: str) -> list[str]:
    mult, beta = SWEEP_BOX
    return ["sweep", "--max-mult", str(mult), "--max-beta", str(beta),
            "--format", "csv", "--out", out_path]


def check_argv() -> list[str]:
    return ["check"]


def invariants_argv(n: int, beta: tuple[int, ...]) -> list[str]:
    exps = ",".join(str(b) for b in beta)
    return ["invariants", "--char-exponents", f"{n}:{exps}", "--format", "json"]


def gcd_chain(n: int, beta: tuple[int, ...]) -> list[int]:
    chain = [n]
    for b in beta:
        chain.append(math.gcd(chain[-1], b))
    return chain


def admissible(n: int, beta: tuple[int, ...]) -> bool:
    """The benchmark's own admissibility test for (n; beta_1, ..., beta_g).

    n >= 2, g >= 1, n < beta_1 < ... < beta_g, each beta_i not divisible
    by e_{i-1}, and the gcd chain ends at 1.
    """
    if n < 2 or not beta:
        return False
    if any(b <= a for a, b in zip((n,) + beta, beta)):
        return False
    chain = gcd_chain(n, beta)
    if any(b % e == 0 for b, e in zip(beta, chain)):
        return False
    return chain[-1] == 1


def semigroup(n: int, beta: tuple[int, ...]) -> list[int]:
    """Semigroup generators v_0..v_g of an admissible class.

    v_0 = n, v_1 = beta_1, v_{i+1} = n_i v_i - beta_i + beta_{i+1} with
    n_i = e_{i-1}/e_i.
    """
    chain = gcd_chain(n, beta)
    gens = [n, beta[0]]
    for i in range(1, len(beta)):
        n_i = chain[i - 1] // chain[i]
        gens.append(n_i * gens[i] - beta[i - 1] + beta[i])
    return gens


def conductor(n: int, beta: tuple[int, ...]) -> int:
    """Closed form sum (n_i - 1) v_i - v_0 + 1."""
    gens = semigroup(n, beta)
    chain = gcd_chain(n, beta)
    return sum(
        (chain[i - 1] // chain[i] - 1) * gens[i] for i in range(1, len(gens))
    ) - n + 1


def point_count(n: int, beta: tuple[int, ...]) -> int:
    """Number of resolution points: the Euclidean quotients of every stage."""
    chain = gcd_chain(n, beta)
    total = 0
    for i in range(len(beta)):
        a = beta[0] if i == 0 else beta[i] - beta[i - 1]
        b = chain[i]
        while b:
            q, r = divmod(a, b)
            total += q
            a, b = b, r
    return total


def _slot_target(lo: int, hi: int, slot: int, slots: int, rng: random.Random) -> int:
    """Geometric spread of lo..hi over the slots, jittered by +-2%."""
    frac = (slot + 0.5) / slots
    centre = lo * (hi / lo) ** frac
    return round(centre * rng.uniform(0.98, 1.02))


def _next_coprime(start: int, e: int) -> int:
    b = start
    while math.gcd(b, e) != 1:
        b += 1
    return b


def _long_chain(rng: random.Random, slot: int, slots: int) -> tuple[int, tuple[int, ...]]:
    """n in 2..6 and LONG_POINTS resolution points, one or two pairs."""
    points = _slot_target(*LONG_POINTS, slot, slots, rng)
    n = rng.randint(*LONG_N)
    e1 = rng.choice([d for d in range(2, n) if n % d == 0] or [1])
    if e1 == 1 or rng.random() < 0.5:
        return n, (_next_coprime(n * points, n),)
    # stage 1 is short; stage 2 runs Euclid on (b2 - b1, e1) and emits
    # about (b2 - b1)/e1 points
    b1 = n + 1 + rng.randrange(2 * n)
    while math.gcd(n, b1) != e1:
        b1 += 1
    b2 = _next_coprime(b1 + e1 * (points - b1 // n), e1)
    return n, (b1, b2)


def _wide_conductor(rng: random.Random, slot: int, slots: int) -> tuple[int, tuple[int, ...]]:
    """n in 30..100, few points, conductor in WIDE_CONDUCTOR."""
    target = _slot_target(*WIDE_CONDUCTOR, slot, slots, rng)
    n = rng.randint(*WIDE_N)
    m = _next_coprime(1 + target // (n - 1), n)
    return n, (m,)


def tall_queries(seed: int, count: int = TALL_QUERIES) -> list[tuple[int, tuple[int, ...]]]:
    """count admissible classes, long chains and wide conductors alternating."""
    rng = random.Random(seed)
    half = count // 2
    queries = []
    for slot in range(half):
        queries.append(_long_chain(rng, slot, half))
        queries.append(_wide_conductor(rng, slot, half))
    for n, beta in queries:
        if not admissible(n, beta) or not in_tall_ranges(n, beta):
            raise AssertionError(f"generator produced an out-of-range class ({n}; {beta})")
    return queries


def in_tall_ranges(n: int, beta: tuple[int, ...]) -> bool:
    """Whether (n; beta) lies in the long-chain or the wide-conductor range."""
    if LONG_N[0] <= n <= LONG_N[1]:
        return (LONG_POINTS[0] * 0.9 <= point_count(n, beta) <= LONG_POINTS[1] * 1.1
                and beta[-1] <= LONG_BETA_MAX)
    if WIDE_N[0] <= n <= WIDE_N[1]:
        return (WIDE_CONDUCTOR[0] * 0.9 <= conductor(n, beta) <= WIDE_CONDUCTOR[1] * 1.1
                and point_count(n, beta) <= WIDE_POINTS_MAX)
    return False


def build_inputs(workload: str, seed: int, out_path: str = "records.csv") -> list[list[str]]:
    """Argument lists for one pass of the workload."""
    if workload in ("box-sweep", "box-sweep-par"):
        return [sweep_argv(out_path)]
    if workload == "check-suite":
        return [check_argv()]
    if workload == "tall-classes":
        return [invariants_argv(n, beta) for n, beta in tall_queries(seed)]
    raise ValueError(f"unknown workload {workload!r}")
