"""Correctness checks on the outputs of the package's command line.

Each check returns a list of problems; an empty list means the output
is correct.  The closed forms are recomputed here from the exponents and
from the output itself, independently of the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import gcd_chain, point_count, semigroup

CHECK_OK_LINES = 15


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_problems(exit_code: int, csv_bytes: bytes, stderr: str, expected: dict) -> list[str]:
    """A sweep must exit 0, print the pinned summary and write the pinned CSV."""
    problems = []
    if exit_code != 0:
        problems.append(f"sweep exited {exit_code}")
    if stderr.strip() != expected["summary"]:
        problems.append(f"summary {stderr.strip()!r} is not {expected['summary']!r}")
    digest = sha256(csv_bytes)
    if digest != expected["csv_sha256"]:
        problems.append(f"csv sha256 {digest} is not the pinned {expected['csv_sha256']}")
    return problems


def check_suite_problems(exit_code: int, stdout: str) -> list[str]:
    """check must exit 0 and print one ok line per identity and no FAIL line."""
    problems = []
    if exit_code != 0:
        problems.append(f"check exited {exit_code}")
    lines = stdout.splitlines()
    ok = sum(1 for line in lines if line.startswith("ok "))
    if ok != CHECK_OK_LINES:
        problems.append(f"{ok} ok lines, expected {CHECK_OK_LINES}")
    problems += [line for line in lines if line.startswith("FAIL")]
    return problems


def tjurina_bound(n: int) -> int:
    """3n^2/4 - 1 for even n, 3(n^2 - 1)/4 for odd n."""
    return 3 * n * n // 4 - 1 if n % 2 == 0 else 3 * (n * n - 1) // 4


def report_problems(n: int, beta: tuple[int, ...], exit_code: int, stdout: str) -> list[str]:
    """Check one ``invariants --format json`` report against closed forms."""
    if exit_code != 0:
        return [f"invariants exited {exit_code}"]
    try:
        doc = json.loads(stdout)
        return _json_report_problems(n, beta, doc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _json_report_problems(n: int, beta: tuple[int, ...], doc: dict) -> list[str]:
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got}, expected {want}")

    expect("char_exponents", doc["char_exponents"], {"n": n, "beta": list(beta)})
    gens = doc["semigroup"]
    expect("semigroup", gens, semigroup(n, beta))
    r = doc["report"]
    mu, tau = r["mu"], r["tau_min"]
    # mu = sum (n_i - 1) v_i - v_0 + 1 over the reported semigroup
    chain = gcd_chain(gens[0], tuple(gens[1:]))
    mu_closed = sum((chain[i - 1] // chain[i] - 1) * gens[i] for i in range(1, len(gens)))
    expect("mu vs semigroup conductor", mu, mu_closed - gens[0] + 1)

    points = doc["multiplicity_sequence"]
    kinds = {"origin": 0, "free": 0, "satellite": 0}
    for p in points:
        kinds[p["kind"]] += p["multiplicity"]
    expect("point count", len(points), point_count(n, beta))
    expect("origin", (points[0]["kind"], points[0]["multiplicity"]), ("origin", n))
    expect("sum of multiplicities", sum(kinds.values()), beta[-1] + n - 1)
    expect("n + free sum", n + kinds["free"], beta[-1])
    expect("satellite sum", kinds["satellite"], n - 1)
    expect("mu vs sum e(e-1)", mu, sum(p["multiplicity"] * (p["multiplicity"] - 1) for p in points))

    bound = tjurina_bound(n)
    expect("tau lower bound", r["tau_lower_bound"], bound)
    if tau < bound or (tau == bound) != (beta == (n + 1,)):
        problems.append(f"tau_min {tau} vs bound {bound} for ({n}; {beta})")
    if not 3 * mu < 4 * tau:
        problems.append(f"3 mu = {3 * mu} is not below 4 tau_min = {4 * tau}")
    expect("delta_gen_gaps", r["delta_gen_gaps"], tau - mu // 2 - n + 1)
    q = Fraction(mu, tau)
    expect("quotient", (r["quotient"]["num"], r["quotient"]["den"]), (q.numerator, q.denominator))
    if len(beta) == 1:
        m = beta[0]
        expect("Zariski tau_minus", r["tau_minus"], (n - 3) * (m - 3) // 2 + m // n - 1)
    return problems
