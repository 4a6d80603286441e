"""Command line front end.

Subcommands:
    invariants   report for one class given by exponents, semigroup, or pair
    sweep        evaluate every class in a box and check the identities
    check        run the named identity suite over a box

Exit codes: 0 success, 1 a check or identity failed, 2 invalid input
(including a class whose membership sieve would exceed SIEVE_LIMIT) or
output that cannot be written, 3 internal invariant violation (a bug,
not bad input), 130 interrupted by Ctrl-C.  Each error is one stderr line.

Formats: table (human), json (stable keys, exact integers, quotient as
num/den plus fixed 6-place decimal string), csv (fixed column order,
lists joined by ';', no quoting needed).  All output is UTF-8 and ends
with a newline.  The multiplicity sequence is rendered one run at a time,
each run's text repeated once per point, so it reads as if written point
by point; a point's JSON item comes from one template, byte-equal to
json.dumps.  sweep hands a row renderer down, so pool workers render the
rows and the parent joins them (JSON records spliced in as the points
of cmd_invariants are).  --out is opened before any work, but truncated
only once the whole text is ready, so a failed sweep leaves it as it was;
a file that only this opening made is removed again.
Error messages quote an input in at most errors.ECHO_LIMIT + 2
characters, escapes included; argparse's errors are its one "prog: error:
message" line, without usage, and a value it quoted is cut by the value's
own head and length.  check walks its box on the workers sweep would use.
main builds its argument parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import re
import sys

from .combinatorics import (
    CharacteristicExponents,
    SemigroupGenerators,
    char_exponents_from_semigroup,
    semigroup_from_char_exponents,
)
from .enumeration import EnumerationBounds, SweepRecord, sweep
from .errors import (
    ECHO_LIMIT,
    InternalInvariantViolation,
    OverflowLimitError,
    ValidationError,
    echo,
    echo_plain,
)
from .invariants import InvariantReport, decimal_ratio, full_report
from .resolution import MultiplicitySequence, Run, multiplicity_sequence
from .selfcheck import run_identity_suite

CSV_COLUMNS = [
    "n",
    "char_exponents",
    "semigroup",
    "mu",
    "tau_minus",
    "q_min",
    "tau_min",
    "quotient",
    "lower_bound",
    "delta_gen_gaps",
    "checks_passed",
]

CHECK_DEFAULT_MULT = 10
CHECK_DEFAULT_BETA = 60


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated integers, got {echo(text)}")


def _class_from_args(args) -> CharacteristicExponents:
    if args.char_exponents is not None:
        head, sep, tail = args.char_exponents.partition(":")
        if not sep:
            raise ValidationError(
                f"expected n:b1,b2,... for --char-exponents, got {echo(args.char_exponents)}"
            )
        try:
            n = int(head)
        except ValueError:
            raise ValidationError(f"multiplicity {echo(head)} is not an integer")
        return CharacteristicExponents(n, tuple(_parse_int_list(tail, "exponents")))
    if args.semigroup is not None:
        gens = _parse_int_list(args.semigroup, "generators")
        return char_exponents_from_semigroup(SemigroupGenerators(tuple(gens)))
    pair = _parse_int_list(args.pair, "pair")
    if len(pair) != 2:
        raise ValidationError(f"--pair needs exactly two integers, got {echo(args.pair)}")
    return CharacteristicExponents(pair[0], (pair[1],))


def _report_dict(r: InvariantReport) -> dict:
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
    return {"n": c.n, "beta": list(c.beta)}


def _repeated(m: MultiplicitySequence, render, sep: str) -> str:
    """Every point as render(its run), sep between points.

    Each run is rendered once and its text repeated, so the cost per
    point is a string copy, not a Python call.
    """
    return sep.join(sep.join([render(run)] * run.count) for run in m.runs)


def _json_item(obj) -> str:
    """obj as json.dumps(indent=2) lays it out in a list under a top-level key."""
    return json.dumps(obj, indent=2).replace("\n", "\n    ")


def _json_point(run: Run) -> str:
    """_json_item of the point's dict: kinds are ASCII words and ints need no escaping."""
    return (f'{{\n      "multiplicity": {run.multiplicity},\n      "kind": "{run.kind.value}",'
            f'\n      "stage": {run.stage}\n    }}')


def _spliced(doc: dict, key: str, items: list[str]) -> str:
    """_json_text(doc), its empty list doc[key] filled in one join with items (at least one)."""
    head, tail = _json_text(doc).split(f'"{key}": []', 1)
    return "".join([head, f'"{key}": [\n    ', ",\n    ".join(items), "\n  ]", tail])


def _table_point(run: Run) -> str:
    return f"  stage {run.stage}  {run.multiplicity:>3}  {run.kind.value}"


def _sequence_compact(m: MultiplicitySequence) -> str:
    return _repeated(m, lambda run: f"{run.multiplicity}{run.kind.value[0]}", ";")


def _record_row(rec: SweepRecord) -> list[str]:
    """The fields of rec, in CSV_COLUMNS order."""
    c, r = rec.char_exponents, rec.report
    values = [""] * 7 if r is None else [
        str(r.mu), str(r.tau_minus), str(r.q_min), str(r.tau_min),
        f"{r.quotient_num}/{r.quotient_den}", str(r.tau_lower_bound), str(r.delta_gen_gaps),
    ]
    return [
        str(c.n),
        ";".join(str(v) for v in (c.n, *c.beta)),
        ";".join(str(v) for v in rec.semigroup.gens) if rec.semigroup else "",
        *values,
        "1" if rec.passed else "0",
    ]


def _csv_row(rec: SweepRecord) -> str:
    """The line csv.writer writes for rec: no field holds a comma or quote."""
    return ",".join(_record_row(rec))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _invariants_table(
    c: CharacteristicExponents,
    s: SemigroupGenerators,
    m: MultiplicitySequence,
    r: InvariantReport,
) -> str:
    lines = [
        f"class            {c}",
        f"semigroup        {s}",
        "multiplicity sequence:",
    ]
    lines.append(_repeated(m, _table_point, "\n"))
    lines += [
        f"mu               {r.mu}",
        f"tau_minus        {r.tau_minus}",
        f"q_min            {r.q_min}",
        f"tau_min          {r.tau_min}",
        f"mu/tau_min       {r.quotient_num}/{r.quotient_den} = {r.quotient_decimal()}",
        f"tau lower bound  {r.tau_lower_bound}",
        f"delta_gen gaps   {r.delta_gen_gaps}",
    ]
    return "\n".join(lines) + "\n"


def cmd_invariants(args) -> int:
    c = _class_from_args(args)
    # the pass first: a class out of range exits on its error, not on a sequence sum's
    r = full_report(c)  # raises unless every identity holds
    s = semigroup_from_char_exponents(c)
    m = multiplicity_sequence(c)
    if args.format == "json":
        doc = {
            "char_exponents": _class_dict(c),
            "semigroup": list(s.gens),
            "multiplicity_sequence": [],  # spliced in below, run by run
            "report": _report_dict(r),
        }
        points = _repeated(m, _json_point, ",\n    ")
        sys.stdout.write(_spliced(doc, "multiplicity_sequence", [points]))
    elif args.format == "csv":
        header = ",".join(CSV_COLUMNS + ["multiplicity_sequence"])
        row = _csv_row(SweepRecord(c, s, r)) + "," + _sequence_compact(m)
        sys.stdout.write(f"{header}\n{row}\n")
    else:
        sys.stdout.write(_invariants_table(c, s, m, r))
    return 0


SWEEP_TABLE_HEADER = (
    f"{'class':<18} {'semigroup':<18} {'mu':>5} {'tau-':>5} {'q':>4} "
    f"{'tau_min':>7} {'quotient':>10} {'gaps':>5} ok"
)


def _table_row(rec: SweepRecord) -> str:
    r = rec.report
    if r is None:
        return f"{str(rec.char_exponents):<18} {rec.error}"
    quotient = f"{r.quotient_num}/{r.quotient_den}"
    return (
        f"{str(rec.char_exponents):<18} {str(rec.semigroup):<18} {r.mu:>5} "
        f"{r.tau_minus:>5} {r.q_min:>4} {r.tau_min:>7} {quotient:>10} "
        f"{r.delta_gen_gaps:>5} {'1' if rec.passed else '0'}"
    )


def _json_record(rec: SweepRecord) -> str:
    return _json_item({
        "char_exponents": _class_dict(rec.char_exponents),
        "semigroup": list(rec.semigroup.gens) if rec.semigroup else None,
        "report": _report_dict(rec.report) if rec.report else None,
        "checks": rec.checks,
        "error": rec.error,
    })


# per --format: the row renderer sweep hands its workers (it pickles), the header
SWEEP_FORMATS = {
    "csv": (_csv_row, ",".join(CSV_COLUMNS)),
    "table": (_table_row, SWEEP_TABLE_HEADER),
    "json": (_json_record, None),
}


def _sweep_text(fmt: str, bounds: EnumerationBounds, rows: list[str], summary) -> str:
    header = SWEEP_FORMATS[fmt][1]
    if header is not None:
        return "\n".join([header, *rows]) + "\n"
    q = summary.max_quotient
    doc = {
        "bounds": {
            "max_multiplicity": bounds.max_multiplicity,
            "max_beta": bounds.max_beta,
            "max_pairs": bounds.max_pairs,
        },
        "records": [],  # spliced in below, record by record
        "summary": {
            "classes": summary.classes,
            "max_quotient": {
                "num": q.numerator,
                "den": q.denominator,
                "decimal": decimal_ratio(q.numerator, q.denominator),
            },
            "failed_checks": summary.failed,
        },
    }
    return _spliced(doc, "records", rows)


def cmd_sweep(args) -> int:
    bounds = EnumerationBounds(args.max_mult, args.max_beta, args.max_pairs)
    made = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        # an unwritable --out fails here, before any class is evaluated; the
        # file keeps its contents until the text is ready
        open(args.out, "a", encoding="utf-8").close()
    try:
        rows, summary = sweep(bounds, render=SWEEP_FORMATS[args.format][0])
        text = _sweep_text(args.format, bounds, rows, summary)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(text)
        else:
            sys.stdout.write(text)
    except BaseException:
        if made:  # a failed sweep leaves no file where there was none
            os.remove(args.out)
        raise
    print(
        f"classes: {summary.classes}  "
        f"max mu/tau_min: {summary.max_quotient.numerator}/"
        f"{summary.max_quotient.denominator}  "
        f"failed checks: {summary.failed}",
        file=sys.stderr,
    )
    return 1 if summary.failed else 0


def cmd_check(args) -> int:
    bounds = EnumerationBounds(args.max_mult, args.max_beta)
    results = run_identity_suite(bounds)
    for res in results:
        print(f"ok   {res.name}" if res.passed else f"FAIL {res.name}: {res.detail}")
    failed = [res.name for res in results if not res.passed]
    if failed:
        print(f"first failing identity: {failed[0]}")
        return 1
    return 0


# argv text in an argparse message: a value as %r quotes it, backslash escapes
# included, or a run of other text up to a space (a newline in it is argv
# text, escaped by echo_plain)
_ARGV_TEXT = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|[^ ]+""")


def _cut_argv_text(match: re.Match) -> str:
    text = match[0]
    if len(text) > ECHO_LIMIT and text[0] in "'\"" and text.endswith(text[0]):
        try:  # a value argparse quoted by repr: cut the value itself
            return echo(ast.literal_eval(text))
        except (SyntaxError, ValueError):  # quoted argv text that is no literal
            return echo(text[1:-1])
    return echo_plain(text)


class _OneLineParser(argparse.ArgumentParser):
    """argparse's parser, its errors one stderr line: no usage, long argv text cut by echo.

    Subparsers are made of the same class, so they inherit both.
    """

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse's own message, the extras cut as one text
            self.error(f"unrecognized arguments: {echo_plain(' '.join(extras))}")
        return args

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {_ARGV_TEXT.sub(_cut_argv_text, message)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _OneLineParser(
        prog="branch-invariants",
        description="Topological invariants of irreducible plane curve singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="report for a single class")
    which = p_inv.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--char-exponents",
        metavar="N:B1,B2,...",
        help="characteristic exponents, multiplicity before the colon",
    )
    which.add_argument(
        "--semigroup", metavar="V0,V1,...", help="semigroup generators"
    )
    which.add_argument(
        "--pair", metavar="N,M", help="one characteristic pair (n; m)"
    )
    p_inv.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p_inv.set_defaults(func=cmd_invariants)

    p_sweep = sub.add_parser("sweep", help="evaluate every class in a box")
    p_sweep.add_argument("--max-mult", type=int, required=True, metavar="N")
    p_sweep.add_argument("--max-beta", type=int, required=True, metavar="B")
    p_sweep.add_argument("--max-pairs", type=int, default=None, metavar="G")
    p_sweep.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p_sweep.add_argument("--out", metavar="FILE", help="write records here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the named identity suite")
    p_check.add_argument("--max-mult", type=int, default=CHECK_DEFAULT_MULT)
    p_check.add_argument("--max-beta", type=int, default=CHECK_DEFAULT_BETA)
    p_check.set_defaults(func=cmd_check)
    return parser


# built by the first main() call, not at import; parse_args leaves it as it was
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OverflowLimitError, OSError) as exc:  # OSError: on output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
