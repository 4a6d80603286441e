"""Command line front end.

Subcommands:
    invariants   report for one class given by exponents, semigroup, or pair
    sweep        evaluate every class in a box and check the identities
    check        run the named identity suite over a box

Exit codes: 0 success, 1 a check or identity failed, 2 invalid input
(including a class whose membership sieve would exceed SIEVE_LIMIT),
output that cannot be written, or a pool worker that died, 3 internal
invariant violation (a bug, not bad input), 130 interrupted by Ctrl-C.
Each error is one stderr line.

Formats: table (human), json (stable keys, exact integers, quotient as
num/den plus fixed 6-place decimal string), csv (fixed column order,
lists joined by ';', no quoting needed).  All output is UTF-8 and ends
with a newline.  invariants renders the semigroup, the multiplicity
sequence and the report from one evaluation pass, which runs every
identity before anything is written.  Output is written as it is
produced.  The multiplicity sequence is rendered one run at a time, each
run's text repeated once per point in pieces of at most _WRITE_CHUNK
characters, so it reads as if written point by point.  Every JSON
document and sweep record is laid out by %- and f-string templates,
byte-equal to json.dumps(indent=2) of the same dicts; json.dumps itself
only quotes a failed record's error.  sweep hands a row renderer down, so
pool workers render the rows, and the parent writes each run's rows as
the run arrives, after the document's head and before its tail: a sweep
that fails has written whole rows only.  --out is opened before any
work, an empty one failing like any path that cannot be opened; the
rows wait in an unnamed file beside it, and --out is rewritten in place
only once the sweep succeeded, so a failed sweep leaves it as it was,
and a file that only this opening made is removed again.  A reader that
closes stdout early ends the command with exit 2 and one stderr line.
Error messages quote an input in at most errors.ECHO_LIMIT + 2
characters, escapes included; argparse's errors are its one "prog: error:
message" line, without usage, and a value it quoted is cut by the value's
own head and length.  check walks its box on the workers sweep would use.
main builds its argument parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import json
import os
import re
import sys

from .combinatorics import (
    CharacteristicExponents,
    SemigroupGenerators,
    char_exponents_from_semigroup,
)
from .enumeration import EnumerationBounds, SweepRecord, SweepSummary, sweep
from .errors import (
    ECHO_LIMIT,
    InternalInvariantViolation,
    OverflowLimitError,
    ValidationError,
    echo,
    echo_plain,
)
# full_report is not called here; it stays a module attribute, which tracing callers wrap by name
from .invariants import InvariantReport, _checked_report, _evaluate, decimal_ratio, full_report
from .resolution import MultiplicitySequence, Run
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


# the most characters one write of the multiplicity sequence carries (one point at least)
_WRITE_CHUNK = 1 << 16


def _repeated(m: MultiplicitySequence, render, sep: str, head: str = "", tail: str = "") -> None:
    """Write head, every point as render(its run) with sep between points, then tail, to stdout.

    Each run is rendered once and written as pieces of (text + sep) * k,
    k points of at most _WRITE_CHUNK characters, the last point without
    its sep: the cost per point is a string copy, not a Python call, and
    no more than one piece is held at a time.
    """
    write = sys.stdout.write
    write(head)
    counts = [run.count for run in m.runs]
    counts[-1] -= 1  # the last point goes out with the tail
    for run, count in zip(m.runs, counts):
        point = render(run) + sep
        k = max(1, _WRITE_CHUNK // len(point))
        whole, rest = divmod(count, k)
        if whole:
            piece = point * k
            for _ in range(whole):
                write(piece)
        write(point * rest)
    write(render(m.runs[-1]) + tail)


# json.dumps(indent=2) layouts as % templates, written as if at the top
# level; _at(template, depth) indents one for its place depth levels in.
# Every value is an int, a template of its own, or a string with nothing
# to escape, except a failed record's error, which json.dumps quotes.
_CLASS = '{\n  "n": %d,\n  "beta": %s\n}'
_QUOTIENT = '{\n  "num": %d,\n  "den": %d,\n  "decimal": "%s"\n}'
_REPORT = ('{\n  "n": %d,\n  "mu": %d,\n  "tau_minus": %d,\n  "q_min": %d,\n  "tau_min": %d,'
           '\n  "quotient": %s,\n  "tau_lower_bound": %d,\n  "delta_gen_gaps": %d\n}')
_RECORD = ('{\n  "char_exponents": %s,\n  "semigroup": %s,\n  "report": %s,'
           '\n  "checks": %s,\n  "error": %s\n}')
# whole documents: the text before and after the list of points or records
_INVARIANTS_HEAD = ('{\n  "char_exponents": %s,\n  "semigroup": %s,'
                    '\n  "multiplicity_sequence": [\n    ')
_INVARIANTS_TAIL = '\n  ],\n  "report": %s\n}\n'
_SWEEP_HEAD = ('{\n  "bounds": {\n    "max_multiplicity": %d,\n    "max_beta": %d,'
               '\n    "max_pairs": %s\n  },\n  "records": [\n    ')
_SWEEP_TAIL = ('\n  ],\n  "summary": {\n    "classes": %d,\n    "max_quotient": %s,'
               '\n    "failed_checks": %d\n  }\n}\n')
_ITEM_SEP = ",\n    "  # between the items of a top-level key's list


@functools.cache
def _at(template: str, depth: int) -> str:
    """template, laid out at the top level, as it reads depth levels in."""
    return template.replace("\n", "\n" + "  " * depth)


def _json_ints(values, depth: int) -> str:
    """json.dumps(list(values), indent=2), depth levels in, for values that are not empty.

    Validation holds a class to one exponent at least and a semigroup to
    two generators, and a failed record renders null in their place.
    """
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(map(str, values)) + f"{pad}]"


def _json_class(c: CharacteristicExponents, depth: int) -> str:
    return _at(_CLASS, depth) % (c.n, _json_ints(c.beta, depth + 1))


def _json_quotient(num: int, den: int, depth: int) -> str:
    return _at(_QUOTIENT, depth) % (num, den, decimal_ratio(num, den))


def _json_report(r: InvariantReport, depth: int) -> str:
    return _at(_REPORT, depth) % (
        r.n, r.mu, r.tau_minus, r.q_min, r.tau_min,
        _json_quotient(r.quotient_num, r.quotient_den, depth + 1),
        r.tau_lower_bound, r.delta_gen_gaps,
    )


@functools.cache
def _json_checks(names: tuple[str, ...], passed: bool, depth: int) -> str:
    """json.dumps(dict.fromkeys(names, passed), indent=2), depth levels in (names are words)."""
    pad = "\n" + "  " * depth
    flag = "true" if passed else "false"
    return "{" + ",".join(f'{pad}  "{name}": {flag}' for name in names) + pad + "}"


def _json_point(run: Run) -> str:
    """The point's dict as json.dumps(indent=2) lays it out in a top-level key's list.

    Kinds are ASCII words and ints need no escaping.
    """
    return (f'{{\n      "multiplicity": {run.multiplicity},\n      "kind": "{run.kind.value}",'
            f'\n      "stage": {run.stage}\n    }}')


def _table_point(run: Run) -> str:
    return f"  stage {run.stage}  {run.multiplicity:>3}  {run.kind.value}"


def _compact_point(run: Run) -> str:
    return f"{run.multiplicity}{run.kind.value[0]}"


def _record_row(rec: SweepRecord) -> list[str]:
    """The fields of rec, in CSV_COLUMNS order."""
    c, r = rec.char_exponents, rec.report
    values = [""] * 7 if r is None else [
        str(r.mu), str(r.tau_minus), str(r.q_min), str(r.tau_min),
        f"{r.quotient_num}/{r.quotient_den}", str(r.tau_lower_bound), str(r.delta_gen_gaps),
    ]
    return [
        str(c.n),
        ";".join(map(str, (c.n, *c.beta))),
        ";".join(map(str, rec.semigroup.gens)) if rec.semigroup else "",
        *values,
        "1" if rec.passed else "0",
    ]


def _csv_row(rec: SweepRecord) -> str:
    """The line csv.writer writes for rec: no field holds a comma or quote."""
    return ",".join(_record_row(rec))


def cmd_invariants(args) -> int:
    c = _class_from_args(args)
    v = _evaluate(c, {})  # the one pass, before anything is written
    r, s, m = _checked_report(v), v.s, v.seq  # raises unless every identity holds
    if args.format == "json":
        head = _INVARIANTS_HEAD % (_json_class(c, 1), _json_ints(s.gens, 1))
        _repeated(m, _json_point, _ITEM_SEP, head, _INVARIANTS_TAIL % _json_report(r, 1))
    elif args.format == "csv":
        header = ",".join(CSV_COLUMNS + ["multiplicity_sequence"])
        row = _csv_row(SweepRecord(c, s, r))
        _repeated(m, _compact_point, ";", f"{header}\n{row},", "\n")
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
        _repeated(m, _table_point, "\n", head, tail)
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


def _csv_line(rec: SweepRecord) -> str:
    return _csv_row(rec) + "\n"


def _table_line(rec: SweepRecord) -> str:
    return _table_row(rec) + "\n"


def _json_record(rec: SweepRecord) -> str:
    """The record's dict as json.dumps(indent=2) lays it out in a top-level key's list.

    Laid out from templates; json.dumps only quotes error.
    """
    c, s, r = rec.char_exponents, rec.semigroup, rec.report
    return _at(_RECORD, 2) % (
        _json_class(c, 3),
        "null" if s is None else _json_ints(s.gens, 3),
        "null" if r is None else _json_report(r, 3),
        _json_checks(tuple(rec.checks), rec.passed, 3),
        "null" if rec.error is None else json.dumps(rec.error),
    )


# per --format: the row renderer sweep hands its workers (it pickles), the header
SWEEP_FORMATS = {
    "csv": (_csv_line, ",".join(CSV_COLUMNS)),
    "table": (_table_line, SWEEP_TABLE_HEADER),
    "json": (_json_record, None),
}


def _write_sweep(out, fmt: str, bounds: EnumerationBounds) -> SweepSummary:
    """Write the sweep document to out as its runs arrive; return the summary.

    The head goes out with the first run that holds rows, sep between such
    runs, and the tail after the summary, so a sweep that fails has
    written whole rows only: CSV and table lines, or JSON records up to
    their closing brace.
    """
    render, header = SWEEP_FORMATS[fmt]
    if header is None:
        pairs = "null" if bounds.max_pairs is None else bounds.max_pairs
        head = _SWEEP_HEAD % (bounds.max_multiplicity, bounds.max_beta, pairs)
        sep = _ITEM_SEP
    else:
        head, sep = header + "\n", ""  # each line ends in its own newline
    started = False

    def write(rows: list[str]) -> None:
        nonlocal started
        if rows:
            out.write(sep if started else head)
            out.write(sep.join(rows))
            started = True

    summary = sweep(bounds, render=render, write=write)[1]
    if header is None:
        q = summary.max_quotient
        out.write(_SWEEP_TAIL % (summary.classes, _json_quotient(q.numerator, q.denominator, 2),
                                 summary.failed))
    return summary


def cmd_sweep(args) -> int:
    bounds = EnumerationBounds(args.max_mult, args.max_beta, args.max_pairs)
    # opening --out follows a symlink, so its target is what may be made and removed;
    # an empty --out is a path too, one that fails to open
    target = None if args.out is None else os.path.realpath(args.out)
    made = bool(target) and not os.path.exists(target)
    if target:
        # an unwritable --out fails here, before any class is evaluated
        open(args.out, "a", encoding="utf-8").close()
    try:
        if target:
            import shutil
            import tempfile
            # the rows wait in an unnamed file on the output's own file system;
            # --out is rewritten in place, and only once the sweep succeeded
            where = os.path.dirname(target)
            with tempfile.TemporaryFile("w+", encoding="utf-8", dir=where) as rows:
                summary = _write_sweep(rows, args.format, bounds)
                rows.seek(0)
                with open(args.out, "w", encoding="utf-8") as out:
                    shutil.copyfileobj(rows, out)
        else:
            summary = _write_sweep(sys.stdout, args.format, bounds)
    except BaseException:
        if made:  # a failed sweep leaves no file where there was none
            with contextlib.suppress(OSError):  # gone already, or not removable: the error stands
                os.remove(target)
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


def _drop_stdout() -> None:
    """Point stdout at os.devnull if its reader is gone, so the flush at exit cannot fail again."""
    try:
        sys.stdout.flush()
    except OSError:  # the pipe is closed and still holds buffered text
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OverflowLimitError, OSError) as exc:  # OSError: on output
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            _drop_stdout()
        return 2
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
