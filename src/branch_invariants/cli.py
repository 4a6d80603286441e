"""Command line front end.

Subcommands:
    invariants   report for one class given by exponents, semigroup, or pair
    sweep        evaluate every class in a box and check the identities
    check        run the named identity suite over a box

Exit codes: 0 success, 1 a check or identity failed, 2 invalid input
(including a class whose membership sieve would exceed SIEVE_LIMIT),
output that cannot be written, memory that ran out, or a pool worker
that died, 3 internal invariant violation (a bug, not bad input), 130
interrupted by Ctrl-C.
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
that fails has written whole rows only.  sweep decides its destination
once, before any work.  An --out that names the file behind fd 1 or fd 2
is written through that stream as if there were no --out: the rows,
then the summary, stdout flushed between them.  Any other --out is
opened once, in append mode, which is also its writability check; a
regular file gets the document only once the sweep succeeded, that same
open file truncated and rewritten in place, and any other file gets the
rows as they arrive.  A command ends with exit 2 and one stderr line when
its stdout cannot be written: a reader that closed it early, or a
process started with it closed; -h too, as its help is output.  The
one stderr line is best effort and never goes to stdout; the summary of
sweep is output, exit 2 if it cannot be written.
Error messages quote an input in at most errors.ECHO_LIMIT + 2
characters, escapes included; argparse's errors are its one "prog: error:
message" line, without usage, and a value it quoted is cut by the value's
own head and length.  check walks its box on the workers sweep would use.
main builds its argument parser once per process, on its first call.  An
argv that starts with a command word is parsed by that command's parser;
any other argv is parsed by the top-level parser.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import errno
import functools
import json
import os
import re
import stat
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


def _stream(name: str):
    """sys.stdout or sys.stderr, by name; OSError if the process was started with it closed."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), f"<{name}>")
    return stream


# the most characters one write of the multiplicity sequence carries (one point at least)
_WRITE_CHUNK = 1 << 16


def _repeated(m: MultiplicitySequence, render, sep: str, head: str = "", tail: str = "") -> None:
    """Write head, every point as render(its run) with sep between points, then tail, to stdout.

    Each run is rendered once and written as pieces of (text + sep) * k,
    k points of at most _WRITE_CHUNK characters, the last point without
    its sep: the cost per point is a string copy, not a Python call, and
    no more than one piece is held at a time.
    """
    write = _stream("stdout").write
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


def _csv_line(rec: SweepRecord) -> str:
    """The line csv.writer writes for rec, in CSV_COLUMNS order: no field holds a comma or quote.

    Laid out by f-strings, with no Python call: this renders every row of a CSV sweep.
    """
    c, s, r = rec.char_exponents, rec.semigroup, rec.report
    gens = "" if s is None else ";".join(map(str, s.gens))
    values = ",,,,,," if r is None else (
        f"{r.mu},{r.tau_minus},{r.q_min},{r.tau_min},{r.quotient_num}/{r.quotient_den},"
        f"{r.tau_lower_bound},{r.delta_gen_gaps}")
    # the last field is rec.passed, without the property's call
    return (f"{c.n},{';'.join(map(str, (c.n, *c.beta)))},{gens},{values},"
            f"{'1' if rec.error is None else '0'}\n")


def _csv_row(rec: SweepRecord) -> str:
    """_csv_line(rec) without its newline."""
    return _csv_line(rec)[:-1]


def _record_row(rec: SweepRecord) -> list[str]:
    """The fields of rec, in CSV_COLUMNS order."""
    return _csv_row(rec).split(",")


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


def _std_stream(path: str):
    """sys.stdout or sys.stderr if path names the file behind fd 1 or fd 2, else None."""
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        with contextlib.suppress(OSError):  # a new path, or one that fails to open; or fd is closed
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return stream
    return None


@contextlib.contextmanager
def _sweep_out(path: str | None):
    """Yield the stream a sweep's document goes to, decided and opened before any work.

    No path, or one that names the file behind fd 1 or fd 2, is that
    standard stream, flushed after the rows so that they come before the
    summary.  Any other path is opened once, in append mode, which also
    checks that it can be written.  A regular file gets the document
    only once the sweep succeeded: the rows wait in an unnamed file beside
    it, then the same open file is truncated and rewritten in place, and
    a file that only this opening made is removed again if the sweep
    fails.  Any other file (a pipe, a FIFO, a device) gets the rows as
    they arrive.
    """
    std = _stream("stdout") if path is None else _std_stream(path)
    if std is not None:
        yield std
        std.flush()
        return
    # opening path follows a symlink, so its target is what may be made and removed;
    # an empty path is a path too, one that fails to open
    target = os.path.realpath(path)
    made = not os.path.exists(target)
    try:
        with open(path, "a", encoding="utf-8") as out:
            if not stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                yield out
                return
            import shutil
            import tempfile
            # the rows wait on the output's own file system
            with tempfile.TemporaryFile("w+", encoding="utf-8", dir=os.path.dirname(target)) as rows:
                yield rows
                rows.seek(0)
                out.truncate(0)
                shutil.copyfileobj(rows, out)
    except BaseException:
        if made:  # a failed sweep leaves no file where there was none
            with contextlib.suppress(OSError):  # never made, gone already, or not removable: the error stands
                os.remove(target)
        raise


def cmd_sweep(args) -> int:
    bounds = EnumerationBounds(args.max_mult, args.max_beta, args.max_pairs)
    with _sweep_out(args.out) as out:
        summary = _write_sweep(out, args.format, bounds)
    q = summary.max_quotient
    print(f"classes: {summary.classes}  max mu/tau_min: {q.numerator}/{q.denominator}  "
          f"failed checks: {summary.failed}", file=_stream("stderr"), flush=True)
    return 1 if summary.failed else 0


def cmd_check(args) -> int:
    out = _stream("stdout")  # a closed stdout fails before the suite runs
    bounds = EnumerationBounds(args.max_mult, args.max_beta)
    results = run_identity_suite(bounds)
    for res in results:
        print(f"ok   {res.name}" if res.passed else f"FAIL {res.name}: {res.detail}", file=out)
    failed = [res.name for res in results if not res.passed]
    if failed:
        print(f"first failing identity: {failed[0]}", file=out)
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
        """argparse's parse_args, an argv that starts with a command word read by that command's parser.

        The top-level pass over such an argv only finds the word and hands
        the rest to the word's parser, so the namespace is the same without
        it.  Any other argv (none, -h, a leading --, an unknown command)
        takes the top-level pass.
        """
        argv = sys.argv[1:] if args is None else list(args)
        # each command word's parser: the choices of the subparsers action
        commands = next((a.choices for a in self._actions if a.dest == "command"), {})
        if namespace is None and argv and argv[0] in commands:
            parsed, extras = commands[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        else:
            parsed, extras = self.parse_known_args(argv, namespace)
        if extras:  # argparse's own message, the extras cut as one text
            self.error(f"unrecognized arguments: {echo_plain(' '.join(extras))}")
        return parsed

    def error(self, message: str):
        sys.exit(_fail(2, f"{self.prog}: error: {_ARGV_TEXT.sub(_cut_argv_text, message)}"))

    def print_help(self, file=None):
        """argparse's help, written to stdout and flushed: a stdout it cannot write raises OSError.

        argparse's own falls back to stderr when stdout is closed and drops
        a failed write, so -h would exit 0 with its help lost.
        """
        out = _stream("stdout") if file is None else file
        out.write(self.format_help())
        out.flush()


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


def _fail(code: int, line: str) -> int:
    """Flush stdout, write line to stderr, and return code; a lost line leaves code as it is.

    Each is best effort, as argparse's own messages are, and line never
    goes to stdout instead.  A standard stream that cannot be written is
    pointed at os.devnull, so that the flush at exit cannot fail again.
    """
    for stream, text in ((sys.stdout, ""), (sys.stderr, line + "\n")):
        if stream is not None:  # None: the process was started with it closed
            try:
                stream.write(text)
                stream.flush()
            except OSError:  # a closed pipe, or an fd that is not open for writing
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, stream.fileno())
                os.close(null)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)  # -h writes to stdout, so it may raise OSError
        code = args.func(args)
        if sys.stdout is not None:  # flushed here, so a failed write is exit 2, not 120 at exit
            sys.stdout.flush()
        return code
    except (ValidationError, OverflowLimitError, OSError) as exc:  # OSError: on output
        return _fail(2, f"error: {exc}")
    except MemoryError:  # a pool worker out of memory is the ChildProcessError above
        return _fail(2, "error: out of memory")
    except InternalInvariantViolation as exc:
        return _fail(3, f"internal invariant violation: {exc}")
    except KeyboardInterrupt:
        return _fail(130, "interrupted")


if __name__ == "__main__":
    sys.exit(main())
