"""Command-line front end.

Exit codes: 0 success, 1 parse or validation error, 2 pipeline/oracle
mismatch, 3 ground set too large for the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .model import DeclarativeProcess, ParseError, Trace, classify, parse_process, satisfies
from .oracle import SizeLimitError, brute_force_traces
from .possim import PossimContext, _covers, _walk
from .traces import count_by_length, count_traces, iter_traces, traces

# bench/tracing.py looks this name up on this module to wrap it in a timing
# span, so it stays importable here although nothing here calls it.
from .possim import enumerate_possim  # noqa: F401

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_TOO_LARGE = 3

MISMATCH_SHOWN = 5  # traces listed per side of a failed ``check``
WRITE_BATCH = 4096  # lines per write of ``traces`` and ``possim``


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems count as validation errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="decltrace",
        description="Enumerate, count, and inspect the traces of a declarative process.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("traces", help="print every trace in (length, index) order")
    cmd.add_argument("file", help="process description file")
    cmd.add_argument("--format", choices=("text", "json"), default="text")
    cmd.add_argument(
        "--parallel",
        action="store_true",
        help="accepted for compatibility; has no effect",
    )

    cmd = commands.add_parser("count", help="print the number of traces without enumerating")
    cmd.add_argument("file")
    cmd.add_argument(
        "--by-length",
        action="store_true",
        help="print one '<length> <count>' line per trace length instead",
    )

    cmd = commands.add_parser(
        "possim", help="print each realizable trace image with its internal order"
    )
    cmd.add_argument("file")

    cmd = commands.add_parser("classify", help="print the constraint-set class")
    cmd.add_argument("file")

    cmd = commands.add_parser(
        "check", help="compare the pipeline against the brute-force reference"
    )
    cmd.add_argument("file")
    return parser


def _load(path: str) -> DeclarativeProcess:
    # utf-8-sig drops the byte-order mark that some Windows editors write first.
    return parse_process(Path(path).read_text(encoding="utf-8-sig"))


def _format_trace(names: tuple[str, ...], trace: Trace) -> str:
    return " ".join(names[i] for i in trace) if trace else "-"


def _digits(n: int) -> str:
    """``str(n)``, also past the int-to-str digit limit of Python 3.11 and 3.10.7+."""
    try:
        return str(n)
    except ValueError:  # Decimal has no such limit; imported here, as it costs 2 ms
        from decimal import Decimal

        return str(Decimal(n))


def _run_traces(process: DeclarativeProcess, fmt: str) -> int:
    names = process.names()
    stream = iter_traces(process)
    write = sys.stdout.write
    if fmt == "json":
        # The bytes of json.dumps on the whole list, written a batch at a time.
        quoted = [json.dumps(name) for name in names]
        write("[")
        gap = ""
        while batch := list(islice(stream, WRITE_BATCH)):
            write(gap + ", ".join(["[" + ", ".join([quoted[i] for i in t]) + "]" for t in batch]))
            gap = ", "
        write("]\n")
    else:
        while batch := list(islice(stream, WRITE_BATCH)):
            # _format_trace, inlined: its call per trace took 40 % of the formatting.
            write("\n".join([" ".join([names[i] for i in t]) if t else "-" for t in batch]) + "\n")
    return EXIT_OK


def _run_possim(process: DeclarativeProcess) -> int:
    names = process.names()
    ctx = PossimContext.of(process)
    n = ctx.ordering.n
    succ = ctx.ordering.rows
    # Each image is formatted as the walk finds it; only its sort key, the
    # order of enumerate_possim, and its line are kept.
    found = []
    for members, _, topological in _walk(ctx, (1 << n) - 1):
        elements = sorted(topological)  # the members, ascending
        line = "{" + ",".join([names[i] for i in elements]) + "}"
        covers = _covers(n, members, topological, succ)
        if covers:
            line += " " + " ".join([f"{names[i]}<{names[j]}" for i, j in covers])
        found.append(((len(elements), elements), line))
    found.sort()  # the keys are distinct, so lines are never compared
    write = sys.stdout.write
    for start in range(0, len(found), WRITE_BATCH):
        write("".join([line + "\n" for _, line in found[start : start + WRITE_BATCH]]))
    return EXIT_OK


def _run_check(process: DeclarativeProcess) -> int:
    try:
        reference = brute_force_traces(process)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    computed = traces(process)
    if computed == reference:
        print(f"ok: {len(computed)} traces")
        return EXIT_OK
    computed_set = set(computed)
    reference_set = set(reference)
    missing = [t for t in reference if t not in computed_set]
    extra = [t for t in computed if t not in reference_set]
    print(
        f"mismatch: {len(computed)} computed vs {len(reference)} reference "
        f"({len(missing)} missing, {len(extra)} extra)",
        file=sys.stderr,
    )
    names = process.names()
    for side, found in (("missing", missing), ("extra", extra)):
        for trace in found[:MISMATCH_SHOWN]:
            shown = _format_trace(names, trace)
            print(f"{side}: {shown} ({_verdict(process, trace)})", file=sys.stderr)
    return EXIT_MISMATCH


def _verdict(process: DeclarativeProcess, trace: Trace) -> str:
    """The first constraint ``trace`` breaks, in declaration order."""
    for c in process.constraints:
        if not satisfies(trace, c):
            return f"breaks {c.kind.value} {c.source.name} {c.target.name}"
    return "breaks no constraint"


def _run(args: argparse.Namespace, process: DeclarativeProcess) -> int:
    if args.command == "traces":
        return _run_traces(process, args.format)
    if args.command == "count":
        if args.by_length:
            for length, count in enumerate(count_by_length(process)):
                print(length, _digits(count))
        else:
            print(_digits(count_traces(process)))
        return EXIT_OK
    if args.command == "possim":
        return _run_possim(process)
    if args.command == "classify":
        print(classify(process).value)
        return EXIT_OK
    return _run_check(process)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        process = _load(args.file)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        code = _run(args, process)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
    except BrokenPipeError:
        # The reader stopped early, as ``decltrace traces file | head`` does.
        # Python flushes stdout again at exit, so point it at /dev/null.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
