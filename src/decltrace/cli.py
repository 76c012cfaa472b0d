"""Command-line front end.

Exit codes: 0 success, 1 parse or validation error, output that cannot be
written or memory run out, 2 pipeline/oracle mismatch, 3 ground set too
large for the oracle, 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice

from .model import DeclarativeProcess, ParseError, Trace, classify, parse_process, satisfies
from .oracle import SizeLimitError, brute_force_traces
from .possim import _images
from .relations import _bits
from .traces import BLOCK, _listing, count_by_length, count_traces, traces

# bench/tracing.py looks this name up on this module to wrap it in a timing
# span, so it stays importable here although nothing here calls it.
from .possim import enumerate_possim  # noqa: F401

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_TOO_LARGE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command stopped by Ctrl-C

MISMATCH_SHOWN = 5  # traces listed per side of a failed ``check``
WRITE_BATCH = 4096  # lines per write of a listing
# The (separator, head, tail) that ``_write`` frames a ``traces`` listing in, per --format.
FRAMES = {"text": ("\n", "", "\n"), "json": (", ", "[", "]\n")}


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
    cmd.add_argument("--format", choices=tuple(FRAMES), default="text")
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
    with open(path, encoding="utf-8-sig") as source:
        return parse_process(source.read())


def _text(names: tuple[str, ...], traces: Iterable[Trace]) -> Iterator[str]:
    """One text line per trace: its names, space-separated, or ``-`` when empty.

    Only ``check`` uses it, for its mismatch lines; ``traces`` builds the
    same lines in the search that finds the traces (``_trace_lines``).
    """
    return (" ".join([names[i] for i in t]) if t else "-" for t in traces)


def _write(
    items: Iterator[str], sep: str, head: str, tail: str, per_write: int = WRITE_BATCH
) -> None:
    """Write ``head``, the items joined by ``sep``, then ``tail``.

    The items are joined and written ``per_write`` at a time, so a listing
    is never held whole and a reader sees its first lines early.  An item
    is one line, or for ``traces`` a block of at most ``BLOCK`` lines, which
    passes ``WRITE_BATCH // BLOCK``; either way no write holds more than
    ``WRITE_BATCH`` lines.
    """
    sys.stdout.write(head)
    gap = ""
    while batch := list(islice(items, per_write)):
        sys.stdout.write(gap + sep.join(batch))
        gap = sep
    sys.stdout.write(tail)


def _digits(n: int) -> str:
    """``str(n)``, also past the int-to-str digit limit of Python 3.11 and 3.10.7+."""
    try:
        return str(n)
    except ValueError:  # Decimal has no such limit; imported here, as it costs 2 ms
        from decimal import Decimal

        return str(Decimal(n))


def _trace_lines(process: DeclarativeProcess, fmt: str) -> Iterator[str]:
    """The ``traces`` listing in blocks of lines joined by the format's separator.

    One item per ``(prefix, line endings)`` block of ``_listing``: the empty
    trace's line, then the lines of the traces through each placed set of
    at most ``BLOCK`` completions, made with one ``str.join``.
    """
    names = process.names()
    pieces = names, [" " + name for name in names], "", "-"
    if fmt == "json":
        # The bytes of json.dumps on the whole list; a valid name matches
        # [A-Za-z0-9_]+, so json.dumps only quotes it.
        quoted = ['"' + name + '"' for name in names]
        pieces = ["[" + q for q in quoted], [", " + q for q in quoted], "]", "[]"
    sep = FRAMES[fmt][0]
    blocks = _listing(process, *pieces, "".join)
    return (prefix + (sep + prefix).join(lines) for prefix, lines in blocks)


def _possim_lines(process: DeclarativeProcess) -> Iterator[str]:
    """The ``possim`` listing's lines: each image, then its order's pairs ``v<w``."""
    names = process.names()
    return (
        "{" + ",".join([names[v] for v in image]) + "}"
        + "".join([f" {names[v]}<{names[w]}" for v in image if upper[v] for w in _bits(upper[v])])
        for _, image, _, _, upper in _images(process)
    )


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
        shown = found[:MISMATCH_SHOWN]
        for trace, line in zip(shown, _text(names, shown)):
            print(f"{side}: {line} ({_verdict(process, trace)})", file=sys.stderr)
    return EXIT_MISMATCH


def _verdict(process: DeclarativeProcess, trace: Trace) -> str:
    """The first constraint ``trace`` breaks, in declaration order."""
    for c in process.constraints:
        if not satisfies(trace, c):
            return f"breaks {c.kind.value} {c.source.name} {c.target.name}"
    return "breaks no constraint"


def _run(args: argparse.Namespace, process: DeclarativeProcess) -> int:
    if args.command == "traces":
        _write(_trace_lines(process, args.format), *FRAMES[args.format], WRITE_BATCH // BLOCK)
    elif args.command == "count":
        if args.by_length:
            counts = enumerate(count_by_length(process))
            _write((f"{length} {_digits(count)}" for length, count in counts), "\n", "", "\n")
        else:
            print(_digits(count_traces(process)))
    elif args.command == "possim":
        _write(_possim_lines(process), "\n", "", "\n")
    elif args.command == "classify":
        print(classify(process).value)
    else:
        return _run_check(process)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        process = _load(args.file)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_INVALID
    try:
        code = _run(args, process)
        sys.stdout.flush()  # a closed reader or a full disk shows up here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early, as ``decltrace traces file | head`` does.
        error, code = "", EXIT_OK
    except OSError as exc:
        error, code = f"error: {exc}\n", EXIT_INVALID
    except MemoryError:
        error, code = "error: out of memory\n", EXIT_INVALID
    except KeyboardInterrupt:
        error, code = "error: interrupted\n", EXIT_INTERRUPTED
    # Reported past the except block: its traceback held the frames of the
    # search, and so the layers, which are freed by now.
    sys.stderr.write(error)
    # Point stdout at /dev/null: Python flushes it again at exit.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
