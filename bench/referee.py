"""Checks every command's output against the instance's reference answer.

Trace lines are checked one by one with ``model.satisfies``, for order and
for repeats; their number must equal the reference count, which is computed
without the pipeline (see workloads.py).  Each ``possim`` image must carry
the cover pairs of its order, computed here from the constraints.  A
verdict is cached per output
digest, so an output seen before is not checked twice.
"""

from __future__ import annotations

import hashlib
import json

from decltrace.model import make_process, satisfies

from workloads import (
    CLASSIFY,
    COUNT,
    POSSIM,
    TRACES,
    TRACES_HEAD,
    TRACES_JSON,
    Instance,
)

HEAD_LINES = 10


def image_covers(instance: Instance, mask: int) -> list[tuple[int, int]]:
    """Sorted cover pairs of the order inside the image ``mask``.

    Every constraint ``kind a b`` asks for ``a`` before ``b`` when both
    occur.  The image's order is the transitive closure of those pairs
    between its members; a cover is a pair with nothing in between.
    """
    members = [i for i in range(instance.n) if mask >> i & 1]
    above = [0] * instance.n
    for _, a, b in instance.constraints:
        if mask >> a & 1 and mask >> b & 1:
            above[a] |= 1 << b
    for k in members:
        for i in members:
            if above[i] >> k & 1:
                above[i] |= above[k]
    covers = []
    for i in members:
        indirect = 0
        for k in members:
            if above[i] >> k & 1:
                indirect |= above[k]
        covers += [(i, j) for j in members if (above[i] & ~indirect) >> j & 1]
    return covers


class Referee:
    """Judges the outputs of one instance; ``check`` returns an error or None."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.index = {name: i for i, name in enumerate(instance.names)}
        process = make_process(
            instance.names,
            [(k, instance.names[a], instance.names[b]) for k, a, b in instance.constraints],
        )
        self.constraints = process.constraints
        self.text_lines: list[bytes] | None = None
        self.verdicts: dict[tuple[str, bytes], str | None] = {}

    def check(self, command: str, stdout: bytes) -> str | None:
        key = (command, hashlib.blake2b(stdout, digest_size=16).digest())
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(command, stdout)
        return self.verdicts[key]

    def _judge(self, command: str, stdout: bytes) -> str | None:
        try:
            if command == TRACES:
                return self._judge_text(stdout)
            if command == TRACES_JSON:
                return self._judge_json(stdout)
            if command == TRACES_HEAD:
                return self._judge_head(stdout)
            if command == COUNT:
                got = stdout.decode().strip()
                return None if got == str(self.instance.count) else f"count {got} != {self.instance.count}"
            if command == POSSIM:
                return self._judge_possim(stdout.decode())
            if command == CLASSIFY:
                return self._judge_classify(stdout.decode().strip())
        except (UnicodeDecodeError, ValueError, KeyError) as exc:
            return f"malformed {command} output: {exc!r}"
        raise ValueError(f"unknown command {command!r}")

    def judge_traces(self, traces: list[tuple[int, ...]]) -> str | None:
        """Sorted by (length, indices), no repeats, all valid, none missing."""
        previous: tuple[int, tuple[int, ...]] | None = None
        for trace in traces:
            key = (len(trace), trace)
            if len(set(trace)) != len(trace):
                return f"trace {trace} repeats an activity"
            if previous is not None and key <= previous:
                return f"trace {trace} is out of order or repeated"
            previous = key
            for constraint in self.constraints:
                if not satisfies(trace, constraint):
                    return f"trace {trace} breaks {constraint.kind.value} {constraint.source.name} {constraint.target.name}"
        if len(traces) != self.instance.count:
            return f"{len(traces)} traces, reference count {self.instance.count}"
        return None

    def _parse_line(self, line: bytes) -> tuple[int, ...]:
        return () if line == b"-" else tuple(self.index[name] for name in line.decode().split(" "))

    def _judge_text(self, stdout: bytes) -> str | None:
        lines = stdout.split(b"\n")
        if lines[-1] != b"":
            return "text output does not end with a newline"
        lines.pop()
        verdict = self.judge_traces([self._parse_line(line) for line in lines])
        if verdict is None:
            self.text_lines = lines
        return verdict

    def _judge_json(self, stdout: bytes) -> str | None:
        traces = [tuple(self.index[name] for name in trace) for trace in json.loads(stdout)]
        if self.text_lines is not None:
            as_text = [" ".join(self.instance.names[i] for i in t).encode() or b"-" for t in traces]
            return None if as_text == self.text_lines else "JSON output differs from text output"
        return self.judge_traces(traces)

    def _judge_head(self, stdout: bytes) -> str | None:
        lines = stdout.split(b"\n")[:-1]
        if self.text_lines is None:
            return "no verified text output to compare the prefix with"
        want = self.text_lines[:HEAD_LINES]
        return None if lines == want else "early-close prefix differs from the full output"

    def _judge_possim(self, text: str) -> str | None:
        lines = text.splitlines()
        if len(lines) != len(self.instance.images):
            return f"{len(lines)} images, reference {len(self.instance.images)}"
        previous: tuple[int, list[int]] | None = None
        for line in lines:
            head, _, covers = line.partition(" ")
            if not (head.startswith("{") and head.endswith("}")):
                return f"bad image line {line!r}"
            members = sorted(self.index[name] for name in head[1:-1].split(",") if name)
            key = (len(members), members)
            if previous is not None and key <= previous:
                return f"image {head} is out of order or repeated"
            previous = key
            mask = sum(1 << i for i in members)
            if mask not in self.instance.images:
                return f"{head} is not a realizable image"
            got = sorted(tuple(self.index[name] for name in pair.split("<")) for pair in covers.split())
            if got != image_covers(self.instance, mask):
                return f"cover pairs of image {head} differ from its order's covers"
        return None

    def _judge_classify(self, got: str) -> str | None:
        kinds = {kind for kind, _, _ in self.instance.constraints}
        if kinds <= {"prec"}:
            want = "precedence-only"
        elif kinds == {"resp"}:
            want = "response-only"
        elif kinds == {"succ"}:
            want = "successor-only"
        else:
            want = "general"
        return None if got == want else f"classify {got!r}, expected {want!r}"
