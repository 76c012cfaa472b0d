"""In-process spans around the public calls between the package's layers.

``traced()`` swaps each cross-layer call site (the name a calling module
imported) for a wrapper that records a span, and puts the originals back on
exit.  Spans stay in memory until the pass ends; per-layer times are self
times, a span's duration minus that of its direct children.  Nothing inside
the package is changed on disk.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# The package re-exports a function named ``traces``, which shadows the
# submodule as an attribute, so the modules are taken from the import system.
cli = importlib.import_module("decltrace.cli")
possim = importlib.import_module("decltrace.possim")
traces_mod = importlib.import_module("decltrace.traces")

LAYERS = ("model", "relations", "quotient", "possim", "linext", "traces", "cli")

# (module, attribute, span name, bucket that receives its self time)
CALL_SITES = (
    (cli, "parse_process", "model.parse_process", "model.parse_s"),
    (cli, "traces", "traces.traces", "traces.assemble_s"),
    (cli, "count_traces", "traces.count_traces", "traces.assemble_s"),
    (cli, "enumerate_possim", "possim.enumerate_possim", "possim.walk_s"),
    (traces_mod, "traces_general", "traces.traces_general", "traces.assemble_s"),
    (traces_mod, "traces_precedence_only", "traces.traces_precedence_only", "traces.single_kind_s"),
    (traces_mod, "traces_response_only", "traces.traces_response_only", "traces.single_kind_s"),
    (traces_mod, "traces_successor_only", "traces.traces_successor_only", "traces.single_kind_s"),
    (traces_mod, "enumerate_possim", "possim.enumerate_possim", "possim.walk_s"),
    (traces_mod, "linear_extensions", "linext.linear_extensions", "linext.generate_s"),
    (traces_mod, "count_linear_extensions", "linext.count_linear_extensions", "linext.count_s"),
    (traces_mod, "implied_occurrence", "relations.implied_occurrence", "relations.occurrence_s"),
    (traces_mod, "condense", "quotient.condense", "quotient.condense_s"),
    (possim, "implied_occurrence", "relations.implied_occurrence", "relations.occurrence_s"),
    (possim, "condense", "quotient.condense", "quotient.condense_s"),
)

# Counters taken from a call's result, by span name.
RESULT_COUNTERS = {
    "possim.enumerate_possim": ("possim.images", len),
    "linext.linear_extensions": ("linext.extensions", len),
    "quotient.condense": ("quotient.classes", lambda q: len(q.classes)),
}


@dataclass
class Tracer:
    """Spans and counters of one traced pass.

    A span is (name, start, end, parent id, id); ``stack`` holds the ids of
    the open spans.  A call that raises counts as failed in the layer of the
    innermost span it escaped, not in every caller it passes through.
    """

    spans: list[tuple[str, float, float, int, int]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    stack: list[int] = field(default_factory=list)
    _next: int = 0
    _raised: BaseException | None = None

    def call(self, name: str, fn, args, kwargs):
        span = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if exc is not self._raised:
                self._raised = exc
                self.counters[name.split(".")[0] + ".failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((name, start, end, parent, span))
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counters[counter[0]] += counter[1](result)
        return result

    def self_times(self) -> dict[int, tuple[str, float]]:
        """Span id -> (name, duration minus direct children's durations)."""
        own = {}
        child_total: dict[int, float] = defaultdict(float)
        for name, start, end, parent, span in self.spans:
            own[span] = (name, end - start)
            child_total[parent] += end - start
        return {span: (name, dur - child_total[span]) for span, (name, dur) in own.items()}

    def layer_times(self) -> dict[str, float]:
        """Self time summed per bucket of ``BUCKETS``."""
        out: dict[str, float] = defaultdict(float)
        for name, own in self.self_times().values():
            bucket = BUCKETS.get(name)
            if bucket is not None:
                out[bucket] += own
        return out


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every call site in ``CALL_SITES`` through ``tracer``."""
    saved = []
    try:
        for module, attr, name, _ in CALL_SITES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original))
        context_of = possim.PossimContext.__dict__["of"]
        saved.append((possim.PossimContext, "of", context_of))
        possim.PossimContext.of = classmethod(
            _wrap(tracer, "possim.PossimContext.of", context_of.__func__)
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


BUCKETS = {name: bucket for _, _, name, bucket in CALL_SITES}
BUCKETS["possim.PossimContext.of"] = "possim.context_s"
# The root span of each in-process CLI call is named after its command.
BUCKETS["cli.main traces"] = "cli.format_s"
BUCKETS["cli.main traces-json"] = "cli.format_s"
BUCKETS["cli.main possim"] = "cli.possim_format_s"
