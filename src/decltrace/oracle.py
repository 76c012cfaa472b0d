"""Brute-force reference: filter permutations of subsets by the constraints.

This module depends on the process model only.  Successor constraints are
checked natively rather than expanded, so the pipeline and the oracle share
as little code as possible.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import permutations

from .model import DeclarativeProcess, Trace, satisfies

DEFAULT_LIMIT = 8


class SizeLimitError(ValueError):
    """The ground set is too large for exhaustive filtering."""


def subperms(subset: Iterable[int], limit: int = DEFAULT_LIMIT) -> list[Trace]:
    """All permutations of all subsets, ordered by length then lexicographically."""
    items = sorted(set(subset))
    if len(items) > limit:
        raise SizeLimitError(f"{len(items)} activities exceed the limit of {limit}")
    out: list[Trace] = [()]
    for size in range(1, len(items) + 1):
        out.extend(permutations(items, size))
    return out


def brute_force_traces(process: DeclarativeProcess, limit: int = DEFAULT_LIMIT) -> list[Trace]:
    """Every candidate sequence that satisfies every constraint."""
    candidates = subperms(range(process.n), limit)
    return [t for t in candidates if all(satisfies(t, c) for c in process.constraints)]
