"""Seeded workload generators and their reference answers.

Every instance carries its own answer, computed here without the package
under test: the trace count and the set of realizable images, either from a
subset dynamic program (n <= 16) or, for deep chains, from a closed form.
Instances are kept or redrawn by that reference count, so the program under
test never decides what it is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Commands an instance can be run with; see run.py for their argv.
TRACES = "traces"
TRACES_JSON = "traces-json"
TRACES_HEAD = "traces-head"  # reader takes 10 lines, then closes the pipe
COUNT = "count"
POSSIM = "possim"
CLASSIFY = "classify"

KINDS = ("prec", "resp", "succ")
DP_LIMIT = 16
MAX_DRAWS = 20000


@dataclass(frozen=True)
class Instance:
    """One generated process file with its reference answer.

    ``constraints`` holds (kind, source, target) triples over activity
    indices.  ``images`` holds each realizable image as a bitmask over those
    indices, and ``count`` is the number of traces.
    """

    label: str
    names: tuple[str, ...]
    constraints: tuple[tuple[str, int, int], ...]
    count: int
    images: frozenset[int]
    commands: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def text(self) -> str:
        lines = [f"# {self.label}", "activities " + " ".join(self.names)]
        lines += [f"{k} {self.names[a]} {self.names[b]}" for k, a, b in self.constraints]
        return "\n".join(lines) + "\n"


def subset_dp(n: int, constraints) -> tuple[int, frozenset[int]]:
    """Count traces by dynamic programming over the set of placed activities.

    A trace is built one activity at a time.  Placing ``x`` is allowed when
    every ``prec y x`` source is already placed and no ``resp x y`` target
    is; a finished trace must hold the target of every ``resp`` whose
    source it holds.  ``succ`` is both.  ``ways[S]`` counts the orderings of
    ``S`` that are valid prefixes, so the traces with image ``S`` number
    ``ways[S]`` when ``S`` may finish.  Returns the count and the image
    masks.
    """
    if n > DP_LIMIT:
        raise ValueError(f"subset DP is limited to {DP_LIMIT} activities")
    need = [0] * n
    forbid = [0] * n
    for kind, a, b in constraints:
        if kind in ("prec", "succ"):
            need[b] |= 1 << a
        if kind in ("resp", "succ"):
            forbid[a] |= 1 << b
    ways = [0] * (1 << n)
    ways[0] = 1
    total = 0
    images = []
    for placed in range(1 << n):
        w = ways[placed]
        if not w:
            continue
        if all(not (placed >> x & 1) or forbid[x] & ~placed == 0 for x in range(n)):
            total += w
            images.append(placed)
        for x in range(n):
            bit = 1 << x
            if not placed & bit and not need[x] & ~placed and not forbid[x] & placed:
                ways[placed | bit] += w
    return total, frozenset(images)


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(n))


def _draw_constraints(rng: random.Random, n: int, size: int, kinds) -> tuple:
    picked: set[tuple[str, int, int]] = set()
    while len(picked) < size:
        a, b = rng.sample(range(n), 2)
        picked.add((rng.choice(kinds), a, b))
    return tuple(sorted(picked))


def banded(
    rng: random.Random,
    label: str,
    n: int,
    sizes: tuple[int, int],
    kinds,
    band: tuple[int, int],
    commands: tuple[str, ...],
    by_images: bool = False,
) -> Instance:
    """Redraw random constraints until the reference count lies in ``band``.

    ``by_images`` bands on the number of realizable images instead of the
    number of traces.
    """
    for _ in range(MAX_DRAWS):
        constraints = _draw_constraints(rng, n, rng.randint(*sizes), kinds)
        count, images = subset_dp(n, constraints)
        measure = len(images) if by_images else count
        if band[0] <= measure <= band[1]:
            return Instance(label, _names(n), constraints, count, images, commands)
    raise RuntimeError(f"no {label} instance in band {band} after {MAX_DRAWS} draws")


def cycle_start(links, i: int) -> int:
    """Lowest chain position in the cycle that a backward ``prec`` to ``i`` closes."""
    while i > 0 and links[i - 1] == "succ":
        i -= 1
    return i


def chain_reference(perm, links, broken: tuple[int, int]) -> tuple[int, frozenset[int]]:
    """Closed form for a chain ``perm`` with one backward ``prec``.

    ``links[k]`` joins ``perm[k]`` to ``perm[k + 1]``; a ``succ`` link puts
    both in one occurrence class.  The backward ``prec perm[j] perm[i]``
    makes ``perm[i..j]`` a cycle, grown downward through ``succ`` links, and
    any image holding it has a cyclic order.  So the images are the prefixes
    that end below the cycle on a class boundary, and each has exactly one
    trace: the prefix itself.
    """
    low = cycle_start(links, broken[0])
    images = {0}
    mask = 0
    for m in range(1, low + 1):
        mask |= 1 << perm[m - 1]
        if links[m - 1] == "prec":  # perm[m - 1] and perm[m] are in different classes
            images.add(mask)
    return len(images), frozenset(images)


def _shuffled_links(rng: random.Random, size: int) -> list[str]:
    succ = round(size / 3)
    links = ["succ"] * succ + ["prec"] * (size - succ)
    rng.shuffle(links)
    return links


def chain(
    rng: random.Random, label: str, n: int, commands: tuple[str, ...], precedence_only: bool = False
) -> Instance:
    """A seeded permutation chained by ``prec``/``succ`` links, broken half-way.

    A third of the links on each side of the break are ``succ``, and the
    link into the break is ``prec``, so the number of occurrence classes and
    of images is the same for every seed.  A precedence-only chain has no
    ``succ`` links and its break lower down, so that it has as many images.
    A draw is kept only if the cycle's lowest activity index lies in the
    middle fifth of the index range: where the cycle falls in index order
    changes the cost of the antisymmetry test on every image that holds it,
    by 2x between draws.
    """
    i = n // 2
    images = i + 1 - round((i - 1) / 3)
    if precedence_only:
        i = images - 1
    j = min(n - 1, i + 3)
    for _ in range(MAX_DRAWS):
        perm = list(range(n))
        rng.shuffle(perm)
        if precedence_only:
            links = ["prec"] * (n - 1)
        else:
            links = _shuffled_links(rng, i - 1) + ["prec"] + _shuffled_links(rng, n - 1 - i)
        if n < 12 or 0.4 * n <= min(perm[i : j + 1]) < 0.6 * n:
            count, masks = chain_reference(perm, links, (i, j))
            constraints = tuple(
                (kind, perm[k], perm[k + 1]) for k, kind in enumerate(links)
            ) + (("prec", perm[j], perm[i]),)
            return Instance(label, _names(n), constraints, count, masks, commands)
    raise RuntimeError(f"no {label} instance in band after {MAX_DRAWS} draws")


def enum_sparse(seed: int) -> list[Instance]:
    """Trace enumeration on mixed processes, counting on sparse ones.

    The trace commands run on four general processes and one of each
    single-kind class, all of n=9-10 with 30k-34k traces, so trace
    generation, the global sort and output formatting dominate them.  The
    band is narrow so that one seed's files cost about what another's do.
    ``count`` and ``possim`` run on four n=12 processes with 1-3
    constraints: many components and 2000-2400 images, so the per-image
    count DP dominates.  Within each group the files cost about the same,
    so a command's samples pool into one median.
    """
    rng = random.Random(f"enum-sparse:{seed}")
    band = (30_000, 34_000)
    slots = [
        ("general-1", 9, KINDS),
        ("general-2", 9, KINDS),
        ("general-3", 10, KINDS),
        ("general-4", 10, KINDS),
        ("prec-only", 9, ("prec",)),
        ("resp-only", 9, ("resp",)),
        ("succ-only", 9, ("succ",)),
    ]
    enumerate_commands = (TRACES, TRACES_JSON, TRACES_HEAD, CLASSIFY)
    out = [banded(rng, label, n, (3, 6), kinds, band, enumerate_commands) for label, n, kinds in slots]
    count_commands = (COUNT, POSSIM, CLASSIFY)
    out += [
        banded(rng, f"sparse-12-{k}", 12, (1, 3), KINDS, (2000, 2400), count_commands, by_images=True)
        for k in range(1, 5)
    ]
    return out


def deep_chain(seed: int) -> list[Instance]:
    """Long broken chains: few traces, cubic relation-kernel work in the walk.

    All chains have one length and as many images, so a command's samples
    from every chain pool into one median.  The fourth chain is
    precedence-only and takes that route in ``traces``.
    """
    rng = random.Random(f"deep-chain:{seed}")
    commands = (COUNT, POSSIM, TRACES, TRACES_JSON, CLASSIFY)
    out = [chain(rng, f"chain-{k}", 150, commands) for k in range(1, 4)]
    out.append(chain(rng, "prec-chain", 150, commands, precedence_only=True))
    return out


WORKLOADS = {
    "enum-sparse": enum_sparse,
    "deep-chain": deep_chain,
}
