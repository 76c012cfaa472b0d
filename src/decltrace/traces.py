"""Trace-set assembly.

Every trace is a linear extension of exactly one realizable image, and an
image of size L yields traces of length L only.  Enumeration and counting
both run a forward pass over the sets of activities placed so far
(``_layers``), one layer per size, keeping only live sets: those that some
trace can still complete.  The live sets that hold everything they force
are the images.

A valid prefix's completions depend only on its set, so the live sets,
joined by their live moves T -> T + x, form a DAG whose paths from the
empty set to a finished set D are exactly the traces with image D: the
linear extensions of D's order, read along shared prefixes.  Enumeration
reads each layer's moves once, as ``(x, child)`` lists, when the next
layer is built.  For each length L, a backward pass from the finished sets
of size L keeps, on their ancestors only, the moves that still reach one,
and a depth-first search from the empty set, taking moves in ascending x,
yields the length-L traces in order.  Nothing is sorted or merged, and
memory follows the layers up to L and their moves, not the number of
traces.  The backward pass, which reaches every ancestor after its
children, also counts each ancestor's completions and builds those of
ancestors with at most ``BLOCK`` of them, as tuples or as the CLI's line
endings.  The search stops at such a set and yields all its traces at once,
a block: the path's prefix and the set's completions, which the CLI joins
into lines with one ``str.join`` and ``iter_traces`` turns into tuples.
The empty set is never such a block, since the search starts from its
moves, and it stores none.  So one search serves both, and suffixes are
shared as in the constant-amortized-time generators of Pruesse and Ruskey.

Counting runs one pass per connected component of the constraint graph.
Components share no constraint, so every trace is a shuffle of one trace
per component, and the per-length counts join by binomial convolution; the
activities in no constraint join in one step, as partial permutations.
Each prefix state is counted once, not once per image that holds it.

Both passes read the edge rows of ``relations._graphs``, the one owner of
the mapping of constraint kinds to edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from math import comb

from .model import ConstraintKind, DeclarativeProcess, ProcessClass, Trace, classify
from .possim import _topological_order, condense
from .relations import _bits, _graphs, implied_occurrence

# bench/tracing.py looks these names up on this module to wrap them in timing
# spans, so they stay importable here although nothing here calls them.
from .linext import count_linear_extensions, linear_extensions  # noqa: F401
from .possim import enumerate_possim  # noqa: F401

BLOCK = 64  # most completions of a placed set that are built once and yielded as one block


def iter_traces(process: DeclarativeProcess) -> Iterator[Trace]:
    """Every trace, sorted by length then activity index, one at a time.

    Read from the blocks of ``_listing``, the search that also makes the
    CLI's lines, with each activity as a 1-tuple piece.  Memory follows the
    live placed sets up to the current length, their moves and the
    completions of sets with at most ``BLOCK`` of them, not the number of
    traces.
    """
    pieces = [(x,) for x in range(process.n)]
    blocks = _listing(process, pieces, pieces, (), (), _flatten)
    return chain.from_iterable(map(prefix.__add__, ends) for prefix, ends in blocks)


def _flatten(pieces: Iterable[Trace]) -> Trace:
    return tuple(chain.from_iterable(pieces))


def _listing(
    process: DeclarativeProcess, first: Sequence, rest: Sequence, close, empty, join
) -> Iterator[tuple]:
    """Every trace in (length, index) order, in blocks of ``(prefix, completions)``.

    A trace is ``first[x]`` for its first activity, ``rest[x]`` for each
    later one, then ``close``; the empty trace is ``empty``.  The pieces are
    strings or tuples, and ``join`` makes one piece of a sequence of them.
    A block's traces are ``prefix + c`` for each c of its completions, in
    order.  The first block is the empty trace's, ``(join(()), [empty])``;
    every later one has a non-empty prefix and from 1 to ``BLOCK``
    completions.

    For each length, the backward pass gives every ancestor its number of
    completions, 1 for a finished set and otherwise the sum over its kept
    moves.  A finished set stores its one completion, ``close``, and a set
    other than the empty set, of two or more kept moves and at most
    ``BLOCK`` completions, stores them, built from its kept children's.
    The empty set stores nothing, since the search starts from its kept
    moves and never yields it as a block.  A set of one kept move stores
    nothing either: on first use, its completions are built from those of
    the set that ends its run of single moves, with the run's pieces joined
    once, and kept on it for the rest of the length.  So a long forced run
    costs one join per length, not one concatenation per level.

    The search descends only through sets of more than ``BLOCK``
    completions and yields every other child as one block.  Each frame of
    its stack holds a set's kept moves still to take, the prefix of the
    path to it and the pieces of its next activity: ``first`` in the
    root's frame, ``rest`` in every other.  A set's completions are
    replaced when a later length's pass reaches it, not all freed when a
    length ends: freed at once, a long chain's strings gave the heap back
    to the system, and faulting it in again made a 1000-activity chain's
    lines 1.7 times slower.
    """
    ends = [close]
    zero = join(())  # the empty prefix

    def completions(node: list) -> list:
        # Those of a set of one kept move: the run's pieces, then the end's.
        run = []
        end = node
        while (done := end[5]) is None:
            x, end = end[3][0]
            run.append(rest[x])
        head = join(run)
        node[5] = done = [head + c for c in done]
        return done

    graphs = _graphs(process)
    # A node stands for one live placed set: [its live moves as (x, child
    # node), the nodes that move to it, the last length L it was found to
    # reach a finished set of, its moves that reach one of size L, its
    # number of completions to length L, and those completions once built].
    # The passes per length follow these links, hashing no placed set.
    above: list[tuple[int, list, list]] = []  # (placed, state, node) of the layer above
    for size, layer in enumerate(_layers((1 << process.n) - 1, graphs)):
        nodes = {placed: [[], [], -1, None, 0, None] for placed in layer}
        # The live moves out of the layer above, which its states' placeable
        # masks hold once this layer is built.
        for placed, state, node in above:
            moves = node[0]
            placeable = state[2]
            while placeable:
                bit = placeable & -placeable
                placeable ^= bit
                child = nodes[placed | bit]
                moves.append((bit.bit_length() - 1, child))
                child[1].append(node)
        above = [(placed, state, nodes[placed]) for placed, state in layer.items()]
        finished = [nodes[placed] for placed, state in layer.items() if state[1] == placed]
        if not size:
            root = nodes[0]
            yield zero, [empty]
            continue
        if not finished:
            continue
        # Mark the ancestors of this size's finished sets, then keep, on
        # them only, the moves that reach one; an ancestor with one move
        # reaches one through it.  The queue holds them layer by layer,
        # from this size down, so every node follows its kept children.
        for node in finished:
            node[2] = size
            node[4] = 1
            node[5] = ends
        first_ancestor = len(finished)
        queue = finished
        for node in queue:
            for parent in node[1]:
                if parent[2] != size:
                    parent[2] = size
                    queue.append(parent)
        for node in queue[first_ancestor:]:
            moves = node[0]
            kept = moves if len(moves) == 1 else [move for move in moves if move[1][2] == size]
            node[3] = kept
            node[5] = None
            if len(kept) == 1:
                node[4] = kept[0][1][4]
                continue
            count = 0
            for _, child in kept:
                count += child[4]
            node[4] = count
            if count <= BLOCK and node is not root:
                node[5] = [rest[x] + c for x, child in kept for c in child[5] or completions(child)]
        # The search descends through nodes of more than BLOCK completions
        # only; a frame is (kept moves still to take, prefix, pieces).
        stack = [(iter(root[3]), zero, first)]
        while stack:
            moves, prefix, pieces = stack[-1]
            for x, child in moves:
                head = prefix + pieces[x]
                if child[4] > BLOCK:
                    stack.append((iter(child[3]), head, rest))
                    break
                yield head, child[5] or completions(child)
            else:
                stack.pop()


def traces(process: DeclarativeProcess, parallel: bool = False) -> list[Trace]:
    """Every trace, sorted by length then activity index.

    ``parallel`` is accepted and ignored.
    """
    return list(iter_traces(process))


# The realizable-image decomposition is the only route, so it is ``traces`` itself.
traces_general = traces


def maximum_image(process: DeclarativeProcess) -> frozenset[int]:
    """The largest realizable image of a single-kind (non-successor) process.

    Drops every activity inside a mutual-requirement cycle, and everything
    whose occurrence would force such a cycle to occur.
    """
    if classify(process) not in (ProcessClass.PRECEDENCE_ONLY, ProcessClass.RESPONSE_ONLY):
        raise ValueError("maximum_image needs a precedence-only or response-only process")
    occurrence = implied_occurrence(process)
    # A class of several activities is a cycle, and row x holds what forces x.
    above = 0
    for group in condense(occurrence).classes:
        if len(group) > 1:
            for x in group:
                above |= occurrence.rows[x]
    return frozenset(_bits(occurrence.members & ~above))


def _only(process: DeclarativeProcess, kind: ConstraintKind, path: str) -> list[Trace]:
    """``traces_general(process)`` for a process of ``kind`` constraints only."""
    if any(c.kind is not kind for c in process.constraints):
        raise ValueError(f"{path} path needs a constraint set of {kind.value} constraints only")
    return traces_general(process)


def traces_precedence_only(process: DeclarativeProcess) -> list[Trace]:
    """The traces of a precedence-only constraint set; rejects other kinds."""
    return _only(process, ConstraintKind.PRECEDENCE, "precedence-only")


def traces_response_only(process: DeclarativeProcess) -> list[Trace]:
    """The traces of a response-only constraint set; rejects other kinds."""
    return _only(process, ConstraintKind.RESPONSE, "response-only")


def traces_successor_only(process: DeclarativeProcess) -> list[Trace]:
    """The traces of a successor-only constraint set; rejects other kinds."""
    return _only(process, ConstraintKind.SUCCESSOR, "successor-only")


def _components(graphs: tuple[list[int], ...]) -> list[int]:
    """Activity masks of the connected components of the constraint graph,
    read from the ordering rows and columns of ``_graphs``."""
    succ, pred = graphs[3], graphs[4]
    out = []
    left = (1 << len(succ)) - 1
    while left:
        reached = frontier = left & -left
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= succ[v] | pred[v]
            frontier = grown & ~reached
            reached |= frontier
        out.append(reached)
        left &= ~reached
    return out


def _shuffle_counts(a: list[int], b: list[int]) -> list[int]:
    """Per-length counts of the shuffles of two disjoint trace sets.

    A trace of length L1 from one set and one of length L2 from the other
    interleave in binom(L1 + L2, L1) ways, and no two interleavings agree.
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += comb(i + j, i) * x * y
    return out


def _partial_permutations(m: int) -> list[int]:
    """Per-length counts of the traces of m unconstrained activities: m!/(m-k)!."""
    counts = [1]
    for k in range(m):
        counts.append(counts[-1] * (m - k))
    return counts


def _layers(component: int, graphs: tuple[list[int], ...]) -> Iterator[dict[int, list]]:
    """The live placed sets inside ``component``, one layer per size.

    ``component`` is a mask closed under the constraints, such as all
    activities or one connected component.  Each layer maps a placed set T
    (a mask) to [ways, D, placeable, barred]: the number of valid orderings
    of T, the set D that T forces, the activities that may be placed next,
    and those that T bars, the OR of ``pred[t]`` over t in T: they must
    come before something placed, so they can never be placed later.
    Placing x needs every ``need[x]`` placed and x not barred.  T + x is
    live, that is some trace extends an ordering of it, exactly when
    nothing in its D outside T + x is barred by T + x and the ordering
    graph on that D is acyclic.  Dead sets are dropped, so every set kept
    is a down-set of the order on the image D, and the sets with T = D are
    the images inside ``component``.  Once the next layer is built, each
    state's placeable mask keeps only the x whose T + x is kept: T's live
    moves.
    """
    need, needed_by, forces, succ, pred = graphs
    start = sum(1 << x for x in _bits(component) if not need[x])
    acyclic: dict[int, bool] = {}
    layer: dict[int, list] = {0: [1, 0, start, 0]}
    while layer:
        yield layer
        grown: dict[int, list | None] = {}
        for placed, state in layer.items():
            ways, forced, placeable, barred = state
            moved = 0
            left = placeable
            while left:
                bit = left & -left
                left ^= bit
                now = placed | bit
                if now in grown:
                    known = grown[now]
                    if known is not None:
                        known[0] += ways
                        moved |= bit
                    continue
                x = bit.bit_length() - 1
                now_barred = barred | pred[x]
                # Grow D by what x forces that T did not, level by level.
                # Past x, which is not barred, a level that meets the barred
                # activities lies in D - (T + x), so T + x is dead.
                fresh = bit & ~forced
                now_forced = forced | fresh
                while fresh and not fresh & now_barred:
                    reached = 0
                    for y in _bits(fresh):
                        reached |= forces[y]
                    fresh = reached & ~now_forced
                    now_forced |= fresh
                waiting = now_forced & ~now
                live = not now_barred & waiting
                if live and waiting and now_forced != forced:
                    # With nothing in D - T barred, a cycle of D lies in
                    # D - T, since T has a valid order; so the answer is
                    # D - T's alone, and sets that leave the same rest share it.
                    live = acyclic.get(waiting)
                    if live is None:
                        live = _topological_order(waiting, succ, pred) is not None
                        acyclic[waiting] = live
                if not live:
                    grown[now] = None
                    continue
                now_placeable = placeable & ~bit & ~pred[x]
                for y in _bits(needed_by[x]):
                    if not need[y] & ~now and not now_barred >> y & 1:
                        now_placeable |= 1 << y
                grown[now] = [ways, now_forced, now_placeable, now_barred]
                moved |= bit
            state[2] = moved
        layer = {placed: state for placed, state in grown.items() if state is not None}


def count_by_length(process: DeclarativeProcess) -> list[int]:
    """Number of traces of each length, from 0 to the longest trace.

    Activities in no constraint join in one step, as partial permutations.
    Each other connected component of the constraint graph is counted by a
    forward DP over its live placed sets (``_layers``): a placed set T
    finishes a trace when it holds everything it forces.  The counts are
    joined by binomial convolution.
    """
    graphs = _graphs(process)
    components = _components(graphs)
    total = _partial_permutations(sum(c.bit_count() == 1 for c in components))
    for component in components:
        if component.bit_count() == 1:
            continue
        # Layer L holds the sets of size L.  A kept set with no kept child
        # is finished, so the last layer ends at the longest trace.
        counts = [
            sum(ways for placed, (ways, forced, *_) in layer.items() if forced == placed)
            for layer in _layers(component, graphs)
        ]
        total = _shuffle_counts(total, counts)
    return total


def count_traces(process: DeclarativeProcess) -> int:
    """Number of traces, counted per component without enumerating any."""
    return sum(count_by_length(process))
