"""Ground truth by exhaustive search over Eulerian trails.

Every graph the package asks about is the one a trail induces: its arcs
are the trail's consecutive symbol pairs, with multiplicity, and its
trails start at the trail's first symbol.  So the oracle takes the trail
itself.  It backtracks over the remaining arc multiplicities, branching
in ascending vertex order so the output is lexicographic, and it never
leaves a vertex for good while a loop there is unused.  Used to
cross-validate every other classifier in the package; uniqueness
queries early-exit after the second trail.
"""

import collections
import itertools
from collections.abc import Iterator

from .core import Trail


def enumerate_trails(trail: Trail) -> Iterator[Trail]:
    """Yield every Eulerian trail of ``trail``'s induced graph, lexicographic.

    Each yielded trail starts at ``trail[0]`` and consumes every arc
    exactly once, so ``trail`` itself is among them; a one-symbol trail
    has itself as its only trail.  The input is checked and the arcs are
    counted when this is called, before the first trail is asked for.
    Each trail is yielded as soon as it is found, so a caller that stops
    early stops the search.
    """
    if not trail:
        raise ValueError("the empty trail induces no graph")
    if min(trail) < 0:
        raise ValueError(f"symbol {min(trail)} is negative")
    # a plain dict: the interpreter's fast paths index only exact dicts
    return _trails(dict(collections.Counter(zip(trail, trail[1:]))), trail[0], len(trail))


def _trails(remaining: dict[tuple[int, int], int], start: int, length: int) -> Iterator[Trail]:
    """The search behind :func:`enumerate_trails`, over the arc multiset
    ``remaining`` whose trails have ``length`` symbols.

    ``path`` and ``frames`` always have the same length: one frame per
    path vertex, an iterator over the arcs that leave that vertex, in
    ascending order.  Each pass of the loop yields the path first if it
    holds ``length`` symbols, then enters the top frame's next arc with a
    remaining count, or, once that frame is exhausted, pops it with its
    vertex and gives back the arc that led there.  A generator function
    runs nothing until its first trail is asked for, so the checks and
    the count stay in :func:`enumerate_trails`, which runs them at the
    call.

    One rule prunes the search: never leave a vertex for good while a
    loop there is unused.  An arc ``(u, v)`` with ``u != v`` is entered
    only when ``ins[u]``, the number of unused arcs into ``u`` from other
    vertices, is not zero, or ``u`` has no unused loop.  Why one counter
    is enough: over the unused arcs, out(v) - in(v) is [v is the current
    vertex] - [v is the end], the last symbol every trail of the graph
    shares.  So at the current vertex ``u``, with L unused loops, N
    unused arcs out to other vertices and I unused arcs in from them,
    N = I + 1 - [u is the end].  When I = 0, N is 1 and ``u`` is not the
    end: the arc leaves ``u`` for good, so no trail lies beyond it unless
    L = 0.  So the rule is the same as entering such an arc only while
    I > 0 or when it is ``u``'s last unused arc out, and it needs no
    ``end`` argument.
    The rule cuts only dead branches, so the trails found, and their
    order, stay those of the unpruned search.  A step updates ``ins`` in
    O(1) and a backtrack restores it.  This makes the reversed doubled
    trail ``(m-1)(m-1) .. 1 1 0 0`` take one pass, but the search is
    still exponential on some shapes, such as a long unique walk of
    cycles left part way round, which :func:`is_unique_trail` must search
    to the end.
    """
    successors: dict[int, list[tuple[int, int]]] = {}
    ins = dict.fromkeys(itertools.chain.from_iterable(remaining), 0)
    for arc in sorted(remaining):
        successors.setdefault(arc[0], []).append(arc)
        if arc[0] != arc[1]:
            ins[arc[1]] += remaining[arc]

    path = [start]
    frames = [iter(successors.get(start, ()))]
    while path:
        if len(path) == length:
            yield tuple(path)
        for arc in frames[-1]:
            tail, head = arc
            if remaining[arc] and (tail == head or ins[tail] or not remaining.get((tail, tail))):
                remaining[arc] -= 1
                if tail != head:
                    ins[head] -= 1
                path.append(head)
                frames.append(iter(successors.get(head, ())))
                break
        else:
            frames.pop()
            head = path.pop()
            if path:
                tail = path[-1]
                remaining[(tail, head)] += 1
                if tail != head:
                    ins[head] += 1


def is_unique_trail(trail: Trail) -> bool:
    """Whether the trail is the only Eulerian trail of its induced graph.

    The empty trail counts as unique by convention.
    """
    if not trail:
        return True
    found = list(itertools.islice(enumerate_trails(trail), 2))
    if len(found) == 1 and found[0] != tuple(trail):
        raise RuntimeError("enumeration lost the defining trail; arc bookkeeping is broken")
    return len(found) == 1
