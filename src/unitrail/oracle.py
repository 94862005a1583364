"""Ground truth by exhaustive search over Eulerian trails.

Every graph the package asks about is the one a trail induces: its arcs
are the trail's consecutive symbol pairs, with multiplicity, and its
trails start at the trail's first symbol.  So the oracle takes the trail
itself.  It backtracks over the remaining arc multiplicities, branching
in ascending vertex order so the output is lexicographic, and it never
leaves a vertex it could not come back to while that vertex still has
arcs out.  Used to cross-validate every other classifier in the package;
uniqueness queries early-exit after the second trail.
"""

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
    arcs: dict[tuple[int, int], int] = {}
    for arc in zip(trail, trail[1:]):
        arcs[arc] = arcs.get(arc, 0) + 1
    return _trails(arcs, trail[0], len(trail))


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

    The re-entry test: an arc ``(u, v)`` with ``u != v`` is entered only
    when it is ``u``'s last unused arc out, or another vertex still has
    an unused arc into ``u``.  Otherwise leaving ``u`` strands its other
    arcs out for good, so no trail lies beyond it and the trails found,
    and their order, stay the same.  ``outs[u]`` counts ``u``'s unused
    arcs out and ``ins[u]`` the unused arcs into ``u`` from other
    vertices; a step updates each in O(1) and a backtrack restores it.
    This makes the reversed doubled trail ``(m-1)(m-1) .. 1 1 0 0`` take
    one pass, but the search is still exponential on some shapes, such
    as a long unique walk of cycles left part way round, which
    :func:`is_unique_trail` must search to the end.
    """
    successors: dict[int, list[tuple[int, int]]] = {}
    outs = dict.fromkeys(itertools.chain.from_iterable(remaining), 0)
    ins = outs.copy()
    for arc in sorted(remaining):
        successors.setdefault(arc[0], []).append(arc)
        tail, head = arc
        outs[tail] += remaining[arc]
        if tail != head:
            ins[head] += remaining[arc]

    path = [start]
    frames = [iter(successors.get(start, ()))]
    while path:
        if len(path) == length:
            yield tuple(path)
        for arc in frames[-1]:
            tail, head = arc
            if remaining[arc] and (tail == head or outs[tail] == 1 or ins[tail]):
                remaining[arc] -= 1
                outs[tail] -= 1
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
                outs[tail] += 1
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
