"""Ground truth by search over Eulerian trails.

Every graph the package asks about is the one a trail induces: its arcs
are the trail's consecutive symbol pairs, with multiplicity, and its
trails start at the trail's first symbol.  So the oracle takes the trail
itself.  It backtracks over the remaining arc multiplicities, branching
in ascending vertex order so the output is lexicographic, and it enters
an arc only if the arcs left over still form a trail from the arc's
head: Fleury's rule (1883), met when the arc is its tail's last exit,
when the reverse arc is unused, or when a search backwards from the
arc's tail finds its head.  So no branch of the search dies, each trail
costs polynomial time, and uniqueness queries stop after the second
trail.  Used to cross-validate every other classifier in the package.
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
    early stops the search.  Every branch the search enters ends in a
    trail, so the first ``k`` trails cost at most about ``2 k`` times the
    trail's length of steps, each of at most one O(arcs) search per arc
    tried.
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
    holds ``length`` symbols, then enters the top frame's next arc that
    passes the rule below, or, once that frame is exhausted, pops it with
    its vertex and gives back the arc that led there.  A generator
    function runs nothing until its first trail is asked for, so the
    checks and the count stay in :func:`enumerate_trails`, which runs
    them at the call.

    The rule is Fleury's (1883): never take an arc that strands the
    unused rest of the graph.  The search stands only where the unused
    arcs have a trail from the current vertex ``u`` to the last symbol
    that every trail of the graph shares.  That holds at the start, since
    the input is such a trail.  Taking one copy of ``(u, v)`` keeps it
    exactly when ``u`` has no unused exit left or ``v`` leads back to
    ``u`` over the unused arcs.  Then every unused arc, reachable from
    ``u`` before, is reachable from ``v``, and degree balance gives the
    trail; otherwise ``u``'s other exits are stranded.  So the arc is
    entered in three cases:

    * ``outs[u]``, the number of ``u``'s unused exits, equals the arc's
      own count.  The last copy leaves ``u`` no exit, and a copy left
      over always leads back: the vertices ``v`` reaches send out at
      least as many unused arcs as they take in, so no unused arc enters
      them from outside.
    * ``(v, u)`` is unused.  For a loop, ``(v, u)`` is the arc itself.
    * :func:`_leads_back` finds ``v`` from ``u``.  That search runs
      backwards: on the long shapes, a unique walk or the doubled trail,
      few vertices reach ``u``, while most are reached from ``v``.

    Each case is asked before the copy is taken.  That changes none of
    the answers: a loop's head is its tail, and a path into ``u`` uses no
    arc out of ``u``.

    So no entered branch dies.  The trails found, and their order, are
    those of the unpruned search, and :func:`is_unique_trail` enters at
    most about twice the trail's length of frames, each running at most
    one O(arcs) search per arc it tries: polynomial time.  A step and its
    backtrack update ``outs`` in O(1).
    """
    successors: dict[int, list[tuple[int, int]]] = {}
    predecessors: dict[int, list[tuple[int, int]]] = {}
    outs: dict[int, int] = {}
    for arc in sorted(remaining):
        successors.setdefault(arc[0], []).append(arc)
        predecessors.setdefault(arc[1], []).append(arc)
        outs[arc[0]] = outs.get(arc[0], 0) + remaining[arc]

    path = [start]
    frames = [iter(successors.get(start, ()))]
    while path:
        if len(path) == length:
            yield tuple(path)
        for arc in frames[-1]:
            tail, head = arc
            if remaining[arc] and (outs[tail] == remaining[arc] or remaining.get((head, tail))
                                   or _leads_back(remaining, predecessors, head, tail)):
                remaining[arc] -= 1
                outs[tail] -= 1
                path.append(head)
                frames.append(iter(successors.get(head, ())))
                break
        else:
            frames.pop()
            head = path.pop()
            if path:
                remaining[(path[-1], head)] += 1
                outs[path[-1]] += 1


def _leads_back(remaining: dict[tuple[int, int], int], predecessors: dict[int, list[tuple[int, int]]], source: int, target: int) -> bool:
    """Whether the unused arcs hold a path from ``source`` to ``target``,
    searched breadth first backwards from ``target``.  A path that ends at
    ``target`` passes it only at its end, so an arc out of ``target``,
    such as the copy the search is about to take, never counts."""
    seen, queue = {target}, [target]
    for vertex in queue:
        for arc in predecessors.get(vertex, ()):
            if arc[0] not in seen and remaining[arc]:
                if arc[0] == source:
                    return True
                seen.add(arc[0])
                queue.append(arc[0])
    return False


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
