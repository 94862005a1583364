"""Ground truth by exhaustive search over Eulerian trails.

Backtracking over remaining arc multiplicities, branching in ascending
vertex order so the output is lexicographic.  Used to cross-validate every
other classifier in the package; uniqueness queries early-exit after the
second trail.
"""

import itertools
from collections.abc import Iterator

from .core import Multigraph, Trail, validate_trail


def enumerate_trails(graph: Multigraph, start: int) -> Iterator[Trail]:
    """Yield every complete trail of ``graph`` from ``start``, lexicographic.

    A complete trail consumes every arc exactly once.  A zero-arc graph has
    the single trail ``(start,)``; a graph that cannot be fully traversed
    from ``start`` yields no trails at all.  Each trail is yielded as soon
    as it is found, so a caller that stops early stops the search.
    """
    if not 0 <= start < graph.vertex_count:
        raise ValueError(f"start vertex {start} out of range")
    return _trails(dict(graph.arc_multiplicity), start)


def _trails(remaining: dict[tuple[int, int], int], start: int) -> Iterator[Trail]:
    """The search behind :func:`enumerate_trails`.  It mutates
    ``remaining``, the arc multiset, in place and restores it only as far
    as it has backtracked, so a caller that stops early gets it back
    partly consumed."""
    left = sum(remaining.values())
    if left == 0:
        yield (start,)
        return
    successors: dict[int, list[int]] = {}
    for u, v in remaining:
        successors.setdefault(u, []).append(v)
    for targets in successors.values():
        targets.sort()

    path = [start]
    # One frame per path position: an iterator over candidate next vertices.
    frames = [iter(successors.get(start, ()))]
    while frames:
        frame = frames[-1]
        for nxt in frame:
            arc = (path[-1], nxt)
            if not remaining.get(arc, 0):
                continue
            remaining[arc] -= 1
            left -= 1
            path.append(nxt)
            if left:
                frames.append(iter(successors.get(nxt, ())))
                break
            yield tuple(path)
            path.pop()
            remaining[arc] += 1
            left += 1
        else:
            frames.pop()
            if frames:
                nxt = path.pop()
                remaining[(path[-1], nxt)] += 1
                left += 1


def is_unique_trail(trail: Trail) -> bool:
    """Whether the trail is the only Eulerian trail of its induced graph.

    The start vertex is fixed at the trail's first symbol.  The empty trail
    counts as unique by convention.  The arcs are counted straight from the
    trail's consecutive pairs; no :class:`Multigraph` is built.
    """
    if not trail:
        return True
    if min(trail) < 0:
        validate_trail(trail, max(trail) + 1)
    arcs: dict[tuple[int, int], int] = {}
    for arc in zip(trail, trail[1:]):
        arcs[arc] = arcs.get(arc, 0) + 1
    found = list(itertools.islice(_trails(arcs, trail[0]), 2))
    if len(found) == 1 and found[0] != trail:
        raise RuntimeError("enumeration lost the defining trail; arc bookkeeping is broken")
    return len(found) == 1
