"""Segment transpositions on trails and the proper-transposition test.

A transposition swaps two segments of a trail that hang between repeated
anchor vertices; it never changes the induced arc multiset, the start
vertex, or the length.  A site is the named tuple
``TranspositionSite(i, p, j, q)``, in one of two shapes:

* ``p < j``: the trail reads  u a x b z a y b v  with the first anchor
  symbol at ``i`` and ``j`` and the second at ``p`` and ``q``; the swap
  exchanges x and y.  The two anchor symbols are usually distinct but are
  allowed to coincide (four occurrences of one vertex with material both
  between and around them).
* ``p == j``: the one-anchor shape  u a x a y a v  with one anchor symbol
  at ``i``, ``j`` and ``q``; the swap exchanges the adjacent x and y.  It
  is the first shape with ``b`` the middle ``a`` and ``z`` empty, so every
  formula here is written once.

A transposition is *proper* when the vertices right after the two leading
anchor occurrences differ; a trail is the unique Eulerian trail of its
graph exactly when it has no proper transposition.

Two functions answer that question, on purpose apart.  The witness,
:func:`find_proper_site`, reads a proper site in O(n) from the step at
which the automaton first blackened the vertex it rejects on.  The
independent classifier, :func:`has_proper_transposition`, is a linear
scan that uses no automaton and returns only whether a proper site
exists: one pass with the first occurrence of each vertex and a stack of
the positions whose vertex occurs again.  The tests hold both to an
O(n⁴) reference that lists every site.
"""

from typing import NamedTuple

from .automaton import advance, init_state
from .core import Trail


class TranspositionSite(NamedTuple):
    i: int
    p: int
    j: int
    q: int


def validate_site(trail: Trail, site: TranspositionSite) -> None:
    """Raise unless the site's indices and anchor symbols fit the trail."""
    if not isinstance(site, TranspositionSite):
        raise TypeError(f"not a transposition site: {site!r}")
    n = len(trail)
    i, p, j, q = site
    if not 0 <= i < p <= j < q < n:
        raise ValueError(f"site indices {site} out of order for length {n}")
    if trail[i] != trail[j] or trail[p] != trail[q]:
        raise ValueError(f"site {site} anchors differ: {trail[i]},{trail[p]} vs {trail[j]},{trail[q]}")


def apply_transposition(trail: Trail, site: TranspositionSite) -> Trail:
    """Swap the site's two segments; graph, start, and length are preserved."""
    validate_site(trail, site)
    i, p, j, q = site
    return trail[: i + 1] + trail[j + 1 : q + 1] + trail[p + 1 : j + 1] + trail[i + 1 : p + 1] + trail[q + 1 :]


def find_proper_site(trail: Trail) -> TranspositionSite | None:
    """A proper site of the trail, or None when the trail is unique; O(n).

    One :func:`~unitrail.automaton.advance` from a fresh state finds the
    first rejection: at index ``k`` the trail enters a black vertex ``v``.
    ``black[v]`` holds the step of the chain walk that first blackened
    ``v``: the dead state fills only white vertices, and ``v`` was black
    when the trail entered it.  Steps count symbols consumed from 1, so the
    walk started from the vertex fed just before that step's symbol, at
    index ``j = black[v] - 2``.  The walk ran because the follower
    recorded at the previous occurrence ``i`` of ``trail[j]`` differed
    from ``trail[j + 1]``; so ``i`` and ``j`` are leading anchors with
    distinct followers.  The walk went round a cycle through ``v`` inside
    ``[i, j]``; the site returned is ``TranspositionSite(i, p, j, k)``
    with ``p`` the last occurrence of ``v`` before ``j``, or ``p = j``
    when ``v`` is ``trail[j]`` itself.

    Every index the site names, followers included, lies inside the shortest
    rejected prefix.  Given that prefix of a line, as ``check --explain``
    does, the site is a proper site of the whole line, and the search's
    cost does not grow with the rest of the line.
    """
    if not trail:
        return None
    # a negative symbol gets the automaton's range error, as any other
    # symbol outside the size does
    state = init_state(max(max(trail), 0) + 1)
    rejected_at = advance(state, trail)
    if rejected_at is None:
        return None
    k = rejected_at - 1
    entered = trail[k]
    j = state.black[entered] - 2
    anchor = trail[j]
    p = j if entered == anchor else _last_before(trail, entered, j)
    return TranspositionSite(_last_before(trail, anchor, j), p, j, k)


def _last_before(trail: Trail, symbol: int, end: int) -> int:
    """The last index below ``end`` that holds ``symbol``."""
    return end - 1 - trail[end - 1 :: -1].index(symbol)


def has_proper_transposition(trail: Trail) -> bool:
    """Does any proper transposition rearrange this trail?  O(n).

    The classifier the harness checks the automaton against, so it uses
    none of it: a scan for two occurrences ``i < j`` of a vertex with
    distinct followers such that some vertex occurring in ``[i, j)``
    occurs again after ``j``.  Such a site needs two surplus occurrences:
    the anchor's second one at ``j``, and the later occurrence of a vertex
    of ``[i, j)`` (a third anchor or a second of another vertex).  So a
    trail with at most one repeat has no proper site and the scan returns
    at once.

    Otherwise one pass tries each ``j`` that has a follower as the second
    anchor.  A wider window only helps, so ``i`` is the first occurrence
    of ``trail[j]``.  When that occurrence has the follower ``trail[j + 1]``
    too, no site ends at ``j`` that an earlier step missed: an occurrence
    ``o`` between them with another follower made ``(i, o)`` a proper site,
    since the anchor at ``i`` occurs again at ``j``, and the step at ``o``
    returned.  Else the window works exactly when ``k >= i``, with ``k``
    the largest position below ``j`` whose vertex occurs again after
    ``j``.  ``k`` is the top of a stack of positions: each step pops the
    top while its vertex last occurs at or before ``j`` (a popped position
    stays dead, as ``j`` only grows), checks, and pushes ``j``; so each
    position is popped at most once.  The stack starts at -1, the last
    symbol's position counted from the end: that symbol occurs after every
    ``j``, so -1 is never popped and lies below every ``i``.
    """
    n = len(trail)
    if len(set(trail)) >= n - 1:
        return False
    last = {symbol: idx for idx, symbol in enumerate(trail)}
    first, stack = {}, [-1]
    for j, (anchor, follower) in enumerate(zip(trail, trail[1:])):
        while last[trail[stack[-1]]] <= j:
            stack.pop()
        i = first.setdefault(anchor, j)
        if trail[i + 1] != follower and stack[-1] >= i:
            return True
        stack.append(j)
    return False


def segments(trail: Trail, site: TranspositionSite) -> dict[str, Trail]:
    """Decompose the trail into the site's named pieces.

    Keys u, a, x, y, v always; b and z only for two-anchor sites, ``p < j``.
    """
    validate_site(trail, site)
    i, p, j, q = site
    parts = {
        "u": trail[:i],
        "a": trail[i : i + 1],
        "x": trail[i + 1 : p],
        "b": trail[p : p + 1],
        "z": trail[p + 1 : j],
        "y": trail[j + 1 : q],
        "v": trail[q + 1 :],
    }
    if p == j:
        del parts["b"], parts["z"]
    return parts
