"""Segment transpositions on trails and the proper-transposition test.

A transposition swaps two segments of a trail that hang between repeated
anchor vertices; it never changes the induced arc multiset, the start
vertex, or the length.  Two shapes exist:

* ``TwoAnchors(i, p, j, q)``: the trail reads  u a x b z a y b v  with the
  first anchor symbol at ``i`` and ``j`` and the second at ``p`` and ``q``;
  the swap exchanges x and y.  The two anchor symbols are usually distinct
  but are allowed to coincide (four occurrences of one vertex with material
  both between and around them).
* ``OneAnchor(i, j, k)``: the trail reads  u a x a y a v  with one anchor
  symbol at all three indices; the swap exchanges the adjacent x and y.
  It is the first shape with ``b`` the middle ``a`` and ``z`` empty, and
  every function here reads it as the indices ``(i, j, j, k)``.

A transposition is *proper* when the vertices right after the two leading
anchor occurrences differ; a trail is the unique Eulerian trail of its
graph exactly when it has no proper transposition.

Two functions answer that question, on purpose apart.  The witness,
:func:`find_proper_site`, reads a proper site in O(n) from the step at
which the automaton first blackened the vertex it rejects on.  The
independent classifier, :func:`has_proper_transposition`, is an O(n²)
scan that uses no automaton and returns only whether a proper site
exists; the tests hold both to an O(n⁴) reference that lists every site.
"""

from typing import NamedTuple

from .automaton import advance, init_state
from .core import Trail


class TwoAnchors(NamedTuple):
    i: int
    p: int
    j: int
    q: int


class OneAnchor(NamedTuple):
    i: int
    j: int
    k: int


TranspositionSite = TwoAnchors | OneAnchor


def _indices(site: TranspositionSite) -> tuple[int, int, int, int]:
    """The site as two-anchor indices ``(i, p, j, q)``; ``OneAnchor(i, j, k)``
    is ``(i, j, j, k)``."""
    if isinstance(site, TwoAnchors):
        return site
    if isinstance(site, OneAnchor):
        i, j, k = site
        return i, j, j, k
    raise TypeError(f"not a transposition site: {site!r}")


def validate_site(trail: Trail, site: TranspositionSite) -> None:
    """Raise unless the site's indices and anchor symbols fit the trail."""
    n = len(trail)
    i, p, j, q = _indices(site)
    if not 0 <= i < p <= j < q < n or p == j and isinstance(site, TwoAnchors):
        raise ValueError(f"site indices {site} out of order for length {n}")
    if trail[i] != trail[j] or trail[p] != trail[q]:
        raise ValueError(f"site {site} anchors differ: {trail[i]},{trail[p]} vs {trail[j]},{trail[q]}")


def apply_transposition(trail: Trail, site: TranspositionSite) -> Trail:
    """Swap the site's two segments; graph, start, and length are preserved."""
    validate_site(trail, site)
    i, p, j, q = _indices(site)
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
    ``[i, j]``; the site returned is ``OneAnchor(i, j, k)`` when ``v`` is
    ``trail[j]`` itself, and otherwise ``TwoAnchors(i, p, j, k)`` with
    ``p`` the last occurrence of ``v`` before ``j``.

    Every index the site names, followers included, lies inside the shortest
    rejected prefix.  Given that prefix of a line, as ``check --explain``
    does, the site is a proper site of the whole line, and the search's
    cost does not grow with the rest of the line.
    """
    if not trail:
        return None
    state = init_state(max(trail) + 1)
    rejected_at = advance(state, trail)
    if rejected_at is None:
        return None
    k = rejected_at - 1
    entered = trail[k]
    j = state.black[entered] - 2
    anchor = trail[j]
    i = _last_before(trail, anchor, j)
    if entered == anchor:
        return OneAnchor(i, j, k)
    return TwoAnchors(i, _last_before(trail, entered, j), j, k)


def _last_before(trail: Trail, symbol: int, end: int) -> int:
    """The last index below ``end`` that holds ``symbol``."""
    return end - 1 - trail[end - 1 :: -1].index(symbol)


def has_proper_transposition(trail: Trail) -> bool:
    """Does any proper transposition rearrange this trail?  O(n²).

    The classifier the harness checks the automaton against, so it uses
    none of it: a scan for two occurrences ``i < j`` of a vertex with
    distinct followers such that some vertex occurring in ``[i, j)``
    occurs again after ``j``.  Such an anchor vertex occurs at two
    indices, so a trail in which no vertex repeats has no proper site and
    the scan returns at once.  Both occurrences need a follower, so
    ``i`` stops at ``n - 3``.
    """
    n = len(trail)
    last_seen = {symbol: idx for idx, symbol in enumerate(trail)}
    if len(last_seen) == n:
        return False
    for i in range(n - 2):
        anchor = trail[i]
        follower = trail[i + 1]
        reach = -1
        for j in range(i + 1, n - 1):
            seen = last_seen[trail[j - 1]]
            if seen > reach:
                reach = seen
            if trail[j] == anchor and trail[j + 1] != follower and reach > j:
                return True
    return False


def segments(trail: Trail, site: TranspositionSite) -> dict[str, Trail]:
    """Decompose the trail into the site's named pieces.

    Keys u, a, x, y, v always; b and z only for two-anchor sites.
    """
    validate_site(trail, site)
    i, p, j, q = _indices(site)
    parts = {
        "u": trail[:i],
        "a": trail[i : i + 1],
        "x": trail[i + 1 : p],
        "b": trail[p : p + 1],
        "z": trail[p + 1 : j],
        "y": trail[j + 1 : q],
        "v": trail[q + 1 :],
    }
    if isinstance(site, OneAnchor):
        del parts["b"], parts["z"]
    return parts
