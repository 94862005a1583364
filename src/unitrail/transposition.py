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

A transposition is *proper* when the vertices right after the two leading
anchor occurrences differ; a trail is the unique Eulerian trail of its
graph exactly when it has no proper transposition.
"""

from dataclasses import dataclass

from .core import Trail


@dataclass(frozen=True)
class TwoAnchors:
    i: int
    p: int
    j: int
    q: int


@dataclass(frozen=True)
class OneAnchor:
    i: int
    j: int
    k: int


TranspositionSite = TwoAnchors | OneAnchor


def validate_site(trail: Trail, site: TranspositionSite) -> None:
    """Raise unless the site's indices and anchor symbols fit the trail."""
    n = len(trail)
    if isinstance(site, TwoAnchors):
        i, p, j, q = site.i, site.p, site.j, site.q
        if not 0 <= i < p < j < q < n:
            raise ValueError(f"site indices {site} out of order for length {n}")
        if trail[i] != trail[j] or trail[p] != trail[q]:
            raise ValueError(f"site {site} anchors differ: {trail[i]},{trail[p]} vs {trail[j]},{trail[q]}")
    elif isinstance(site, OneAnchor):
        i, j, k = site.i, site.j, site.k
        if not 0 <= i < j < k < n:
            raise ValueError(f"site indices {site} out of order for length {n}")
        if not trail[i] == trail[j] == trail[k]:
            raise ValueError(f"site {site} anchors are not one vertex")
    else:
        raise TypeError(f"not a transposition site: {site!r}")


def apply_transposition(trail: Trail, site: TranspositionSite) -> Trail:
    """Swap the site's two segments; graph, start, and length are preserved."""
    validate_site(trail, site)
    if isinstance(site, TwoAnchors):
        i, p, j, q = site.i, site.p, site.j, site.q
        return trail[: i + 1] + trail[j + 1 : q + 1] + trail[p + 1 : j + 1] + trail[i + 1 : p + 1] + trail[q + 1 :]
    i, j, k = site.i, site.j, site.k
    return trail[: i + 1] + trail[j + 1 : k + 1] + trail[i + 1 : j + 1] + trail[k + 1 :]


def is_proper(trail: Trail, site: TranspositionSite) -> bool:
    """True when the two leading anchor occurrences have distinct followers."""
    validate_site(trail, site)
    first = site.i
    second = site.j
    return trail[first + 1] != trail[second + 1]


def has_proper_transposition(trail: Trail) -> bool:
    """Direct scan: does any proper transposition rearrange this trail?

    Equivalent condition on the raw sequence: two occurrences of a vertex
    with distinct followers, where some vertex seen up to (and including)
    the first occurrence-window recurs after the second.  Quadratic scan
    with a running latest-occurrence bound.
    """
    n = len(trail)
    last_seen = {}
    for idx, symbol in enumerate(trail):
        last_seen[symbol] = idx
    for i in range(n):
        window_recurs = -1
        for j in range(i + 1, n - 1):
            window_recurs = max(window_recurs, last_seen[trail[j - 1]])
            if trail[j] == trail[i] and trail[i + 1] != trail[j + 1] and window_recurs > j:
                return True
    return False


def _two_anchor_sites(trail: Trail):
    n = len(trail)
    for i in range(n):
        for p in range(i + 1, n):
            for j in range(p + 1, n):
                if trail[j] != trail[i]:
                    continue
                for q in range(j + 1, n):
                    if trail[q] == trail[p]:
                        yield TwoAnchors(i, p, j, q)


def _one_anchor_sites(trail: Trail):
    n = len(trail)
    for i in range(n):
        for j in range(i + 1, n):
            if trail[j] != trail[i]:
                continue
            for k in range(j + 1, n):
                if trail[k] == trail[i]:
                    yield OneAnchor(i, j, k)


def all_sites(trail: Trail):
    """Every well-formed site, two-anchor shapes first, lexicographic."""
    yield from _two_anchor_sites(trail)
    yield from _one_anchor_sites(trail)


def find_proper_site(trail: Trail) -> TranspositionSite | None:
    """First proper site in ``all_sites`` order, or None for unique trails."""
    for site in all_sites(trail):
        if is_proper(trail, site):
            return site
    return None


def _shift_improper(trail: Trail, site: TranspositionSite) -> TranspositionSite:
    """One anchor-shifting step: absorb the shared follower into the prefix.

    Both leading anchors are followed by the same vertex, which becomes the
    new anchor one position to the right.  The replacement site depends on
    which of the swapped segments is empty; an empty segment means the
    leading anchor sits directly against the trailing anchor symbol, which
    collapses the shape to a one-anchor site.
    """
    if isinstance(site, TwoAnchors):
        i, p, j, q = site.i, site.p, site.j, site.q
        if p > i + 1 and q > j + 1:
            return TwoAnchors(i + 1, p, j + 1, q)
        if p == i + 1:
            return OneAnchor(i + 1, j + 1, q)
        return OneAnchor(i + 1, p, j + 1)
    i, j, k = site.i, site.j, site.k
    if j > i + 1 and k > j + 1:
        return TwoAnchors(i + 1, j, j + 1, k)
    if j == i + 1:
        return OneAnchor(i + 1, j + 1, k)
    return OneAnchor(i + 1, j, k)


def properize(trail: Trail, site: TranspositionSite) -> TranspositionSite:
    """Replace a non-identity transposition by a proper one with equal image.

    Shift lemma: the two leading anchors of an improper site are followed by
    the same vertex, and every branch of :func:`_shift_improper` makes those
    two followers the new leading anchors, which moves the first anchor
    right by exactly one and keeps the image.  The first anchor cannot pass
    the end of the trail, so the loop ends, and it ends at a proper site.
    The number of shifts taken is ``result.i - site.i``.  Every shift is
    checked against the lemma; a shifted site that is malformed, does not
    move the first anchor by one, or changes the image raises
    ``RuntimeError``.
    """
    image = apply_transposition(trail, site)
    if image == trail:
        raise ValueError("identity transposition has no proper equivalent")
    current = site
    while not is_proper(trail, current):
        shifted = _shift_improper(trail, current)
        try:
            ok = shifted.i == current.i + 1 and apply_transposition(trail, shifted) == image
        except ValueError:
            ok = False
        if not ok:
            raise RuntimeError(
                f"shifting site {current} of trail {trail} gave {shifted}, "
                "which breaks the shift lemma"
            )
        current = shifted
    return current


def segments(trail: Trail, site: TranspositionSite) -> dict[str, Trail]:
    """Decompose the trail into the site's named pieces.

    Keys u, a, x, y, v always; b and z only for two-anchor sites.
    """
    validate_site(trail, site)
    if isinstance(site, TwoAnchors):
        i, p, j, q = site.i, site.p, site.j, site.q
        return {
            "u": trail[:i],
            "a": trail[i : i + 1],
            "x": trail[i + 1 : p],
            "b": trail[p : p + 1],
            "z": trail[p + 1 : j],
            "y": trail[j + 1 : q],
            "v": trail[q + 1 :],
        }
    i, j, k = site.i, site.j, site.k
    return {
        "u": trail[:i],
        "a": trail[i : i + 1],
        "x": trail[i + 1 : j],
        "y": trail[j + 1 : k],
        "v": trail[k + 1 :],
    }
