"""What only the tests use: the arcs of a trail's graph, a uniformly
random trail of it, the O(n⁴) list of every site, the grammar NFA's
rule, its states and its set-based simulation, the explicit states of a
factored live set and the last symbol and length read off it, the
acceptance test on an automaton state and the checked shift lemma.  The
package never calls them.

Import it the way the tests import ``conftest``:
``from reference import all_sites``.
"""

from collections import Counter
from itertools import product

from unitrail.automaton import AutomatonState
from unitrail.core import Trail
from unitrail.grammar import GrammarNFA, LiveSet
from unitrail.transposition import TranspositionSite, apply_transposition, validate_site


def arcs(trail: Trail) -> Counter:
    """The graph a trail induces, as the multiset of its consecutive pairs."""
    return Counter(zip(trail, trail[1:]))


def sample_trail(trail: Trail, rng) -> Trail:
    """A uniformly random Eulerian trail of ``trail``'s graph, from
    ``trail[0]``.

    The last exits of a trail that ends at ``trail[-1]`` form an
    arborescence into that end, and every arborescence, with every order
    of the other exits, gives one trail (BEST).  So draw the arborescence
    with Wilson's loop-erased walk into the end, choosing among a
    vertex's arcs by multiplicity, shuffle each vertex's other exits, put
    the tree exit last and walk from the start.  Each distinct trail has
    as many orders of equal exits as any other, so the draw is uniform
    over distinct trails.  Wilson's walk takes the mean hitting time of
    the end: milliseconds on most shapes, quadratic on a path walked out
    and back.
    """
    exits: dict[int, list[int]] = {}
    for tail, head in zip(trail, trail[1:]):
        exits.setdefault(tail, []).append(head)
    end = trail[-1]
    last: dict[int, int] = {}  # a vertex's tree exit, as an index into its exits
    in_tree = {end}
    for vertex in exits:
        # walk until the tree is hit; a revisit overwrites the exit, which
        # erases the loop, and the erased walk joins the tree
        u = vertex
        while u not in in_tree:
            last[u] = rng.randrange(len(exits[u]))
            u = exits[u][last[u]]
        u = vertex
        while u not in in_tree:
            in_tree.add(u)
            u = exits[u][last[u]]
    for vertex, heads in exits.items():
        tree = [heads.pop(last[vertex])] if vertex != end else []
        rng.shuffle(heads)
        heads[:0] = tree  # the walk pops from the back, so the tree exit goes last
    walk = [trail[0]]
    while exits.get(walk[-1]):
        walk.append(exits[walk[-1]].pop())
    return tuple(walk)


def is_accepting(state: AutomatonState) -> bool:
    """Accepting while at least one vertex is still white."""
    return not all(state.black)


State = tuple
START: State = ("start",)
ACCEPT: State = ("accept",)


def step(nfa: GrammarNFA, states, symbol: int, into: set) -> None:
    """The grammar's one rule: add to ``into`` the states that each of
    ``states`` moves to on ``symbol``."""
    d = symbol
    add = into.add
    for state in states:
        match state:
            case ("span", a, c, b):
                add(state)
                add(("span", a, c, d))
                if d == a:
                    add(("branch", c, b))
            case ("start",):
                add(START)
                add(("anchor", d))
            case ("anchor", a):
                add(("span", a, d, d))
                if nfa.mode == "amended":
                    add(("span", a, d, a))
                if d == a:
                    add(("branch", a, a))
            case ("branch", c, b):
                if d != c:
                    add(("await", b))
                    if d == b:
                        add(ACCEPT)
            case ("await", b):
                add(state)
                if d == b:
                    add(ACCEPT)
            case ("accept",):
                add(ACCEPT)
            case _:
                raise ValueError(f"not a grammar state: {state!r}")


def simulate(nfa: GrammarNFA, trail: Trail, live: set | None = None) -> bool:
    """Whether the grammar derives ``trail``, by subset simulation of the
    rule: ``live`` (a fresh ``{START}`` when omitted) is left holding the
    states after ``trail``."""
    if live is None:
        live = {START}
    for symbol in trail:
        current = tuple(live)
        live.clear()
        step(nfa, current, symbol, live)
    return ACCEPT in live


def all_states(nfa: GrammarNFA):
    """Every state, reachable or not: 2 + 2m + m^2 + m^3 of them."""
    syms = range(nfa.size)
    yield START
    yield ACCEPT
    for a in syms:
        yield ("anchor", a)
        yield ("await", a)
    for c, b in product(syms, repeat=2):
        yield ("branch", c, b)
    for a, c, b in product(syms, repeat=3):
        yield ("span", a, c, b)


def successors(nfa: GrammarNFA, state: State, symbol: int) -> set:
    """The states that ``state`` moves to on ``symbol``: the rule's step of
    the one-state collection ``(state,)``."""
    found: set = set()
    step(nfa, (state,), symbol, found)
    return found


def last_read(live: LiveSet) -> tuple:
    """The symbol a live set read last and how many symbols it read, off
    ``seen``'s final entry: ``(None, 0)`` before the first symbol."""
    last, index = next(reversed(live.seen.items()), (None, -1))
    return last, index + 1


def expand(nfa: GrammarNFA, live: LiveSet) -> set:
    """The states a factored live set stands for in ``nfa.mode``, listed
    one by one."""
    amended = nfa.mode == "amended"
    states = {START}
    if live.amended if amended else live.strict:
        states.add(ACCEPT)
    states.update(("await", b) for b in live.awaits)
    if amended:
        states.update(("await", b) for b in live.anchors)
    d, n = last_read(live)
    if not n:
        return states
    states.add(("anchor", d))
    # every symbol read, at its last occurrence; an awaited mark is in
    # seen too only at the step that stopped the run, with its new index
    seen = {**live.awaits, **live.seen}
    for a, followers in live.pairs.items():
        for c, pos in followers.items():
            marks = {b for b, at in seen.items() if at >= pos}
            if amended:
                marks.add(a)
            states.update(("span", a, c, b) for b in marks)
    for c, pos in live.pairs.get(d, {}).items():
        marks = {b for b, at in seen.items() if at >= pos and b != d}
        if amended or live.prev >= pos or pos == n - 1:
            marks.add(d)
        states.update(("branch", c, b) for b in marks)
    return states


def is_proper(trail: Trail, site: TranspositionSite) -> bool:
    """True when the two leading anchor occurrences have distinct followers."""
    validate_site(trail, site)
    first = site.i
    second = site.j
    return trail[first + 1] != trail[second + 1]


def all_sites(trail: Trail):
    """Every well-formed site ``i < p <= j < q``, lexicographic; ``p == j``
    gives the one-anchor shapes.

    O(n⁴): the reference that tests hold ``find_proper_site``,
    ``has_proper_transposition`` and ``validate_site`` to.
    """
    n = len(trail)
    for i in range(n):
        for p in range(i + 1, n):
            for j in range(p, n):
                if trail[j] != trail[i]:
                    continue
                for q in range(j + 1, n):
                    if trail[q] == trail[p]:
                        yield TranspositionSite(i, p, j, q)


def _shift_improper(trail: Trail, site: TranspositionSite) -> TranspositionSite:
    """One anchor-shifting step: absorb the shared follower into the prefix.

    Both leading anchors are followed by the same vertex, which becomes the
    new anchor one position to the right.  When a swapped segment is left
    empty, the leading anchor sits directly against the trailing anchor
    symbol and the shape collapses to a one-anchor site.
    """
    i, p, j, q = site
    if p == i + 1:
        return TranspositionSite(i + 1, j + 1, j + 1, q)
    if q == j + 1:
        return TranspositionSite(i + 1, p, p, j + 1)
    return TranspositionSite(i + 1, p, j + 1, q)


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
