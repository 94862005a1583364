"""Right-linear grammar for the non-unique trails, computed as an NFA.

The grammar guesses the two occurrences of the leading anchor vertex, a
marked vertex seen up to the second occurrence that must recur afterwards,
and checks that the two anchor occurrences have distinct followers.  State
shapes:

* ``start``            before the first anchor guess,
* ``anchor(a)``        just read the first anchor occurrence,
* ``span(a, c, b)``    inside the stretch between the anchor occurrences;
                       ``c`` is the anchor's follower, ``b`` the currently
                       marked vertex (re-markable at every step),
* ``branch(c, b)``     just read the second anchor occurrence,
* ``await(b)``         past the second occurrence, waiting for the mark,
* ``accept``           the mark recurred; absorbing.

Every arc comes from one rule, ``successors``, so nothing is built per
alphabet: a run steps only its live set of states (subset simulation).
Nothing here lists the 2 + 2m + m² + m³ states; the tests do, to check the
rule over the whole space.
The two variants differ by one production.  In ``strict`` mode the mark
can only be a vertex of the in-between stretch (or the anchor itself when
the stretch is empty), which is sound but misses inputs like 0 1 0 0 and
0 1 0 2 0.  ``amended`` mode also has ``anchor(a) --c--> span(a, c, a)``,
which lets the mark be the anchor while the stretch is nonempty and closes
the gap; the cross-validation harness reports the delta between the two
instead of hiding it.
"""

from typing import NamedTuple

from .core import Trail, validate_trail

State = tuple
START: State = ("start",)
ACCEPT: State = ("accept",)


class GrammarNFA(NamedTuple):
    size: int
    mode: str


def build_grammar_nfa(size: int, mode: str = "strict") -> GrammarNFA:
    """Check the alphabet size and mode; the arcs are computed on demand."""
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    if mode not in ("strict", "amended"):
        raise ValueError(f"mode must be 'strict' or 'amended', not {mode!r}")
    return GrammarNFA(size, mode)


def successors(nfa: GrammarNFA, state: State, symbol: int) -> set:
    """The states that ``state`` moves to on ``symbol``."""
    d = symbol
    match state:
        # span first: it makes up most of every live set
        case ("span", a, c, b):
            found = {state, ("span", a, c, d)}
            if d == a:
                found.add(("branch", c, b))
            return found
        case ("start",):
            return {START, ("anchor", d)}
        case ("anchor", a):
            found = {("span", a, d, d)}
            if nfa.mode == "amended":
                found.add(("span", a, d, a))
            if d == a:
                found.add(("branch", a, a))
            return found
        case ("branch", c, b):
            if d == c:
                return set()
            return {("await", b), ACCEPT} if d == b else {("await", b)}
        case ("await", b):
            return {state, ACCEPT} if d == b else {state}
        case ("accept",):
            return {ACCEPT}
    raise ValueError(f"not a grammar state: {state!r}")


def nfa_accepts(nfa: GrammarNFA, trail: Trail, live: set | None = None) -> bool:
    """Whether the grammar derives ``trail``, by subset simulation.

    The run starts from ``live``, or from a fresh ``{START}`` when it is
    omitted, and leaves a given ``live`` holding the states after
    ``trail``, so a caller can feed a trail in pieces and get the same
    verdict and the same set as one call.  Every symbol is checked against
    the alphabet before the first step: one outside it raises
    ``ValueError`` and leaves ``live`` untouched.
    """
    validate_trail(trail, nfa.size)
    if live is None:
        live = {START}
    for symbol in trail:
        current = tuple(live)
        live.clear()
        for state in current:
            live |= successors(nfa, state, symbol)
    return ACCEPT in live
