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
The two variants differ by one production.  In ``strict`` mode the mark
can only be a vertex of the in-between stretch (or the anchor itself when
the stretch is empty), which is sound but misses inputs like 0 1 0 0 and
0 1 0 2 0.  ``amended`` mode also has ``anchor(a) --c--> span(a, c, a)``,
which lets the mark be the anchor while the stretch is nonempty and closes
the gap; the cross-validation harness reports the delta between the two
instead of hiding it.
"""

from dataclasses import dataclass
from itertools import product

from .core import Trail, validate_trail

State = tuple
START: State = ("start",)
ACCEPT: State = ("accept",)


@dataclass(frozen=True)
class GrammarNFA:
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


def iter_live_sets(nfa: GrammarNFA, trail: Trail):
    """Subset simulation; yields the live state set after every symbol."""
    validate_trail(trail, nfa.size)
    live = {START}
    yield live
    for symbol in trail:
        step: set = set()
        for state in live:
            step |= successors(nfa, state, symbol)
        live = step
        yield live


def nfa_accepts(nfa: GrammarNFA, trail: Trail) -> bool:
    for live in iter_live_sets(nfa, trail):
        pass
    return ACCEPT in live


def _state_label(state: State) -> str:
    kind, *rest = state
    if not rest:
        return kind
    return f"{kind}({','.join(str(r) for r in rest)})"


def export_transitions(nfa: GrammarNFA) -> str:
    """Plain-text relation, one ``from symbol to`` triple per line, sorted."""
    lines = sorted(
        f"{_state_label(src)} {symbol} {_state_label(dst)}"
        for src in all_states(nfa)
        for symbol in range(nfa.size)
        for dst in successors(nfa, src, symbol)
    )
    return "".join(line + "\n" for line in lines)
