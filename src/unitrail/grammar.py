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

Every arc comes from one rule, ``step``, which moves a whole collection
of states on one symbol into an output set, so nothing is built per
alphabet: a run steps only its live set of states (subset simulation),
with one call of the rule per symbol.
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

from .core import Trail

State = tuple
START: State = ("start",)
ACCEPT: State = ("accept",)


class _GrammarFields(NamedTuple):
    size: int
    mode: str


class GrammarNFA(_GrammarFields):
    """An alphabet size of at least 1 and a mode, ``strict`` or ``amended``."""

    __slots__ = ()

    def __new__(cls, size: int, mode: str):
        if size < 1:
            raise ValueError("alphabet size must be at least 1")
        if mode not in ("strict", "amended"):
            raise ValueError(f"mode must be 'strict' or 'amended', not {mode!r}")
        return tuple.__new__(cls, (size, mode))

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make; keep it on the checked path
        return cls(*fields)


def build_grammar_nfa(size: int, mode: str = "strict") -> GrammarNFA:
    """The grammar over ``size`` symbols in ``mode``; its arcs are computed
    on demand."""
    return GrammarNFA(size, mode)


def step(nfa: GrammarNFA, states, symbol: int, into: set) -> None:
    """Add to ``into`` the states that each of ``states`` moves to on ``symbol``."""
    d = symbol
    add = into.add
    for state in states:
        match state:
            # span first: it makes up most of every live set
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


def nfa_accepts(nfa: GrammarNFA, trail: Trail, live: set | None = None) -> bool:
    """Whether the grammar derives ``trail``, by subset simulation.

    The run starts from ``live``, or from a fresh ``{START}`` when it is
    omitted, and leaves a given ``live`` holding the states after
    ``trail``, so a caller can feed a trail in pieces and get the same
    verdict and the same set as one call.  Every symbol is checked against
    ``nfa.size``, here and before the first step: one outside it raises
    ``ValueError`` and leaves ``live`` untouched.
    """
    size = nfa.size
    for symbol in trail:
        if not 0 <= symbol < size:
            raise ValueError(f"symbol {symbol} out of range for alphabet size {size}")
    if live is None:
        live = {START}
    for symbol in trail:
        current = tuple(live)
        live.clear()
        step(nfa, current, symbol, live)
    return ACCEPT in live
