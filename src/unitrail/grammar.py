"""Right-linear grammar for the non-unique trails, simulated as an NFA.

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

A run never lists these states, about L·m/2 of them after L symbols over
m.  It steps a :class:`LiveSet`, a factored form with one value per
symbol and per pair of consecutive symbols.  The marks of
``span(a, c, ·)`` are the symbols read from the first ``c`` that
followed an ``a`` on, so the mark sets nest and are not stored, and the
``branch`` states are read off the last symbol's pairs.  A step reads at
most two of those pairs.  It adds to the ``await`` marks only the
symbols read since it last added some, unless the new marks reach back
past those already added, and a new pair copies its anchor's followers.
The run stops once a mark both variants await recurs, so no follower
dict it copies has more than 3 entries.  The tests hold this form to the
NFA's rule, state by state, on every short word.

The two variants differ by one production.  In ``strict`` mode the mark
can only be a vertex of the in-between stretch (or the anchor itself when
the stretch is empty), which is sound but misses inputs like 0 1 0 0 and
0 1 0 2 0.  ``amended`` mode also has
``anchor(a) --c--> span(a, c, a)``, which lets the mark be the anchor
while the stretch is nonempty and closes the gap; the cross-validation
harness reports the delta between the two instead of hiding it.  That
production adds only ``await`` marks, the anchors it lets a branch
await, so one live set holds both variants' states: the marks both
await, and the set ``anchors`` that only the amended grammar awaits.
"""

from typing import NamedTuple

from .core import Trail


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
    """The grammar over ``size`` symbols in ``mode``; nothing is
    materialized."""
    return GrammarNFA(size, mode)


class LiveSet:
    """The live states of both grammars after ``n`` symbols, factored.

    ``seen`` maps each symbol read to the index of its last occurrence, in
    the order of that index, so ``last`` is its final key.  ``pairs[a]``
    maps each follower ``c`` of ``a`` to ``pos``, the index of the first
    ``c`` read right after an ``a``, in the order of ``pos``; the states
    ``span(a, c, b)`` are live for every ``b`` whose last occurrence is at
    ``pos`` or later, and in ``amended`` mode for ``b == a``.  Each of
    those dicts is replaced, never changed, when a pair is added, so a
    shallow :meth:`copy` is independent of its source.

    ``prev`` is the index of the occurrence of ``last`` before the final
    one, ``-1`` if none.  The states ``branch(c, b)`` are read off
    ``pairs[last]``: the pair ``(c, pos)`` gives ``b`` in the symbols other
    than ``last`` whose last occurrence is at ``pos`` or later, and
    ``last`` itself in ``amended`` mode, when ``prev >= pos``, or when
    ``pos == n - 1`` (the pair ``(last, last)`` the final symbol made).
    ``awaits`` holds the marks of the ``await`` states live in both
    grammars, and ``anchors`` the anchors that only the amended grammar
    awaits.  ``strict`` and ``amended`` say whether each grammar's
    ``accept`` is live: a mark in ``awaits`` sets both, one in
    ``anchors`` only ``amended``.  Every symbol whose last occurrence lies
    in ``lo..hi`` is in ``awaits``, so a step adds only marks read since
    ``hi``.  States compare equal when all their fields do.
    """

    __slots__ = ("seen", "pairs", "awaits", "anchors", "strict", "amended", "last", "prev", "n", "lo", "hi")

    def __init__(self):
        self.seen: dict[int, int] = {}
        self.pairs: dict[int, dict[int, int]] = {}
        self.awaits: set[int] = set()
        self.anchors: set[int] = set()
        self.strict = self.amended = False
        self.last: int | None = None
        self.prev = self.hi = -1
        self.n = self.lo = 0

    def copy(self) -> "LiveSet":
        twin = LiveSet.__new__(LiveSet)
        twin.seen = self.seen.copy()
        twin.pairs = self.pairs.copy()
        twin.awaits = self.awaits.copy()
        twin.anchors = self.anchors.copy()
        twin.strict = self.strict
        twin.amended = self.amended
        twin.last = self.last
        twin.prev = self.prev
        twin.n = self.n
        twin.lo = self.lo
        twin.hi = self.hi
        return twin

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"LiveSet({fields})"


def nfa_accepts(nfa: GrammarNFA, trail: Trail, live: LiveSet | None = None) -> bool:
    """Whether the grammar derives ``trail``, in ``nfa.mode``.

    The run starts from ``live``, or from a fresh :class:`LiveSet` when it
    is omitted, and leaves a given ``live`` holding the states of both
    grammars after ``trail``, so a caller can feed a trail in pieces and
    get the same verdict and the same live set as one call, and read the
    other grammar's verdict off ``live``.  Every symbol is checked
    against ``nfa.size``, here and before the first step: one outside it
    raises ``ValueError`` and leaves ``live`` untouched.

    The run stops stepping once ``live.strict`` holds: both grammars then
    accept, since ``accept`` is absorbing and the strict grammar's marks
    are some of the amended one's, so ``live`` keeps its fields from then
    on.  Up to that stop no vertex has more than 3 followers: the step
    that gives a vertex its third follower also puts it in ``awaits``, so
    its next occurrence sets ``strict``.  No follower dict the run copies
    has more than 3 entries.
    """
    size = nfa.size
    for symbol in trail:
        if not 0 <= symbol < size:
            raise ValueError(f"symbol {symbol} out of range for alphabet size {size}")
    live = LiveSet() if live is None else live
    seen, pairs, awaits, anchors = live.seen, live.pairs, live.awaits, live.anchors
    strict, amended, last, prev, n, lo, hi = live.strict, live.amended, live.last, live.prev, live.n, live.lo, live.hi
    for symbol in trail:
        if strict:
            break
        if n:
            followers = pairs.get(last)
            if followers:
                # the branches that leave towards a symbol other than this
                # one await the union of their marks, which is the marks
                # of the earliest: pos grows along the dict
                for follower, pos in followers.items():
                    if follower != symbol:
                        # both grammars await last, or only the amended
                        # one, through its extra production
                        (awaits if prev >= pos or pos == n - 1 else anchors).add(last)
                        if lo <= pos <= hi + 1:
                            stop = hi + 1  # lo..hi is in awaits already
                        else:
                            stop = lo = pos
                        hi = n - 2
                        marks = reversed(seen.items())
                        next(marks)  # last itself, handled above
                        for mark, at in marks:
                            if at < stop:
                                break
                            awaits.add(mark)
                        break
                if symbol not in followers:
                    pairs[last] = {**followers, symbol: n}
            else:
                pairs[last] = {symbol: n}
        # awaits and anchors now also hold the marks of the branches just
        # left, so this is await(b) and branch(c, b) both reading b
        if symbol in awaits:
            strict = amended = True
        elif symbol in anchors:
            amended = True
        prev = seen.pop(symbol, -1)
        seen[symbol] = n
        last = symbol
        n += 1
    live.strict, live.amended, live.last, live.prev, live.n, live.lo, live.hi = strict, amended, last, prev, n, lo, hi
    return amended if nfa.mode == "amended" else strict
