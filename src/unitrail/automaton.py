"""Streaming acceptor for the language of unique Eulerian trails.

The machine consumes one vertex at a time and keeps three things: the last
vertex read, a latest-follower table (which vertex most recently followed
each vertex, including a virtual start-of-input marker), and a colour per
vertex.  A vertex turns black once it sits on a committed cycle; when a
black vertex is entered again the whole table blackens, which is the
absorbing dead state.  Acceptance = at least one vertex still white.  A step
leaves every vertex black exactly when the vertex it enters is black, so
the one loop that feeds symbols decides on that one colour and stops on
the exact symbol that causes a rejection, without scanning the table.
:func:`advance` runs that loop on a state; :func:`run` runs it on fresh
lists, with no state object, and feeds a whole trail.  Its
:class:`Verdict` holds the one fact the paper's automaton gives about a
trail: the length of its shortest rejected prefix, or ``None``.

A colour is stored as the step at which the vertex turned black, or ``0``
while it is white; steps count the symbols consumed from the start of each
:func:`advance` call, from 1.  The verdict reads only whether a value is
zero, so the finite automaton of the paper is this state with each step
mapped to its colour.
"""

from typing import NamedTuple

from .core import Slotted, Trail


class AutomatonState(Slotted):
    """Mutable machine state for one input stream.

    ``last`` is the previously consumed vertex, or the alphabet size (the
    virtual start marker) before any input.  ``follower`` has one slot per vertex
    plus one for the start marker; ``None`` means "nothing followed yet".
    ``black`` has one slot per vertex: ``0`` while the vertex is white, and
    once it is black the step at which it turned black, the 1-based count
    of symbols consumed by the :func:`advance` call that blackened it.
    States compare equal when all three fields do.
    """

    __slots__ = ("last", "follower", "black")

    def __init__(self, last: int, follower: list[int | None], black: list[int]):
        self.last = last
        self.follower = follower
        self.black = black


class Verdict(NamedTuple):
    """Outcome of feeding a whole trail through the machine.

    ``first_rejection`` is the length of the shortest rejected prefix, or
    ``None`` when the whole trail is accepted, so a consumer can stop
    reading as soon as uniqueness is lost.  It is the verdict's one field;
    ``accepted`` is read off it.
    """

    first_rejection: int | None = None

    @property
    def accepted(self) -> bool:
        return self.first_rejection is None


def init_state(size: int) -> AutomatonState:
    """Fresh state: virtual start marker, empty follower table, all white."""
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    return AutomatonState(size, [None] * (size + 1), [0] * size)


def advance(state: AutomatonState, trail: Trail) -> int | None:
    """Feed the symbols of ``trail`` to the state in order, mutating it.

    Each symbol is one step, whose phase order matters: (1) if the last
    vertex already has a follower and it differs from the new symbol,
    blacken the cycle closed by the follower chain; (2) record the new
    follower; (3) move to the new symbol; (4) if the new symbol is already
    black, blacken everything.  Returns the number of symbols consumed at
    the first step that enters a black vertex, after finishing that step,
    or ``None`` when no step does.  A symbol outside the alphabet raises
    ``ValueError`` and leaves the state as the symbols before it left it.

    Blackening a vertex writes the current step into ``black``: the
    1-based count of symbols this call has consumed, the symbol being fed
    included.  An already black vertex keeps its first step, and the dead
    state fills only the white vertices with the fatal step.  Steps count
    from the start of this call's ``trail``, so only one call from a fresh
    state numbers the whole input.

    The steps are the one automaton loop, :func:`_feed`, which
    :func:`run` also calls on fresh lists; ``state.last`` is stored back
    however the loop ends, a raised error included.
    """
    return _feed(state.follower, state.black, state.last, trail, state)


def _feed(
    follower: list[int | None], black: list[int], prev: int, trail: Trail, state: AutomatonState | None = None
) -> int | None:
    """The loop of :func:`advance`, over the follower and colour lists.

    ``prev`` is the last vertex before ``trail``; the lists are mutated in
    place.  When ``state`` is given, the last vertex fed is stored into
    ``state.last`` however the loop ends, a raised error included.
    """
    size = len(black)
    consumed = 0
    try:
        for symbol in trail:
            consumed += 1
            if not 0 <= symbol < size:
                raise ValueError(f"symbol {symbol} out of range for alphabet size {size}")
            chained = follower[prev]
            if chained is not None and chained != symbol:
                # The chain leaves prev and must return to it; a well-formed
                # state gets back within `size` hops.
                vertex = prev
                hops = 0
                while True:
                    if vertex is None or not 0 <= vertex < size:
                        raise RuntimeError("latest-follower chain escapes the vertex set")
                    if not black[vertex]:
                        black[vertex] = consumed
                    vertex = follower[vertex]
                    hops += 1
                    if hops > size:
                        raise RuntimeError("latest-follower chain does not cycle back")
                    if vertex == prev:
                        break
            follower[prev] = symbol
            prev = symbol
            if black[symbol]:
                black[:] = [c or consumed for c in black]
                return consumed
        return None
    finally:
        if state is not None:
            state.last = prev


# An accepted verdict carries no data and a Verdict is immutable, so every
# accepted run returns this one value instead of building its own.
_ACCEPTED = Verdict()


def run(trail: Trail, size: int) -> Verdict:
    """Feed a trail through the machine and report the verdict.

    One pass of the automaton loop over the input from fresh follower and
    colour lists, with no :class:`AutomatonState` around them; it stops
    at the first non-accepting prefix (the dead state is absorbing, so
    nothing later can recover).  A step ends non-accepting exactly when
    the vertex it entered is black: phase 4 of the step blackens the whole
    table in that case, phases 2 and 3 change no colour, and a chain walk
    that blackens every vertex blackens the entered one too.  The empty
    trail is accepted, even over an empty alphabet, over which any symbol
    is out of range.  Every accepted run returns the same shared
    ``Verdict()``; a rejected run builds its own.  A negative ``size``
    raises ``ValueError``.
    """
    if size < 0:
        raise ValueError("alphabet size must be non-negative")
    # the lists init_state would build, and its start marker
    consumed = _feed([None] * (size + 1), [0] * size, size, trail)
    if consumed is None:
        return _ACCEPTED
    return Verdict(consumed)
