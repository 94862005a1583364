"""Streaming acceptor for the language of unique Eulerian trails.

The machine consumes one vertex at a time and keeps three things: the last
vertex read, a latest-follower table (which vertex most recently followed
each vertex, including a virtual start-of-input marker), and a black/white
color per vertex.  A vertex turns black once it sits on a committed cycle;
when a black vertex is entered again the whole table blackens, which is the
absorbing dead state.  Acceptance = at least one vertex still white.  A step
leaves every vertex black exactly when the vertex it enters is black, so
:func:`advance`, the one loop that feeds symbols to a state, decides on
that one colour and stops on the exact symbol that causes a rejection,
without scanning the table.  :func:`run` feeds a whole trail to a fresh
state.
"""

from dataclasses import dataclass

from .core import Trail

WHITE = False
BLACK = True


@dataclass
class AutomatonState:
    """Mutable machine state for one input stream.

    ``last`` is the previously consumed vertex, or the alphabet size (the
    virtual start marker) before any input.  ``follower`` has one slot per vertex
    plus one for the start marker; ``None`` means "nothing followed yet".
    """

    last: int
    follower: list[int | None]
    black: list[bool]


@dataclass(frozen=True)
class Verdict:
    """Outcome of feeding a whole trail through the machine.

    ``first_rejection`` is the length of the shortest rejected prefix, so a
    consumer can stop reading as soon as uniqueness is lost.
    """

    accepted: bool
    first_rejection: int | None = None

    def __post_init__(self):
        if self.accepted != (self.first_rejection is None):
            raise ValueError("accepted verdicts carry no rejection point and vice versa")


def init_state(size: int) -> AutomatonState:
    """Fresh state: virtual start marker, empty follower table, all white."""
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    return AutomatonState(last=size, follower=[None] * (size + 1), black=[WHITE] * size)


def advance(state: AutomatonState, trail: Trail) -> int | None:
    """Feed the symbols of ``trail`` to the state in order, mutating it.

    Each symbol is one step, whose phase order matters: (1) if the last
    vertex already has a follower and it differs from the new symbol,
    blacken the cycle closed by the follower chain; (2) if the new symbol
    is already black, blacken everything; (3) record the new follower;
    (4) move to the new symbol.  Returns the number of symbols consumed at
    the first step that enters a black vertex, after finishing that step,
    or ``None`` when no step does.  A symbol outside the alphabet raises
    ``ValueError`` and leaves the state as the symbols before it left it.
    """
    follower = state.follower
    black = state.black
    size = len(black)
    prev = state.last
    # `prev` stands for `state.last` while the loop runs; it is stored back
    # however the loop ends, a raised error included.
    try:
        for consumed, symbol in enumerate(trail, start=1):
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
                    black[vertex] = BLACK
                    vertex = follower[vertex]
                    hops += 1
                    if hops > size:
                        raise RuntimeError("latest-follower chain does not cycle back")
                    if vertex == prev:
                        break
            if black[symbol]:
                black[:] = [BLACK] * size
                follower[prev] = symbol
                prev = symbol
                return consumed
            follower[prev] = symbol
            prev = symbol
        return None
    finally:
        state.last = prev


def is_accepting(state: AutomatonState) -> bool:
    """Accepting while at least one vertex is still white."""
    return not all(state.black)


def run(trail: Trail, size: int) -> Verdict:
    """Feed a trail through the machine and report the verdict.

    One pass of :func:`advance` over the input from a fresh state; it stops
    at the first non-accepting prefix (the dead state is absorbing, so
    nothing later can recover).  A step ends non-accepting exactly when
    the vertex it entered is black: phase 2 of the step blackens the whole
    table in that case, phases 3 and 4 change no colour, and a chain walk
    that blackens every vertex blackens the entered one too.  The empty
    trail is accepted, even over an empty alphabet.
    """
    if size == 0:
        if trail:
            raise ValueError("nonempty trail over an empty alphabet")
        return Verdict(accepted=True)
    consumed = advance(init_state(size), trail)
    return Verdict(accepted=consumed is None, first_rejection=consumed)
