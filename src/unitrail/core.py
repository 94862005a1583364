"""Symbols, trails, and trail-induced multigraphs.

A trail is a plain tuple of dense integer vertex ids.  Token names exist
only at the I/O boundary (parsing and rendering); everything downstream
works on ids 0..m-1.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

Trail = tuple[int, ...]

# Default single-character names for canonically built alphabets.
DEFAULT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TrailParseError(ValueError):
    """Input text could not be parsed into a trail."""


@dataclass(frozen=True)
class Alphabet:
    """A set of vertices 0..size-1 together with their token names."""

    size: int
    names: tuple[str, ...]

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("alphabet size must be non-negative")
        if len(self.names) != self.size:
            raise ValueError("need exactly one name per symbol id")
        if len(set(self.names)) != self.size:
            raise ValueError("symbol names must be distinct")
        if any(not name for name in self.names):
            raise TrailParseError("empty token")

    def id_of(self, token: str) -> int:
        try:
            return self.names.index(token)
        except ValueError:
            raise TrailParseError(f"unknown token {token!r}") from None

    def name_of(self, symbol: int) -> str:
        return self.names[symbol]

    def render(self, trail: Trail, tokens: bool = False) -> str:
        sep = " " if tokens else ""
        return sep.join(self.names[s] for s in trail)


def chars_alphabet(size: int) -> Alphabet:
    """Canonical single-character alphabet: 0-9, then a-z, then A-Z."""
    if size > len(DEFAULT_CHARS):
        raise ValueError(f"chars mode supports at most {len(DEFAULT_CHARS)} symbols")
    return Alphabet(size, tuple(DEFAULT_CHARS[:size]))


def tokens_alphabet(size: int) -> Alphabet:
    """Canonical numeric-token alphabet: "0", "1", ..."""
    return Alphabet(size, tuple(str(i) for i in range(size)))


def parse_trail(
    text: str, tokens: bool = False, alphabet: Alphabet | None = None
) -> tuple[Trail, Alphabet]:
    """Parse text into a trail, inferring the alphabet unless one is given.

    In chars mode every character is one symbol; in tokens mode symbols are
    whitespace-separated.  Inferred ids are assigned in first-appearance
    order.  Under a fixed alphabet every token must already be known.
    """
    pieces = text.split() if tokens else list(text)
    if not tokens and any(p.isspace() for p in pieces):
        raise TrailParseError("whitespace is not a symbol in chars mode")
    if alphabet is not None:
        return tuple(alphabet.id_of(p) for p in pieces), alphabet
    ids: dict[str, int] = {}
    symbols = []
    for piece in pieces:
        if not piece:
            raise TrailParseError("empty token")
        symbols.append(ids.setdefault(piece, len(ids)))
    return tuple(symbols), Alphabet(len(ids), tuple(ids))


def validate_trail(trail: Trail, size: int) -> None:
    """Raise unless every symbol id fits the alphabet."""
    for s in trail:
        if not 0 <= s < size:
            raise ValueError(f"symbol {s} out of range for alphabet size {size}")


@dataclass(frozen=True)
class Multigraph:
    """Directed multigraph as an arc multiset over ordered vertex pairs.

    Self-loops and parallel arcs are permitted; vertices with no incident
    arcs simply stay inert.  The arc mapping is a read-only copy of the one
    passed in, so a graph can be hashed and never changes.
    """

    vertex_count: int
    arc_multiplicity: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "arc_multiplicity", MappingProxyType(dict(self.arc_multiplicity)))
        for (u, v), count in self.arc_multiplicity.items():
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"arc ({u}, {v}) has endpoint outside 0..{self.vertex_count - 1}")
            if count < 1:
                raise ValueError("arc multiplicities must be positive")

    def __hash__(self) -> int:
        return hash((self.vertex_count, frozenset(self.arc_multiplicity.items())))

    @property
    def arc_count(self) -> int:
        return sum(self.arc_multiplicity.values())

    def reversed(self) -> "Multigraph":
        flipped = {(v, u): k for (u, v), k in self.arc_multiplicity.items()}
        return Multigraph(self.vertex_count, flipped)


def induced_graph(trail: Trail, size: int) -> Multigraph:
    """Multigraph whose arcs are the trail's consecutive symbol pairs."""
    if not trail:
        raise ValueError("cannot induce a graph from the empty trail")
    validate_trail(trail, size)
    arcs: dict[tuple[int, int], int] = {}
    for u, v in zip(trail, trail[1:]):
        arcs[(u, v)] = arcs.get((u, v), 0) + 1
    return Multigraph(size, arcs)


def reverse_trail(trail: Trail) -> Trail:
    """Reverse the symbol sequence; the induced graph gets every arc flipped."""
    return trail[::-1]
