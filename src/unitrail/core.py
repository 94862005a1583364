"""Symbols, trails, and trail-induced multigraphs.

A trail is a plain tuple of dense integer vertex ids.  Token names exist
only at the I/O boundary (parsing and rendering); everything downstream
works on ids 0..m-1.
"""

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

Trail = tuple[int, ...]

# Default single-character names for canonically built alphabets.
DEFAULT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TrailParseError(ValueError):
    """Input text could not be parsed into a trail."""


class _AlphabetFields(NamedTuple):
    size: int
    names: tuple[str, ...]


class Alphabet(_AlphabetFields):
    """A set of vertices 0..size-1 together with their token names."""

    __slots__ = ()

    def __new__(cls, size: int, names: tuple[str, ...]):
        if size < 0:
            raise ValueError("alphabet size must be non-negative")
        if len(names) != size:
            raise ValueError("need exactly one name per symbol id")
        if len(set(names)) != size:
            raise ValueError("symbol names must be distinct")
        if any(not name for name in names):
            raise TrailParseError("empty token")
        return tuple.__new__(cls, (size, names))

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make; keep it on the checked path
        return cls(*fields)

    def render(self, trail: Trail, tokens: bool = False) -> str:
        sep = " " if tokens else ""
        return sep.join(self.names[s] for s in trail)


def chars_alphabet(size: int) -> Alphabet:
    """Canonical single-character alphabet: 0-9, then a-z, then A-Z."""
    if size > len(DEFAULT_CHARS):
        raise ValueError(f"chars mode supports at most {len(DEFAULT_CHARS)} symbols")
    return Alphabet(size, tuple(DEFAULT_CHARS[:size]))


def parse_trail(text: str, tokens: bool = False) -> tuple[Trail, Alphabet]:
    """Parse text into a trail and the alphabet it uses.

    In chars mode every character is one symbol; in tokens mode symbols are
    whitespace-separated.  Ids are assigned in first-appearance order.
    """
    pieces = text.split() if tokens else list(text)
    if not tokens and any(p.isspace() for p in pieces):
        raise TrailParseError("whitespace is not a symbol in chars mode")
    ids: dict[str, int] = {}
    trail = tuple([ids.setdefault(piece, len(ids)) for piece in pieces])
    return trail, Alphabet(len(ids), tuple(ids))


def validate_trail(trail: Trail, size: int) -> None:
    """Raise unless every symbol id fits the alphabet."""
    for s in trail:
        if not 0 <= s < size:
            raise ValueError(f"symbol {s} out of range for alphabet size {size}")


class _MultigraphFields(NamedTuple):
    vertex_count: int
    arc_multiplicity: Mapping[tuple[int, int], int]


class Multigraph(_MultigraphFields):
    """Directed multigraph as an arc multiset over ordered vertex pairs.

    Self-loops and parallel arcs are permitted; vertices with no incident
    arcs simply stay inert.  The arc mapping is a read-only copy of the one
    passed in, so a graph can be hashed and never changes.
    """

    __slots__ = ()

    def __new__(cls, vertex_count: int, arc_multiplicity: Mapping[tuple[int, int], int] = MappingProxyType({})):
        arcs = MappingProxyType(dict(arc_multiplicity))
        for (u, v), count in arcs.items():
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"arc ({u}, {v}) has endpoint outside 0..{vertex_count - 1}")
            if count < 1:
                raise ValueError("arc multiplicities must be positive")
        return tuple.__new__(cls, (vertex_count, arcs))

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make; keep it on the checked path
        return cls(*fields)

    def __hash__(self) -> int:
        return hash((self.vertex_count, frozenset(self.arc_multiplicity.items())))


def induced_graph(trail: Trail, size: int) -> Multigraph:
    """Multigraph whose arcs are the trail's consecutive symbol pairs."""
    if not trail:
        raise ValueError("cannot induce a graph from the empty trail")
    validate_trail(trail, size)
    arcs: dict[tuple[int, int], int] = {}
    for u, v in zip(trail, trail[1:]):
        arcs[(u, v)] = arcs.get((u, v), 0) + 1
    return Multigraph(size, arcs)
