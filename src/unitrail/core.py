"""Symbols, alphabets and trails.

A trail is a plain tuple of dense integer vertex ids.  Token names exist
only at the I/O boundary (parsing and rendering); everything downstream
works on ids 0..m-1.  The graph a trail induces needs no type of its
own: its arcs are the trail's consecutive pairs, and the oracle counts
them from the trail.  Each classifier checks the symbols of the trail it
is given against its own alphabet size, so nothing here validates ids.
"""

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
        if not all(names):
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

    In chars mode every character is one symbol, and whitespace anywhere
    in the text raises :class:`TrailParseError`; in tokens mode symbols are
    whitespace-separated.  Ids are assigned in first-appearance order.
    """
    if tokens:
        pieces = text.split()
    else:
        # str.split splits on exactly the characters str.isspace accepts,
        # so one split in C finds any whitespace; the empty text has none
        if text and text.split(maxsplit=1) != [text]:
            raise TrailParseError("whitespace is not a symbol in chars mode")
        pieces = text
    ids: dict[str, int] = {}
    trail = tuple([ids.setdefault(piece, len(ids)) for piece in pieces])
    return trail, Alphabet(len(ids), tuple(ids))
