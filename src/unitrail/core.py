"""Symbols, alphabets and trails.

A trail is a plain tuple of dense integer vertex ids.  Token names exist
only at the I/O boundary, where each decision has one rule: parsing
rejects a lone surrogate (an undecodable byte as the CLI reads it) and
takes every character :meth:`str.split` splits on as a separator,
:func:`render` writes ids in a sequence of names, and :func:`id_names`
names the ids of a size for every command that prints them; everything
downstream works on ids 0..m-1.  An alphabet is the tuple of its names,
the name of id ``i`` at index ``i``, so its size is its length.  The
graph a trail induces needs no type of its own: its arcs are the trail's
consecutive pairs, and the oracle counts them from the trail.  Each
classifier checks the symbols of the trail it is given against its own
alphabet size, so nothing here validates ids.  The two states a stream
is fed into, the automaton's and the grammar's live set, are the package's
mutable values; both compare and print through :class:`Slotted`.
"""

import re

Trail = tuple[int, ...]

# The single-character names of the first ids, in id order.
DEFAULT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# The characters tokens mode splits at once.  A split's token strings cost
# about 80 bytes each beyond the text, so a long line is split a slice at a
# time; a slice of 8 KiB still hands some thousand tokens to each split.
SLICE_CHARS = 8192

# On a str pattern \s matches exactly the characters str.isspace accepts,
# which are the ones str.split splits on; the search runs in C, so a token
# longer than a slice costs no Python step per character.
_WHITESPACE = re.compile(r"\s")


class TrailParseError(ValueError):
    """Input text could not be parsed into a trail."""


class Slotted:
    """A mutable value held in its class's ``__slots__``.

    Two instances of one class compare equal when their slot values do,
    in slot order, and an instance prints as ``Name(slot=value, ...)``.
    Defining ``__eq__`` leaves ``__hash__`` unset, so instances are
    unhashable, as mutable values should be.  The base has no slots of
    its own, so a subclass that lists its slots has no ``__dict__`` and
    takes no other attribute.
    """

    __slots__ = ()

    def _slot_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._slot_values() == other._slot_values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


def render(names: tuple[str, ...] | str | range, trail: Trail, tokens: bool = False) -> str:
    """The trail in the given names, space-separated in tokens mode; each
    name prints as its ``str``, so ``range(m)`` names every id by its
    decimal digits."""
    sep = " " if tokens else ""
    return sep.join([str(names[s]) for s in trail])


def id_names(size: int) -> tuple[str | range, bool]:
    """The names printed for the ids 0..size-1, and whether they print as
    tokens (for :func:`render`): up to 62 ids, one character each, 0-9,
    then a-z, then A-Z, as the string of those characters; beyond that
    ``range(size)``, every id as its decimal digits.  Neither builds a
    name per id, so only the ids :func:`render` prints are named."""
    if size < 0:
        raise ValueError("alphabet size must be non-negative")
    if size <= len(DEFAULT_CHARS):
        return DEFAULT_CHARS[:size], False
    return range(size), True


def _slices(text: str):
    """The text in pieces of about ``SLICE_CHARS`` characters: each piece
    ends at the first whitespace character at or after ``SLICE_CHARS``
    characters from its start, or at the end of the text, so that no token
    straddles two."""
    start = 0
    while start < len(text):
        found = _WHITESPACE.search(text, start + SLICE_CHARS)
        cut = found.start() if found else len(text)
        yield text[start:cut]
        start = cut


def parse_trail(text: str, tokens: bool = False) -> tuple[Trail, tuple[str, ...]]:
    """Parse text into a trail and the names of its symbols.

    A lone surrogate, which is how an undecodable byte reads under
    ``surrogateescape``, raises :class:`TrailParseError`
    (``undecodable bytes``) before any other check, in either mode; a text
    that is ASCII, as :meth:`str.isascii` tells in O(1), is not looked at.
    In chars mode every character is one symbol, and whitespace anywhere
    in the text raises :class:`TrailParseError`; in tokens mode symbols are
    whitespace-separated.  Ids are assigned in first-appearance order, and
    ``names[i]`` is the token of id ``i``.

    Tokens mode splits the text one slice of about ``SLICE_CHARS``
    characters at a time, each cut at a character :meth:`str.split` splits
    on, and a slice's token strings are freed before the next slice is
    split; the tokens are those of one split of the whole text.  So beyond
    the text and the names, a long line costs about 17 bytes a token at the
    peak, whichever whitespace separates its tokens: its id list and its
    trail, on a 64-bit build.
    """
    # a lone surrogate is the one character UTF-8 cannot encode
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError:
            raise TrailParseError("undecodable bytes") from None
    if tokens:
        parts = map(str.split, _slices(text))
    else:
        # str.split splits on exactly the characters str.isspace accepts,
        # so one split in C finds any whitespace; the empty text has none
        if text and text.split(maxsplit=1) != [text]:
            raise TrailParseError("whitespace is not a symbol in chars mode")
        parts = (text,)
    ids: dict[str, int] = {}
    # one comprehension over the parts: a part's list of token strings is
    # dropped as soon as the next part is split
    trail = tuple([ids.setdefault(piece, len(ids)) for part in parts for piece in part])
    return trail, tuple(ids)
