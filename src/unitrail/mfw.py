"""Minimal forbidden words of the unique-trail language.

The accepted language is factorial (every factor of an accepted trail is
accepted), so it is fully determined by its minimal forbidden words: the
rejected strings all of whose proper factors are accepted.  Two generators
are provided and must agree:

* ``constructive_mfw`` builds words ``a x b z a y b`` in one loop over
  the ordered anchor pairs (a, b).  ``a == b`` gives the one-anchor shape
  ``a x a y a``, read as ``b`` being the middle ``a`` and ``z`` empty.
  The filler segments avoid the anchors, are pairwise vertex disjoint,
  are themselves accepted, and x, y are not both empty.  Its cost is
  one filler pool per anchor pair that has room for a filler, plus the
  fillers that fit the length bound: each filler loop walks the pool in
  length order and stops at the first filler too long.  At m=300, L=4
  that is 89,700 automaton runs and 269,400 (x, y) pairs for 179,400
  words; every (x, y) pair of each pool would be 27 million.
* ``brute_mfw`` runs the automaton on every one-symbol extension of the
  accepted words, walked level by level, so its work follows the sparse
  accepted language rather than all m^L strings: 450 runs at m=2, L=14,
  where running every string and both its maximal factors took 65,496.

Both grow their accepted words with :func:`_extend`.  The walk is exact
because :func:`run` stops at the first rejection: every prefix of an
accepted word is accepted, so extending all accepted words of length n-1
yields all accepted words of length n.

Over two symbols the whole set collapses to four one-parameter families:
``0 0 1..1 0``, ``0 1..1 0 0`` and the 0/1 swaps.
"""

from collections.abc import Iterable

from .automaton import run
from .core import Trail


def _extend(level: list[Trail], symbols: Iterable[int], size: int) -> tuple[list[Trail], list[Trail]]:
    """Split the one-symbol extensions of ``level`` into accepted and rejected.

    Each extension is run from scratch.  It is no longer than the length
    bound, so a run costs about what copying an automaton state would, and
    the walk keeps neither a state snapshot nor an undo log.
    """
    accepted: list[Trail] = []
    rejected: list[Trail] = []
    for word in level:
        for symbol in symbols:
            grown = word + (symbol,)
            (accepted if run(grown, size).first_rejection is None else rejected).append(grown)
    return accepted, rejected


def _accepted_words(symbols: list[int], max_len: int, size: int) -> list[Trail]:
    """Accepted strings over the given symbols, lengths 0..max_len, in length order."""
    level: list[Trail] = [()]
    words = list(level)
    for _ in range(max_len):
        level, _ = _extend(level, symbols, size)
        words += level
    return words


def constructive_mfw(size: int, max_len: int) -> list[Trail]:
    """Render ``a x b z a y b`` for every ordered anchor pair (a, b) up to
    max_len, ``a == b`` giving ``a x a y a``; deduplicated, sorted.  Below
    length 4 there is no word to find, and no pair's fillers are built."""
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    if max_len < 4:  # no minimal forbidden word is shorter than 0 0 1 0
        return []
    found: set[Trail] = set()
    for a in range(size):
        for b in range(size):
            budget = max_len - 3 - (a != b)
            if budget < 1:  # x and y may not both be empty
                continue
            pool = _accepted_words([s for s in range(size) if s not in (a, b)], budget, size)
            # the pool is in length order, so the first filler too long ends its loop
            for x in pool:
                for y in pool:
                    if len(x) + len(y) > budget:
                        break
                    if (not x and not y) or set(x) & set(y):
                        continue
                    room, used = budget - len(x) - len(y), set(x) | set(y)
                    for z in pool if a != b else [()]:
                        if len(z) > room:
                            break
                        if not used.isdisjoint(z):
                            continue
                        middle = (a,) if a == b else (b,) + z + (a,)
                        word = (a,) + x + middle + y + (b,)
                        # Filler disjointness forces distinct followers after the two
                        # leading anchor occurrences, i.e. shapes are proper by build.
                        assert word[1] != word[len(x) + len(middle) + 1], f"improper rendering {word}"
                        found.add(word)
    return sorted(found)


def brute_mfw(size: int, max_len: int) -> list[Trail]:
    """Rejected strings whose two maximal proper factors are accepted.

    Walks the accepted words level by level from the empty word.  A
    rejected extension ``u + (s,)`` of an accepted u is minimal exactly
    when its suffix ``u[1:] + (s,)`` is among the accepted words of u's
    length; because the accepted language is factorial, those two maximal
    factors cover all shorter factors.  Every minimal forbidden word is
    reached, since its prefix one symbol shorter is accepted and so lies
    on the walk.  Gives the same set as running every string up to
    max_len, with :func:`run` called once per one-symbol extension of an
    accepted word.
    """
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    words: list[Trail] = []
    level: list[Trail] = [()]
    for _ in range(max_len):
        accepted = set(level)
        level, rejected = _extend(level, range(size), size)
        words += (word for word in rejected if word[1:] in accepted)
    return sorted(words)
