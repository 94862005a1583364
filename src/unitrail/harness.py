"""Exhaustive cross-validation of every classifier in the package.

For each string over a small alphabet the following must agree:

* the streaming automaton accepts,
* the enumeration oracle finds exactly one Eulerian trail,
* the direct proper-transposition scan finds nothing,
* the amended grammar NFA rejects.

The strict grammar variant is additionally audited one way: whatever it
accepts must really be non-unique.  Strings it misses are recorded as
completeness gaps rather than failures, so the delta stays visible.

The sweep walks the trie of strings depth-first.  The grammars' verdicts
are functions of one live set that holds both variants' states, so each
string's live set is one step off its parent's: the amended grammar
steps it, and the strict verdict is read off the same live set.  The
automaton and the scan run from scratch on every string, so each stays
independent of the others.  The oracle runs once per relabelling class:
renaming the symbols maps the trails of a word's graph one to one onto
those of the renamed word's, start to start, so every word whose
first-occurrence pattern (each symbol replaced by the index where it
first occurs) is the same gets the same verdict.  That pattern is read
off the trie like the live set: a string's pattern is its parent's plus
one index.

Each trie node's strings, its ``size`` children, are checked as one
batch: every classifier is mapped over all of them, one call per
string, between two clock reads, and the report's timings are the sums
of those per-node batches.  Each slot holds:

* ``automaton``: one :func:`~unitrail.automaton.run` per string;
* ``oracle``: one memo read per distinct symbol of the prefix and one
  for the fresh symbols, if any (every string ending in a fresh symbol
  has the same pattern), the oracle call on a miss, and the list of the
  children's patterns, which holds only those few tuples;
* ``transposition-scan``: one scan per string;
* ``grammar-amended``: copying the parent's live set for every child
  but the last, which takes the parent's own, since nothing reads it
  afterwards (a factored :class:`~unitrail.grammar.LiveSet`, so four
  small dict and set copies each), one step per string, and the read of
  the strict verdict off each stepped live set, which has no slot of
  its own since the step already computed it.

The node's verdict lists are then compared as whole lists, and the
strict list against the scan list; a node is walked string by string
only when a comparison fails.
"""

from itertools import repeat
from time import perf_counter

from .automaton import run
from .grammar import LiveSet, build_grammar_nfa, nfa_accepts
from .oracle import is_unique_trail
from .transposition import has_proper_transposition

CLASSIFIERS = ("automaton", "oracle", "transposition-scan", "grammar-amended")


class CrosscheckReport:
    """What one sweep found: the strings checked, every disagreement, the
    strict grammar's unsound words and its completeness gaps, and the
    seconds spent in each classifier."""

    def __init__(self):
        self.checked = 0
        self.disagreements: list = []
        self.strict_unsound: list = []
        self.strict_gaps: list = []
        self.timings: dict[str, float] = {}


def cross_validate(size: int, max_len: int) -> CrosscheckReport:
    """Check all strings of length 1..max_len over ``size`` symbols; a size
    below 1 is refused by the grammar's build, the first thing it does."""
    amended = build_grammar_nfa(size, "amended")
    report = CrosscheckReport()
    spent_automaton = spent_oracle = spent_scan = spent_amended = 0.0
    # first-occurrence pattern -> whether the first word with that
    # pattern is not its graph's unique trail, by the oracle
    verdicts: dict[tuple, bool] = {}

    # (prefix, its first-occurrence pattern, its grammar live set), depth
    # first: at most size entries per length, so no level of the universe
    # is held at once
    stack = [((), (), LiveSet())] if max_len >= 1 else []
    # each string is its parent plus one of these; built once, and only
    # for a sweep that checks some string
    singles = [(symbol,) for symbol in range(size)] if stack else []
    while stack:
        prefix, prefix_pattern, prefix_live = stack.pop()
        report.checked += size
        words = [prefix + single for single in singles]
        t0 = perf_counter()
        rejected_each = [run(word, size).first_rejection is not None for word in words]
        t1 = perf_counter()
        # a child's pattern is the parent's plus where its last symbol first
        # occurs: each symbol of the prefix gives its own, and every fresh
        # symbol len(prefix); the memo keeps the oracle's verdict negated
        fresh_pattern = prefix_pattern + (len(prefix),)
        firsts = dict(zip(prefix, prefix_pattern))
        nonunique = None  # no child ends in a fresh symbol
        if len(firsts) < size:
            nonunique = verdicts.get(fresh_pattern)
            if nonunique is None:
                fresh = next(symbol for symbol in range(size) if symbol not in firsts)
                nonunique = verdicts[fresh_pattern] = not is_unique_trail(words[fresh])
        nonunique_each = [nonunique] * size
        patterns = [fresh_pattern] * size
        for symbol, first in firsts.items():
            pattern = patterns[symbol] = prefix_pattern + (first,)
            nonunique = verdicts.get(pattern)
            if nonunique is None:
                nonunique = verdicts[pattern] = not is_unique_trail(words[symbol])
            nonunique_each[symbol] = nonunique
        t2 = perf_counter()
        swappable_each = list(map(has_proper_transposition, words))
        t3 = perf_counter()
        # nothing reads the parent's live set after this, so the last child
        # steps it in place
        lives = [prefix_live.copy() for _ in range(size - 1)]
        lives.append(prefix_live)
        by_amended_each = list(map(nfa_accepts, repeat(amended), singles, lives))
        by_strict_each = [live.strict for live in lives]
        t4 = perf_counter()
        spent_automaton += t1 - t0
        spent_oracle += t2 - t1
        spent_scan += t3 - t2
        spent_amended += t4 - t3
        # every list holds "not unique": a node whose lists all agree is
        # done; only a node with a mismatch is walked word by word
        if not (rejected_each == nonunique_each == swappable_each == by_amended_each
                and by_strict_each == swappable_each):
            for word, rejected, nonunique, swappable, by_amended, by_strict in zip(
                words, rejected_each, nonunique_each, swappable_each, by_amended_each, by_strict_each
            ):
                if not (rejected == nonunique == swappable == by_amended):
                    accepted = (not rejected, not nonunique, not swappable, not by_amended)
                    report.disagreements.append((word, dict(zip(CLASSIFIERS, accepted))))
                if by_strict != swappable:
                    (report.strict_unsound if by_strict else report.strict_gaps).append(word)
        if len(prefix) + 1 < max_len:
            stack.extend(zip(words, patterns, lives))
    # back to the order of a length-major sweep, which the CLI prints
    report.disagreements.sort(key=lambda found: (len(found[0]), found[0]))
    report.strict_unsound.sort(key=lambda word: (len(word), word))
    report.strict_gaps.sort(key=lambda word: (len(word), word))
    report.timings = dict(zip(CLASSIFIERS, (spent_automaton, spent_oracle, spent_scan, spent_amended)))
    return report
