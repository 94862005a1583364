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
batch: every classifier runs over all of them, one call per string,
between two clock reads, and the report's timings are the sums of those
per-node batches.  The ``grammar-amended`` timing includes copying the
parent's live set for each child: a factored
:class:`~unitrail.grammar.LiveSet`, so four small dict and set copies.
The ``grammar-strict`` timing is only the read of its verdict; it keeps
its name, one of :data:`CLASSIFIERS`.
"""

from time import perf_counter

from .automaton import run
from .grammar import LiveSet, build_grammar_nfa, nfa_accepts
from .oracle import is_unique_trail
from .transposition import has_proper_transposition

CLASSIFIERS = ("automaton", "oracle", "transposition-scan", "grammar-amended", "grammar-strict")


class CrosscheckReport:
    """What one sweep found: the strings checked, every disagreement, the
    strict grammar's unsound words and its completeness gaps, and the
    seconds spent in each classifier."""

    def __init__(self, alphabet_size: int, max_len: int, checked: int = 0):
        self.alphabet_size = alphabet_size
        self.max_len = max_len
        self.checked = checked
        self.disagreements: list = []
        self.strict_unsound: list = []
        self.strict_gaps: list = []
        self.timings: dict[str, float] = {}


def cross_validate(size: int, max_len: int) -> CrosscheckReport:
    """Check all strings of length 1..max_len over ``size`` symbols."""
    if size < 1:
        raise ValueError("alphabet size must be at least 1")
    amended = build_grammar_nfa(size, "amended")
    report = CrosscheckReport(size, max_len)
    # each string is its parent plus one of these; built once per sweep
    singles = [(symbol,) for symbol in range(size)]
    spent_automaton = spent_oracle = spent_scan = spent_amended = spent_strict = 0.0
    # first-occurrence pattern -> the oracle's verdict on the first word
    # with that pattern
    verdicts: dict[tuple, bool] = {}

    # (prefix, its first-occurrence pattern, its grammar live set), depth
    # first: at most size entries per length, so no level of the universe
    # is held at once
    stack = [((), (), LiveSet())] if max_len >= 1 else []
    while stack:
        prefix, prefix_pattern, prefix_live = stack.pop()
        report.checked += size
        words = [prefix + single for single in singles]
        t0 = perf_counter()
        accepted_each = [run(word, size).accepted for word in words]
        t1 = perf_counter()
        # tuple(map(word.index, word)) in O(n): the parent's pattern plus
        # where symbol first occurs, len(prefix) if it is fresh
        patterns = [prefix_pattern + (word.index(symbol),) for symbol, word in enumerate(words)]
        for pattern, word in zip(patterns, words):
            if pattern not in verdicts:
                verdicts[pattern] = is_unique_trail(word)
        unique_each = [verdicts[pattern] for pattern in patterns]
        t2 = perf_counter()
        swappable_each = [has_proper_transposition(word) for word in words]
        t3 = perf_counter()
        lives = [prefix_live.copy() for _ in words]
        by_amended_each = [nfa_accepts(amended, single, live) for single, live in zip(singles, lives)]
        t4 = perf_counter()
        by_strict_each = [live.strict for live in lives]
        t5 = perf_counter()
        spent_automaton += t1 - t0
        spent_oracle += t2 - t1
        spent_scan += t3 - t2
        spent_amended += t4 - t3
        spent_strict += t5 - t4
        for word, accepted, unique, swappable, by_amended, by_strict in zip(
            words, accepted_each, unique_each, swappable_each, by_amended_each, by_strict_each
        ):
            if not (accepted == unique == (not swappable) == (not by_amended)):
                report.disagreements.append(
                    (word, {"automaton": accepted, "oracle": unique,
                            "transposition-scan": not swappable, "grammar-amended": not by_amended})
                )
            if by_strict != swappable:
                (report.strict_unsound if by_strict else report.strict_gaps).append(word)
        if len(prefix) + 1 < max_len:
            stack.extend(zip(words, patterns, lives))
    # back to the order of a length-major sweep, which the CLI prints
    report.disagreements.sort(key=lambda found: (len(found[0]), found[0]))
    report.strict_unsound.sort(key=lambda word: (len(word), word))
    report.strict_gaps.sort(key=lambda word: (len(word), word))
    report.timings = dict(zip(CLASSIFIERS, (spent_automaton, spent_oracle, spent_scan, spent_amended, spent_strict)))
    return report
