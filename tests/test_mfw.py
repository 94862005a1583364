import itertools
import time

import pytest

from unitrail.automaton import run
from unitrail.mfw import _accepted_words, brute_mfw, constructive_mfw
from unitrail.transposition import find_proper_site, segments

from conftest import all_strings, matches_binary_mfw

BINARY_LEN4 = [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1)]


def test_binary_words_up_to_length_4():
    assert constructive_mfw(2, 4) == sorted(BINARY_LEN4)
    assert brute_mfw(2, 4) == sorted(BINARY_LEN4)


def test_binary_words_up_to_length_5():
    longer = [(0, 0, 1, 1, 0), (0, 1, 1, 0, 0), (1, 1, 0, 0, 1), (1, 0, 0, 1, 1)]
    assert constructive_mfw(2, 5) == sorted(BINARY_LEN4 + longer)


def test_no_forbidden_words_below_length_4():
    assert brute_mfw(2, 3) == []
    assert constructive_mfw(2, 3) == []


def test_constructive_mfw_does_no_per_pair_work_when_no_word_fits():
    # below length 4 no word fits, and a pair whose bound leaves no room
    # for x or y builds no filler pool: at the pairs' former O(m) symbol
    # list and pool each, m=300 took seconds
    start = time.process_time()
    assert constructive_mfw(300, 3) == []
    assert time.process_time() - start < 0.05


def test_constructive_mfw_cost_follows_its_words():
    # each filler loop stops at the first filler too long for what is
    # left of the budget; walking every (x, y) pair of each whole pool
    # took 3.7 s of CPU on a 2-CPU x86_64 container
    start = time.process_time()
    assert len(constructive_mfw(300, 4)) == 179_400
    assert time.process_time() - start < 1.5


def test_single_symbol_alphabet_has_none():
    assert constructive_mfw(1, 8) == []
    assert brute_mfw(1, 8) == []


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        constructive_mfw(0, 4)
    with pytest.raises(ValueError):
        brute_mfw(0, 4)


def test_binary_has_four_words_per_length():
    words = brute_mfw(2, 9)
    for length in range(4, 10):
        assert sum(len(w) == length for w in words) == 4


def scanned_mfw(size, max_len):
    """Every string up to max_len, kept when rejected with both maximal factors accepted."""
    return sorted(
        word
        for word in all_strings(size, max_len)
        if not run(word, size).accepted
        and run(word[1:], size).accepted
        and run(word[:-1], size).accepted
    )


@pytest.mark.parametrize("size, max_len", [(1, 8), (2, 12), (3, 8), (4, 6), (2, 0), (4, 0)])
def test_walk_matches_full_scan(size, max_len):
    assert brute_mfw(size, max_len) == scanned_mfw(size, max_len)


@pytest.mark.parametrize("symbols, max_len", [([0, 1], 9), ([1, 2, 3], 6), ([0, 2], 0)])
def test_accepted_pool_matches_full_scan(symbols, max_len):
    # constructive_mfw's filler pool over the symbols other than the anchors
    scanned = [
        word
        for length in range(max_len + 1)
        for word in itertools.product(symbols, repeat=length)
        if run(word, 4).accepted
    ]
    assert _accepted_words(symbols, max_len, 4) == scanned


def test_generators_agree():
    # (5, 7) is the first universe with words whose x, z and y are all
    # nonempty: below m=5 a two-anchor word has at most two other symbols
    for size, max_len in ((2, 12), (3, 9), (4, 7), (3, 11), (4, 8), (5, 7)):
        assert constructive_mfw(size, max_len) == brute_mfw(size, max_len)


def test_witness_of_a_forbidden_word_spans_the_whole_word():
    # a forbidden word is its anchor shape and nothing more, so its witness
    # leaves nothing before the first anchor or after the last, and has one
    # anchor exactly when the word starts and ends on the same symbol
    for size, max_len in ((2, 12), (3, 9), (4, 7)):
        for word in constructive_mfw(size, max_len):
            site = find_proper_site(word)
            parts = segments(word, site)
            assert parts["u"] == parts["v"] == (), (word, site)
            assert (site.p == site.j) == (word[0] == word[-1]), (word, site)


def test_walk_scales_with_the_accepted_language():
    # 265,719 strings up to length 11 over 3 symbols, 2,595 of them accepted
    begin = time.perf_counter()
    words = brute_mfw(3, 11)
    elapsed = time.perf_counter() - begin
    assert len(words) == 816
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_constructive_words_are_minimal():
    # rejected, but every contiguous proper factor is accepted, all of
    # them, not just the two maximal ones
    for size, max_len in ((3, 9), (4, 7)):
        for word in constructive_mfw(size, max_len):
            assert not run(word, size).accepted
            n = len(word)
            for start in range(n):
                for stop in range(start + 1, n + 1):
                    if stop - start < n:
                        assert run(word[start:stop], size).accepted, (word, start, stop)


def test_every_rejected_string_contains_a_forbidden_factor():
    words = set(constructive_mfw(3, 10))
    for word in all_strings(3, 10):
        if run(word, 3).accepted:
            continue
        n = len(word)
        assert any(
            word[start:stop] in words
            for start in range(n)
            for stop in range(start + 1, n + 1)
        ), word


def test_pattern_examples():
    assert matches_binary_mfw((0, 0, 1, 0))
    assert not matches_binary_mfw((0, 1, 1, 0))
    assert matches_binary_mfw((1, 0, 0, 1, 1))
    assert not matches_binary_mfw((0, 1, 0))
    assert not matches_binary_mfw(())


def test_pattern_rejects_non_binary_symbols():
    with pytest.raises(ValueError):
        matches_binary_mfw((0, 2, 0))


def test_pattern_agrees_with_brute_force():
    words = set(brute_mfw(2, 9))
    for word in all_strings(2, 9):
        assert matches_binary_mfw(word) == (word in words), word
