import hashlib

import pytest

from unitrail.grammar import (
    all_states,
    build_grammar_nfa,
    export_transitions,
    iter_live_sets,
    nfa_accepts,
    successors,
)
from unitrail.transposition import has_proper_transposition

from conftest import all_strings


@pytest.mark.parametrize("size,expected", [(1, 6), (2, 18), (3, 44)])
def test_state_space_size(size, expected):
    # 2 + 2m + m^2 + m^3: start/accept, anchor+await, branch, span
    assert expected == 2 + 2 * size + size**2 + size**3
    for mode in ("strict", "amended"):
        nfa = build_grammar_nfa(size, mode)
        states = list(all_states(nfa))
        space = set(states)
        assert len(states) == len(space) == expected
        # the rule never leaves the enumerated state space
        for state in states:
            for symbol in range(size):
                assert successors(nfa, state, symbol) <= space


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grammar_nfa(0)
    with pytest.raises(ValueError):
        build_grammar_nfa(2, "loose")


def test_accepts_0010():
    nfa = build_grammar_nfa(2, "strict")
    assert nfa_accepts(nfa, (0, 0, 1, 0))


def test_rejects_empty_string():
    nfa = build_grammar_nfa(2, "strict")
    assert not nfa_accepts(nfa, ())


def test_amended_closes_the_01020_gap():
    strict = build_grammar_nfa(3, "strict")
    amended = build_grammar_nfa(3, "amended")
    word = (0, 1, 0, 2, 0)
    assert not nfa_accepts(strict, word)
    assert nfa_accepts(amended, word)
    assert has_proper_transposition(word)


def test_symbols_must_fit_the_alphabet():
    nfa = build_grammar_nfa(2, "strict")
    with pytest.raises(ValueError):
        nfa_accepts(nfa, (0, 2))


def test_strict_sound_amended_exact_small_scale():
    for size, max_len in ((2, 8), (3, 6)):
        strict = build_grammar_nfa(size, "strict")
        amended = build_grammar_nfa(size, "amended")
        for word in all_strings(size, max_len):
            swappable = has_proper_transposition(word)
            if nfa_accepts(strict, word):
                assert swappable, word
            assert nfa_accepts(amended, word) == swappable, word


def test_single_symbol_grammars_generate_nothing():
    # every 0^k is a unique trail, so neither variant may accept
    for mode in ("strict", "amended"):
        nfa = build_grammar_nfa(1, mode)
        for k in range(9):
            assert not nfa_accepts(nfa, (0,) * k)


def test_strict_acceptance_implies_amended_acceptance():
    strict = build_grammar_nfa(2, "strict")
    amended = build_grammar_nfa(2, "amended")
    for word in all_strings(2, 8):
        if nfa_accepts(strict, word):
            assert nfa_accepts(amended, word)


def test_live_sets_stay_within_the_state_space():
    nfa = build_grammar_nfa(3, "amended")
    states = set(all_states(nfa))
    for group in iter_live_sets(nfa, (0, 1, 0, 2, 0, 1, 2)):
        assert len(group) <= len(states) == 44
        assert group <= states


def test_export_lists_every_transition_once():
    nfa = build_grammar_nfa(1, "strict")
    lines = export_transitions(nfa).splitlines()
    assert lines == sorted(lines)
    assert len(lines) == len(set(lines))
    # m=1: start keeps both options, the one-symbol loop grammar shape
    assert "start 0 start" in lines
    assert "start 0 anchor(0)" in lines
    assert "accept 0 accept" in lines
    # branch(0,0) moves only on a symbol other than 0, so await(0) is
    # unreachable at m=1; the export lists it all the same
    assert "await(0) 0 await(0)" in lines
    expected_total = sum(
        len(successors(nfa, state, symbol)) for state in all_states(nfa) for symbol in range(nfa.size)
    )
    assert len(lines) == expected_total


@pytest.mark.parametrize("size,strict,amended", [(1, 9, 9), (2, 56, 58), (3, 219, 225), (4, 624, 636)])
def test_export_line_counts_are_pinned(size, strict, amended):
    # the counts the table-built grammar had; the rule must reproduce them
    for mode, expected in (("strict", strict), ("amended", amended)):
        assert len(export_transitions(build_grammar_nfa(size, mode)).splitlines()) == expected


@pytest.mark.parametrize("mode,digest", [
    ("strict", "c5aafb8a376d9f71e62a38e1c2f43bcf42b08e270b2bb239ea79cf10c725d81b"),
    ("amended", "1e722c53ea477916e981c123a2242ed5a350b3fda3030da13c1fadf17aaa4a39"),
])
def test_export_is_byte_identical_to_the_materialized_grammar(mode, digest):
    text = export_transitions(build_grammar_nfa(3, mode))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_amended_matches_the_scan_at_alphabet_size_64():
    nfa = build_grammar_nfa(64, "amended")
    words = [(0, 1, 0, 2, 0), (63, 62, 63, 63), (63, 0, 62, 1), (5, 5, 6, 6, 7), (0, 63, 0), (40, 41, 42, 40)]
    for word in words:
        assert nfa_accepts(nfa, word) == has_proper_transposition(word), word
    assert [nfa_accepts(nfa, word) for word in words] == [True, True, False, False, False, False]
