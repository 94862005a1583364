import hashlib

import pytest

from unitrail.grammar import START, build_grammar_nfa, nfa_accepts, step
from unitrail.transposition import has_proper_transposition

from conftest import all_strings
from reference import all_states, successors


def _state_label(state):
    kind, *rest = state
    if not rest:
        return kind
    return f"{kind}({','.join(str(r) for r in rest)})"


def export_transitions(nfa):
    """Plain-text relation, one ``from symbol to`` triple per line, sorted:
    the form the materialized grammar was pinned in."""
    lines = sorted(
        f"{_state_label(src)} {symbol} {_state_label(dst)}"
        for src in all_states(nfa)
        for symbol in range(nfa.size)
        for dst in successors(nfa, src, symbol)
    )
    return "".join(line + "\n" for line in lines)


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


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_stepping_a_set_is_the_union_of_its_states_steps(mode):
    # the whole state space, and every live set a word of length <= 6
    # reaches, stepped at once on each symbol
    for size in (1, 2, 3):
        nfa = build_grammar_nfa(size, mode)
        reached = {frozenset(all_states(nfa))}
        for word in all_strings(size, 6):
            live = {START}
            nfa_accepts(nfa, word, live)
            reached.add(frozenset(live))
        for states in reached:
            for symbol in range(size):
                stepped = set()
                step(nfa, set(states), symbol, stepped)
                assert stepped == set().union(*(successors(nfa, state, symbol) for state in states))
    nfa = build_grammar_nfa(3, mode)
    for bogus in (("bogus",), ("span", 0, 1), "start"):
        with pytest.raises(ValueError):
            step(nfa, {START, bogus}, 0, set())


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


def test_single_symbol_grammars_generate_nothing():
    # every 0^k is a unique trail, so neither variant may accept
    for mode in ("strict", "amended"):
        nfa = build_grammar_nfa(1, mode)
        for k in range(9):
            assert not nfa_accepts(nfa, (0,) * k)


def test_live_sets_stay_within_the_state_space():
    nfa = build_grammar_nfa(3, "amended")
    states = set(all_states(nfa))
    live = {START}
    for piece in [(), *((symbol,) for symbol in (0, 1, 0, 2, 0, 1, 2))]:
        nfa_accepts(nfa, piece, live)
        assert len(live) <= len(states) == 44
        assert live <= states


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_nfa_accepts_is_split_invariant(mode):
    # one call from START and one call per symbol through a shared live
    # set reach the same verdict and the same set, as the sweep relies on
    for size in (1, 2, 3):
        nfa = build_grammar_nfa(size, mode)
        for word in all_strings(size, 7):
            whole = {START}
            verdict = nfa_accepts(nfa, word, whole)
            assert nfa_accepts(nfa, word) == verdict
            live = {START}
            for symbol in word:
                stepped = nfa_accepts(nfa, (symbol,), live)
            assert (stepped, live) == (verdict, whole), word


def test_a_bad_symbol_leaves_the_live_set_untouched():
    nfa = build_grammar_nfa(3, "amended")
    live = {START}
    nfa_accepts(nfa, (0, 1), live)
    before = set(live)
    with pytest.raises(ValueError) as fresh:
        nfa_accepts(nfa, (0, 3))
    with pytest.raises(ValueError) as stepped:
        nfa_accepts(nfa, (0, 3), live)
    assert str(stepped.value) == str(fresh.value) == "symbol 3 out of range for alphabet size 3"
    assert live == before


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
