import hashlib
import random
import time

import pytest

from unitrail.automaton import run
from unitrail.grammar import LiveSet, build_grammar_nfa, nfa_accepts
from unitrail.transposition import has_proper_transposition

from conftest import all_strings, check_long_trail, nested_branches
from reference import ACCEPT, START, all_states, expand, last_read, simulate, step, successors


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
            simulate(nfa, word, live)
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


def test_a_negative_symbol_is_out_of_range():
    with pytest.raises(ValueError, match="symbol -1 out of range for alphabet size 2"):
        nfa_accepts(build_grammar_nfa(2, "amended"), (-1,))


def test_single_symbol_grammars_generate_nothing():
    # every 0^k is a unique trail, so neither variant may accept
    for mode in ("strict", "amended"):
        nfa = build_grammar_nfa(1, mode)
        for k in range(9):
            assert not nfa_accepts(nfa, (0,) * k)


def test_live_sets_stay_within_the_state_space():
    nfa = build_grammar_nfa(3, "amended")
    states = set(all_states(nfa))
    live = LiveSet()
    for piece in [(), *((symbol,) for symbol in (0, 1, 0, 2, 0, 1, 2))]:
        nfa_accepts(nfa, piece, live)
        assert len(expand(nfa, live)) <= len(states) == 44
        assert expand(nfa, live) <= states


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_the_factored_live_set_stands_for_the_rule_s_live_set(mode):
    # every word of (1,<=9), (2,<=11), (3,<=7) and (4,<=6), the empty one
    # included: one live set per word, stepped once from its prefix's by
    # the grammar in ``mode``, holds both subset simulations' states and
    # verdicts, whichever grammar steps it
    words = 0
    for size, max_len in ((1, 9), (2, 11), (3, 7), (4, 6)):
        grammars = [build_grammar_nfa(size, "strict"), build_grammar_nfa(size, "amended")]
        stepper = grammars[mode == "amended"]
        stack = [((), LiveSet(), ({START}, {START}))]
        while stack:
            word, live, references = stack.pop()
            words += 1
            if last_read(live)[1] == len(word):
                for nfa, reference in zip(grammars, references):
                    assert expand(nfa, live) == reference, (nfa.mode, word)
            else:
                # the run stopped at strict acceptance, which both
                # grammars keep
                assert all(ACCEPT in reference for reference in references), word
            if len(word) == max_len:
                continue
            for symbol in range(size):
                factored, explicit = live.copy(), tuple(set(reference) for reference in references)
                verdict = nfa_accepts(stepper, (symbol,), factored)
                verdicts = [simulate(nfa, (symbol,), reference) for nfa, reference in zip(grammars, explicit)]
                assert [factored.strict, factored.amended] == verdicts, word + (symbol,)
                assert verdict == verdicts[mode == "amended"]
                if live.strict:
                    assert factored == live, word + (symbol,)
                stack.append((word + (symbol,), factored, explicit))
    assert words == 12846


def test_no_follower_dict_before_the_stop_has_more_than_3_entries():
    # every word of (2,<=12), (3,<=9), (4,<=7) and (5,<=6): the step stops
    # once strict holds, before any vertex gets a fourth follower, so the
    # follower dicts a run copies stay small however long the trail
    widest = 0
    for size, max_len in ((2, 12), (3, 9), (4, 7), (5, 6)):
        nfa = build_grammar_nfa(size, "amended")
        stack = [(0, LiveSet())]
        while stack:
            length, live = stack.pop()
            widest = max(widest, *map(len, live.pairs.values()), 0)
            if length < max_len and not live.strict:
                for symbol in range(size):
                    child = live.copy()
                    nfa_accepts(nfa, (symbol,), child)
                    stack.append((length + 1, child))
    assert widest == 3
    # the star 0 1 0 2 .. 0 5000 gives 0 a new follower at every second
    # symbol; both grammars accept at its seventh, 0 1 0 2 0 3 0
    star = tuple(symbol for leaf in range(1, 5001) for symbol in (0, leaf))
    for mode in ("strict", "amended"):
        live = LiveSet()
        assert nfa_accepts(build_grammar_nfa(5001, mode), star, live)
        assert (live.strict, live.amended, last_read(live), len(live.pairs[0])) == (True, True, (0, 7), 3)


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_seen_keeps_its_marks_in_the_order_of_their_indices(mode):
    # nfa_accepts reads the symbol read last off seen's final entry, which
    # it pops and puts back.  LiveSet.__eq__ compares dicts, which ignore
    # order, so this test pins it: after every one-symbol step the indices
    # increase along seen's keys, and an empty trail leaves seen's items,
    # order included, as they were
    for size, max_len in ((3, 7), (4, 6)):
        nfa = build_grammar_nfa(size, mode)
        stack = [(0, LiveSet())]
        while stack:
            length, live = stack.pop()
            items = list(live.seen.items())
            indices = [at for _, at in items]
            assert indices == sorted(set(indices)), items
            nfa_accepts(nfa, (), live)
            assert list(live.seen.items()) == items
            if length < max_len:
                for symbol in range(size):
                    child = live.copy()
                    nfa_accepts(nfa, (symbol,), child)
                    stack.append((length + 1, child))


def test_a_live_set_copy_is_independent_and_compares_by_its_fields():
    nfa = build_grammar_nfa(3, "strict")
    live = LiveSet()
    nfa_accepts(nfa, (0, 1, 0), live)
    twin = live.copy()
    assert twin == live and twin is not live
    # 0 gets the new follower 2: the copy's pairs change, the source's not
    nfa_accepts(nfa, (2, 1), twin)
    assert twin != live
    assert expand(nfa, live) == {START, ("anchor", 0), ("span", 0, 1, 0), ("span", 0, 1, 1),
                                 ("span", 1, 0, 0), ("branch", 1, 1)}
    assert repr(live) == (
        "LiveSet(seen={1: 1, 0: 2}, pairs={0: {1: 1}, 1: {0: 2}}, awaits={}, anchors=set(), "
        "strict=False, amended=False, prev=0)"
    )
    assert LiveSet() == LiveSet() != live
    with pytest.raises(TypeError):
        hash(live)


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_nfa_accepts_is_split_invariant(mode):
    # one call from START and one call per symbol through a shared live
    # set reach the same verdict and the same set, as the sweep relies on
    for size in (1, 2, 3):
        nfa = build_grammar_nfa(size, mode)
        for word in all_strings(size, 7):
            whole = LiveSet()
            verdict = nfa_accepts(nfa, word, whole)
            assert nfa_accepts(nfa, word) == verdict
            live = LiveSet()
            for symbol in word:
                stepped = nfa_accepts(nfa, (symbol,), live)
            assert (stepped, live) == (verdict, whole), word


def test_a_bad_symbol_leaves_the_live_set_untouched():
    nfa = build_grammar_nfa(3, "amended")
    live = LiveSet()
    nfa_accepts(nfa, (0, 1), live)
    before = live.copy()
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


def test_the_grammars_agree_with_the_automaton_on_long_trails(long_trails):
    # the corpus's 220 random trails of up to 400 or 2,000 symbols, each
    # also reversed, relabelled and resampled, with the oracle run whole
    rng = random.Random(39)
    for trail in long_trails[1]:
        check_long_trail(trail, named=False, rng=rng)


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_each_mark_is_walked_once_a_run(mode):
    # every branch of the nested shape reaches back past the marks already
    # awaited; walking those again made this 24,000-symbol run quadratic
    trail = nested_branches(4000)
    assert len(trail) == 24_000 and run(trail, len(trail)).accepted
    nfa = build_grammar_nfa(len(trail), mode)
    live = LiveSet()
    start = time.process_time()
    verdict = nfa_accepts(nfa, trail, live)
    spent = time.process_time() - start
    assert not verdict and not live.amended
    assert spent < 1.0, f"{spent:.2f} s of CPU"


@pytest.mark.parametrize("mode", ["strict", "amended"])
def test_any_iterable_gives_the_tuple_s_verdict_and_live_set(mode):
    nfa = build_grammar_nfa(2, mode)
    for word in [(0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1, 0)]:
        whole = LiveSet()
        verdict = nfa_accepts(nfa, word, whole)
        for trail in (list(word), iter(word)):
            live = LiveSet()
            assert nfa_accepts(nfa, trail, live) == verdict, (word, trail)
            assert live == whole, (word, trail)
