import itertools

import pytest

from unitrail import harness
from unitrail.automaton import Verdict, run
from unitrail.cli import main
from unitrail.grammar import LiveSet, build_grammar_nfa, nfa_accepts
from unitrail.harness import CLASSIFIERS, cross_validate
from unitrail.oracle import is_unique_trail
from unitrail.transposition import has_proper_transposition

from conftest import all_strings


@pytest.mark.parametrize("size,max_len", [(3, 6), (4, 5)])
def test_strict_gaps_match_a_sweep_from_scratch(size, max_len):
    # the sweep steps each grammar from its parent's live set; its gaps
    # must be the words found by simulating every word from START, in
    # length-major order
    strict = build_grammar_nfa(size, "strict")
    expected = [
        word for word in all_strings(size, max_len)
        if has_proper_transposition(word) and not nfa_accepts(strict, word)
    ]
    report = cross_validate(size, max_len)
    assert expected
    assert report.strict_gaps == expected
    assert report.checked == sum(size**n for n in range(1, max_len + 1))


def test_short_sweeps_check_every_string_and_no_more(capsys):
    # the root of the walk is the empty prefix, which is not a string
    assert cross_validate(3, 0).checked == 0
    assert cross_validate(3, 1).checked == 3
    assert main(["crosscheck", "--alphabet-size", "3", "--max-len", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "checked 0 strings over alphabet size 3, lengths 1..0"


@pytest.mark.parametrize("pattern,members", [
    # a b a b with a != b: the carried pattern repeats a symbol
    pytest.param((0, 1, 0, 1), [(a, b, a, b) for a in range(3) for b in range(3) if a != b], id="0101"),
    # a b c all distinct: every symbol of the carried pattern is fresh
    pytest.param((0, 1, 2), list(itertools.permutations(range(3))), id="012"),
])
def test_a_planted_oracle_fault_reaches_its_whole_class(pattern, members, monkeypatch):
    # the sweep reuses one oracle verdict per relabelling class, so a
    # fault on one word of a class must show on every word of it, and on
    # no other word
    def faulty(word):
        return is_unique_trail(word) != (tuple(map(word.index, word)) == pattern)

    monkeypatch.setattr("unitrail.harness.is_unique_trail", faulty)
    report = cross_validate(3, 4)
    assert [word for word, _ in report.disagreements] == members
    for _, verdicts in report.disagreements:
        assert verdicts["oracle"] != verdicts["automaton"]


@pytest.mark.parametrize("classifier,mode", [
    pytest.param(harness.run, None, id="run"),
    pytest.param(harness.has_proper_transposition, None, id="has_proper_transposition"),
    pytest.param(harness.nfa_accepts, "amended", id="nfa_accepts-amended"),
    pytest.param(harness.nfa_accepts, "strict", id="nfa_accepts-strict"),
])
def test_no_classifier_under_test_is_shared_across_a_class(classifier, mode, monkeypatch):
    # only the oracle's verdict is reused per class: the automaton, the
    # scan and the grammars run on every word, so a fault on 0 1 0 1 alone
    # shows on that word alone, not on the other five words of its class,
    # nor on another word of its trie node's batch
    target = (0, 1, 0, 1)
    if classifier is run:
        def faulty(word, size):
            return Verdict(4) if word == target else run(word, size)
    elif classifier is has_proper_transposition:
        def faulty(word):
            return has_proper_transposition(word) != (word == target)
    else:
        # the sweep steps one live set one symbol from the parent's, and no
        # other string of the sweep reaches 0 1 0's live set; the strict
        # verdict is read off the stepped live set, so its fault goes there
        parent = LiveSet()
        nfa_accepts(build_grammar_nfa(3, mode), target[:-1], parent)

        def faulty(nfa, trail, live=None):
            planted = trail == target[-1:] and live == parent
            verdict = nfa_accepts(nfa, trail, live)
            if planted and mode == "strict":
                live.strict = not live.strict
                return verdict
            return verdict != planted

        clean_gaps = cross_validate(3, 4).strict_gaps

    monkeypatch.setattr(f"unitrail.harness.{classifier.__name__}", faulty)
    report = cross_validate(3, 4)
    if mode == "strict":
        # the strict grammar is audited, not voted: 0 1 0 1 is a unique
        # trail, so its fault is one unsound word and the gaps stay
        assert report.disagreements == []
        assert (report.strict_unsound, report.strict_gaps) == ([target], clean_gaps)
    else:
        assert [word for word, _ in report.disagreements] == [target]
    if mode == "amended":
        assert (report.strict_unsound, report.strict_gaps) == ([], clean_gaps)


def test_an_empty_alphabet_is_refused():
    with pytest.raises(ValueError, match="alphabet size must be at least 1"):
        cross_validate(0, 2)


def test_timings_name_every_classifier_in_order(capsys):
    timings = cross_validate(3, 3).timings
    assert list(timings) == list(CLASSIFIERS)
    assert all(isinstance(seconds, float) and seconds >= 0 for seconds in timings.values())
    assert main(["crosscheck", "--alphabet-size", "3", "--max-len", "3"]) == 0
    (line,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("timing: ")]
    assert [field.split("=")[0] for field in line.split()[1:]] == list(CLASSIFIERS)


@pytest.mark.parametrize("size,max_len,calls", [
    # one symbol: every prefix holds it, so no node has a fresh child
    (1, 5, 5),
    # two symbols: every prefix past 0 0 .. 0 holds both; 1+2+4+8+16+32
    (2, 6, 63),
    (3, 4, 1 + 2 + 5 + 14),
])
def test_the_oracle_runs_once_per_first_occurrence_pattern(size, max_len, calls, monkeypatch):
    asked = []

    def counting(word):
        asked.append(word)
        return is_unique_trail(word)

    monkeypatch.setattr("unitrail.harness.is_unique_trail", counting)
    report = cross_validate(size, max_len)
    assert report.disagreements == []
    assert len(asked) == len({tuple(map(word.index, word)) for word in asked}) == calls


def test_a_node_is_walked_word_by_word_only_where_its_lists_differ(monkeypatch):
    # a node's verdict lists are compared whole; a mismatch must still
    # name exactly the faulty words, siblings included, in length-major
    # order, however many of a node's words are faulty
    clean_gaps = cross_validate(3, 4).strict_gaps
    planted = {(0, 1, 0, 1), (0, 1, 0, 2), (2, 1)}

    def faulty_run(word, size):
        return Verdict(len(word)) if word in planted else run(word, size)

    with monkeypatch.context() as patched:
        patched.setattr("unitrail.harness.run", faulty_run)
        report = cross_validate(3, 4)
    assert [word for word, _ in report.disagreements] == [(2, 1), (0, 1, 0, 1), (0, 1, 0, 2)]
    assert all(not verdicts["automaton"] and verdicts["oracle"] for _, verdicts in report.disagreements)
    assert (report.strict_unsound, report.strict_gaps) == ([], clean_gaps)

    # a strict fault on 0 1 0 2, the last child of 0 1 0, which steps the
    # parent's own live set, beside the real gap 0 1 0 0 of the same node
    assert (0, 1, 0, 0) in clean_gaps
    parent = LiveSet()
    nfa_accepts(build_grammar_nfa(3, "amended"), (0, 1, 0), parent)

    def faulty_grammar(nfa, trail, live=None):
        flip = trail == (2,) and live == parent
        verdict = nfa_accepts(nfa, trail, live)
        if flip:
            live.strict = not live.strict
        return verdict

    monkeypatch.setattr("unitrail.harness.nfa_accepts", faulty_grammar)
    report = cross_validate(3, 4)
    assert report.disagreements == []
    assert (report.strict_unsound, report.strict_gaps) == ([(0, 1, 0, 2)], clean_gaps)
