import pytest

from unitrail.cli import main
from unitrail.grammar import build_grammar_nfa, nfa_accepts
from unitrail.harness import cross_validate
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
