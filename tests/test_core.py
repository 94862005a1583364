import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail.core import TrailParseError, chars_alphabet, parse_trail, render
from unitrail.oracle import enumerate_trails

from reference import arcs

trails = st.lists(st.integers(0, 3), max_size=12).map(tuple)


def test_parse_chars_first_appearance():
    trail, names = parse_trail("abab")
    assert trail == (0, 1, 0, 1)
    assert names == ("a", "b")
    assert render(names, trail) == "abab"


def test_parse_empty_input():
    trail, names = parse_trail("")
    assert trail == ()
    assert names == ()


def test_parse_tokens():
    trail, names = parse_trail("0 10 0", tokens=True)
    assert trail == (0, 1, 0)
    assert names == ("0", "10")
    assert render(names, trail, tokens=True) == "0 10 0"


def test_parse_chars_rejects_inner_whitespace():
    with pytest.raises(TrailParseError):
        parse_trail("a b")


WHITESPACE = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]


def test_there_are_29_whitespace_code_points():
    assert len(WHITESPACE) == 29


@pytest.mark.parametrize("space", WHITESPACE, ids=[f"U+{ord(c):04X}" for c in WHITESPACE])
def test_parse_chars_rejects_every_whitespace_code_point_anywhere(space):
    for text in (space, space + "ab", "a" + space + "b", "ab" + space):
        with pytest.raises(TrailParseError, match="whitespace is not a symbol in chars mode"):
            parse_trail(text)


def test_alphabet_validation():
    assert chars_alphabet(3) == ("0", "1", "2")
    assert render(chars_alphabet(36), (35, 0, 10)) == "z0a"
    assert len(chars_alphabet(62)) == 62
    for size in (-1, 63):
        with pytest.raises(ValueError):
            chars_alphabet(size)


# The graph a trail induces is the multiset of its consecutive pairs; the
# tests compare graphs as tests/reference.py's ``arcs`` of their trails.


def test_induced_graph_counts_consecutive_pairs():
    assert arcs((0, 0, 1, 0)) == {(0, 0): 1, (0, 1): 1, (1, 0): 1}
    assert arcs((0, 0, 1, 0)).total() == 3


def test_induced_graph_single_vertex_has_no_arcs():
    assert arcs((0,)) == {}


def test_induced_graph_parallel_arcs_accumulate():
    assert arcs((0, 1, 0, 1, 0)) == {(0, 1): 2, (1, 0): 2}


# The oracle builds the induced graph of the trail it is given, so it is the
# oracle that refuses a trail with no graph.


def test_induced_graph_rejects_empty_trail():
    with pytest.raises(ValueError, match="empty trail"):
        enumerate_trails(())


def test_induced_graph_rejects_out_of_range_symbol():
    with pytest.raises(ValueError, match="symbol -2 is negative"):
        enumerate_trails((0, 1, -2))


@given(trails.filter(bool))
def test_reverse_flips_every_arc(trail):
    forward, backward = arcs(trail), arcs(trail[::-1])
    assert backward == {(v, u): k for (u, v), k in forward.items()}
    assert backward.total() == forward.total() == len(trail) - 1


@given(trails.filter(bool))
def test_trail_traverses_its_own_graph(trail):
    # walking the trail consumes every induced arc exactly once
    remaining = arcs(trail)
    for arc in zip(trail, trail[1:]):
        assert remaining[arc] > 0
        remaining[arc] -= 1
    assert not any(remaining.values())
