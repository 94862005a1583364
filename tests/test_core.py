import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail import core
from unitrail.core import SLICE_CHARS, TrailParseError, id_names, parse_trail, render
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


@pytest.mark.parametrize("tokens", [False, True], ids=["chars", "tokens"])
@pytest.mark.parametrize("text", ["\udcff", "a\udcffa", "é\udcff", "a \udcff", "\udcff\t"])
def test_parse_rejects_a_lone_surrogate_before_any_other_check(text, tokens):
    # a lone surrogate is an undecodable byte read with surrogateescape;
    # in chars mode its error wins over the one for whitespace
    with pytest.raises(TrailParseError, match="^undecodable bytes$"):
        parse_trail(text, tokens=tokens)


WHITESPACE = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]


def test_there_are_29_whitespace_code_points():
    assert len(WHITESPACE) == 29


@pytest.mark.parametrize("space", WHITESPACE, ids=[f"U+{ord(c):04X}" for c in WHITESPACE])
def test_parse_chars_rejects_every_whitespace_code_point_anywhere(space):
    for text in (space, space + "ab", "a" + space + "b", "ab" + space):
        with pytest.raises(TrailParseError, match="whitespace is not a symbol in chars mode"):
            parse_trail(text)


def split_whole_line(text):
    """What tokens-mode parse_trail returns, from one split of the whole text."""
    ids = {}
    return tuple([ids.setdefault(token, len(ids)) for token in text.split()]), tuple(ids)


def sliced_texts():
    """Tokens-mode texts of several slices each, named by their shape."""
    tokens = [f"t{i % 700}" for i in range(12000)]
    # every whitespace code point, in runs of 1-3, between the tokens; a
    # slice is cut at whichever of them comes first past its offset
    mixed = "".join(token + WHITESPACE[i % 29] * (1 + i % 3) for i, token in enumerate(tokens))
    edges = "".join(WHITESPACE)
    yield "every-whitespace-run", mixed
    yield "leading-and-trailing-whitespace", edges + mixed + edges
    yield "spaces-only", " ".join(tokens)
    yield "token-longer-than-a-slice", " ".join(tokens[:2000] + ["x" * (3 * SLICE_CHARS)] + tokens[:2000])
    yield "no-space-after-the-first-offset", " " + "\t".join(tokens)
    yield "empty", ""


@pytest.mark.parametrize("text", [pytest.param(text, id=name) for name, text in sliced_texts()])
def test_parse_tokens_in_slices_equals_one_split_of_the_whole_line(text):
    assert parse_trail(text, tokens=True) == split_whole_line(text)


@given(
    st.integers(1, 12),
    st.text(st.sampled_from(["a", "b", "\u00e9", " ", " ", *WHITESPACE]), max_size=80),
)
def test_parse_tokens_equals_one_split_at_any_slice_size(size, text):
    # a small slice puts the cuts at every offset of a short text, at
    # every kind of whitespace; U+0020 is drawn more often than the others
    with mock.patch.object(core, "SLICE_CHARS", size):
        assert parse_trail(text, tokens=True) == split_whole_line(text)


def test_a_slice_is_cut_at_exactly_the_characters_split_splits_on():
    # the cut search and str.split must agree on what whitespace is: a cut
    # at a character split keeps would split a token in two, and a missed
    # one leaves a line whole
    every = map(chr, range(sys.maxunicode + 1))
    assert [c for c in every if core._WHITESPACE.match(c)] == WHITESPACE


@pytest.mark.parametrize("separator", [" ", "\t", "\u3000"], ids=["space", "tab", "ideographic-space"])
def test_parse_tokens_peak_memory_is_a_few_bytes_per_token(separator):
    # beyond its text, a line of 200,000 six-character tokens costs its id
    # list and its trail at the peak, not a string per token, whichever
    # whitespace separates them
    rng = random.Random(1)
    names = [str(100000 + i) for i in range(1000)]
    count = 200000
    text = separator.join(rng.choice(names) for _ in range(count))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trail, _ = parse_trail(text, tokens=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(trail) == count
    assert peak < 24 * count


def test_alphabet_validation():
    # up to 62 ids print as one character each, beyond that every id as
    # its decimal digits, space-separated
    assert id_names(3) == ("012", False)
    names, tokens = id_names(62)
    assert (len(names), names[-1], tokens) == (62, "Z", False)
    assert render(names, (35, 0, 10), tokens) == "z0a"
    names, tokens = id_names(63)
    assert (names, tokens) == (range(63), True)
    assert render(names, (0, 62, 0), tokens) == "0 62 0"
    with pytest.raises(ValueError):
        id_names(-1)


def test_naming_a_million_ids_builds_no_name_per_id():
    # only the ids a word prints are named, so a large alphabet costs
    # nothing until a word is rendered, and then only that word's names
    tracemalloc.start()
    try:
        names, tokens = id_names(10**6)
        shown = render(names, (0, 999_999, 0), tokens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shown == "0 999999 0"
    assert peak < 2**20


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
