import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail.core import (
    Alphabet,
    Multigraph,
    TrailParseError,
    chars_alphabet,
    induced_graph,
    parse_trail,
)

trails = st.lists(st.integers(0, 3), max_size=12).map(tuple)


def test_parse_chars_first_appearance():
    trail, alphabet = parse_trail("abab")
    assert trail == (0, 1, 0, 1)
    assert alphabet.names == ("a", "b")


def test_parse_empty_input():
    trail, alphabet = parse_trail("")
    assert trail == ()
    assert alphabet.size == 0


def test_parse_tokens():
    trail, alphabet = parse_trail("0 10 0", tokens=True)
    assert trail == (0, 1, 0)
    assert alphabet.names == ("0", "10")


def test_parse_chars_rejects_inner_whitespace():
    with pytest.raises(TrailParseError):
        parse_trail("a b")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(2, ("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(2, ("a",))
    assert chars_alphabet(3).names == ("0", "1", "2")


def test_induced_graph_counts_consecutive_pairs():
    g = induced_graph((0, 0, 1, 0), 2)
    assert g.arc_multiplicity == {(0, 0): 1, (0, 1): 1, (1, 0): 1}
    assert sum(g.arc_multiplicity.values()) == 3


def test_induced_graph_single_vertex_has_no_arcs():
    assert induced_graph((0,), 1).arc_multiplicity == {}


def test_induced_graph_parallel_arcs_accumulate():
    g = induced_graph((0, 1, 0, 1, 0), 2)
    assert g.arc_multiplicity == {(0, 1): 2, (1, 0): 2}


def test_multigraph_is_immutable_and_hashable():
    arcs = {(0, 1): 1}
    g = Multigraph(2, arcs)
    arcs[(1, 0)] = 1  # the graph holds its own copy
    assert g.arc_multiplicity == {(0, 1): 1}
    h = induced_graph((0, 1, 0), 2)
    with pytest.raises(TypeError):
        h.arc_multiplicity[(0, 1)] = 5
    assert h.arc_multiplicity == {(0, 1): 1, (1, 0): 1}
    assert hash(h) == hash(induced_graph((0, 1, 0), 2))
    # the same arcs inserted in the other order make an equal graph
    flipped = Multigraph(2, {(v, u): k for (u, v), k in h.arc_multiplicity.items()})
    assert len({h, induced_graph((0, 1, 0), 2), flipped, g}) == 2


def test_induced_graph_rejects_empty_trail():
    with pytest.raises(ValueError):
        induced_graph((), 1)


def test_induced_graph_rejects_out_of_range_symbol():
    with pytest.raises(ValueError):
        induced_graph((0, 2), 2)


@given(trails.filter(bool))
def test_reverse_flips_every_arc(trail):
    size = max(trail) + 1
    forward = induced_graph(trail, size)
    backward = induced_graph(trail[::-1], size)
    assert backward == Multigraph(size, {(v, u): k for (u, v), k in forward.arc_multiplicity.items()})
    assert sum(backward.arc_multiplicity.values()) == sum(forward.arc_multiplicity.values())


@given(trails.filter(bool))
def test_trail_traverses_its_own_graph(trail):
    # walking the trail consumes every induced arc exactly once
    remaining = dict(induced_graph(trail, max(trail) + 1).arc_multiplicity)
    for arc in zip(trail, trail[1:]):
        assert remaining.get(arc, 0) > 0
        remaining[arc] -= 1
    assert not any(remaining.values())
