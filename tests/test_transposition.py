import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail import transposition
from unitrail.core import induced_graph
from unitrail.oracle import is_unique_trail
from unitrail.transposition import (
    OneAnchor,
    TwoAnchors,
    all_sites,
    apply_transposition,
    find_proper_site,
    has_proper_transposition,
    is_proper,
    properize,
    segments,
)

from conftest import all_strings


def test_apply_one_anchor_swaps_adjacent_segments():
    assert apply_transposition((0, 1, 0, 2, 0), OneAnchor(0, 2, 4)) == (0, 2, 0, 1, 0)


def test_apply_two_anchors_swaps_outer_segments():
    trail = (0, 1, 0, 1, 2, 0)
    assert apply_transposition(trail, TwoAnchors(1, 2, 3, 5)) == (0, 1, 2, 0, 1, 0)


def test_apply_with_equal_segments_is_identity():
    trail = (0, 1, 0, 1, 0)
    assert apply_transposition(trail, OneAnchor(0, 2, 4)) == trail


def test_apply_rejects_invalid_sites():
    with pytest.raises(ValueError):
        apply_transposition((0, 1, 0), OneAnchor(0, 1, 2))  # anchors differ
    with pytest.raises(ValueError):
        apply_transposition((0, 0, 0), OneAnchor(0, 2, 2))  # order violated
    with pytest.raises(ValueError):
        apply_transposition((0, 1, 0, 1), TwoAnchors(0, 1, 2, 4))  # out of bounds


def test_is_proper_examples():
    assert is_proper((0, 1, 0, 2, 0), OneAnchor(0, 2, 4))
    # the abab... decomposition with both anchor-pairs interleaved
    assert not is_proper((0, 1, 0, 1, 0, 1), TwoAnchors(0, 3, 4, 5))
    assert not is_proper((0, 1, 0, 1, 2, 0), OneAnchor(0, 2, 5))


def test_scan_examples():
    assert has_proper_transposition((0, 0, 1, 0))
    assert not has_proper_transposition((0, 0, 1, 1))
    assert not has_proper_transposition(())
    assert has_proper_transposition((0, 1, 0, 2, 0))
    assert not has_proper_transposition((0, 1, 0, 1, 0, 1))


def test_find_proper_site_examples():
    assert find_proper_site((0, 0, 1, 0)) == OneAnchor(0, 1, 3)
    assert apply_transposition((0, 0, 1, 0), OneAnchor(0, 1, 3)) == (0, 1, 0, 0)
    assert find_proper_site((0, 1, 0, 1, 0, 1)) is None
    assert find_proper_site((0, 1, 0, 2, 0)) == OneAnchor(0, 2, 4)


def test_properize_shifts_into_a_two_anchor_site():
    trail = (0, 1, 0, 1, 2, 0)
    improper = OneAnchor(0, 2, 5)
    proper = properize(trail, improper)
    assert proper == TwoAnchors(1, 2, 3, 5)
    assert apply_transposition(trail, proper) == apply_transposition(trail, improper) == (0, 1, 2, 0, 1, 0)


def test_properize_returns_proper_sites_unchanged():
    trail = (0, 1, 0, 2, 0)
    assert properize(trail, OneAnchor(0, 2, 4)) == OneAnchor(0, 2, 4)


def test_properize_rejects_identity():
    with pytest.raises(ValueError):
        properize((0, 1, 0, 1, 0), OneAnchor(0, 2, 4))


def test_properize_handles_equal_anchor_collapse():
    # shifting an improper two-anchor site can land on four occurrences of
    # one vertex; no ordinary site reproduces that image
    trail = (0, 1, 2, 1, 0, 1, 1)
    proper = properize(trail, TwoAnchors(0, 3, 4, 6))
    assert proper == TwoAnchors(1, 3, 5, 6)
    assert trail[proper.i] == trail[proper.p]
    assert apply_transposition(trail, proper) == apply_transposition(trail, TwoAnchors(0, 3, 4, 6))


def test_properize_exhaustive_small_scale():
    # properize raises RuntimeError on any shift that breaks the shift lemma
    for trail in all_strings(2, 7, min_len=3):
        for site in all_sites(trail):
            image = apply_transposition(trail, site)
            if image == trail:
                continue
            proper = properize(trail, site)
            assert is_proper(trail, proper)
            assert apply_transposition(trail, proper) == image


@pytest.mark.parametrize(
    "shift",
    [
        lambda trail, site: OneAnchor(0, 1, 2),  # anchors differ: malformed
        lambda trail, site: site,  # well-formed, same image, but never moves
        lambda trail, site: TwoAnchors(1, 2, 3, 7),  # well-formed, moves, changes the image
    ],
    ids=["malformed", "stuck", "image-changing"],
)
def test_properize_raises_when_a_shift_breaks_the_lemma(shift, monkeypatch):
    trail = (0, 1, 0, 1, 2, 0, 2, 0)
    monkeypatch.setattr(transposition, "_shift_improper", shift)
    with pytest.raises(RuntimeError, match=r"site OneAnchor\(i=0, j=2, k=5\) of trail \(0, 1, 0, 1, 2, 0, 2, 0\)"):
        properize(trail, OneAnchor(0, 2, 5))


@given(st.lists(st.integers(0, 2), min_size=3, max_size=10).map(tuple), st.data())
def test_apply_preserves_graph_start_and_length(trail, data):
    sites = list(all_sites(trail))
    if not sites:
        return
    site = data.draw(st.sampled_from(sites))
    swapped = apply_transposition(trail, site)
    size = max(trail) + 1
    assert len(swapped) == len(trail)
    assert swapped[0] == trail[0]
    assert induced_graph(swapped, size) == induced_graph(trail, size)
    if is_proper(trail, site):
        assert swapped != trail


def test_witness_agrees_with_scan_and_oracle_small_scale():
    for word in all_strings(3, 6):
        site = find_proper_site(word)
        swappable = has_proper_transposition(word)
        assert (site is not None) == swappable
        assert swappable == (not is_unique_trail(word))
        if site is not None:
            other = apply_transposition(word, site)
            assert other != word
            size = max(word) + 1
            assert induced_graph(other, size) == induced_graph(word, size)


def test_witness_presence_matches_scan_at_full_range():
    for size, max_len in ((2, 12), (3, 9)):
        for word in all_strings(size, max_len):
            assert (find_proper_site(word) is not None) == has_proper_transposition(word), word


def test_segments_reassemble_the_trail():
    # u a x b z a y b v with u=3, x=1, z=4, y=1 1, v=5
    trail = (3, 0, 1, 2, 4, 0, 1, 1, 2, 5)
    parts = segments(trail, TwoAnchors(1, 3, 5, 8))
    assert parts["u"] + parts["a"] + parts["x"] + parts["b"] + parts["z"] + parts["a"] + parts["y"] + parts["b"] + parts["v"] == trail
    assert (parts["u"], parts["x"], parts["z"], parts["y"], parts["v"]) == ((3,), (1,), (4,), (1, 1), (5,))
    # u a x a y a v with u=2, x=1, y=1 1, v=3
    trail = (2, 0, 1, 0, 1, 1, 0, 3)
    parts = segments(trail, OneAnchor(1, 3, 6))
    assert parts["u"] + parts["a"] + parts["x"] + parts["a"] + parts["y"] + parts["a"] + parts["v"] == trail
    assert (parts["u"], parts["x"], parts["y"], parts["v"]) == ((2,), (1,), (1, 1), (3,))
