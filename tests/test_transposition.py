import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail.automaton import run
from unitrail.oracle import is_unique_trail
from unitrail.transposition import (
    TranspositionSite,
    apply_transposition,
    find_proper_site,
    has_proper_transposition,
    segments,
    validate_site,
)

from conftest import all_strings, unique_walk
from reference import all_sites, arcs, is_proper, properize


def test_apply_one_anchor_swaps_adjacent_segments():
    assert apply_transposition((0, 1, 0, 2, 0), TranspositionSite(0, 2, 2, 4)) == (0, 2, 0, 1, 0)


def test_apply_two_anchors_swaps_outer_segments():
    trail = (0, 1, 0, 1, 2, 0)
    assert apply_transposition(trail, TranspositionSite(1, 2, 3, 5)) == (0, 1, 2, 0, 1, 0)


def test_apply_with_equal_segments_is_identity():
    trail = (0, 1, 0, 1, 0)
    assert apply_transposition(trail, TranspositionSite(0, 2, 2, 4)) == trail


def test_apply_rejects_invalid_sites():
    with pytest.raises(ValueError):
        apply_transposition((0, 1, 0), TranspositionSite(0, 1, 1, 2))  # anchors differ
    with pytest.raises(ValueError):
        apply_transposition((0, 0, 0), TranspositionSite(0, 2, 2, 2))  # order violated
    with pytest.raises(ValueError):
        apply_transposition((0, 1, 0, 1), TranspositionSite(0, 1, 2, 4))  # out of bounds
    with pytest.raises(ValueError):
        apply_transposition((0, 1, 0, 1), TranspositionSite(0, 2, 2, 3))  # third index holds another vertex
    with pytest.raises(TypeError):
        apply_transposition((0, 1, 0, 2, 0), (0, 2, 4))  # not a site


def test_validate_site_accepts_exactly_the_listed_sites():
    # every index quadruple from one before the trail to one past it:
    # validate_site passes the sites the reference lists and no other
    for size, max_len in ((2, 5), (3, 4)):
        for word in all_strings(size, max_len, min_len=0):
            listed = set(all_sites(word))
            for site in itertools.product(range(-1, len(word) + 1), repeat=4):
                site = TranspositionSite(*site)
                try:
                    validate_site(word, site)
                except ValueError:
                    assert site not in listed, (word, site)
                else:
                    assert site in listed, (word, site)


def test_is_proper_examples():
    assert is_proper((0, 1, 0, 2, 0), TranspositionSite(0, 2, 2, 4))
    # the abab... decomposition with both anchor-pairs interleaved
    assert not is_proper((0, 1, 0, 1, 0, 1), TranspositionSite(0, 3, 4, 5))
    assert not is_proper((0, 1, 0, 1, 2, 0), TranspositionSite(0, 2, 2, 5))


def test_scan_examples():
    assert has_proper_transposition((0, 0, 1, 0))
    assert not has_proper_transposition((0, 0, 1, 1))
    assert not has_proper_transposition(())
    assert has_proper_transposition((0, 1, 0, 2, 0))
    assert not has_proper_transposition((0, 1, 0, 1, 0, 1))


def test_find_proper_site_examples():
    assert find_proper_site((0, 0, 1, 0)) == TranspositionSite(0, 1, 1, 3)
    assert apply_transposition((0, 0, 1, 0), TranspositionSite(0, 1, 1, 3)) == (0, 1, 0, 0)
    assert find_proper_site((0, 1, 0, 1, 0, 1)) is None
    assert find_proper_site((0, 1, 0, 2, 0)) == TranspositionSite(0, 2, 2, 4)


@pytest.mark.parametrize("trail, symbol", [((-1,), -1), ((-2, -2, -1, -2), -2), ((0, -1), -1)])
def test_a_negative_symbol_gets_the_automatons_range_error(trail, symbol):
    with pytest.raises(ValueError, match=f"^symbol {symbol} out of range for alphabet size 1$"):
        find_proper_site(trail)


def test_the_empty_trail_has_no_proper_site():
    assert find_proper_site(()) is None


def test_properize_shifts_into_a_two_anchor_site():
    trail = (0, 1, 0, 1, 2, 0)
    improper = TranspositionSite(0, 2, 2, 5)
    proper = properize(trail, improper)
    assert proper == TranspositionSite(1, 2, 3, 5)
    assert apply_transposition(trail, proper) == apply_transposition(trail, improper) == (0, 1, 2, 0, 1, 0)


def test_properize_returns_proper_sites_unchanged():
    trail = (0, 1, 0, 2, 0)
    assert properize(trail, TranspositionSite(0, 2, 2, 4)) == TranspositionSite(0, 2, 2, 4)


def test_properize_rejects_identity():
    with pytest.raises(ValueError):
        properize((0, 1, 0, 1, 0), TranspositionSite(0, 2, 2, 4))


def test_properize_handles_equal_anchor_collapse():
    # shifting an improper two-anchor site can land on four occurrences of
    # one vertex; no ordinary site reproduces that image
    trail = (0, 1, 2, 1, 0, 1, 1)
    proper = properize(trail, TranspositionSite(0, 3, 4, 6))
    assert proper == TranspositionSite(1, 3, 5, 6)
    assert trail[proper.i] == trail[proper.p]
    assert apply_transposition(trail, proper) == apply_transposition(trail, TranspositionSite(0, 3, 4, 6))


@pytest.mark.parametrize(
    "shift",
    [
        lambda trail, site: TranspositionSite(0, 1, 1, 2),  # anchors differ: malformed
        lambda trail, site: site,  # well-formed, same image, but never moves
        lambda trail, site: TranspositionSite(1, 2, 3, 7),  # well-formed, moves, changes the image
    ],
    ids=["malformed", "stuck", "image-changing"],
)
def test_properize_raises_when_a_shift_breaks_the_lemma(shift, monkeypatch):
    trail = (0, 1, 0, 1, 2, 0, 2, 0)
    monkeypatch.setattr("reference._shift_improper", shift)
    with pytest.raises(RuntimeError, match=r"site TranspositionSite\(i=0, p=2, j=2, q=5\) of trail \(0, 1, 0, 1, 2, 0, 2, 0\)"):
        properize(trail, TranspositionSite(0, 2, 2, 5))


@given(st.lists(st.integers(0, 2), min_size=3, max_size=10).map(tuple), st.data())
def test_apply_preserves_graph_start_and_length(trail, data):
    sites = list(all_sites(trail))
    if not sites:
        return
    site = data.draw(st.sampled_from(sites))
    swapped = apply_transposition(trail, site)
    assert len(swapped) == len(trail)
    assert swapped[0] == trail[0]
    assert arcs(swapped) == arcs(trail)
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
            assert arcs(other) == arcs(word)


def assert_witness_fits(word, site, rejected_at):
    """The site is well formed and proper, names only indices below the
    first rejection, and its image is a different trail of the same graph."""
    validate_site(word, site)
    assert is_proper(word, site), (word, site)
    assert max(site) < rejected_at, (word, site)
    other = apply_transposition(word, site)
    assert other != word
    assert arcs(other) == arcs(word)


def test_witness_holds_to_scan_and_reference_at_full_range():
    # the automaton witness against the independent scan and the quartic
    # reference: a site exactly when one exists, and a fitting one
    for size, max_len in ((2, 12), (3, 9), (4, 7)):
        for word in all_strings(size, max_len):
            site = find_proper_site(word)
            reference = any(is_proper(word, other) for other in all_sites(word))
            assert (site is not None) == has_proper_transposition(word) == reference, word
            if site is not None:
                assert_witness_fits(word, site, run(word, size).first_rejection)


def test_witness_and_scan_on_random_trails():
    # lengths spread evenly on a log scale up to 3,000 symbols, and half
    # the words over up to 4,000 symbols, so that the first rejection can
    # come hundreds of symbols in
    rng = random.Random(20051)
    for trial in range(2000):
        size = rng.randint(1, 4000 if trial % 2 else 40)
        word = tuple(rng.choices(range(size), k=round(3000 ** rng.random())))
        r = run(word, size).first_rejection
        site = find_proper_site(word)
        if r is None:
            assert site is None and not has_proper_transposition(word), word
            continue
        assert site is not None and has_proper_transposition(word), word
        assert_witness_fits(word, site, r)
        assert not has_proper_transposition(word[: r - 1]), word
        assert has_proper_transposition(word[:r]), word


def test_scan_takes_linear_time_on_long_unique_trails():
    # a unique trail has no site, so the scan reads it to the end; the
    # nested loop it replaced took 2-4 s of CPU on each of these
    doubled = tuple(vertex for vertex in range(4000) for _ in (0, 1))
    for trail in (doubled, doubled[::-1], unique_walk(random.Random(8000), 8000)):
        assert run(trail, max(trail) + 1).accepted
        start = time.process_time()
        assert not has_proper_transposition(trail)
        spent = time.process_time() - start
        assert spent < 0.25, f"{spent:.2f} s of CPU on {len(trail)} symbols"


def test_witness_on_long_walks_rejected_late():
    # unique walks that go round a cycle of fresh vertices, leave it part
    # way round and never come back, until one returns into a vertex it
    # left long before: rejections at hundreds to thousands of symbols
    rng = random.Random(4028)
    for _ in range(100):
        fresh = itertools.count(1)
        walk, cycles = [0], []
        length = rng.randint(200, 2000)
        while len(walk) < length:
            cycle = [walk[-1]] + [next(fresh) for _ in range(rng.randint(0, 11))]
            walk += (cycle[1:] + cycle[:1]) * rng.randint(1, 4) + cycle[1 : rng.randrange(len(cycle)) + 1]
            cycles.append(cycle)
            walk.append(next(fresh))
        walk.append(rng.choice(rng.choice(cycles)))
        word, size = tuple(walk), max(walk) + 1
        assert run(word, size).first_rejection == len(word), word
        assert_witness_fits(word, find_proper_site(word), len(word))


def test_prefix_witness_is_a_proper_site_of_the_whole_word():
    # what check --explain shows: the site found in the shortest rejected
    # prefix w[:r] is proper in w, and no shorter prefix has one
    for size, max_len in ((2, 12), (3, 9)):
        for word in all_strings(size, max_len):
            r = run(word, size).first_rejection
            if r is None:
                continue
            site = find_proper_site(word[:r])
            assert site is not None and is_proper(word, site), word
            other = apply_transposition(word, site)
            assert other != word
            assert arcs(other) == arcs(word)
            assert find_proper_site(word[: r - 1]) is None, word


def test_segments_reassemble_the_trail():
    # u a x b z a y b v with u=3, x=1, z=4, y=1 1, v=5
    trail = (3, 0, 1, 2, 4, 0, 1, 1, 2, 5)
    parts = segments(trail, TranspositionSite(1, 3, 5, 8))
    assert parts["u"] + parts["a"] + parts["x"] + parts["b"] + parts["z"] + parts["a"] + parts["y"] + parts["b"] + parts["v"] == trail
    assert (parts["u"], parts["x"], parts["z"], parts["y"], parts["v"]) == ((3,), (1,), (4,), (1, 1), (5,))
    # u a x a y a v with u=2, x=1, y=1 1, v=3
    trail = (2, 0, 1, 0, 1, 1, 0, 3)
    parts = segments(trail, TranspositionSite(1, 3, 3, 6))
    assert parts["u"] + parts["a"] + parts["x"] + parts["a"] + parts["y"] + parts["a"] + parts["v"] == trail
    assert (parts["u"], parts["x"], parts["y"], parts["v"]) == ((2,), (1,), (1, 1), (3,))
