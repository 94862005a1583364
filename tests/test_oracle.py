import collections
import inspect
import itertools
import random

import pytest

from unitrail.automaton import run
from unitrail.grammar import build_grammar_nfa, nfa_accepts
from unitrail.oracle import enumerate_trails, is_unique_trail
from unitrail.transposition import has_proper_transposition

from conftest import all_strings, cpu_bound, nested_branches, unique_walk
from reference import arcs, sample_trail


def test_enumerates_both_trails_of_0010():
    assert list(enumerate_trails((0, 0, 1, 0))) == [(0, 0, 1, 0), (0, 1, 0, 0)]


def test_unique_trail_of_ababab():
    assert list(enumerate_trails((0, 1, 0, 1, 0, 1))) == [(0, 1, 0, 1, 0, 1)]


def test_zero_arc_graph_has_the_trivial_walk():
    assert list(enumerate_trails((0,))) == [(0,)]
    assert list(enumerate_trails((2,))) == [(2,)]


def test_limit_stops_early():
    assert list(itertools.islice(enumerate_trails((0, 0, 1, 0)), 1)) == [(0, 0, 1, 0)]
    # the trails come from a generator: taking the first three of the 8!
    # trails of 0 1 0 2 0 .. 0 8 0 searches no further than the third
    trails = enumerate_trails(tuple(s for v in range(1, 9) for s in (0, v)) + (0,))
    assert inspect.isgenerator(trails)
    assert list(itertools.islice(trails, 3)) == [
        (0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0),
        (0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 8, 0, 7, 0),
        (0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 7, 0, 6, 0, 8, 0),
    ]
    assert inspect.getgeneratorstate(trails) == inspect.GEN_SUSPENDED


def test_the_oracle_checks_its_input():
    # both checks run at the call, before any trail is asked for
    with pytest.raises(ValueError, match="empty trail"):
        enumerate_trails(())
    with pytest.raises(ValueError, match="symbol -1 is negative"):
        enumerate_trails((0, -1))
    assert is_unique_trail(())
    with pytest.raises(ValueError, match="symbol -1 is negative"):
        is_unique_trail((0, -1))


def test_a_lost_defining_trail_is_an_error(monkeypatch):
    # an enumeration whose one trail is not the input has broken its arc
    # bookkeeping; the uniqueness query says so instead of answering
    monkeypatch.setattr("unitrail.oracle.enumerate_trails", lambda trail: iter([(1, 0)]))
    with pytest.raises(RuntimeError, match="enumeration lost the defining trail"):
        is_unique_trail((0, 1))


def test_is_unique_examples():
    assert is_unique_trail((0, 0, 1, 1))
    assert not is_unique_trail((0, 0, 1, 0))
    assert is_unique_trail((0,))
    assert is_unique_trail(())


def test_is_unique_takes_a_list():
    assert is_unique_trail([0, 1])
    assert is_unique_trail([0, 0, 1, 1])
    assert not is_unique_trail([0, 0, 1, 0])


def test_every_string_appears_in_its_own_enumeration():
    for word in all_strings(3, 6):
        found = list(enumerate_trails(word))
        assert word in found
        assert found == sorted(found)
        for other in found:
            assert arcs(other) == arcs(word)
            assert other[0] == word[0]


def test_every_trail_of_the_graph_is_found():
    # the strings with the same first symbol and the same arc multiset are
    # exactly the trails of one graph, so each group is the whole answer
    for size, max_len in ((2, 10), (3, 7), (4, 6), (5, 5)):
        groups = collections.defaultdict(list)
        for word in all_strings(size, max_len):
            groups[word[0], tuple(sorted(arcs(word).items()))].append(word)
        for group in groups.values():
            group.sort()
            for word in group:
                assert list(enumerate_trails(word)) == group, word


def test_the_reversed_doubled_trail_at_m_200_is_decided_in_a_second():
    # (m-1)(m-1) .. 1 1 0 0 is unique; a search that may leave a vertex
    # before its loop, never to come back, meets 2^m dead ends
    trail = tuple(s for v in range(199, -1, -1) for s in (v, v))
    with cpu_bound(1):
        assert is_unique_trail(trail)


def random_trails(rng, count, max_len):
    """``count`` trails of 5 to ``max_len`` symbols over 2 to 40 symbols."""
    return [tuple(rng.randrange(size) for _ in range(rng.randint(5, max_len)))
            for size in (rng.randint(2, 40) for _ in range(count))]


def long_shapes(walk, nested):
    """The doubled trail ``0 0 1 1 .. 999 999`` and its reverse, 1,024
    vertices gone round to 10,000 symbols, ``nested`` and ``walk``, each
    unique, then the star ``0 1 0 2 .. 0 1000``, which is not."""
    doubled = tuple(vertex for vertex in range(1000) for _ in (0, 1))
    return [doubled, doubled[::-1], tuple(itertools.islice(itertools.cycle(range(1024)), 10_000)),
            nested, walk, tuple(symbol for leaf in range(1, 1001) for symbol in (0, leaf))]


def test_the_oracle_agrees_with_the_automaton_on_the_long_shapes_it_searches_quickly():
    # the oracle calls a trail unique exactly when the automaton accepts
    # it, and on a rejected trail it first finds a second trail on the
    # prefix the automaton first rejects.  Unique walks longer than 100
    # are left out, and so is such a walk with its first symbol appended,
    # whose last unique prefix is the walk itself: the search must
    # exhaust a unique walk, and that is exponential in its length (73 s
    # of CPU time on one of 250 symbols, on a 2-CPU x86 machine)
    rng = random.Random(2005)
    walk = unique_walk(rng, 100)
    trails = long_shapes(walk, nested_branches(200)) + [walk + walk[:1]]
    verdicts = [run(trail, max(trail) + 1).first_rejection for trail in trails]
    assert verdicts == [None] * 5 + [5, 101]
    trails += random_trails(rng, 20, 400)
    for trail in trails:
        r = run(trail, max(trail) + 1).first_rejection
        with cpu_bound(1):
            assert is_unique_trail(trail) == (r is None), trail
            if r is not None:
                assert is_unique_trail(trail[: r - 1]) and not is_unique_trail(trail[:r]), trail


def test_a_sampled_trail_is_a_uniformly_drawn_trail_of_the_same_graph():
    rng = random.Random(2005)
    for size, max_len in ((2, 10), (3, 7)):
        for word in all_strings(size, max_len):
            sample = sample_trail(word, rng)
            assert sample[0] == word[0] and len(sample) == len(word) and arcs(sample) == arcs(word), (word, sample)
            assert sample == word or not is_unique_trail(word), (word, sample)
    # 3,000 draws hit every trail, each within 15% of the mean
    for word, count in (((0, 0, 1, 0, 1, 1, 0), 6), ((0, 1, 2, 0, 2, 1, 0, 1), 10), ((0, 1, 0, 2, 0, 3, 0), 6)):
        hits = collections.Counter(sample_trail(word, rng) for _ in range(3000))
        assert sorted(hits) == list(enumerate_trails(word)) and len(hits) == count, word
        assert all(0.85 <= n * count / 3000 <= 1.15 for n in hits.values()), (word, hits)
    # every trail of a graph has the same verdict from each classifier, and
    # a unique one is its graph's only trail.  A path walked out and back,
    # 0 1 .. m .. 1 0, is left out above m of about 1,000: Wilson's walk
    # is quadratic there, as it is on the nested shape's chain of anchors
    for trail in long_shapes(unique_walk(rng, 2000), nested_branches(100)) + random_trails(rng, 50, 2000):
        size = max(trail) + 1
        accepted = run(trail, size).accepted
        sample = sample_trail(trail, rng)
        assert sample == trail or not accepted, trail
        assert run(sample, size).accepted == accepted, trail
        assert has_proper_transposition(sample) == nfa_accepts(build_grammar_nfa(size, "amended"), sample) == (not accepted), trail


def test_trail_count_survives_arc_reversal():
    for word in all_strings(3, 8):
        forward = sum(1 for _ in enumerate_trails(word))
        assert forward == sum(1 for _ in enumerate_trails(word[::-1]))


def test_is_unique_trail_matches_the_enumeration():
    # the answer must be whether the enumeration yields exactly one trail
    for word in all_strings(3, 8):
        found = list(itertools.islice(enumerate_trails(word), 2))
        assert is_unique_trail(word) == (len(found) == 1), word


def test_uniqueness_survives_relabelling():
    # the crosscheck sweep asks the oracle once per first-occurrence
    # pattern; that is sound only if renaming the symbols injectively
    # never changes the verdict
    rng = random.Random(0)
    for word in all_strings(4, 6):
        pattern = tuple(map(word.index, word))
        names = rng.sample(range(100), 4)
        renamed = tuple(names[s] for s in word)
        verdict = is_unique_trail(word)
        assert is_unique_trail(pattern) == verdict, word
        assert is_unique_trail(renamed) == verdict, (word, renamed)
