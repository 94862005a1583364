import collections
import inspect
import itertools
import random

import pytest

from unitrail.oracle import enumerate_trails, is_unique_trail

from conftest import all_strings, cpu_bound
from reference import arcs


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
    for size, max_len in ((2, 10), (3, 7)):
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
