import collections
import importlib.util
import inspect
import itertools
import random
from pathlib import Path

import pytest

from unitrail.automaton import run
from unitrail.oracle import enumerate_trails, is_unique_trail

from conftest import all_strings, check_long_trail, cpu_bound, doubled_trail, unique_walk
from reference import arcs, sample_trail

BEST = Path(__file__).resolve().parents[1] / "bench" / "best.py"


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


def test_the_trail_count_is_the_best_theorems_beyond_the_small_universes():
    # the benchmark's reference counts the trails by the BEST theorem, with
    # no search, so random strings over more symbols or longer than the
    # exhaustive universes get an answer built apart from the oracle; the
    # strings kept have at most 300 trails, so the whole list is cheap
    spec = importlib.util.spec_from_file_location("bench_best", BEST)
    best = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(best)
    rng = random.Random(40)
    kept = 0
    while kept < 300:
        size = rng.randint(2, 12)
        word = tuple(rng.randrange(size) for _ in range(rng.randint(8, 40)))
        count = best.count_trails(word)
        if count > 300:
            continue
        kept += 1
        found = list(enumerate_trails(word))
        assert found == sorted(set(found)) and len(found) == count, word
        for other in found:
            assert other[0] == word[0] and arcs(other) == arcs(word), (word, other)


@pytest.mark.parametrize("trail", [doubled_trail(200)[::-1], unique_walk(random.Random(16000), 16000), doubled_trail(4000),
                                   doubled_trail(4000)[::-1], tuple(map(random.Random(7).randrange, [200] * 2000))],
                         ids=["reversed-doubled-m-200", "unique-walk-16000", "doubled-m-4000", "reversed-doubled-m-4000",
                              "random-m-200-l-2000"])
def test_long_trails_are_decided_in_a_second(trail):
    # each frame the search enters leads to a trail: a unique walk is
    # searched to its end in one pass, a random trail meets its second
    # trail at once, and the reversed doubled trail never leaves a vertex
    # before its loop, which would meet 2^m dead ends.  The search that
    # could enter dead branches took over 10 s on the walk and on the
    # random trail
    with cpu_bound(1):
        assert is_unique_trail(trail) == run(trail, max(trail) + 1).accepted


def test_the_oracle_agrees_with_the_automaton_on_the_long_shapes_it_searches_quickly(long_trails):
    # every named shape gets its pinned first rejection (13 of the 21 are
    # unique) and the four-way check, the oracle on the whole shape, on
    # prefixes r-1 and r and on its variants' verdicts.  Unique walks of
    # up to 2,000 symbols and such a walk with its first symbol appended,
    # whose last unique prefix is the walk itself, are searched in full
    shapes = long_trails[0]
    rng = random.Random(39)
    assert [check_long_trail(trail, named=True, rng=rng) for trail in shapes] == list(shapes.values())


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
