import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail.automaton import (
    BLACK,
    WHITE,
    AutomatonState,
    Verdict,
    init_state,
    is_accepting,
    run,
    step_inplace,
)
from unitrail.oracle import is_unique_trail

from conftest import all_strings


def feed(symbols, size):
    state = init_state(size)
    for symbol in symbols:
        step_inplace(state, symbol)
    return state


def test_init_state_shape():
    state = init_state(2)
    assert state.last == 2
    assert state.follower == [None, None, None]
    assert state.black == [WHITE, WHITE]
    assert is_accepting(state)
    assert init_state(1).follower == [None, None]


def test_init_state_rejects_empty_alphabet():
    with pytest.raises(ValueError):
        init_state(0)


def test_step_trace_001():
    # hand-executed transition procedure: the double 0 commits the 0-loop,
    # so reading 1 blackens vertex 0 only
    state = feed((0, 0, 1), 2)
    assert state.last == 1
    assert state.follower == [1, None, 0]
    assert state.black == [BLACK, WHITE]
    assert is_accepting(state)


def test_step_after_001_with_1_stays_alive():
    state = feed((0, 0, 1), 2)
    step_inplace(state, 1)
    assert state.black == [BLACK, WHITE]
    assert is_accepting(state)
    assert run((0, 0, 1, 1), 2).accepted


def test_step_after_001_with_0_dies():
    state = feed((0, 0, 1), 2)
    step_inplace(state, 0)
    assert state.black == [BLACK, BLACK]
    assert not is_accepting(state)


def test_step_trace_01020():
    # phase order matters: the cycle coloring at the fourth symbol blackens
    # 0 and 1 before the fifth symbol trips the dead state
    state = feed((0, 1, 0, 2), 3)
    assert state.black == [BLACK, BLACK, WHITE]
    step_inplace(state, 0)
    assert state.black == [BLACK, BLACK, BLACK]


def test_step_rejects_out_of_range_symbol():
    with pytest.raises(ValueError):
        step_inplace(init_state(2), 2)


def test_run_examples():
    assert run((0, 1, 0, 1, 0, 1), 2) == Verdict(True)
    assert run((), 0) == Verdict(True)
    assert run((), 5) == Verdict(True)
    assert run((0, 0, 1, 0), 2) == Verdict(False, 4)


def test_run_rejects_symbols_beyond_alphabet():
    with pytest.raises(ValueError):
        run((0, 1), 1)
    with pytest.raises(ValueError):
        run((0,), 0)


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        Verdict(True, 3)
    with pytest.raises(ValueError):
        Verdict(False, None)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
def test_colors_are_monotone(symbols):
    state = init_state(3)
    for symbol in symbols:
        before = list(state.black)
        step_inplace(state, symbol)
        assert all(now or not was for was, now in zip(before, state.black))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=8), st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_dead_state_is_absorbing(symbols, extra):
    state = init_state(3)
    for symbol in symbols:
        step_inplace(state, symbol)
    if is_accepting(state):
        return
    for symbol in extra:
        step_inplace(state, symbol)
        assert state.black == [BLACK, BLACK, BLACK]
        assert not is_accepting(state)


@given(st.lists(st.integers(0, 1), max_size=12).map(tuple), st.integers(2, 6))
def test_alphabet_padding_does_not_change_verdict(trail, padded):
    assert run(trail, 2) == run(trail, padded)


def test_agreement_with_oracle_small_scale():
    for size, max_len in ((2, 9), (3, 6)):
        for word in all_strings(size, max_len):
            assert run(word, size).accepted == is_unique_trail(word), word


def test_streaming_immediacy_small_scale():
    # the reported point is the first prefix that stops being accepted
    for word in all_strings(2, 9):
        verdict = run(word, 2)
        prefix_verdicts = [run(word[:n], 2).accepted for n in range(len(word) + 1)]
        if verdict.accepted:
            assert all(prefix_verdicts)
        else:
            cut = verdict.first_rejection
            assert all(prefix_verdicts[:cut])
            assert not any(prefix_verdicts[cut:])


def test_follower_chain_guard_trips_on_corrupt_state():
    broken = AutomatonState(last=0, follower=[1, None, None], black=[WHITE, WHITE])
    with pytest.raises(RuntimeError):
        step_inplace(broken, 0)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=16))
def test_follower_chain_from_last_vertex_cycles_back(symbols):
    # whenever the last vertex has a follower, chasing followers returns to
    # it within alphabet-size hops; this is what bounds the coloring loop
    state = feed(symbols, 4)
    vertex = state.follower[state.last]
    if vertex is None:
        return
    for _ in range(state.size):
        if vertex == state.last:
            return
        vertex = state.follower[vertex]
    pytest.fail(f"chain from {state.last} did not return: {state}")


def first_non_accepting_step(word, size):
    state = init_state(size)
    for consumed, symbol in enumerate(word, start=1):
        step_inplace(state, symbol)
        if not is_accepting(state):
            return consumed
    return None


def test_run_rejects_where_the_state_stops_accepting():
    # run decides on the colour of the entered vertex; acceptance is
    # defined by the whole table, so the two must name the same step
    for size in (1, 2, 3):
        for word in all_strings(size, 8):
            for padded in (size, size + 2):
                assert run(word, padded).first_rejection == first_non_accepting_step(word, padded), (word, padded)


def test_doubled_trail_is_accepted_in_linear_time():
    size = 50_000
    trail = tuple(vertex for vertex in range(size) for _ in range(2))
    begin = time.perf_counter()
    verdict = run(trail, size)
    elapsed = time.perf_counter() - begin
    assert verdict == Verdict(True)
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


class CountingList(list):
    """A follower table that counts its reads: one per symbol, plus one per
    hop of the chain walk."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def assert_at_most_one_hop_per_symbol(symbols, size):
    """Feed an accepted trail and check the hop bound on every prefix."""
    state = init_state(size)
    state.follower = CountingList(state.follower)
    for consumed, symbol in enumerate(symbols, start=1):
        step_inplace(state, symbol)
        hops = state.follower.reads - consumed
        assert hops <= consumed, (symbols[:consumed], hops)
    assert is_accepting(state)


def test_chain_walk_takes_at_most_one_hop_per_symbol_small_scale():
    for size in (1, 2, 3):
        for word in all_strings(size, 9):
            if run(word, size).accepted:
                assert_at_most_one_hop_per_symbol(word, size)


@st.composite
def accepted_walks(draw):
    """A trail of up to 150 symbols built one symbol at a time from the
    symbols that keep it accepted, so walks run long instead of dying in a
    few steps."""
    size = draw(st.integers(1, 8))
    state = init_state(size)
    walk = []
    for _ in range(150):
        alive = []
        for symbol in range(size):
            trial = AutomatonState(state.last, list(state.follower), list(state.black))
            step_inplace(trial, symbol)
            if is_accepting(trial):
                alive.append(symbol)
        if not alive:
            break
        symbol = draw(st.sampled_from(alive))
        step_inplace(state, symbol)
        walk.append(symbol)
    return size, tuple(walk)


@given(accepted_walks())
def test_chain_walk_takes_at_most_one_hop_per_symbol(walk):
    assert_at_most_one_hop_per_symbol(walk[1], walk[0])
