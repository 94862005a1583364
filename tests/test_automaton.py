import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitrail.automaton import (
    AutomatonState,
    Verdict,
    advance,
    init_state,
    run,
)
from unitrail.oracle import is_unique_trail

from conftest import all_strings
from reference import is_accepting


def feed(symbols, size):
    # one symbol per call, so the state keeps stepping past a rejection;
    # each call counts its steps from 1, so every step recorded is 1
    state = init_state(size)
    for symbol in symbols:
        advance(state, (symbol,))
    return state


def test_init_state_shape():
    state = init_state(2)
    assert state.last == 2
    assert state.follower == [None, None, None]
    assert state.black == [0, 0]
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
    assert state.black == [1, 0]
    assert is_accepting(state)


def test_step_after_001_with_1_stays_alive():
    state = feed((0, 0, 1), 2)
    assert advance(state, (1,)) is None
    assert state.black == [1, 0]
    assert is_accepting(state)
    assert run((0, 0, 1, 1), 2).accepted


def test_step_after_001_with_0_dies():
    state = feed((0, 0, 1), 2)
    assert advance(state, (0,)) == 1
    assert state.black == [1, 1]
    assert not is_accepting(state)


def test_step_trace_01020():
    # phase order matters: the cycle coloring at the fourth symbol blackens
    # 0 and 1 before the fifth symbol trips the dead state
    state = feed((0, 1, 0, 2), 3)
    assert state.black == [1, 1, 0]
    advance(state, (0,))
    assert state.black == [1, 1, 1]
    # in one call the walk is step 4; a second call counts from 1 again
    state = init_state(3)
    assert advance(state, (0, 1, 0, 2)) is None
    assert state.black == [4, 4, 0]
    assert advance(state, (0,)) == 1
    assert state.black == [4, 4, 1]


def test_black_keeps_the_step_of_the_first_chain_walk():
    # at step 4 the walk from 1 goes round the 1-loop; at step 5 the walk
    # from 0 goes round 0 1 0 and passes the black 1, which keeps its step
    state = init_state(3)
    assert advance(state, (0, 1, 1, 0)) is None
    assert state.black == [0, 4, 0]
    state = init_state(3)
    assert advance(state, (0, 1, 1, 0, 2)) is None
    assert state.black == [5, 4, 0]
    # entering the black 0 fills the white 2 with the fatal step 6 and
    # leaves the walks' steps as they were
    state = init_state(3)
    assert advance(state, (0, 1, 1, 0, 2, 0)) == 6
    assert state.black == [5, 4, 6]


def test_step_rejects_out_of_range_symbol():
    with pytest.raises(ValueError, match="symbol 2 out of range for alphabet size 2"):
        advance(init_state(2), (2,))


def test_advance_stops_at_a_bad_symbol_mid_trail():
    # the symbols before the bad one are fed, none after it
    state = init_state(2)
    with pytest.raises(ValueError, match="symbol 5 out of range for alphabet size 2"):
        advance(state, (0, 1, 5))
    before = init_state(2)
    assert advance(before, (0, 1)) is None
    assert state == before


def test_run_examples():
    assert run((0, 1, 0, 1, 0, 1), 2) == Verdict()
    assert run((), 0) == Verdict()
    assert run((), 5) == Verdict()
    assert run((0, 0, 1, 0), 2) == Verdict(4)


def test_a_negative_symbol_is_out_of_range():
    # Python would read black[-1], the last vertex, without the lower bound
    with pytest.raises(ValueError, match="symbol -1 out of range for alphabet size 2"):
        run((-1,), 2)
    state = init_state(2)
    with pytest.raises(ValueError, match="symbol -1 out of range for alphabet size 2"):
        advance(state, (-1,))
    assert state == init_state(2)


def test_run_rejects_symbols_beyond_alphabet():
    with pytest.raises(ValueError):
        run((0, 1), 1)
    with pytest.raises(ValueError):
        run((0,), 0)
    for trail in ((), (0,)):
        with pytest.raises(ValueError):
            run(trail, -1)


def test_every_accepted_run_returns_one_shared_verdict():
    accepted = run((0, 1), 2)
    assert accepted is run((2,), 3) is run((), 0)
    assert accepted == Verdict()
    assert run((0, 0, 1, 0), 2) is not run((0, 0, 1, 0), 2)


# calls of one to four symbols, so that steps differ between and within calls
pieces = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)


@given(st.lists(pieces, min_size=1, max_size=6))
def test_colors_are_monotone(calls):
    state = init_state(3)
    for piece in calls:
        before = list(state.black)
        advance(state, piece)
        assert all(now or not was for was, now in zip(before, state.black))
        # a vertex keeps the step at which it turned black
        assert all(now == was for was, now in zip(before, state.black) if was)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=8).map(tuple), st.lists(pieces, min_size=1, max_size=6))
def test_dead_state_is_absorbing(symbols, extra):
    state = init_state(3)
    advance(state, symbols)
    if is_accepting(state):
        return
    assert all(state.black)
    steps = list(state.black)
    for piece in extra:
        advance(state, piece)
        assert state.black == steps
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
    broken = AutomatonState(last=0, follower=[1, None, None], black=[0, 0])
    with pytest.raises(RuntimeError):
        advance(broken, (0,))


@pytest.mark.parametrize("follower,message", [
    # 0 -> 1 -> None: the walk from 0 leaves the vertex set
    pytest.param([1, None, None, None], "latest-follower chain escapes the vertex set", id="escapes"),
    # 0 -> 3: the start-marker slot is no vertex
    pytest.param([3, None, None, None], "latest-follower chain escapes the vertex set", id="escapes-to-marker"),
    # 0 -> -1: a negative index would read the last vertex's slot
    pytest.param([-1, None, None, None], "latest-follower chain escapes the vertex set", id="escapes-below-0"),
    # 0 -> 1 -> 2 -> 1: the walk from 0 circles without coming back
    pytest.param([1, 2, 1, None], "latest-follower chain does not cycle back", id="cycles"),
])
def test_each_chain_walk_guard_raises_and_leaves_last_stored(follower, message):
    # the first symbol moves last off the start marker with no walk; the
    # second walks the corrupt chain from 0, so last must stay 0, the
    # vertex fed before the step that raised
    state = AutomatonState(last=3, follower=follower, black=[0, 0, 0])
    with pytest.raises(RuntimeError, match=message):
        advance(state, (0, 2))
    assert state.last == 0


@given(st.lists(st.integers(0, 3), min_size=1, max_size=16))
def test_follower_chain_from_last_vertex_cycles_back(symbols):
    # whenever the last vertex has a follower, chasing followers returns to
    # it within alphabet-size hops; this is what bounds the coloring loop
    state = feed(symbols, 4)
    vertex = state.follower[state.last]
    if vertex is None:
        return
    for _ in range(len(state.black)):
        if vertex == state.last:
            return
        vertex = state.follower[vertex]
    pytest.fail(f"chain from {state.last} did not return: {state}")


def first_non_accepting_step(word, size):
    state = init_state(size)
    for consumed, symbol in enumerate(word, start=1):
        advance(state, (symbol,))
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


def state_of(state):
    """The state of the paper's finite automaton: each step mapped to its
    colour."""
    return state.last, list(state.follower), [bool(step) for step in state.black]


def feed_in_pieces(word, size, cuts):
    """Feed ``word`` with one ``advance`` call per piece between ``cuts``,
    up to the first rejection.  Returns the state, the steps renumbered
    over the whole word (a vertex blackened in a call gets that call's
    step plus the symbols fed before the call), and the rejection point
    counted the same way."""
    state = init_state(size)
    steps = [0] * size
    start = 0
    for end in (*cuts, len(word)):
        rejected = advance(state, word[start:end])
        steps = [step or (local and start + local) for step, local in zip(steps, state.black)]
        if rejected is not None:
            return state, steps, start + rejected
        start = end
    return state, steps, None


def test_advance_is_split_invariant():
    # one call over the whole trail leaves the state that one call per
    # symbol leaves, up to and including the rejecting step, and its steps
    # are the per-symbol calls' steps offset by the symbols fed before
    for size in (1, 2, 3):
        for word in all_strings(size, 8):
            for padded in (size, size + 2):
                whole = init_state(padded)
                consumed = advance(whole, word)
                stepped, steps, count = feed_in_pieces(word, padded, range(1, len(word)))
                assert consumed == count == run(word, padded).first_rejection, (word, padded)
                assert state_of(whole) == state_of(stepped), (word, padded)
                assert whole.black == steps, (word, padded)


@given(
    st.lists(st.integers(0, 3), max_size=24).map(tuple),
    st.lists(st.integers(0, 24), max_size=4).map(sorted),
)
def test_steps_compose_across_any_split(word, cuts):
    cuts = [min(cut, len(word)) for cut in cuts]
    whole = init_state(4)
    consumed = advance(whole, word)
    pieces, steps, count = feed_in_pieces(word, 4, cuts)
    assert consumed == count
    assert state_of(whole) == state_of(pieces)
    assert whole.black == steps


def test_doubled_trail_is_accepted_in_linear_time():
    size = 50_000
    trail = tuple(vertex for vertex in range(size) for _ in range(2))
    begin = time.perf_counter()
    verdict = run(trail, size)
    elapsed = time.perf_counter() - begin
    assert verdict == Verdict()
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
        advance(state, (symbol,))
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
            advance(trial, (symbol,))
            if is_accepting(trial):
                alive.append(symbol)
        if not alive:
            break
        symbol = draw(st.sampled_from(alive))
        advance(state, (symbol,))
        walk.append(symbol)
    return size, tuple(walk)


@given(accepted_walks())
def test_chain_walk_takes_at_most_one_hop_per_symbol(walk):
    assert_at_most_one_hop_per_symbol(walk[1], walk[0])
