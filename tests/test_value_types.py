import ast
import inspect
from pathlib import Path

import pytest

import unitrail
from unitrail import (
    AutomatonState,
    Verdict,
    advance,
    find_proper_site,
    init_state,
    run,
)
from unitrail.grammar import GrammarNFA, LiveSet, build_grammar_nfa, nfa_accepts
from unitrail.transposition import TranspositionSite

# (case id, build one value, its repr); each is built twice, so the two
# are equal but not the same object.  The Verdict strings and the site found
# are the README's Library examples.  The two sites are named by their shape:
# a one-anchor site is one whose p equals j.
VALUES = [
    ("Verdict0", lambda: run((0, 0, 1, 0), 2), "Verdict(first_rejection=4)"),
    # run returns one shared accepted verdict, so build fresh ones from it
    ("Verdict1", lambda: Verdict(*run((0, 1), 2)), "Verdict(first_rejection=None)"),
    ("GrammarNFA", lambda: build_grammar_nfa(2, "amended"), "GrammarNFA(size=2, mode='amended')"),
    ("TwoAnchors", lambda: TranspositionSite(0, 3, 4, 5), "TranspositionSite(i=0, p=3, j=4, q=5)"),
    ("OneAnchor", lambda: find_proper_site((0, 0, 1, 0)), "TranspositionSite(i=0, p=1, j=1, q=3)"),
]


@pytest.mark.parametrize("build,text", [pytest.param(b, t, id=i) for i, b, t in VALUES])
def test_frozen_values_are_immutable_hashable_and_keep_their_repr(build, text):
    value, twin = build(), build()
    assert value is not twin
    assert value == twin
    assert hash(value) == hash(twin)
    assert repr(value) == text
    for name in (type(value)._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_frozen_values_unpack_like_tuples():
    i, p, j, q = find_proper_site((0, 0, 1, 0))
    assert (i, p, j, q) == (0, 1, 1, 3)
    assert run((0, 0, 1, 0), 2) == (4,)
    assert run((0, 0, 1, 0), 2).accepted is False
    assert run((0, 1), 2).accepted is True


def test_automaton_state_compares_by_its_three_fields():
    state = init_state(2)
    assert state == AutomatonState(2, [None, None, None], [0, 0])
    assert state != AutomatonState(1, [None, None, None], [0, 0])
    assert state != AutomatonState(2, [None, 0, None], [0, 0])
    assert state != AutomatonState(2, [None, None, None], [0, 1])
    # the same colours blackened at different steps
    assert AutomatonState(2, [None, None, None], [1, 0]) != AutomatonState(2, [None, None, None], [2, 0])
    assert repr(state) == "AutomatonState(last=2, follower=[None, None, None], black=[0, 0])"
    with pytest.raises(AttributeError):
        state.extra = 0
    with pytest.raises(TypeError):
        hash(state)
    # the grammar's live set shares the protocol: stepped states of both
    # kinds equal fresh twins, never each other, and are just as closed
    def stepped():
        state, live = init_state(3), LiveSet()
        advance(state, (0, 1, 0, 2))
        nfa_accepts(build_grammar_nfa(3, "amended"), (0, 1, 0, 2), live)
        return state, live

    states, twins = stepped(), stepped()
    for state, twin, other in zip(states, twins, twins[::-1]):
        assert state == twin and state is not twin
        assert state != other and other != state
        with pytest.raises(TypeError):
            hash(state)
        with pytest.raises(AttributeError):
            state.extra = 0


def test_replace_runs_the_same_checks_as_the_constructor():
    grammar = build_grammar_nfa(3, "amended")
    for bad in ({"mode": "bogus"}, {"size": 0}, {"size": -2}):
        with pytest.raises(ValueError):
            grammar._replace(**bad)
    for size, mode in ((0, "strict"), (-2, "amended"), (3, "bogus")):
        with pytest.raises(ValueError):
            GrammarNFA(size, mode)
    assert grammar._replace(mode="strict") == build_grammar_nfa(3, "strict")


def test_every_public_function_is_called_by_another_package_module():
    # what only the tests call lives in tests/reference.py, not in __all__
    named = {}
    for path in Path(unitrail.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        named[f"unitrail.{path.stem}"] = (
            {node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {node.name for node in nodes if isinstance(node, ast.alias)}
        )
    unused = [
        name
        for name in unitrail.__all__
        if inspect.isfunction(fn := getattr(unitrail, name))
        and not any(name in names for module, names in named.items() if module != fn.__module__)
    ]
    assert unused == []
