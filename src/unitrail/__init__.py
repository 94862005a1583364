"""Streaming uniqueness checks for Eulerian trails of trail-induced multigraphs."""

from .automaton import AutomatonState, Verdict, init_state, is_accepting, run, step_inplace
from .core import (
    Alphabet,
    Multigraph,
    Trail,
    TrailParseError,
    chars_alphabet,
    induced_graph,
    parse_trail,
    reverse_trail,
    tokens_alphabet,
)
from .grammar import GrammarNFA, build_grammar_nfa, export_transitions, nfa_accepts
from .harness import CrosscheckReport, cross_validate
from .mfw import brute_mfw, constructive_mfw, matches_binary_mfw
from .oracle import count_trails, enumerate_trails, is_unique_trail
from .transposition import (
    OneAnchor,
    TranspositionSite,
    TwoAnchors,
    apply_transposition,
    find_proper_site,
    has_proper_transposition,
    is_proper,
    properize,
    segments,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AutomatonState",
    "CrosscheckReport",
    "GrammarNFA",
    "Multigraph",
    "OneAnchor",
    "Trail",
    "TrailParseError",
    "TranspositionSite",
    "TwoAnchors",
    "Verdict",
    "apply_transposition",
    "brute_mfw",
    "build_grammar_nfa",
    "chars_alphabet",
    "constructive_mfw",
    "count_trails",
    "cross_validate",
    "enumerate_trails",
    "export_transitions",
    "find_proper_site",
    "has_proper_transposition",
    "induced_graph",
    "init_state",
    "is_accepting",
    "is_proper",
    "is_unique_trail",
    "matches_binary_mfw",
    "nfa_accepts",
    "parse_trail",
    "properize",
    "reverse_trail",
    "run",
    "segments",
    "step_inplace",
    "tokens_alphabet",
]
