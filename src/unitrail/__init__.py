"""Streaming uniqueness checks for Eulerian trails of trail-induced multigraphs."""

from .automaton import AutomatonState, Verdict, advance, init_state, run
from .core import Trail, TrailParseError, id_names, parse_trail, render
from .grammar import GrammarNFA, LiveSet, build_grammar_nfa, nfa_accepts
from .harness import CrosscheckReport, cross_validate
from .mfw import brute_mfw, constructive_mfw
from .oracle import enumerate_trails, is_unique_trail
from .transposition import (
    TranspositionSite,
    apply_transposition,
    find_proper_site,
    has_proper_transposition,
    segments,
)

__version__ = "0.1.0"

__all__ = [
    "AutomatonState",
    "CrosscheckReport",
    "GrammarNFA",
    "LiveSet",
    "Trail",
    "TrailParseError",
    "TranspositionSite",
    "Verdict",
    "advance",
    "apply_transposition",
    "brute_mfw",
    "build_grammar_nfa",
    "constructive_mfw",
    "cross_validate",
    "enumerate_trails",
    "find_proper_site",
    "has_proper_transposition",
    "id_names",
    "init_state",
    "is_unique_trail",
    "nfa_accepts",
    "parse_trail",
    "render",
    "run",
    "segments",
]
