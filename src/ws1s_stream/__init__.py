"""Incremental WS1S satisfiability over streams of conjuncts.

Formulas compile to minimal deterministic automata over bit-vector
track alphabets; satisfiability of a growing conjunction is decided at
every step by demand-driven exploration of the never-materialized
product automaton, reusing the explored subgraph across steps.
"""

__version__ = "0.1.0"

from .automata import (
    Dfa,
    Nfa,
    Track,
    Witness,
    accepts,
    complement,
    cylindrify,
    determinize,
    dump,
    find_witness,
    intersect,
    is_empty,
    language_equiv,
    minimize,
    parse_dump,
    product,
    project,
)
from .bench import BenchConfig, family1, family2, run_bench
from .compiler import MemoCache, TrackRegistry, compile_atom, compile_formula, restriction_automaton
from .errors import WsError
from .oracle import Interpretation, evaluate, interpretation_from_word, sat_bounded
from .stream import (
    SessionStats,
    StepReport,
    StepVerdict,
    StreamSession,
    from_scratch_check,
    session_stats,
)
from .syntax import (
    Formula,
    Kind,
    VarId,
    free_vars,
    normalize,
    parse,
    print_formula,
)

__all__ = [
    "BenchConfig",
    "Dfa",
    "Formula",
    "Interpretation",
    "Kind",
    "MemoCache",
    "Nfa",
    "SessionStats",
    "StepReport",
    "StepVerdict",
    "StreamSession",
    "Track",
    "TrackRegistry",
    "VarId",
    "Witness",
    "WsError",
    "accepts",
    "compile_atom",
    "compile_formula",
    "complement",
    "cylindrify",
    "determinize",
    "dump",
    "evaluate",
    "family1",
    "family2",
    "find_witness",
    "free_vars",
    "from_scratch_check",
    "intersect",
    "interpretation_from_word",
    "is_empty",
    "language_equiv",
    "minimize",
    "normalize",
    "parse",
    "parse_dump",
    "print_formula",
    "product",
    "project",
    "restriction_automaton",
    "run_bench",
    "sat_bounded",
    "session_stats",
]
