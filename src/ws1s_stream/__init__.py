"""Incremental WS1S satisfiability over streams of conjuncts.

Formulas compile to minimal deterministic automata over bit-vector
track alphabets; satisfiability of a growing conjunction is decided at
every step by demand-driven exploration of the never-materialized
product automaton, reusing the explored subgraph across steps.
"""

import importlib

__version__ = "0.1.0"

# each public name once, under the module that defines it; the module
# loads when one of its names is first read (PEP 562)
_EXPORTS = {
    "automata": ("Dfa", "Nfa", "Track", "Witness", "accepts", "complement", "cylindrify",
                 "determinize", "dump", "find_witness", "intersect", "is_empty",
                 "language_equiv", "minimize", "parse_dump", "product", "project"),
    "bench": ("BenchConfig", "family1", "family2", "run_bench"),
    "compiler": ("MemoCache", "TrackRegistry", "compile_atom", "compile_formula",
                 "restriction_automaton"),
    "errors": ("WsError",),
    "oracle": ("Interpretation", "evaluate", "interpretation_from_word", "sat_bounded"),
    "stream": ("SessionStats", "StepReport", "StepVerdict", "StreamSession",
               "from_scratch_check", "session_stats"),
    "syntax": ("Formula", "Kind", "VarId", "free_vars", "normalize", "parse", "print_formula"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
