"""Seeded random formulas and oracle-vs-automaton comparison helpers.

Corpus formulas stay within two first-order and two second-order
variable names total (free and bound roles never mix for one name), and
nesting depth three, which keeps brute-force model enumeration feasible.
"""

from __future__ import annotations

import itertools
import random

from ws1s_stream.automata import Dfa, accepts
from ws1s_stream.compiler import TrackRegistry, compile_formula
from ws1s_stream.oracle import evaluate, interpretation_from_word
from ws1s_stream.syntax import (
    And,
    EqFo,
    Exists,
    Forall,
    Formula,
    Implies,
    In,
    Kind,
    Less,
    Not,
    Or,
    Sub,
    Succ,
    VarId,
)

FO_NAMES = ("x", "y")
SO_NAMES = ("Y", "Z")


class _Names:
    """Hands out variable names, keeping free and bound roles disjoint."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.unused_fo = list(FO_NAMES)
        self.unused_so = list(SO_NAMES)
        self.free_fo: list[VarId] = []
        self.free_so: list[VarId] = []
        self.scope_fo: list[VarId] = []
        self.scope_so: list[VarId] = []

    def pick(self, kind: Kind) -> VarId | None:
        scope, free, unused = (
            (self.scope_fo, self.free_fo, self.unused_fo)
            if kind is Kind.FIRST_ORDER
            else (self.scope_so, self.free_so, self.unused_so)
        )
        options = list(scope) + list(free) + [None] * len(unused)
        if not options:
            return None
        choice = self.rng.choice(options)
        if choice is None:
            var = VarId(unused.pop(self.rng.randrange(len(unused))), kind)
            free.append(var)
            return var
        return choice

    def bind(self, kind: Kind) -> VarId | None:
        unused = self.unused_fo if kind is Kind.FIRST_ORDER else self.unused_so
        if not unused:
            return None
        name = unused.pop(self.rng.randrange(len(unused)))
        return VarId(name, kind)


def random_formula(rng: random.Random, max_depth: int = 3) -> Formula:
    names = _Names(rng)

    def atom() -> Formula:
        for _ in range(8):
            pick = rng.choice(("in", "less", "succ", "eq", "sub"))
            if pick == "in":
                x = names.pick(Kind.FIRST_ORDER)
                y = names.pick(Kind.SECOND_ORDER)
                if x and y:
                    return In(x, y)
            elif pick == "sub":
                y = names.pick(Kind.SECOND_ORDER)
                z = names.pick(Kind.SECOND_ORDER)
                if y and z:
                    return Sub(y, z)
            else:
                x = names.pick(Kind.FIRST_ORDER)
                y = names.pick(Kind.FIRST_ORDER)
                if x and y:
                    return {"less": Less, "succ": Succ, "eq": EqFo}[pick](x, y)
        return In(VarId("x", Kind.FIRST_ORDER), VarId("Y", Kind.SECOND_ORDER))

    def build(depth: int) -> Formula:
        if depth == 0:
            return atom()
        roll = rng.random()
        if roll < 0.35:
            return atom()
        if roll < 0.50:
            return Not(build(depth - 1))
        if roll < 0.64:
            return And(build(depth - 1), build(depth - 1))
        if roll < 0.75:
            return Or(build(depth - 1), build(depth - 1))
        if roll < 0.84:
            return Implies(build(depth - 1), build(depth - 1))
        kind = rng.choice((Kind.FIRST_ORDER, Kind.SECOND_ORDER))
        var = names.bind(kind)
        if var is None:
            return atom()
        if kind is Kind.FIRST_ORDER:
            names.scope_fo.append(var)
        else:
            names.scope_so.append(var)
        body = build(depth - 1)
        if kind is Kind.FIRST_ORDER:
            names.scope_fo.remove(var)
        else:
            names.scope_so.remove(var)
        quant = rng.choice((Exists, Forall))
        return quant(var, body)

    return build(max_depth)


def compiled(f: Formula) -> tuple[Dfa, TrackRegistry]:
    registry = TrackRegistry()
    return compile_formula(f, registry), registry


def track_variables(dfa: Dfa, registry: TrackRegistry) -> list[VarId]:
    return [VarId(registry.name_of(t.index), t.kind) for t in dfa.tracks]


def all_words(width: int, max_len: int):
    symbols = list(itertools.product((0, 1), repeat=width))
    for length in range(max_len + 1):
        yield from (list(w) for w in itertools.product(symbols, repeat=length))


def language_matches_oracle(f: Formula, dfa: Dfa, registry: TrackRegistry,
                            max_len: int = 4) -> bool:
    """Word-level agreement: the automaton accepts exactly the encodings of
    models (words that do not encode a model must be rejected)."""
    variables = track_variables(dfa, registry)
    for word in all_words(dfa.width, max_len):
        try:
            interp = interpretation_from_word(word, variables)
        except ValueError:
            if accepts(dfa, word):
                return False
            continue
        if accepts(dfa, word) != evaluate(f, interp):
            return False
    return True
