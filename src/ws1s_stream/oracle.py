"""Brute-force WS1S semantics by direct model enumeration.

This module is the ground truth the automata pipeline is tested against,
so it deliberately shares no code with the automaton modules: atoms are
evaluated straight from their mathematical definitions and quantifiers by
explicit search.

Quantifiers range over all naturals, so a bounded search needs a cutoff.
A witness (or counterexample) for a quantifier never has to sit far
beyond the positions already fixed: atoms can only compare order,
adjacency and membership, which makes all sufficiently distant positions
interchangeable.  Each first-order quantifier therefore searches the
current support plus a two-position margin (one slot adjacent to the
frontier, one isolated), and each second-order quantifier additionally
gets room for set members around the positions its first-order
subquantifiers may pick.  The margins are relative to the *current*
support, which grows as outer witnesses are placed, so nested quantifiers
can build chains stepwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import EnumerationBudgetExceeded, UnassignedVariable
from .syntax import (
    And,
    EqFo,
    Exists,
    Forall,
    Formula,
    In,
    Kind,
    Less,
    Not,
    Or,
    Implies,
    Sub,
    Succ,
    VarId,
    conjuncts,
    free_vars,
    quantifier_count,
)

_FO_MARGIN = 2

ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class Interpretation:
    """A finite model: ``length`` positions plus assignments for free variables."""

    length: int
    first_order: Mapping[str, int] = field(default_factory=dict)
    second_order: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        for name, p in self.first_order.items():
            if not 0 <= p < self.length:
                raise ValueError(f"{name} -> {p} outside model of length {self.length}")
        for name, s in self.second_order.items():
            if any(p < 0 or p >= self.length for p in s):
                raise ValueError(f"{name} -> {set(s)} outside model of length {self.length}")


def _so_margin(body: Formula) -> int:
    return 2 * quantifier_count(body, Kind.FIRST_ORDER) + 2


def _eval(f: Formula, fo: dict[str, int], so: dict[str, frozenset[int]], length: int) -> bool:
    if isinstance(f, In):
        return fo[f.x.name] in so[f.y.name]
    if isinstance(f, Less):
        return fo[f.x.name] < fo[f.y.name]
    if isinstance(f, Succ):
        return fo[f.x.name] == fo[f.y.name] + 1
    if isinstance(f, EqFo):
        return fo[f.x.name] == fo[f.y.name]
    if isinstance(f, Sub):
        return so[f.x.name] <= so[f.y.name]
    if isinstance(f, Not):
        return not _eval(f.body, fo, so, length)
    if isinstance(f, And):
        # the chain's parts left to right, stopping at the first false one
        return all(_eval(part, fo, so, length) for part in conjuncts(f))
    if isinstance(f, Or):
        return _eval(f.left, fo, so, length) or _eval(f.right, fo, so, length)
    if isinstance(f, Implies):
        return not _eval(f.left, fo, so, length) or _eval(f.right, fo, so, length)
    if isinstance(f, Forall):
        return not _eval(Exists(f.var, Not(f.body)), fo, so, length)
    if isinstance(f, Exists):
        name = f.var.name
        if f.var.kind is Kind.FIRST_ORDER:
            shadowed = fo.pop(name, None)
            try:
                for p in range(length + _FO_MARGIN):
                    fo[name] = p
                    if _eval(f.body, fo, so, max(length, p + 1)):
                        return True
                return False
            finally:
                fo.pop(name, None)
                if shadowed is not None:
                    fo[name] = shadowed
        shadowed_set = so.pop(name, None)
        try:
            horizon = length + _so_margin(f.body)
            for mask in range(1 << horizon):
                members = frozenset(p for p in range(horizon) if mask >> p & 1)
                so[name] = members
                inner_len = max(length, max(members) + 1) if members else length
                if _eval(f.body, fo, so, inner_len):
                    return True
            return False
        finally:
            so.pop(name, None)
            if shadowed_set is not None:
                so[name] = shadowed_set
    raise TypeError(f"not a formula node: {f!r}")


def evaluate(f: Formula, interp: Interpretation) -> bool:
    """Truth of ``f`` under ``interp``; quantified variables are searched."""
    for v in free_vars(f):
        table = interp.first_order if v.kind is Kind.FIRST_ORDER else interp.second_order
        if v.name not in table:
            raise UnassignedVariable(f"interpretation does not assign {v.name}")
    return _eval(f, dict(interp.first_order), dict(interp.second_order), interp.length)


def _configuration_count(k_max: int, n_fo: int, n_so: int) -> int:
    total = 0
    for k in range(k_max + 1):
        if n_fo and k == 0:
            continue
        total += (k ** n_fo) * (1 << (k * n_so))
        if total > ENUMERATION_BUDGET:
            break
    return total


def sat_bounded(f: Formula, k_max: int) -> Optional[Interpretation]:
    """Smallest (then lexicographically least) model with at most ``k_max`` positions.

    Free first-order variables range over model positions and free
    second-order variables over subsets of them, in ascending-bitmask
    order so the returned model is unique.  Returns None if no model of
    size up to ``k_max`` exists.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    fvs = free_vars(f)
    fo_vars = [v for v in fvs if v.kind is Kind.FIRST_ORDER]
    so_vars = [v for v in fvs if v.kind is Kind.SECOND_ORDER]
    if _configuration_count(k_max, len(fo_vars), len(so_vars)) > ENUMERATION_BUDGET:
        raise EnumerationBudgetExceeded(
            f"more than {ENUMERATION_BUDGET} free-variable configurations at k_max={k_max}"
        )

    def assign_fo(k: int, idx: int, fo: dict[str, int], so: dict[str, frozenset[int]]):
        if idx == len(fo_vars):
            return assign_so(k, 0, fo, so)
        for p in range(k):
            fo[fo_vars[idx].name] = p
            if assign_fo(k, idx + 1, fo, so):
                return True
            del fo[fo_vars[idx].name]
        return False

    def assign_so(k: int, idx: int, fo: dict[str, int], so: dict[str, frozenset[int]]):
        if idx == len(so_vars):
            return _eval(f, dict(fo), dict(so), k)
        for mask in range(1 << k):
            so[so_vars[idx].name] = frozenset(p for p in range(k) if mask >> p & 1)
            if assign_so(k, idx + 1, fo, so):
                return True
            del so[so_vars[idx].name]
        return False

    for k in range(k_max + 1):
        if fo_vars and k == 0:
            continue
        fo: dict[str, int] = {}
        so: dict[str, frozenset[int]] = {}
        if assign_fo(k, 0, fo, so):
            return Interpretation(k, dict(fo), dict(so))
    return None


def interpretation_from_word(
    symbols: Sequence[Sequence[int]], variables: Sequence[VarId]
) -> Interpretation:
    """Decode a word over variable tracks into the model it denotes.

    ``variables[i]`` labels bit ``i`` of every symbol, so every symbol
    holds one 0/1 bit per variable.  First-order tracks must carry exactly
    one 1-bit.
    """
    for p, sym in enumerate(symbols):
        if len(sym) != len(variables) or any(bit not in (0, 1) for bit in sym):
            raise ValueError(f"symbol {p} is {tuple(sym)}, expected one 0/1 bit for each "
                             f"of {len(variables)} variables")
    length = len(symbols)
    fo: dict[str, int] = {}
    so: dict[str, frozenset[int]] = {}
    for i, v in enumerate(variables):
        ones = [p for p, sym in enumerate(symbols) if sym[i]]
        if v.kind is Kind.FIRST_ORDER:
            if len(ones) != 1:
                raise ValueError(
                    f"track of first-order {v.name} has {len(ones)} set bits, expected 1"
                )
            fo[v.name] = ones[0]
        else:
            so[v.name] = frozenset(ones)
    return Interpretation(length, fo, so)
