"""Translate normalized formulas into minimal automata, bottom-up.

Variables own tracks: free variables get session-stable indices from the
registry, bound variables get a per-name scratch track that exists only
while the quantifier body is being built and is projected away before
the result escapes.  First-order variables carry the exactly-one-1-bit
restriction; it is conjoined at the outermost point where the variable
is live (at quantification for bound ones, at top level for free ones)
rather than inside every atom, which keeps intermediate products small.

Memoization is keyed on the printed normalized formula with free names
replaced by their track index.  Bound names appear verbatim, so two
quantified formulas differing only in binder names compile separately;
scratch tracks are assigned per bound name, which keeps the keys stable.
"""

from __future__ import annotations

from .automata import (
    DEFAULT_DETERMINIZE_BUDGET,
    Dfa,
    complement,
    determinize,
    intersect,
    make_dfa,
    make_tracks,
    minimize,
    project,
)
from .errors import KindConflict, KindError, UnboundTrack
from .syntax import (
    And,
    ATOM_TYPES,
    EqFo,
    Exists,
    Formula,
    In,
    Kind,
    Less,
    Not,
    Sub,
    Succ,
    VarId,
    free_vars,
    normalize,
    operands,
    validate_kinds,
)


class TrackRegistry:
    """Stable variable-name to track-index mapping for one formula stream."""

    def __init__(self):
        self._free: dict[str, tuple[int, Kind]] = {}
        self._scratch: dict[tuple[str, Kind], int] = {}
        self._names: dict[int, str] = {}
        self._next = 0

    def register(self, var: VarId) -> int:
        entry = self._free.get(var.name)
        if entry is not None:
            index, kind = entry
            if kind is not var.kind:
                raise KindConflict(
                    f"{var.name} already registered as {kind.name}, now used as {var.kind.name}"
                )
            return index
        index = self._next
        self._next += 1
        self._free[var.name] = (index, var.kind)
        self._names[index] = var.name
        return index

    def track_of(self, var: VarId) -> int:
        entry = self._free.get(var.name)
        if entry is None:
            raise UnboundTrack(f"no track registered for {var.name}")
        index, kind = entry
        if kind is not var.kind:
            raise KindConflict(
                f"{var.name} registered as {kind.name}, referenced as {var.kind.name}"
            )
        return index

    def scratch_track(self, var: VarId) -> int:
        """Track for a bound variable; stable per (name, kind), never registered."""
        key = (var.name, var.kind)
        index = self._scratch.get(key)
        if index is None:
            index = self._next
            self._next += 1
            self._scratch[key] = index
        return index

    def name_of(self, index: int) -> str:
        return self._names[index]


class MemoCache:
    """Formula-structure keyed cache of compiled automata.

    Lookups never change verdicts, only timing.  A cache instance is not
    synchronized: the intended use is one cache per session; sharing
    between concurrently running sessions needs an external lock.
    """

    def __init__(self):
        self._table: dict[str, Dfa] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Dfa | None:
        hit = self._table.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, key: str, value: Dfa) -> None:
        self._table[key] = value


_ATOM_TAG = {In: "in", Sub: "sub", Less: "lt", Succ: "succ", EqFo: "eq"}


def _key(f: Formula, env: dict[str, int], bound: set[str]) -> str:
    def name(v: VarId) -> str:
        if v.name in bound:
            return v.name
        return f"@{env[v.name]}"

    if isinstance(f, ATOM_TYPES):
        a, b = operands(f)
        return f"{_ATOM_TAG[type(f)]}({name(a)},{name(b)})"
    if isinstance(f, Not):
        return f"~{_key(f.body, env, bound)}"
    if isinstance(f, And):
        return f"&({_key(f.left, env, bound)},{_key(f.right, env, bound)})"
    if isinstance(f, Exists):
        marker = "ex1" if f.var.kind is Kind.FIRST_ORDER else "ex2"
        bound.add(f.var.name)
        try:
            return f"{marker} {f.var.name}:({_key(f.body, env, bound)})"
        finally:
            bound.discard(f.var.name)
    raise TypeError(f"normalized formulas cannot contain {type(f).__name__}")


# --- base automata -----------------------------------------------------------

def restriction_automaton(track: int) -> Dfa:
    """Exactly one 1-bit on the given first-order track: waiting/seen/dead."""
    tracks = make_tracks([(track, Kind.FIRST_ORDER)])
    return make_dfa(tracks, 3, 0, {1}, {
        0: [("0", 0), ("1", 1)],
        1: [("0", 1), ("1", 2)],
        2: [("X", 2)],
    })


def _constant(tracks, accept: bool) -> Dfa:
    """One state that accepts every word, or none."""
    return make_dfa(tracks, 1, 0, {0} if accept else set(), {0: [("X" * len(tracks), 0)]})


def compile_atom(atom, env: dict[str, int]) -> Dfa:
    """Unrestricted two-track automaton for one atom.

    First-order restrictions are conjoined by the caller, not here, so
    e.g. the In automaton accepts every word in which no position sets
    the x bit without the Y bit (vacuously including the empty word).
    """
    validate_kinds(atom)
    a, b = operands(atom)
    for v in (a, b):
        if v.name not in env:
            raise UnboundTrack(f"no track bound for {v.name}")
    ta, tb = env[a.name], env[b.name]

    if ta == tb:
        tracks = make_tracks([(ta, a.kind)])
        # x = x and Y sub Y always hold, x < x and x = x + 1 never do
        return _constant(tracks, isinstance(atom, (EqFo, Sub)))

    track_list = sorted([(ta, a.kind), (tb, b.kind)])
    tracks = make_tracks(track_list)
    pos_a = 0 if track_list[0][0] == ta else 1

    def cube(bit_a: str, bit_b: str) -> str:
        return bit_a + bit_b if pos_a == 0 else bit_b + bit_a

    if isinstance(atom, (In, Sub)):
        # whenever the first variable's bit is set, the second's must be too
        return make_dfa(tracks, 2, 0, {0}, {
            0: [(cube("0", "X"), 0), (cube("1", "1"), 0), (cube("1", "0"), 1)],
            1: [("XX", 1)],
        })
    if isinstance(atom, Less):
        return make_dfa(tracks, 4, 0, {2}, {
            0: [(cube("0", "0"), 0), (cube("1", "0"), 1), (cube("X", "1"), 3)],
            1: [(cube("X", "0"), 1), (cube("X", "1"), 2)],
            2: [("XX", 2)],
            3: [("XX", 3)],
        })
    if isinstance(atom, Succ):
        # x = y + 1: the y bit, then the x bit on the very next symbol
        return make_dfa(tracks, 4, 0, {2}, {
            0: [(cube("0", "0"), 0), (cube("0", "1"), 1), (cube("1", "X"), 3)],
            1: [(cube("1", "0"), 2), (cube("0", "X"), 3), (cube("1", "1"), 3)],
            2: [(cube("0", "0"), 2), (cube("1", "X"), 3), (cube("0", "1"), 3)],
            3: [("XX", 3)],
        })
    if isinstance(atom, EqFo):
        return make_dfa(tracks, 3, 0, {1}, {
            0: [(cube("0", "0"), 0), (cube("1", "1"), 1), (cube("1", "0"), 2),
                (cube("0", "1"), 2)],
            1: [(cube("0", "0"), 1), (cube("1", "X"), 2), (cube("0", "1"), 2)],
            2: [("XX", 2)],
        })
    raise KindError(f"not an atom: {atom!r}")


# --- the compiler ------------------------------------------------------------

def compile_formula(
    f: Formula,
    registry: TrackRegistry,
    cache: MemoCache | None = None,
    *,
    determinize_budget: int = DEFAULT_DETERMINIZE_BUDGET,
) -> Dfa:
    """Minimal automaton whose language is the set of models of ``f``.

    Every free variable must already be registered.  Satisfiability of
    ``f`` is emptiness of the result; a shortest accepted word decodes to
    a smallest model.
    """
    f = normalize(f)
    validate_kinds(f)
    fvs = free_vars(f)
    env = {v.name: registry.track_of(v) for v in fvs}

    top_key = "!" + _key(f, env, set())
    if cache is not None:
        hit = cache.get(top_key)
        if hit is not None:
            return hit

    result = _compile(f, env, set(), registry, cache, determinize_budget)
    for track in sorted(env[v.name] for v in fvs if v.kind is Kind.FIRST_ORDER):
        result = minimize(intersect(result, restriction_automaton(track)))
    if cache is not None:
        cache.put(top_key, result)
    return result


def _compile(f, env, bound: set[str], registry, cache, budget) -> Dfa:
    key = _key(f, env, bound)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit

    if isinstance(f, ATOM_TYPES):
        result = minimize(compile_atom(f, env))
    elif isinstance(f, Not):
        # complementing a minimal total DFA keeps it minimal
        result = complement(_compile(f.body, env, bound, registry, cache, budget))
    elif isinstance(f, And):
        left = _compile(f.left, env, bound, registry, cache, budget)
        right = _compile(f.right, env, bound, registry, cache, budget)
        result = minimize(intersect(left, right))
    elif isinstance(f, Exists):
        track = registry.scratch_track(f.var)
        inner_env = dict(env)
        inner_env[f.var.name] = track
        body = _compile(f.body, inner_env, bound | {f.var.name}, registry, cache, budget)
        if not any(t.index == track for t in body.tracks):
            result = body  # variable does not occur; positions always exist
        else:
            if f.var.kind is Kind.FIRST_ORDER:
                body = minimize(intersect(body, restriction_automaton(track)))
            result = minimize(determinize(project(body, track), budget))
    else:
        raise TypeError(f"normalized formulas cannot contain {type(f).__name__}")

    if cache is not None:
        cache.put(key, result)
    return result
