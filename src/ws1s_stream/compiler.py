"""Translate normalized formulas into minimal automata, bottom-up.

Variables own tracks: free variables get session-stable indices from the
registry, bound variables get a per-name scratch track that exists only
while the quantifier body is being built and is projected away before
the result escapes.  First-order variables carry the exactly-one-1-bit
restriction; it is conjoined at the outermost point where the variable
is live (at quantification for bound ones, at top level for free ones)
rather than inside every atom, which keeps intermediate products small.

Memoization is keyed on the normalized formula with every variable,
free or bound, named by its track index; a bound variable's is its
scratch track.  Keys are built bottom-up from the children's keys, and
a key determines its automaton in any registry, so one cache may serve
many sessions.  Quantified formulas differing only in binder names
still compile separately, because scratch tracks are assigned per name.
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

    def __len__(self) -> int:
        """Number of registered free variables."""
        return len(self._free)

    def unregister_after(self, count: int) -> None:
        """Forget every free variable registered after the first ``count``.

        The index counter stays where it is: scratch tracks come from it
        too, and memo keys name tracks by index, so no index is handed
        out twice.
        """
        for name in list(self._free)[count:]:
            del self._names[self._free.pop(name)[0]]


class MemoCache:
    """Formula-structure keyed cache of compiled automata.

    Lookups never change verdicts, only timing.  Keys name tracks, not
    variable names, so sessions with different registries may share one
    cache soundly.  A cache instance is not synchronized: sharing it
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
    key, body = _fold(f, env, registry, cache, determinize_budget)

    def restrict() -> Dfa:
        result = body
        for track in sorted(env[v.name] for v in fvs if v.kind is Kind.FIRST_ORDER):
            result = minimize(intersect(result, restriction_automaton(track)))
        return result

    return _memoized(cache, "!" + key, restrict)[1]


def _memoized(cache: MemoCache | None, key: str, build) -> tuple[str, Dfa]:
    """``key`` and its automaton, from the cache or else from ``build()``."""
    result = cache.get(key) if cache is not None else None
    if result is None:
        result = build()
        if cache is not None:
            cache.put(key, result)
    return key, result


def _fold(f: Formula, env: dict[str, int], registry, cache, budget) -> tuple[str, Dfa]:
    """Memo key and minimal automaton of a normalized formula, bottom-up;
    every case, negation too, ends in ``minimize``'s canonical form."""
    match f:
        case In() | Less() | Succ() | EqFo() | Sub():
            a, b = operands(f)
            return _memoized(cache, f"{type(f).__name__}(@{env[a.name]},@{env[b.name]})",
                             lambda: minimize(compile_atom(f, env)))
        case Not(body):
            key, inner = _fold(body, env, registry, cache, budget)
            return _memoized(cache, f"~{key}", lambda: minimize(complement(inner)))
        case And(left, right):
            lkey, ldfa = _fold(left, env, registry, cache, budget)
            rkey, rdfa = _fold(right, env, registry, cache, budget)
            return _memoized(cache, f"&({lkey},{rkey})",
                             lambda: minimize(intersect(ldfa, rdfa)))
        case Exists(var, body):
            track = registry.scratch_track(var)
            key, inner = _fold(body, {**env, var.name: track}, registry, cache, budget)
            return _memoized(cache, f"ex{var.kind.value} @{track}:({key})",
                             lambda: _project_out(inner, var.kind, track, budget))
    raise TypeError(f"normalized formulas cannot contain {type(f).__name__}")


def _project_out(body: Dfa, kind: Kind, track: int, budget: int) -> Dfa:
    """Existential quantification of the variable on ``track``."""
    if not any(t.index == track for t in body.tracks):
        return body  # variable does not occur; positions always exist
    if kind is Kind.FIRST_ORDER:
        body = minimize(intersect(body, restriction_automaton(track)))
    return minimize(determinize(project(body, track), budget))
