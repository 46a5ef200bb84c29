"""Translate normalized formulas into minimal automata, bottom-up.

Variables own tracks: free variables get session-stable indices from the
registry, bound variables a track one past every track in scope, which
exists only while the quantifier body is being built and is projected
away before the result escapes.  First-order variables carry the
exactly-one-1-bit restriction; it is conjoined at the outermost point
where the variable is live (at quantification for bound ones, at top
level for free ones) rather than inside every atom.  In a top-level
``&`` chain the top level is each part, as a session push splits the
chain: each distinct part is restricted on its own free first-order
variables and multiplied in by ``product``, the minimal automaton of
the intersection, built on shared decision diagrams without the cubes
of the unminimized product.  Restricting only the whole chain would
leave every product in it unrestricted over its full width.  The
one-shot run of the wide-conjuncts benchmark (14 lines, seed 3, Python
3.11 on 2 vCPUs) takes about 0.04 s, against 0.08 s with
``minimize(intersect(a, b))``; compiling the 10-pair family-1 chain
takes 1.5 s, against 5.9 s.  Where every part shares the same
first-order variables, the per-part restrictions repeat: 400 random
chains of 2-4 small formulas over two first-order names take about
0.78 s whole and 0.92 s part by part.

Memoization is keyed on a node's shape: the normalized formula with
each of the node's tracks named by its rank among them.  A bound
variable's track comes after every track in scope, so its rank is set
by binder order, and no key names a track index.  Every node's
automaton is ``minimize``'s normal form, which depends only on the
language and the order of the tracks, not on their indices; so one key
means one automaton up to its track labels, in any registry, and a hit
is returned with the caller's tracks.  Keys are built bottom-up from
the children's keys, an ``And`` adding which union ranks each operand
has.  A key names each child by a short name the cache gives that
child's key, so a chain of n nodes keeps O(n) key characters, not
O(n^2).  Without a cache no key is built.
"""

from __future__ import annotations

from dataclasses import replace

from .automata import (
    DEFAULT_DETERMINIZE_BUDGET,
    Dfa,
    Track,
    TrackSet,
    complement,
    determinize,
    intersect,  # not called here, but perfbench's tracer wraps compiler.intersect
    make_dfa,
    make_tracks,
    minimize,
    product,
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
        self._names: dict[int, str] = {}

    def register(self, var: VarId) -> int:
        entry = self._free.get(var.name)
        if entry is not None:
            index, kind = entry
            if kind is not var.kind:
                raise KindConflict(
                    f"{var.name} already registered as {kind.name}, now used as {var.kind.name}"
                )
            return index
        index = len(self._free)
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

    def name_of(self, index: int) -> str:
        return self._names[index]

    def __len__(self) -> int:
        """Number of registered free variables."""
        return len(self._free)

    def unregister_after(self, count: int) -> None:
        """Forget every free variable registered after the first ``count``.

        Their indices are handed out again.  That is sound: memo keys
        name tracks by rank, not index, and a bound variable's track is
        chosen at compile time above every free track, so unique indices
        only keep the tracks of one compile apart.
        """
        for name in list(self._free)[count:]:
            del self._names[self._free.pop(name)[0]]


class MemoCache:
    """Shape-keyed cache of compiled automata.

    Lookups never change verdicts, only timing.  A key is a formula's
    shape: its tracks are named by rank, not by index or variable name,
    so conjuncts of one shape over different variables share one entry,
    and sessions with different registries may share one cache soundly.
    An entry keeps the tracks of the compile that built it; the compiler
    relabels a hit with the caller's.  A cache instance is not
    synchronized: sharing it between concurrently running sessions needs
    an external lock.
    """

    def __init__(self):
        self._table: dict[str, Dfa] = {}
        self._names: dict[str, str] = {}  # key -> the short name parents' keys use
        self.hits = 0
        self.misses = 0

    def name(self, key: str) -> str:
        """A short name for ``key``, the same for equal keys in this cache."""
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"#{len(self._names)}"
        return name

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
    a smallest model.  A top-level ``&`` chain is the product of its
    distinct restricted parts, in text order; minimal automata are
    canonical, so it is the automaton of the chain built whole.
    """
    f = normalize(f)
    validate_kinds(f)
    env = {v.name: registry.track_of(v) for v in free_vars(f)}
    parts: list[Dfa] = []
    for part in conjuncts(f):
        dfa = _restricted(part, env, cache, determinize_budget)
        if dfa not in parts:  # L & L = L
            parts.append(dfa)
    result = parts[0]
    for dfa in parts[1:]:
        result = product(result, dfa)
    return result


def conjuncts(f: Formula) -> list[Formula]:
    """The parts of ``f``'s top-level ``&`` chain, in text order; a loop,
    so a chain of any length splits within the interpreter stack."""
    parts, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            parts.append(g)
    return parts


def _restricted(f: Formula, env: dict[str, int], cache, budget) -> Dfa:
    """Minimal automaton of a normalized formula with the exactly-one
    restriction of each of its free first-order tracks conjoined."""
    key, body = _fold(f, env, cache, budget)

    def restrict() -> Dfa:
        result = body
        for track in body.tracks:
            if track.kind is Kind.FIRST_ORDER:
                result = product(result, restriction_automaton(track.index))
        return result

    return _memoized(cache, "!" + key, body.tracks, restrict)[1]


def _memoized(cache: MemoCache | None, key: str, tracks: TrackSet, build) -> tuple[str, Dfa]:
    """The cache's name for ``key`` and its automaton over ``tracks``, from
    the cache or else from ``build()``; without a cache, "" and ``build()``.

    A hit is the automaton of a node of the same shape, whose tracks
    have the same ranks and kinds; its cubes and states are already
    right, so only the track labels change.
    """
    if cache is None:
        return "", build()
    result = cache.get(key)
    if result is None:
        result = build()
        cache.put(key, result)
    elif result.tracks != tracks:
        result = replace(result, tracks=tracks)
    return cache.name(key), result


def _fold(f: Formula, env: dict[str, int], cache, budget) -> tuple[str, Dfa]:
    """Shape key and minimal automaton of a normalized formula, bottom-up;
    every case, negation too, ends in ``minimize``'s canonical form."""
    match f:
        case In() | Less() | Succ() | EqFo() | Sub():
            a, b = operands(f)
            ta, tb = env[a.name], env[b.name]
            first, second = Track(ta, a.kind), Track(tb, b.kind)
            # an atom's type fixes its operands' kinds, so the key names
            # none; a track both share gets a's kind, as in compile_atom
            tracks = (first,) if ta == tb else (first, second) if ta < tb else (second, first)
            return _memoized(cache, f"{type(f).__name__}({int(ta > tb)},{int(tb > ta)})",
                             tracks, lambda: minimize(compile_atom(f, env)))
        case Not(body):
            key, inner = _fold(body, env, cache, budget)
            return _memoized(cache, f"~{key}", inner.tracks,
                             lambda: minimize(complement(inner)))
        case And(left, right):
            lkey, ldfa = _fold(left, env, cache, budget)
            rkey, rdfa = _fold(right, env, cache, budget)
            # per union rank, whether the left operand has that track, the
            # right or both: the map from each operand's ranks to the node's
            side = dict.fromkeys(ldfa.tracks, "l")
            for t in rdfa.tracks:
                side[t] = "b" if t in side else "r"
            tracks = tuple(sorted(side, key=lambda t: t.index))  # a kind clash raises in product
            sides = "".join(map(side.__getitem__, tracks))
            return _memoized(cache, f"&{sides}({lkey},{rkey})", tracks,
                             lambda: product(ldfa, rdfa))
        case Exists(var, body):
            # one past every track in scope: the bound variable ranks last
            track = 1 + max(env.values(), default=-1)
            key, inner = _fold(body, {**env, var.name: track}, cache, budget)
            if not inner.tracks or inner.tracks[-1].index != track:
                return key, inner  # variable does not occur; positions always exist
            return _memoized(cache, f"ex{var.kind.value}({key})", inner.tracks[:-1],
                             lambda: _project_out(inner, var.kind, track, budget))
    raise TypeError(f"normalized formulas cannot contain {type(f).__name__}")


def _project_out(body: Dfa, kind: Kind, track: int, budget: int) -> Dfa:
    """Existential quantification of the variable on ``track``."""
    if kind is Kind.FIRST_ORDER:
        body = product(body, restriction_automaton(track))
    return minimize(determinize(project(body, track), budget))
