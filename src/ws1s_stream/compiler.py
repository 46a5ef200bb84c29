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
variables, and all of them are multiplied in one call to ``product``,
the minimal automaton of the intersection, built on shared decision
diagrams by one k-ary apply that stops at dead states, without the
cubes of any unminimized product.  Restricting only the whole chain
would leave the product unrestricted over its full width.  Where every
part shares the same first-order variables, the per-part restrictions
repeat.  Restricting each first-order track once per chain instead
(unrestricted parts, and one restriction per track in the chain's one
product) measured slower on the one-shot run of the wide-conjuncts
benchmark (14 lines, seed 3, Python 3.11 on 2 vCPUs), 0.041 s against
0.028 s, so every part keeps its own restrictions.

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
O(n^2).  A compile given no cache uses a fresh one of its own, so a
shape repeated within its formula is built once there too.
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
    check_atom_kinds,
    free_vars,
    normalize,
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
    An entry keeps the tracks of the compile that built it; ``lookup``
    relabels a hit with the caller's.  A cache instance is not
    synchronized: sharing it between concurrently running sessions needs
    an external lock.
    """

    def __init__(self):
        self._table: dict[str, tuple[str, Dfa]] = {}  # key -> (short name, automaton)
        self.hits = 0
        self.misses = 0

    def lookup(self, key: str, tracks: TrackSet, build) -> tuple[str, Dfa]:
        """The short name that parents' keys use for ``key``, the same for
        equal keys in this cache, and its automaton over ``tracks``: from
        the cache, or else from ``build()``, which is then stored.

        A hit is the automaton of a node of the same shape, whose tracks
        have the same ranks and kinds; its cubes and states are already
        right, so only the track labels change.
        """
        entry = self._table.get(key)
        if entry is None:
            self.misses += 1
            dfa = build()  # before naming: a key that build looks up is named first
            entry = self._table[key] = (f"#{len(self._table)}", dfa)
            return entry
        self.hits += 1
        name, dfa = entry
        return name, dfa if dfa.tracks == tracks else replace(dfa, tracks=tracks)


# --- base automata -----------------------------------------------------------

def restriction_automaton(track: int) -> Dfa:
    """Exactly one 1-bit on the given first-order track: waiting/seen/dead."""
    tracks = make_tracks([(track, Kind.FIRST_ORDER)])
    return make_dfa(tracks, 3, 0, {1}, {
        0: [("0", 0), ("1", 1)],
        1: [("0", 1), ("1", 2)],
        2: [("X", 2)],
    })


# Per atom type, over the tracks of its (first, second) operands in written
# order: the accepting states, and each state's cubes with their targets;
# state 0 is initial.
_ATOMS = {
    # x in Y, and Y sub Z: whenever the first bit is set, the second is too
    In: ({0}, [[("0X", 0), ("11", 0), ("10", 1)], [("XX", 1)]]),
    # x < y: the x bit, then the y bit on a later symbol
    Less: ({2}, [[("00", 0), ("10", 1), ("X1", 3)], [("X0", 1), ("X1", 2)],
                 [("XX", 2)], [("XX", 3)]]),
    # x = y + 1: the y bit, then the x bit on the very next symbol
    Succ: ({2}, [[("00", 0), ("01", 1), ("1X", 3)], [("10", 2), ("0X", 3), ("11", 3)],
                 [("00", 2), ("1X", 3), ("01", 3)], [("XX", 3)]]),
    # x = y: both bits on one symbol
    EqFo: ({1}, [[("00", 0), ("11", 1), ("10", 2), ("01", 2)],
                 [("00", 1), ("1X", 2), ("01", 2)], [("XX", 2)]]),
}
_ATOMS[Sub] = _ATOMS[In]


def _atom_tracks(atom, env: dict[str, int]) -> tuple[TrackSet, tuple[int, int]]:
    """The tracks of an atom's operands in index order, and each operand's
    rank among them; operands on one track share it, with the first's kind.

    Every atom a compile meets passes through here before its memo lookup,
    so an operand of the wrong kind raises ``KindError`` first."""
    check_atom_kinds(atom)
    a, b = atom.x, atom.y
    for v in (a, b):
        if v.name not in env:
            raise UnboundTrack(f"no track bound for {v.name}")
    first, second = Track(env[a.name], a.kind), Track(env[b.name], b.kind)
    ranks = (int(first.index > second.index), int(second.index > first.index))
    return (first,) if first.index == second.index else tuple(sorted((first, second))), ranks


def compile_atom(atom, env: dict[str, int]) -> Dfa:
    """Unrestricted two-track automaton for one atom; a formula that is
    not an atom raises ``KindError``.

    First-order restrictions are conjoined by the caller, not here, so
    e.g. the In automaton accepts every word in which no position sets
    the x bit without the Y bit (vacuously including the empty word).
    """
    if type(atom) not in _ATOMS:
        raise KindError(f"not an atom: {atom!r}")
    tracks, ranks = _atom_tracks(atom, env)
    accepting, rows = _ATOMS[type(atom)]
    if len(tracks) == 1:
        # x = x and Y sub Y always hold, x < x and x = x + 1 never do
        accepting, rows = {0} if isinstance(atom, (EqFo, Sub)) else (), [[("X", 0)]]
    rows = [[(cube[::-1] if ranks[0] else cube, t) for cube, t in row] for row in rows]
    return make_dfa(tracks, len(rows), 0, accepting, dict(enumerate(rows)))


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
    canonical, so it is the automaton of the chain built whole.  Without
    ``cache``, the compile looks its shapes up in a fresh cache of its own.
    """
    if cache is None:
        cache = MemoCache()
    f = normalize(f)
    env = {v.name: registry.track_of(v) for v in free_vars(f)}
    parts: list[Dfa] = []
    for part in conjuncts(f):
        dfa = _restricted(part, env, cache, determinize_budget)
        if dfa not in parts:  # L & L = L
            parts.append(dfa)
    return product(*parts) if len(parts) > 1 else parts[0]


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
        restrictions = [restriction_automaton(track.index) for track in body.tracks
                        if track.kind is Kind.FIRST_ORDER]
        return product(body, *restrictions) if restrictions else body

    return cache.lookup("!" + key, body.tracks, restrict)[1]


def _fold(f: Formula, env: dict[str, int], cache, budget) -> tuple[str, Dfa]:
    """Shape key and minimal automaton of a normalized formula, bottom-up;
    every case, negation too, ends in ``minimize``'s canonical form."""
    match f:
        case _ if type(f) in _ATOMS:
            tracks, (ra, rb) = _atom_tracks(f, env)
            # _atom_tracks checked the kinds the atom's type fixes, so the key names none
            return cache.lookup(f"{type(f).__name__}({ra},{rb})", tracks,
                                lambda: minimize(compile_atom(f, env)))
        case Not(body):
            key, inner = _fold(body, env, cache, budget)
            return cache.lookup(f"~{key}", inner.tracks,
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
            return cache.lookup(f"&{sides}({lkey},{rkey})", tracks,
                                lambda: product(ldfa, rdfa))
        case Exists(var, body):
            # one past every track in scope: the bound variable ranks last
            track = 1 + max(env.values(), default=-1)
            key, inner = _fold(body, {**env, var.name: track}, cache, budget)
            if not inner.tracks or inner.tracks[-1].index != track:
                return key, inner  # variable does not occur; positions always exist
            return cache.lookup(f"ex{var.kind.value}({key})", inner.tracks[:-1],
                                lambda: _project_out(inner, var.kind, track, budget))
    raise TypeError(f"normalized formulas cannot contain {type(f).__name__}")


def _project_out(body: Dfa, kind: Kind, track: int, budget: int) -> Dfa:
    """Existential quantification of the variable on ``track``."""
    if kind is Kind.FIRST_ORDER:
        body = product(body, restriction_automaton(track))
    return minimize(determinize(project(body, track), budget))
