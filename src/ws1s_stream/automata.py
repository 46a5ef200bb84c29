"""Finite automata over bit-vector track alphabets.

A word symbol carries one bit per track; transition labels are cubes,
strings over ``{0, 1, X}`` where ``X`` matches either bit.  Deterministic
automata keep, per state, a cube list that is pairwise disjoint and
jointly exhaustive, so every concrete symbol matches exactly one cube.

All automata are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    ArityMismatch,
    StateBudgetExceeded,
    TrackKindConflict,
    UnknownTrack,
)
from .syntax import Kind


class Track(NamedTuple):
    index: int
    kind: Kind


TrackSet = tuple[Track, ...]

Symbol = tuple[int, ...]
Witness = list[Symbol]

DEFAULT_DETERMINIZE_BUDGET = 1_000_000


def make_tracks(pairs: Iterable[tuple[int, Kind]]) -> TrackSet:
    tracks = tuple(Track(i, k) for i, k in pairs)
    indices = [t.index for t in tracks]
    if indices != sorted(indices) or len(set(indices)) != len(indices):
        raise ValueError(f"track indices must be strictly increasing: {indices}")
    return tracks


def merge_tracks(a: TrackSet, b: TrackSet) -> TrackSet:
    """Union of two track sets; kinds must agree on shared indices."""
    kinds: dict[int, Kind] = {t.index: t.kind for t in a}
    for t in b:
        if kinds.get(t.index, t.kind) is not t.kind:
            raise TrackKindConflict(f"track {t.index} is both first- and second-order")
        kinds[t.index] = t.kind
    return tuple(Track(i, kinds[i]) for i in sorted(kinds))


def track_columns(tracks: TrackSet, union: TrackSet) -> tuple[int, ...]:
    """Column of each of ``tracks`` in the wider track set ``union``."""
    pos_of = {t.index: i for i, t in enumerate(union)}
    return tuple(pos_of[t.index] for t in tracks)


# --- cube helpers ------------------------------------------------------------

def cube_overlay(cube: str, other: str, cols: Sequence[int]) -> Optional[str]:
    """Intersection of ``cube`` with ``other`` laid onto its columns ``cols``.

    Column ``cols[i]`` of the result must match both ``other[i]`` and the
    cube's own character there; None when no symbol matches both.
    """
    out = list(cube)
    for ch, col in zip(other, cols):
        if ch == "X":
            continue
        cur = out[col]
        if cur == "X":
            out[col] = ch
        elif cur != ch:
            return None
    return "".join(out)


def cube_matches(cube: str, symbol: Symbol) -> bool:
    return all(c == "X" or int(c) == bit for c, bit in zip(cube, symbol))


def cube_min_symbol(cube: str) -> Symbol:
    """Least concrete symbol in a cube: don't-care bits become 0."""
    return tuple(1 if c == "1" else 0 for c in cube)


def cube_product(edges: Iterable[tuple[str, tuple]], row: Iterable[tuple[str, object]],
                 cols: Sequence[int], width: int) -> list[tuple[str, tuple]]:
    """One product step: every edge of ``edges`` met with every edge of ``row``.

    Each ``(cube, target)`` of ``edges``, padded with don't-cares to ``width``,
    is met with each ``(cube, dst)`` of ``row`` laid onto columns ``cols``;
    non-empty meets become ``(meet, target + (dst,))``, edge-major.
    """
    out = []
    for cube, target in edges:
        cube += "X" * (width - len(cube))
        for other, dst in row:
            meet = cube_overlay(cube, other, cols)
            if meet is not None:
                out.append((meet, target + (dst,)))
    return out


def _region_map(edges: list[tuple[str, object]], width: int, union: bool):
    """Canonical disjoint cover of the symbol space from overlapping cubes.

    Returns a list of ``(cube, value)`` covering every symbol exactly once,
    in a normal form that depends only on the symbol-to-value function:
    recursive cofactoring on track positions, with equal halves merged to X.
    With ``union`` the values of all matching cubes are unioned (sets);
    otherwise exactly one cube must match each symbol.
    """

    def go(es: list[tuple[str, object]], pos: int):
        if pos == width:
            if union:
                val = frozenset().union(*(v for _, v in es)) if es else frozenset()
            else:
                vals = {v for _, v in es}
                if len(vals) != 1:
                    raise ValueError(f"cube list is not a partition: {es}")
                val = vals.pop()
            return [("", val)]
        zero = [(c, v) for c, v in es if c[pos] in "0X"]
        one = [(c, v) for c, v in es if c[pos] in "1X"]
        r0 = go(zero, pos + 1)
        r1 = go(one, pos + 1)
        if r0 == r1:
            return [("X" + c, v) for c, v in r0]
        return [("0" + c, v) for c, v in r0] + [("1" + c, v) for c, v in r1]

    return go(edges, 0)


# --- automata ----------------------------------------------------------------

@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton; see module docstring for conventions."""

    tracks: TrackSet
    num_states: int
    initial: int
    accepting: frozenset[int]
    delta: tuple[tuple[tuple[str, int], ...], ...]  # delta[state] = ((cube, dst), ...)

    @property
    def width(self) -> int:
        return len(self.tracks)

    def track_position(self, index: int) -> int:
        for pos, t in enumerate(self.tracks):
            if t.index == index:
                return pos
        raise UnknownTrack(f"automaton has no track {index}")

    def step(self, state: int, symbol: Symbol) -> int:
        for cube, dst in self.delta[state]:
            if cube_matches(cube, symbol):
                return dst
        raise AssertionError(f"non-total delta at state {state} for {symbol}")

    def audit(self) -> None:
        """Check the determinism/totality invariant; raises on violation."""
        if not 0 <= self.initial < self.num_states:
            raise ValueError("initial state out of range")
        if any(s < 0 or s >= self.num_states for s in self.accepting):
            raise ValueError("accepting state out of range")
        full = 1 << self.width
        for state, edges in enumerate(self.delta):
            covered = 0
            for i, (cube, dst) in enumerate(edges):
                if len(cube) != self.width:
                    raise ValueError(f"cube width mismatch at state {state}")
                if not 0 <= dst < self.num_states:
                    raise ValueError(f"dangling transition {state} -> {dst}")
                covered += 1 << cube.count("X")
                for other, _ in edges[i + 1:]:
                    if cube_overlay(cube, other, range(self.width)) is not None:
                        raise ValueError(f"overlapping cubes at state {state}")
            if covered != full:
                raise ValueError(f"state {state} covers {covered}/{full} symbols")


@dataclass(frozen=True)
class Nfa:
    tracks: TrackSet
    num_states: int
    initial: int
    accepting: frozenset[int]
    delta: tuple[tuple[tuple[str, frozenset[int]], ...], ...]

    @property
    def width(self) -> int:
        return len(self.tracks)


def make_dfa(
    tracks: TrackSet,
    num_states: int,
    initial: int,
    accepting: Iterable[int],
    edges: dict[int, list[tuple[str, int]]],
) -> Dfa:
    delta = tuple(tuple(sorted(edges.get(s, []))) for s in range(num_states))
    return Dfa(tracks, num_states, initial, frozenset(accepting), delta)


def accepts(a: Dfa, word: Sequence[Symbol]) -> bool:
    state = a.initial
    for symbol in word:
        if len(symbol) != a.width:
            raise ArityMismatch(f"symbol {symbol} has {len(symbol)} bits, automaton has {a.width} tracks")
        state = a.step(state, symbol)
    return state in a.accepting


def nfa_accepts(n: Nfa, word: Sequence[Symbol]) -> bool:
    states = {n.initial}
    for symbol in word:
        if len(symbol) != n.width:
            raise ArityMismatch(f"symbol {symbol} has {len(symbol)} bits, automaton has {n.width} tracks")
        nxt: set[int] = set()
        for s in states:
            for cube, dsts in n.delta[s]:
                if cube_matches(cube, symbol):
                    nxt.update(dsts)
        states = nxt
    return bool(states & n.accepting)


def _reaching(start: Iterable[int], links: Sequence[set[int]]) -> set[int]:
    """``start`` and every state reachable from it along ``links``.

    With predecessor sets as ``links`` this is backward reachability.
    """
    found = set(start)
    stack = list(found)
    while stack:
        for p in links[stack.pop()]:
            if p not in found:
                found.add(p)
                stack.append(p)
    return found


def coreachable(a: Dfa) -> frozenset[int]:
    """States from which some accepting state can be reached."""
    preds: list[set[int]] = [set() for _ in range(a.num_states)]
    for src, edges in enumerate(a.delta):
        for _, dst in edges:
            preds[dst].add(src)
    return frozenset(_reaching(a.accepting, preds))


def _explore(start, successors, budget: Optional[int] = None) -> tuple[list, tuple]:
    """Number the states reachable from ``start`` in discovery order.

    ``successors(state)`` lists ``(cube, state)`` edges.  Returns the states
    in id order and each state's edges to ids, sorted.  ``budget`` caps the
    state count; only determinization has one.
    """
    ids = {start: 0}
    order = [start]
    delta = []
    for state in order:  # grows while it is walked
        out = []
        for cube, target in successors(state):
            if target not in ids:
                if budget is not None and len(order) >= budget:
                    raise StateBudgetExceeded(budget, "determinization")
                ids[target] = len(order)
                order.append(target)
            out.append((cube, ids[target]))
        delta.append(tuple(sorted(out)))
    return order, tuple(delta)


# --- boolean and structural operations ---------------------------------------

def complement(a: Dfa) -> Dfa:
    return Dfa(a.tracks, a.num_states, a.initial,
               frozenset(range(a.num_states)) - a.accepting, a.delta)


def cylindrify(a: Dfa, extra: TrackSet) -> Dfa:
    """Add don't-care tracks; the language becomes the inverse projection."""
    tracks = merge_tracks(a.tracks, extra)
    if len(tracks) == a.width:
        return a
    cols = track_columns(a.tracks, tracks)
    blank = "X" * len(tracks)
    delta = tuple(
        tuple((cube_overlay(blank, cube, cols), dst) for cube, dst in edges)
        for edges in a.delta
    )
    return Dfa(tracks, a.num_states, a.initial, a.accepting, delta)


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton over the union track set, trimmed to reachable states."""
    tracks = merge_tracks(a.tracks, b.tracks)
    width = len(tracks)
    a_cols = track_columns(a.tracks, tracks)
    b_cols = track_columns(b.tracks, tracks)

    def successors(pair: tuple[int, int]) -> list[tuple[str, tuple]]:
        edges = cube_product([("X" * width, ())], a.delta[pair[0]], a_cols, width)
        return cube_product(edges, b.delta[pair[1]], b_cols, width)

    order, delta = _explore((a.initial, b.initial), successors)
    accepting = frozenset(i for i, (pa, pb) in enumerate(order)
                          if pa in a.accepting and pb in b.accepting)
    return Dfa(tracks, len(order), 0, accepting, delta)


def project(a: Dfa, track_index: int) -> Nfa:
    """Erase one track (existential quantification over its bit-column).

    Erasing alone is not enough: a witness column may need positions past
    the end of the input word, where every remaining track reads 0.  So
    after dropping the track, any state from which an all-zeros path (on
    the remaining tracks) reaches an accepting state is itself marked
    accepting, keeping the language closed under trailing zero padding.
    """
    pos = a.track_position(track_index)
    tracks = tuple(t for t in a.tracks if t.index != track_index)
    delta = tuple(
        tuple((cube[:pos] + cube[pos + 1:], frozenset({dst})) for cube, dst in edges)
        for edges in a.delta
    )
    zero_preds: list[set[int]] = [set() for _ in range(a.num_states)]
    for src, edges in enumerate(delta):
        for cube, dsts in edges:
            if "1" not in cube:
                for dst in dsts:
                    zero_preds[dst].add(src)
    accepting = _reaching(a.accepting, zero_preds)
    return Nfa(tracks, a.num_states, a.initial, frozenset(accepting), delta)


def determinize(n: Nfa, budget: int = DEFAULT_DETERMINIZE_BUDGET) -> Dfa:
    """Subset construction over reachable subsets only."""

    def successors(subset: frozenset[int]) -> list[tuple[str, frozenset[int]]]:
        edges = [(cube, dsts) for s in sorted(subset) for cube, dsts in n.delta[s]]
        return _region_map(edges, n.width, union=True)  # each value a frozenset

    order, delta = _explore(frozenset({n.initial}), successors, budget)
    accepting = frozenset(i for i, subset in enumerate(order) if subset & n.accepting)
    return Dfa(n.tracks, len(order), 0, accepting, delta)


def minimize(a: Dfa) -> Dfa:
    """Unique minimal total DFA for the language, canonically numbered.

    Partition refinement on block signatures; every cube list in the
    result is in the canonical disjoint cover form of ``_region_map``, so
    two minimizations of language-equal automata over the same tracks
    produce byte-identical dumps.  The dead state, when reachable, gets
    the last id.
    """
    states = sorted(_reaching([a.initial], [{dst for _, dst in edges} for edges in a.delta]))

    block: dict[int, int] = {s: (1 if s in a.accepting else 0) for s in states}
    while True:
        groups: dict[tuple, int] = {}  # signature -> new block id
        new_block: dict[int, int] = {}
        for s in states:
            edges = [(cube, block[dst]) for cube, dst in a.delta[s]]
            sig = (block[s], tuple(_region_map(edges, a.width, union=False)))
            new_block[s] = groups.setdefault(sig, len(groups))
        split = len(groups) != len(set(block.values()))
        block = new_block
        if not split:
            break

    # no block split in the last round, so each old block has one
    # signature holding its canonical cover over old ids: renumber those;
    # groups holds the blocks in id order 0..n-1
    renamed = {old: b for (old, _), b in groups.items()}
    covers = tuple(tuple((cube, renamed[dst]) for cube, dst in cover) for _, cover in groups)
    accepting_blocks = frozenset(block[s] for s in states if s in a.accepting)
    alive = coreachable(Dfa(a.tracks, len(covers), block[a.initial], accepting_blocks, covers))

    # covers come sorted from _region_map, so discovery order is canonical
    bfs, _ = _explore(block[a.initial], covers.__getitem__)
    order = [b for b in bfs if b in alive] + [b for b in bfs if b not in alive]
    renumber = {b: i for i, b in enumerate(order)}
    delta = tuple(tuple((cube, renumber[dst]) for cube, dst in covers[b]) for b in order)
    accepting = frozenset(renumber[b] for b in accepting_blocks)
    return Dfa(a.tracks, len(order), renumber[block[a.initial]], accepting, delta)


# --- emptiness and witnesses --------------------------------------------------

def find_witness(a: Dfa) -> Optional[Witness]:
    """Shortest accepted word, or None if the language is empty.

    Length ties break toward the lexicographically least concrete symbol
    sequence (tracks in ascending index order, 0 < 1), so results are
    reproducible byte for byte.  The search is breadth-first and stops
    with the first accepting layer.
    """
    if a.initial in a.accepting:
        return []
    paths: dict[int, tuple[Symbol, ...]] = {a.initial: ()}
    layer = [a.initial]
    while layer:
        discovered: dict[int, tuple[Symbol, ...]] = {}
        for state in sorted(layer, key=lambda s: paths[s]):
            base = paths[state]
            for cube, dst in a.delta[state]:
                if dst in paths:
                    continue
                candidate = base + (cube_min_symbol(cube),)
                if dst not in discovered or candidate < discovered[dst]:
                    discovered[dst] = candidate
        if not discovered:
            return None
        hits = [p for s, p in discovered.items() if s in a.accepting]
        if hits:
            return list(min(hits))
        paths.update(discovered)
        layer = list(discovered)
    return None


def is_empty(a: Dfa) -> bool:
    return find_witness(a) is None


def language_equiv(a: Dfa, b: Dfa) -> bool:
    tracks = merge_tracks(a.tracks, b.tracks)
    ua = cylindrify(a, tracks)
    ub = cylindrify(b, tracks)
    return (find_witness(intersect(ua, complement(ub))) is None
            and find_witness(intersect(ub, complement(ua))) is None)


# --- text dump ----------------------------------------------------------------

def dump(a: Dfa) -> str:
    """Line-oriented text form with deterministic ordering."""
    tracks = ",".join(f"{t.index}:{t.kind.value}" for t in a.tracks)
    lines = [f"dfa tracks={tracks} states={a.num_states} initial={a.initial}"]
    lines.append("accepting " + " ".join(str(s) for s in sorted(a.accepting)))
    for state in range(a.num_states):
        for cube, dst in a.delta[state]:
            lines.append(f"trans {state} {cube or '-'} {dst}")
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> Dfa:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split()
    if header[0] != "dfa":
        raise ValueError("not an automaton dump")
    fields = dict(part.split("=", 1) for part in header[1:])
    if fields["tracks"]:
        tracks = make_tracks(
            (int(i), Kind(int(k)))
            for i, k in (pair.split(":") for pair in fields["tracks"].split(","))
        )
    else:
        tracks = ()
    num_states = int(fields["states"])
    initial = int(fields["initial"])
    accepting = frozenset(int(s) for s in lines[1].split()[1:])
    edges: dict[int, list[tuple[str, int]]] = {}
    for line in lines[2:]:
        _, src, cube, dst = line.split()
        edges.setdefault(int(src), []).append(("" if cube == "-" else cube, int(dst)))
    return make_dfa(tracks, num_states, initial, accepting, edges)
