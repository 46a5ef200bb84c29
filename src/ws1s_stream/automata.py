"""Finite automata over bit-vector track alphabets.

A word symbol carries one bit per track; transition labels are cubes,
strings over ``{0, 1, X}`` where ``X`` matches either bit.  Deterministic
automata keep, per state, a cube list that is pairwise disjoint and
jointly exhaustive, so every concrete symbol matches exactly one cube.
Every operation that widens or meets cubes (``intersect``, ``cylindrify``,
``Dfa.audit`` and the stream's product search) works on the same cubes
as ``(care, value)`` int masks, read by ``mask_rows``, met by the one
product step ``cube_product`` (which also names each meet's target
pair, in the order the meets are made) and printed back by
``mask_cube``.  Code that matches a symbol or cofactors string cubes
(``Dfa.step``, ``project``, and ``_region_map``, which ``determinize``
uses) keeps the strings.

``minimize`` and ``product`` (``minimize(intersect(a, b))`` without the
product's cubes) work on shared decision diagrams instead, as MONA does
(Klarlund, Møller and Schwartzbach, "MONA Implementation Secrets",
2002): each state's transition function is one reduced ordered diagram
over track positions, hash-consed in a unique table, with target states
as leaves.  A diagram is built once per state, from mask cubes
(``_diagrams``) or by a memoized pairwise apply of two operands'
diagrams (``product``); each round of partition refinement then maps the
leaves to blocks once per node and compares node ids, and the result's
cubes are read off the final diagrams' paths in ``_region_map``'s
normal form.

All automata are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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

def cube_matches(cube: str, symbol: Symbol) -> bool:
    return all(c == "X" or int(c) == bit for c, bit in zip(cube, symbol))


_BITS = bytes.maketrans(b"01X", b"\0\1\0")


def cube_min_symbol(cube: str) -> Symbol:
    """Least concrete symbol in a cube: don't-care bits become 0."""
    return tuple(cube.encode().translate(_BITS))  # one byte translation


# A mask cube is a pair of ints (care, value) over a symbol of some width:
# bit ``width - 1 - col`` stands for column ``col``, so column 0 is the most
# significant bit; care bits are the columns the cube reads, value bits
# (a subset of them) the columns it reads as 1.  Widening a mask cube with
# don't-care columns on the right is a left shift, and integer order on
# ``value`` is the order of the cubes' least symbols.

def mask_min_symbol(value: int, width: int) -> Symbol:
    """Least concrete symbol of a mask cube with this ``value``."""
    return cube_min_symbol(bin(value | 1 << width)[3:])


@lru_cache(maxsize=1 << 12)  # automata reuse few distinct cubes across their states
def mask_cube(care: int, value: int, width: int) -> str:
    """The ``{0, 1, X}`` string of a mask cube."""
    bits = bin(value | 1 << width)[3:]
    read = bin(care | 1 << width)[3:]
    return "".join(b if r == "1" else "X" for b, r in zip(bits, read))


def mask_rows(a: Dfa, columns: Iterable[int], width: int
              ) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Each state's edges as ``(care, value, dst)`` mask cubes over ``width``
    columns; ``columns`` gives the column of each of ``a``'s tracks, in order."""
    bits = [1 << (width - 1 - col) for col in columns]
    rows = []
    for edges in a.delta:
        row = []
        for cube, dst in edges:
            care = value = 0
            for ch, bit in zip(cube, bits):
                if ch != "X":
                    care |= bit
                    if ch == "1":
                        value |= bit
            row.append((care, value, dst))
        rows.append(tuple(row))
    return tuple(rows)


def cube_product(edges: Iterable[tuple[int, int, int]], row: Sequence[tuple[int, int, int]],
                 shift: int, ids: dict[int, int], new: Callable[[int, int], int]
                 ) -> list[tuple[int, int, int]]:
    """One product step on mask cubes: every edge of ``edges`` met with every edge of ``row``.

    Each ``(care, value, target)`` of ``edges``, widened by ``shift``
    don't-care columns on the right, is met with each ``(care, value, dst)``
    of ``row``.  A non-empty meet goes to the pair ``(target, dst)``, named
    by ``ids[target << 32 | dst]``; a pair not in ``ids`` yet is named by
    ``new(target, dst)``, called only then and stored.  Returns the meets as
    ``(care, value, name)``, edge-major, which is the order pairs are named in.
    """
    out: list[tuple[int, int, int]] = []
    append, name_of = out.append, ids.get
    for care, value, target in edges:
        care <<= shift
        value <<= shift
        pair = target << 32  # no automaton has 2^32 states
        for rcare, rvalue, dst in row:
            if not care & rcare & (value ^ rvalue):
                name = name_of(pair | dst)
                if name is None:
                    name = ids[pair | dst] = new(target, dst)
                append((care | rcare, value | rvalue, name))
    return out


def _region_map(edges: list[tuple[str, object]], width: int, union: bool):
    """Canonical disjoint cover of the symbol space from overlapping cubes.

    Returns a list of ``(cube, value)`` covering every symbol exactly once,
    in a normal form that depends only on the symbol-to-value function:
    recursive cofactoring on track positions, with equal halves merged to X.
    With ``union`` the values of all matching cubes are unioned (sets);
    otherwise exactly one cube must match each symbol.

    The one base case is ``pos == width``, a single symbol.  The
    cofactoring splits only where the result can differ, so its cost
    follows the cube structure, not 2^width, through two shortcuts on the
    subspace from ``pos`` on:

    - without ``union``, the cubes left share one value and their sizes add
      up to the subspace: one all-X cube.  This assumes disjoint cubes, as
      every ``Dfa`` has (``Dfa.audit`` checks it); any other list falls
      through to the split, where a missing symbol or a symbol with two
      values raises ValueError;
    - no cube left reads bit ``pos``: both halves are the same, so one
      recursion is made and prefixed with X (a tail that no cube reads
      is skipped this way, one position at a time).
    """

    def go(es: list[tuple[str, object]], pos: int):
        if pos == width:
            vals = {v for _, v in es}
            if not union and len(vals) != 1:
                raise ValueError(f"cube list is not a partition: {es}")
            return [("", frozenset().union(*vals) if union else vals.pop())]
        rest = width - pos
        if (not union and len({v for _, v in es}) == 1
                and sum(1 << c.count("X", pos) for c, _ in es) == 1 << rest):
            return [("X" * rest, es[0][1])]  # one value on a disjoint cover
        zero = [(c, v) for c, v in es if c[pos] in "0X"]
        one = [(c, v) for c, v in es if c[pos] in "1X"]
        if len(zero) == len(one) == len(es):  # no cube reads bit pos
            return [("X" + c, v) for c, v in go(es, pos + 1)]
        r0 = go(zero, pos + 1)
        r1 = go(one, pos + 1)
        if r0 == r1:
            return [("X" + c, v) for c, v in r0]
        return [("0" + c, v) for c, v in r0] + [("1" + c, v) for c, v in r1]

    return go(edges, 0)


# --- shared decision diagrams --------------------------------------------------
#
# A diagram node is an int.  A leaf is ``~value`` (negative); an inner
# node is its id in a unique table, a dict from ``(pos, low, high)`` to
# id in insertion order, so ids count up from 0, children come before
# their parents, and ``list(table)[id]`` is the node.  Nodes are reduced
# (``low != high``) and ordered (positions grow towards the leaves), so
# within one table a node id names one function from symbols to leaves.

def _node(table: dict, pos: int, low: int, high: int) -> int:
    if low == high:
        return low
    return table.setdefault((pos, low, high), len(table))


def _diagrams(table: dict, rows, width: int) -> list[int]:
    """Each row of ``(care, value, dst)`` mask cubes over ``width``
    columns, a disjoint cover, as a diagram over ``table`` with leaves
    ``~dst``.  Cofactoring splits only on columns some cube reads."""

    def go(es, rest: int) -> int:  # rest: the columns not yet split on
        if len({dst for _, _, dst in es}) == 1:
            return ~es[0][2]
        read = 0
        for care, _, _ in es:
            read |= care
        top = (read & rest).bit_length() - 1
        bit = 1 << top
        low = go([e for e in es if not e[1] & bit], bit - 1)
        high = go([e for e in es if e[1] & bit or not e[0] & bit], bit - 1)
        return _node(table, width - 1 - top, low, high)

    return [go(row, (1 << width) - 1) for row in rows]


def _relabel(table: dict, leaf: Sequence[int]) -> tuple[dict, list[int]]:
    """Every node of ``table`` with each leaf ``~v`` replaced by ``~leaf[v]``,
    in a new table; returns it and each old node's new node, by old id."""
    out: dict = {}
    new: list[int] = []
    for pos, low, high in table:  # id order: children first
        low = new[low] if low >= 0 else ~leaf[~low]
        high = new[high] if high >= 0 else ~leaf[~high]
        new.append(low if low == high else out.setdefault((pos, low, high), len(out)))
    return out, new


def _covers(table: dict, width: int, roots: Iterable[int]) -> list[list[tuple[str, int]]]:
    """The canonical cover of each diagram ``roots`` of ``table``, as
    ``_region_map`` gives it: paths low branch first, a skipped position
    written X."""
    nodes = list(table)
    memo: dict[int, list[tuple[str, int]]] = {}

    def below(node: int, pos: int) -> list[tuple[str, int]]:
        """Cubes over the positions from ``pos`` on."""
        if node < 0:
            return [("X" * (width - pos), ~node)]
        at, low, high = nodes[node]
        tail = memo.get(node)
        if tail is None:
            tail = memo[node] = ([("0" + c, v) for c, v in below(low, at + 1)]
                                 + [("1" + c, v) for c, v in below(high, at + 1)])
        if at == pos:
            return tail
        skip = "X" * (at - pos)
        return [(skip + c, v) for c, v in tail]

    return [below(root, 0) for root in roots]


def _minimal(tracks: TrackSet, table: dict, roots: Sequence[int], initial: int,
             accepting: Iterable[int]) -> Dfa:
    """The unique minimal automaton of the states whose transition
    functions are the diagrams ``roots`` of ``table``, canonically numbered.

    Moore refinement: each round maps the leaves to their blocks, once per
    node (``_relabel``), so a state's signature is its block and one node
    id.  Unreachable states are refined too, then dropped by the numbering
    walk from the initial block; the dead block, when reachable, gets the
    last id.
    """
    accepting = frozenset(accepting)
    block = [int(s in accepting) for s in range(len(roots))]
    while True:
        relabeled, new = _relabel(table, block)
        groups: dict[tuple[int, int], int] = {}  # signature -> new block id
        new_block = [groups.setdefault((b, new[r] if r >= 0 else ~block[~r]), len(groups))
                     for b, r in zip(block, roots)]
        split = len(groups) != len(set(block))
        block = new_block
        if not split:
            break

    # no block split in the last round, so each old block has one
    # signature, its diagram over old ids: renumber those; groups holds
    # the blocks in id order 0..n-1
    renamed = {old: b for (old, _), b in groups.items()}
    covers = tuple(tuple((cube, renamed[dst]) for cube, dst in cover)
                   for cover in _covers(relabeled, len(tracks), (root for _, root in groups)))
    quotient = Dfa(tracks, len(covers), block[initial],
                   frozenset(block[s] for s in accepting), covers)
    # a block's states are all live or all dead: they accept the same words
    alive = coreachable(quotient)

    # covers are sorted (0 < 1 < X, low branch first), so discovery order is canonical
    bfs, _ = _explore(quotient.initial, covers.__getitem__)
    order = [b for b in bfs if b in alive] + [b for b in bfs if b not in alive]
    renumber = {b: i for i, b in enumerate(order)}
    delta = tuple(tuple((cube, renumber[dst]) for cube, dst in covers[b]) for b in order)
    accepting = frozenset(renumber[b] for b in quotient.accepting if b in renumber)
    return Dfa(tracks, len(order), renumber[quotient.initial], accepting, delta)


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
        for state, edges in enumerate(self.delta):
            for cube, dst in edges:
                if len(cube) != self.width or cube.strip("01X"):
                    raise ValueError(f"malformed cube {cube!r} at state {state}")
                if not 0 <= dst < self.num_states:
                    raise ValueError(f"dangling transition {state} -> {dst}")
        full = 1 << self.width
        for state, row in enumerate(mask_rows(self, range(self.width), self.width)):
            # each cube meets itself, so any further meet is an overlap;
            # only the count matters, so every pair gets the same name
            if len(cube_product(row, row, 0, {}, lambda target, dst: 0)) > len(row):
                raise ValueError(f"overlapping cubes at state {state}")
            covered = sum(full >> care.bit_count() for care, _, _ in row)
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
    width = len(tracks)
    delta = tuple(tuple((mask_cube(care, value, width), dst) for care, value, dst in row)
                  for row in mask_rows(a, track_columns(a.tracks, tracks), width))
    return Dfa(tracks, a.num_states, a.initial, a.accepting, delta)


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton over the union track set, trimmed to reachable states."""
    tracks = merge_tracks(a.tracks, b.tracks)
    width = len(tracks)
    a_rows = mask_rows(a, track_columns(a.tracks, tracks), width)
    b_rows = mask_rows(b, track_columns(b.tracks, tracks), width)
    # pairs numbered in discovery order, as _explore numbers states
    order = [(a.initial, b.initial)]
    ids = {a.initial << 32 | b.initial: 0}

    def new(da: int, db: int) -> int:
        order.append((da, db))
        return len(order) - 1

    delta = []
    for pa, pb in order:  # grows while it is walked
        # masks inside, strings at the boundary: Dfa cubes stay strings
        delta.append(tuple(sorted((mask_cube(care, value, width), target) for care, value, target
                                  in cube_product(a_rows[pa], b_rows[pb], 0, ids, new))))
    accepting = frozenset(i for i, (pa, pb) in enumerate(order)
                          if pa in a.accepting and pb in b.accepting)
    return Dfa(tracks, len(order), 0, accepting, tuple(delta))


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
        edges = [(cube, dsts) for s in subset for cube, dsts in n.delta[s]]
        return _region_map(edges, n.width, union=True)  # each value a frozenset

    order, delta = _explore(frozenset({n.initial}), successors, budget)
    accepting = frozenset(i for i, subset in enumerate(order) if subset & n.accepting)
    return Dfa(n.tracks, len(order), 0, accepting, delta)


def minimize(a: Dfa) -> Dfa:
    """Unique minimal total DFA for the language, canonically numbered.

    Each state's cubes become one decision diagram, built once; partition
    refinement then compares diagrams by node id (``_minimal``).  Every
    cube list in the result is in the canonical disjoint cover form of
    ``_region_map``, so two minimizations of language-equal automata over
    the same tracks produce byte-identical dumps.  The cost follows the
    state's cubes, not 2^width: positions its cubes do not read are never
    split on.
    """
    table: dict = {}
    roots = _diagrams(table, mask_rows(a, range(a.width), a.width), a.width)
    return _minimal(a.tracks, table, roots, a.initial, a.accepting)


def product(a: Dfa, b: Dfa) -> Dfa:
    """``minimize(intersect(a, b))``, without building the product's cubes.

    Both operands' states become diagrams over the union tracks; the
    product state of a pair is the pairwise apply of their diagrams,
    memoized per node pair, whose leaves are the pairs met, numbered as
    they are discovered from the initial pair.
    """
    tracks = merge_tracks(a.tracks, b.tracks)
    width = len(tracks)
    operands: dict = {}
    a_roots = _diagrams(operands, mask_rows(a, track_columns(a.tracks, tracks), width), width)
    b_roots = _diagrams(operands, mask_rows(b, track_columns(b.tracks, tracks), width), width)
    nodes = list(operands)
    order = [(a.initial, b.initial)]
    table: dict = {}
    # (a node, b node) -> product node; a pair of leaves names a product state
    memo = {(~a.initial, ~b.initial): ~0}

    def meet(u: int, v: int) -> int:
        key = (u, v)
        done = memo.get(key)
        if done is not None:
            return done
        if u < 0 and v < 0:
            done = ~len(order)
            order.append((~u, ~v))
        else:
            pu = nodes[u][0] if u >= 0 else width
            pv = nodes[v][0] if v >= 0 else width
            pos = min(pu, pv)
            _, u0, u1 = nodes[u] if pu == pos else (pos, u, u)
            _, v0, v1 = nodes[v] if pv == pos else (pos, v, v)
            done = _node(table, pos, meet(u0, v0), meet(u1, v1))
        memo[key] = done
        return done

    roots = [meet(a_roots[pa], b_roots[pb]) for pa, pb in order]  # order grows while walked
    accepting = (i for i, (pa, pb) in enumerate(order)
                 if pa in a.accepting and pb in b.accepting)
    return _minimal(tracks, table, roots, 0, accepting)


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
    """Whether ``a`` accepts no word, decided without building a witness."""
    return a.initial not in coreachable(a)


def language_equiv(a: Dfa, b: Dfa) -> bool:
    # intersect reads both operands over the union of their tracks
    return is_empty(intersect(a, complement(b))) and is_empty(intersect(b, complement(a)))


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
    """Read a ``dump``.  A dump is outside input: a malformed one raises ValueError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0][0] != "dfa" or lines[1][0] != "accepting":
        raise ValueError("not an automaton dump")
    fields = dict(part.split("=", 1) for part in lines[0][1:])
    if sorted(fields) != ["initial", "states", "tracks"]:
        raise ValueError(f"dump header needs tracks=, states= and initial=, has {sorted(fields)}")
    if fields["tracks"]:
        tracks = make_tracks(
            (int(i), Kind(int(k)))
            for i, k in (pair.split(":") for pair in fields["tracks"].split(","))
        )
    else:
        tracks = ()
    num_states = int(fields["states"])
    initial = int(fields["initial"])
    accepting = frozenset(int(s) for s in lines[1][1:])
    edges: dict[int, list[tuple[str, int]]] = {}
    for parts in lines[2:]:
        keyword, src, cube, dst = parts
        if keyword != "trans" or not 0 <= int(src) < num_states:
            raise ValueError(f"not a transition of a {num_states}-state dump: {' '.join(parts)!r}")
        edges.setdefault(int(src), []).append(("" if cube == "-" else cube, int(dst)))
    dfa = make_dfa(tracks, num_states, initial, accepting, edges)
    dfa.audit()  # overlapping, missing or malformed cubes are rejected here
    return dfa
