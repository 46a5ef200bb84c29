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
``mask_cube``.  Code that matches a symbol or edits string cubes
(``Dfa.step``, ``project``) keeps the strings.

``minimize``, ``product`` (the minimized intersection of one or more
automata, without any unminimized product's cubes) and ``determinize``
work on shared decision diagrams instead, as MONA does (Klarlund,
Møller and Schwartzbach, "MONA Implementation Secrets", 2002): each
state's transition function is one reduced ordered diagram over track
positions, hash-consed in a unique table, with target states (for
``determinize``, target subsets) as leaves.  A diagram is built from
mask cubes (``_diagrams``) or by a memoized k-ary apply of all
operands' diagrams that stops at the first leaf from which some operand
cannot accept (``product``); each round of partition refinement then
maps the leaves to blocks once per node and compares node ids, and
every result's cubes are read off diagram paths (``_covers``).

One backward walk, ``accept_distances`` (each state's fewest edges to
acceptance), serves ``coreachable``, ``project``, ``_minimal`` and the
stream's search; one forward walk, ``_explore``, numbers the reachable
states for ``intersect``, ``determinize`` and ``_minimal``.

All automata are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import getitem
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


def mask_cube(care: int, value: int, width: int) -> str:
    """The ``{0, 1, X}`` string of a mask cube."""
    bits = bin(value | 1 << width)[3:]
    read = bin(care | 1 << width)[3:]
    return "".join(b if r == "1" else "X" for b, r in zip(bits, read))


def mask_rows(a: Dfa | Nfa, columns: Iterable[int], width: int) -> tuple[tuple[tuple], ...]:
    """Each state's edges as ``(care, value, dst)`` mask cubes over ``width``
    columns; ``columns`` gives the column of each of ``a``'s tracks, in order.
    ``dst`` is as ``a.delta`` has it: a state of a ``Dfa``, a set of an ``Nfa``."""
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
    columns as a diagram over ``table`` with leaves ``~dst``.  Cubes that
    overlap give the ``|`` of their ``dst`` masks; a disjoint cover never
    overlaps.  Cofactoring splits only on columns some cube reads."""

    def go(es, rest: int) -> int:  # rest: the columns not yet split on
        if len({dst for _, _, dst in es}) == 1:
            return ~es[0][2]
        read = joined = 0
        for care, _, dst in es:
            read |= care
            joined |= dst
        if not read & rest:  # every cube left matches every symbol left
            return ~joined
        top = (read & rest).bit_length() - 1
        bit = 1 << top
        low = go([e for e in es if not e[1] & bit], bit - 1)
        high = go([e for e in es if e[1] & bit or not e[0] & bit], bit - 1)
        return _node(table, width - 1 - top, low, high)

    roots = [go(row, (1 << width) - 1) for row in rows]
    del go  # the closure refers to itself: break the cycle
    return roots


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
    """The canonical cover of each diagram ``roots`` of ``table``: its
    paths, low branch first, a skipped position written X.

    A cover matches every symbol exactly once and depends only on the
    symbol-to-leaf function, so equal functions get byte-identical cubes:
    it is what cofactoring on track positions in order, with equal halves
    merged to X, gives."""
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

    covers = [below(root, 0) for root in roots]
    del below  # the closure refers to itself: break the cycle
    return covers


def _minimal(tracks: TrackSet, table: dict, roots: Sequence[int], initial: int,
             accepting: Iterable[int]) -> Dfa:
    """The unique minimal automaton of the states whose transition
    functions are the diagrams ``roots`` of ``table``, canonically numbered.

    Moore refinement: each round maps the leaves to their blocks, once per
    node (``_relabel``), so a state's signature is its block and one node
    id.  Unreachable states are refined too, then dropped by the numbering
    walk from the initial block; the dead block (the one at accept distance
    ``FAR``), when reachable, gets the last id.
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
    final = frozenset(block[s] for s in accepting)
    dist = accept_distances(covers, final)

    # covers are sorted (0 < 1 < X, low branch first), so discovery order is canonical
    bfs, _ = _explore(block[initial], covers.__getitem__)
    order = [b for b in bfs if dist[b] < FAR] + [b for b in bfs if dist[b] == FAR]
    renumber = {b: i for i, b in enumerate(order)}
    delta = tuple(tuple((cube, renumber[dst]) for cube, dst in covers[b]) for b in order)
    return Dfa(tracks, len(order), renumber[block[initial]],
               frozenset(renumber[b] for b in final if b in renumber), delta)


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


FAR = 1 << 30  # the accept distance of a state that cannot reach acceptance


def accept_distances(rows: Sequence[Iterable[tuple]], accepting: Iterable[int]) -> list[int]:
    """Per state, the fewest edges of ``rows`` to an ``accepting`` state, or
    ``FAR``, by one backward breadth-first search; each edge of ``rows[s]``
    is a tuple ending with its target (a ``Dfa``'s delta, a cover, mask rows)."""
    preds: list[list[int]] = [[] for _ in rows]
    for src, edges in enumerate(rows):
        for edge in edges:
            preds[edge[-1]].append(src)
    dist = [FAR] * len(rows)
    queue = list(accepting)
    for state in queue:
        dist[state] = 0
    for state in queue:  # grows while it is walked
        distance = dist[state] + 1
        for src in preds[state]:
            if dist[src] == FAR:
                dist[src] = distance
                queue.append(src)
    return dist


def coreachable(a: Dfa) -> frozenset[int]:
    """States from which some accepting state can be reached."""
    return frozenset(s for s, d in enumerate(accept_distances(a.delta, a.accepting)) if d < FAR)


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
    pairs: dict[int, tuple[int, int]] = {}

    def successors(pair: tuple[int, int]) -> list[tuple[str, tuple[int, int]]]:
        # masks inside, strings at the boundary: Dfa cubes stay strings
        return [(mask_cube(care, value, width), target) for care, value, target
                in cube_product(a_rows[pair[0]], b_rows[pair[1]], 0, pairs, lambda p, q: (p, q))]

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
    erased = [[(cube[:pos] + cube[pos + 1:], dst) for cube, dst in edges] for edges in a.delta]
    delta = tuple(tuple((cube, frozenset({dst})) for cube, dst in edges) for edges in erased)
    zeros = [[edge for edge in edges if "1" not in edge[0]] for edges in erased]
    dist = accept_distances(zeros, a.accepting)
    accepting = frozenset(s for s, d in enumerate(dist) if d < FAR)
    return Nfa(tracks, a.num_states, a.initial, accepting, delta)


def determinize(n: Nfa, budget: int = DEFAULT_DETERMINIZE_BUDGET) -> Dfa:
    """Subset construction over reachable subsets only.

    A subset is an int with bit ``s`` set for each member ``s``.  Its
    members' mask rows, and an all-X cube to the empty subset so a symbol
    no cube matches goes there, make one diagram whose leaves join the
    targets of overlapping cubes; its cover gives the edges."""
    width = n.width
    rows = [[(care, value, sum(1 << d for d in dsts)) for care, value, dsts in row]
            for row in mask_rows(n, range(width), width)]

    def successors(subset: int) -> list[tuple[str, int]]:
        edges = [(0, 0, 0)]
        while subset:
            member = subset & -subset
            edges += rows[member.bit_length() - 1]
            subset ^= member
        table: dict = {}
        return _covers(table, width, _diagrams(table, [edges], width))[0]

    order, delta = _explore(1 << n.initial, successors, budget)
    accepting = sum(1 << s for s in n.accepting)
    return Dfa(n.tracks, len(order), 0,
               frozenset(i for i, subset in enumerate(order) if subset & accepting), delta)


def minimize(a: Dfa) -> Dfa:
    """Unique minimal total DFA for the language, canonically numbered.

    Each state's cubes become one decision diagram, built once; partition
    refinement then compares diagrams by node id (``_minimal``).  Every
    cube list in the result is a canonical cover (``_covers``), so two
    minimizations of language-equal automata over the same tracks
    produce byte-identical dumps.  The cost follows the
    state's cubes, not 2^width: positions its cubes do not read are never
    split on.
    """
    table: dict = {}
    roots = _diagrams(table, mask_rows(a, range(a.width), a.width), a.width)
    return _minimal(a.tracks, table, roots, a.initial, a.accepting)


def product(*dfas: Dfa) -> Dfa:
    """The minimal automaton of the intersection of one or more automata,
    without building the cubes of any unminimized product.

    Every operand's states become diagrams over the union tracks, in one
    table, with leaf ``~(s + 1)`` for a state ``s`` that can reach
    acceptance and ``~0`` for every state that cannot (one outside
    ``coreachable``).  A product state is a tuple of operand states; its
    diagram is the k-ary apply of theirs, memoized per tuple of nodes,
    whose leaves are the tuples met, numbered as they are discovered from
    the initial tuple.  The apply stops at the first dead leaf: every
    tuple with a dead coordinate is one dead product state, whose diagram
    is a leaf to itself, so the tuples that minimization would merge into
    it are never enumerated.  The result is minimized once.
    """
    tracks = reduce(merge_tracks, (a.tracks for a in dfas))
    width = len(tracks)
    operands: dict = {}
    initial = []
    roots = []  # per operand, each state's diagram
    for a in dfas:
        live = coreachable(a)
        leaf = [s + 1 if s in live else 0 for s in range(a.num_states)]
        rows = [[(care, value, leaf[dst]) for care, value, dst in row]
                for row in mask_rows(a, track_columns(a.tracks, tracks), width)]
        roots.append(_diagrams(operands, rows, width))
        initial.append(~leaf[a.initial])
    at, low, high = zip(*operands) if operands else ((), (), ())
    order: list = []  # each product state's operand states; None for the dead state
    table: dict = {}
    memo: dict = {}  # tuple of operand nodes -> product node

    def meet(us: tuple) -> int:
        if ~0 in us:  # a dead leaf: every such tuple is the dead state
            us = None
        done = memo.get(us)
        if done is not None:
            return done
        pos = width
        if us is not None:
            for u in us:
                if u >= 0 and at[u] < pos:
                    pos = at[u]
        if pos == width:  # only leaves: a product state
            done = ~len(order)
            order.append(None if us is None else tuple(~u - 1 for u in us))
        else:
            done = _node(table, pos,
                         meet(tuple(low[u] if u >= 0 and at[u] == pos else u for u in us)),
                         meet(tuple(high[u] if u >= 0 and at[u] == pos else u for u in us)))
        memo[us] = done
        return done

    meet(tuple(initial))  # product state 0
    diagrams = [~i if states is None else meet(tuple(map(getitem, roots, states)))
                for i, states in enumerate(order)]  # order grows while walked
    del meet  # the closure refers to itself: break the cycle
    accepting = (i for i, states in enumerate(order) if states is not None
                 and all(s in a.accepting for s, a in zip(states, dfas)))
    return _minimal(tracks, table, diagrams, 0, accepting)


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
    while True:
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
    header = [part.partition("=") for part in lines[0][1:]]
    names = sorted(name + eq for name, eq, _ in header)
    if names != ["initial=", "states=", "tracks="]:  # each once, or a repeat would override
        raise ValueError(f"dump header needs tracks=, states= and initial=, has {names}")
    fields = {name: value for name, _, value in header}
    pairs = [entry.split(":") for entry in fields["tracks"].split(",")] if fields["tracks"] else []
    for pair in pairs:
        if len(pair) != 2 or not pair[0].isdecimal() or pair[1] not in ("1", "2"):
            raise ValueError(f"dump track {':'.join(pair)!r} is not an index:kind pair, kind 1 or 2")
    tracks = make_tracks((int(i), Kind(int(k))) for i, k in pairs)
    num_states = int(fields["states"]) if fields["states"].isdecimal() else 0
    if not 1 <= num_states <= len(lines) - 2:  # every state of a total automaton has a cube
        raise ValueError(f"a dump of {len(lines) - 2} transitions cannot have states={fields['states']}")
    state = {str(s): s for s in range(num_states)}  # each state's number as a dump writes it
    if fields["initial"] not in state:
        raise ValueError(f"dump header field initial={fields['initial']} is not a state")
    if not state.keys() >= set(lines[1][1:]):
        raise ValueError(f"not an accepting line of a {num_states}-state dump: {' '.join(lines[1])!r}")
    edges: dict[int, list[tuple[str, int]]] = {}
    for parts in lines[2:]:
        if len(parts) != 4 or parts[0] != "trans" or parts[1] not in state or parts[3] not in state:
            raise ValueError(f"not a transition of a {num_states}-state dump: {' '.join(parts)!r}")
        _, src, cube, dst = parts
        edges.setdefault(state[src], []).append(("" if cube == "-" else cube, state[dst]))
    dfa = make_dfa(tracks, num_states, state[fields["initial"]], map(state.get, lines[1][1:]), edges)
    dfa.audit()  # overlapping, missing or malformed cubes are rejected here
    return dfa
