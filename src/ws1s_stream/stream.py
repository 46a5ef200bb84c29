"""Incremental satisfiability over a growing conjunction of formulas.

Each pushed formula is split along its top-level ``&`` chain, and each
part is compiled to its own minimal automaton: one product component
per distinct top-level conjunct, since a part equal to a component
already in the product adds nothing (L & L = L).  The conjunction's
product automaton is never materialized.  Instead the
session keeps every product state it has ever explored, and the
outgoing edge cubes of the states its last two searches derived them
for, and decides each step by a shortest-first search that stops at the
first state in which every component accepts.

The search is bounded by the witness length, after Fiedor et al.'s lazy
WS1S techniques and IDA*'s bound-raising rule.  Each component state
knows its accept distance (``automata.accept_distances``, which also
marks the dead ones), and a product state's ``h``, the largest among
its components, is a lower bound on its own.  A bound D starts at
the last witness's length, since adding components never shortens the
witness, and a state at depth d is expanded only when ``h <= D - d``.
Every successor of an expanded state is still discovered, so the
witness is the one the unbounded search finds.  A walk that finds
nothing but skipped some state raises D to the least depth + ``h`` it
skipped and resumes at the shallowest layer that skipped one, whose
expanded states replay their edges.

Product states are append-only: a component once pushed keeps its slot,
and a state explored at an earlier step is extended rather than
rebuilt.  Extension is demand-driven: when the search needs the
successors of a state, it replays the edge cubes stored for its longest
previously-explored prefix through the automata added
since, splitting a cube only where a newer component distinguishes its
expansions and dropping successors whose new coordinate can no longer
reach acceptance.  Each level of that fold that belongs to a placed
prefix is stored there as well, so a placed state's edges are derived at
most once while they are kept.  The accepting state that ended one
step's search is placed but never expanded; the next push's fold through
it stores its edges, so later pushes replay them instead of folding
every component from the empty product.  A level is one pass that meets
the cubes, interns the targets and appends the edges; each stored level
is sorted once.
States the search never touches keep their archived form at the old
arity and cost nothing, which is what keeps the per-step price tied to
the witness search rather than to the size of everything seen so far.

Stored edges are a cache that follows the search frontier.  Nearly every
replay starts from the arity just before, so the edges stored by the
last two searches are kept and older ones are released, oldest first,
at the end of each sat search, never faster than searches derive new
ones, so no push pays for one large free.  After unsat no search runs
again, and everything is released.  A released state stays placed; a
fold that passes it again re-derives its edges from its longest
complete prefix.

The work and memory per node and per edge do not grow with the number
of components.  A product state is an int id, interned on its prefix
and its last component state, and holds no tuple: the longest explored
prefix, and the component states after it, are read along prefix links,
and the accept-distance bound ``h`` is the larger of the prefix's and the
last component state's.
Edge cubes are ``(care, value)`` int masks (see ``automata``), so
widening is a shift, meeting is a few bit operations, and least-symbol
order is the order of ``value``.

Nor does a push do or keep work per union track.  The explorer keeps
the union as an append-only list of tracks and a map from track index
to column, so adding a component looks up only that component's tracks.
A verdict keeps its witness as a word: the tuple of the placed states'
``value`` masks along the witness path, ints the nodes already hold.
``StepVerdict.witness`` decodes it into bit tuples on each read, and a
push that adds no component shares the word before it, so a report's
witness costs one reference per symbol, not a union-wide tuple.

Verdicts are monotone (a conjunction can only lose models), so after
the first unsat step the session short-circuits exploration and keeps
answering unsat while still appending components and recording compile
times; a push that adds no component keeps the verdict before it.  The
from-scratch baseline runs the same path on a fresh session per prefix.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from typing import Optional, Sequence

from .automata import (
    DEFAULT_DETERMINIZE_BUDGET,
    FAR,
    Dfa,
    Track,
    TrackSet,
    Witness,
    accept_distances,
    coreachable,  # not called here, but perfbench's tracer wraps stream.coreachable
    cube_product,
    mask_min_symbol,
    mask_rows,
)
from .compiler import MemoCache, TrackRegistry, compile_formula, conjuncts
from .errors import StateBudgetExceeded, TrackKindConflict, WsError
from .syntax import Formula, free_vars

DEFAULT_SESSION_BUDGET = 5_000_000

INCREMENTAL = "Incremental"
FROM_SCRATCH = "FromScratch"


@dataclass(frozen=True)
class StepVerdict:
    """A step's answer.  ``word`` is the shortest lex-least witness over the
    union tracks as one mask ``value`` per symbol, first symbol first, each
    ``width`` columns wide (see ``automata``); None if unsat."""

    step: int
    status: str  # "sat" | "unsat"
    word: Optional[tuple[int, ...]]
    width: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def witness(self) -> Optional[Witness]:
        """The word as one bit tuple per symbol, decoded into a new list on
        every read.  Nothing is cached: a reader that keeps every report
        would otherwise keep a union-wide tuple per symbol of every step."""
        if self.word is None:
            return None
        return [mask_min_symbol(value, self.width) for value in self.word]


@dataclass(frozen=True)
class StepReport:
    """What one step answered and what it cost.  ``record()`` turns it into
    its ``--log jsonl`` record, which the bench CSV reads its columns from."""

    step: int
    mode: str
    compile_ns: int
    process_ns: int
    states_explored_step: int
    states_explored_total: int
    max_expanded_depth: int  # deepest layer the search walked, archived edges included; -1 if none
    # nodes whose successor edges this step derived, one fold each (placed
    # prefixes the fold completes on the way are not counted), and of
    # those, the ones whose fold started from a complete prefix
    expanded: int
    replayed: int
    edges_out: int  # the successor edges those folds gave the nodes they expanded
    # states the search's walk left unexpanded at its final bound, as their
    # accept distance exceeded what the bound left, and the times the bound rose
    skipped: int
    bound_raises: int
    widest: int  # the most states the search discovered at one depth; 0 if none ran
    edges_held: int  # edges stored on complete states after the step
    complete: int  # placed states that hold those edges
    resident: int  # states placed after the step, the empty product included
    memo_hits: int  # memo cache lookups this step's compile answered from the cache
    memo_misses: int  # and those it had to build
    components: int  # the product's distinct components after the step
    verdict: StepVerdict

    def record(self) -> dict[str, object]:
        """The step as a JSON-ready mapping: step, mode, verdict status,
        compile and process time in ms to the microsecond, the explored
        counts, then every field from ``expanded`` on but the verdict,
        under its own name and in field order."""
        record = {
            "step": self.step,
            "mode": self.mode,
            "verdict": self.verdict.status,
            "compile_ms": round(self.compile_ns / 1e6, 3),
            "process_ms": round(self.process_ns / 1e6, 3),
            "explored_step": self.states_explored_step,
            "explored_total": self.states_explored_total,
        }
        record.update((name, getattr(self, name)) for name in _RECORD_COUNTERS)
        return record


_REPORT_FIELDS = [f.name for f in fields(StepReport)]
_RECORD_COUNTERS = tuple(name for name in _REPORT_FIELDS[_REPORT_FIELDS.index("expanded"):]
                         if name != "verdict")


class _Node:
    """One product state, named by an int id: its index in ``ProductExplorer.by_id``.

    A state is interned on ``prefix``, the state one arity lower (None for
    the empty product), and ``state``, the component state appended to it,
    the first time an edge or a root reaches it.  As for a tuple,
    ``len(node)`` is its ``arity``, kept when it is interned, and
    ``node[:j]`` its prefix at arity j, ``arity - j`` links back.  ``h`` is
    the largest accept distance among its component states, its prefix's
    ``h`` or its last state's distance, set at interning: no word shorter
    than ``h`` leads it to acceptance, and it accepts exactly when ``h`` is
    0.  A search places it when it discovers it: ``depth`` (-1 until then)
    is its layer, ``parent`` its predecessor on its shortest lex-least path
    and ``value`` the least symbol of that last edge, as a mask.  States
    interned on the way through several new components at once are never
    placed.  Once ``complete``, ``out`` lists every live successor edge at
    this state's arity as all-int ``(care, value, target id)`` triples,
    mask cubes over the union tracks of that arity, least symbol first.
    Only a placed state is ever complete, and it stays complete until the
    explorer releases its edges (``out`` back to None), at the end of the
    second search after the one that stored them at the earliest; it stays
    placed, and a later fold that passes through it derives them again.
    """

    __slots__ = ("prefix", "state", "arity", "h", "depth", "parent", "value", "out")

    def __init__(self, prefix: _Node | None, state: int, h: int):
        self.prefix, self.state, self.h = prefix, state, h
        self.arity = 0 if prefix is None else prefix.arity + 1
        self.depth, self.parent, self.value, self.out = -1, None, 0, None

    @property
    def complete(self) -> bool:
        return self.out is not None

    def __len__(self) -> int:
        return self.arity

    def __getitem__(self, part: slice) -> _Node:
        node = self
        for _ in range(self.arity - part.stop):
            node = node.prefix
        return node


class _Component:
    """A pushed automaton, the number of columns it adds to the union, per
    state its accept distance (``FAR`` if dead) and its edges to live states
    as mask cubes over the union, whose ``width`` columns hold the
    automaton's tracks at ``columns``.  ``new`` is its ``cube_product`` callback."""

    __slots__ = ("dfa", "shift", "rows", "dist", "by_id")

    def __init__(self, dfa: Dfa, columns: list[int], width: int, shift: int,
                 by_id: list[_Node]):
        self.dfa = dfa
        self.shift = shift
        rows = mask_rows(dfa, columns, width)
        self.dist = dist = accept_distances(rows, dfa.accepting)
        self.rows = tuple(tuple(e for e in edges if dist[e[2]] < FAR) for edges in rows)
        self.by_id = by_id

    def new(self, prefix: int, state: int) -> int:
        """Intern, into ``by_id``, the state that extends state ``prefix`` by
        this component's ``state``; returns its id."""
        by_id = self.by_id
        node = by_id[prefix]
        h = self.dist[state]
        by_id.append(_Node(node, state, node.h if node.h > h else h))
        return len(by_id) - 1


_edge_order = itemgetter(1)  # a mask's value is its least symbol; disjoint cubes never tie


class _Placed:
    """The explorer's placed states as a read-only mapping from each to itself."""

    def __init__(self, explorer: ProductExplorer):
        self.explorer = explorer

    def __len__(self) -> int:
        return self.explorer.placed

    def values(self) -> list[_Node]:
        return [node for node in self.explorer.by_id if node.depth >= 0]

    def items(self) -> list[tuple[_Node, _Node]]:
        return [(node, node) for node in self.values()]

    def get(self, node: _Node) -> _Node | None:
        return node if node.depth >= 0 else None


class ProductExplorer:
    """Demand-driven product search over a growing component list."""

    def __init__(self):
        self.components: list[_Component] = []
        self.dfas: set[Dfa] = set()  # the components' automata, for equality lookups
        self.tracks: list[Track] = []  # the union's tracks in column order, append-only
        self.columns: dict[int, int] = {}  # track index -> its column in the union
        # the empty product accepts the empty word: a conjunction of
        # nothing is true.  It has id 0 and is placed from the start.
        empty = _Node(None, -1, 0)
        empty.depth = 0
        self.by_id: list[_Node] = [empty]
        self.ids: dict[int, int] = {}  # prefix id << 32 | state -> id, in id order
        self.roots: list[int] = [0]  # initial state id after the first i components
        self.placed = 1  # states placed so far, the empty product included
        # the states whose edges are stored, by the search that stored them:
        # the running one (if it raises, its edges may name states
        # drop_components drops), the last two, and older ones still to be
        # released, oldest first
        self.archived: list[_Node] = []
        self.kept: list[list[_Node]] = [[], []]
        self.old: deque[_Node] = deque()
        self.held = 0  # edges stored on complete states
        self.complete = 0  # and the placed states that hold them
        self.credit = 0  # edges derived by searches whose release has not caught up
        # no witness of a later search is shorter: the last witness's length,
        # or FAR once a search found none (components only shrink the language)
        self.bound = 0
        # in the last search: _edges_for calls, those that replayed an
        # archived prefix, the edges those calls returned, states its last
        # walk left unexpanded, raises of its bound and the most states it
        # discovered at one depth
        self.expanded = self.replayed = self.edges_out = self.skipped = 0
        self.bound_raises = self.widest = 0

    @property
    def nodes(self) -> _Placed:
        return _Placed(self)  # made per read, so the explorer is in no reference cycle

    @property
    def union_tracks(self) -> TrackSet:
        return tuple(self.tracks)

    def add_component(self, dfa: Dfa) -> None:
        """Append ``dfa`` as the last component, unless a component equals
        it (L & L = L); the work follows its own tracks, not the union's."""
        if dfa in self.dfas:
            return
        tracks, columns = self.tracks, self.columns
        new = []
        for t in dfa.tracks:
            col = columns.get(t.index)
            if col is None:
                new.append(t)
            elif tracks[col].kind is not t.kind:
                raise TrackKindConflict(f"track {t.index} is both first- and second-order")
        # registration order makes new tracks highest, so positions of
        # tracks already in the union never move; stored mask cubes extend
        # by a left shift
        if new and tracks and new[0].index < tracks[-1].index:
            raise AssertionError("union tracks must grow append-only")
        for t in new:
            columns[t.index] = len(tracks)
            tracks.append(t)
        comp = _Component(dfa, [columns[t.index] for t in dfa.tracks], len(tracks), len(new),
                          self.by_id)
        self.components.append(comp)
        self.dfas.add(dfa)
        prefix = self.roots[-1]  # no state of the new arity exists yet
        root = self.ids[prefix << 32 | dfa.initial] = comp.new(prefix, dfa.initial)
        self.roots.append(root)

    def drop_components(self, keep: int) -> None:
        """Undo every ``add_component`` after the first ``keep``.

        Every state interned since goes too.  The root at arity ``keep + 1``
        was the first of them (nothing reaches an arity before its root),
        so they are the tail of the id list from that root on.  The edges
        the running search stored go, which is all a failed push leaves,
        and so does every stored edge that names a dropped state; the rest
        still hold and stay.  An edge names a state of its own arity, so
        those are the edges stored above arity ``keep`` and any that a fold
        at a higher arity stored on a kept prefix, naming a state it
        interned at the prefix's arity.
        """
        if keep == len(self.components):
            return
        mark = self.roots[keep + 1]
        self._release(self.archived)
        self.archived.clear()
        for nodes in (self.old, *self.kept):
            self._release([node for node in nodes if node.arity > keep
                           or any(target >= mark for _, _, target in node.out or ())])
        # what was released leaves the lists, so they keep no dropped state alive
        self.old = deque(node for node in self.old if node.out is not None)
        self.kept = [[node for node in nodes if node.out is not None] for nodes in self.kept]
        self.placed -= sum(node.depth >= 0 for node in self.by_id[mark:])
        del self.by_id[mark:]
        while len(self.ids) >= mark:  # one key per id from 1 on, in id order
            self.ids.popitem()
        del self.roots[keep + 1:]
        self.dfas.difference_update(comp.dfa for comp in self.components[keep:])
        width = len(self.tracks) - sum(comp.shift for comp in self.components[keep:])
        for t in self.tracks[width:]:
            del self.columns[t.index]
        del self.tracks[width:]
        del self.components[keep:]

    # -- states and successor derivation ---------------------------------

    def _edges_for(self, node: _Node) -> tuple[tuple[int, int, int], ...]:
        """Derive the live successor edges of a placed state at the current arity.

        Walks prefix links back to the longest complete prefix and splits
        its archived edge cubes through the components after it, one
        ``cube_product`` per component; only if no prefix is complete is the
        product enumerated fresh, from the empty product's one edge.  The
        fold's level at arity j is the edge list of ``node[:j]``, so each
        level whose state is placed becomes that state's ``out``, sorted
        once, and levels of unplaced states are dropped: a placed state's
        edges are derived at most once while they are kept.  Returns
        ``node``'s own level, now its ``out``, whose edges count in
        ``edges_out``; every state it completed goes on ``archived``, the
        running search's list, and counts in ``complete``, its edges in
        ``held``.
        """
        chain = [node]  # node and its prefixes after the archived one, last first
        node = node.prefix
        while node.out is None and node.prefix is not None:
            chain.append(node)
            node = node.prefix
        if node.out is None:  # node is the empty product
            edges: Sequence[tuple[int, int, int]] = ((0, 0, 0),)  # its one edge
        else:
            edges = node.out
            self.replayed += 1
        self.expanded += 1
        components, ids = self.components, self.ids
        for node in reversed(chain):
            comp = components[node.arity - 1]
            edges = cube_product(edges, comp.rows[node.state], comp.shift, ids, comp.new)
            if node.depth >= 0:
                edges = node.out = tuple(sorted(edges, key=_edge_order))
                self.archived.append(node)
                self.held += len(edges)
                self.complete += 1
        self.edges_out += len(edges)
        return edges

    def _release(self, nodes) -> None:
        """Drop the stored edges of ``nodes``; a state listed twice, or
        whose edges are gone already, is passed over."""
        for node in nodes:
            if node.out is not None:
                self.held -= len(node.out)
                self.complete -= 1
                node.out = None

    def _retire(self, sat: bool, derived: int) -> None:
        """Close the running search's list, which stored ``derived`` edges.

        After sat, the last two searches' lists are kept, and the states of
        older ones are released oldest first, while their edges fit in the
        credit: what this search derived plus what earlier ones derived
        that release has not yet caught up with.  So the edges a push frees
        follow the edges searches derive, and no push pays for freeing an
        old search's edges all at once.  After unsat no search follows, and
        everything goes.
        """
        if not sat:
            for nodes in (self.old, *self.kept, self.archived):
                self._release(nodes)
            self.old, self.kept, self.archived, self.credit = deque(), [[], []], [], 0
            return
        old = self.old
        old.extend(self.kept.pop(0))
        self.kept.append(self.archived)
        self.archived = []
        credit = self.credit + derived
        while old and len(old[0].out or ()) <= credit:
            node = old.popleft()
            credit -= len(node.out or ())
            self._release((node,))
        self.credit = credit if old else 0

    # -- search ------------------------------------------------------------

    def search(self, state_budget: int) -> tuple[StepVerdict, int, int]:
        """Shortest-first search at the current arity.

        Returns (partial verdict, states explored, deepest layer whose edges
        were walked, archived edges included; -1 if none).  The states
        explored are those this search placed, but for the new root and the
        first placed extension of each placed prefix.  Only the first search
        at an arity places states; a later one starts at the bound the first
        ended with, so it walks only states the first placed.  A sat
        verdict's word is the ``value`` of each placed state on the witness
        path, and its step index is filled in by the caller.  A layer's
        nodes are walked in discovery order, each along its edges least
        symbol first, and a target's first discovery places it; paths into
        one layer have equal length, so that is lexicographic path order,
        and the first accepting node ends the shortest lex-least witness, read
        back along parent links.  Whole layers are discovered, so counts
        are reproducible.  Every step of it works on ids and prefix links;
        placing a state, the new root included, sets its depth and counts it
        against ``state_budget``.

        The walk is bounded.  With bound D, a state at depth d is expanded
        only when its ``h``, a lower bound on its distance to acceptance,
        is at most D - d; any other state reaches acceptance only by a path
        longer than D, and since ``h`` drops by at most 1 along an edge, so
        do its successors.  Every successor of an expanded state is still
        discovered, so the states that can lie on a witness of length up to
        D are placed as the unbounded walk places them: the witness is the
        same.  D starts at the larger of ``bound``, which no witness at a
        later arity undercuts, and the root's ``h``.  A walk that ends with
        nothing accepting but some state skipped raises D to the least
        depth + ``h`` among the skipped states, as IDA* does, unplaces the
        states placed below the shallowest layer that skipped one, and
        resumes at that layer, whose expanded states replay their edges.
        A search that raises an exception may leave states placed under a
        smaller bound, so its caller drops the arity (as ``StreamSession``
        does) rather than searching it again; ``drop_components`` also
        releases the edges it stored.  A search that ends hands its list of
        the states it stored edges on to ``_retire``.
        """
        by_id, held = self.by_id, self.held
        self.expanded = self.replayed = self.edges_out = self.bound_raises = 0

        root = by_id[self.roots[-1]]
        first = root.depth < 0  # the first search at this arity places every state it discovers
        if first:
            if self.placed >= state_budget:
                raise StateBudgetExceeded(state_budget, "product exploration")
            root.depth = 0
            self.placed += 1
        found = root if root.h == 0 else None
        bound = max(self.bound, root.h)
        seen = {root}  # discovered by this search (an earlier one may have placed them)
        layers = [[root]]  # the states discovered per depth, in discovery order
        layer, depth = layers[0], 0
        while True:
            skipped, shallowest, least = 0, -1, FAR  # least depth + h among the skipped
            while found is None and layer:
                discovered = []  # the next layer, in discovery order
                radius = bound - depth
                for node in layer:
                    if node.h > radius:
                        skipped += 1
                        if shallowest < 0:
                            shallowest = depth
                        least = min(least, depth + node.h)
                        continue
                    if node.out is None:
                        self._edges_for(node)
                    for _, value, target in node.out:
                        child = by_id[target]
                        if child in seen:
                            continue
                        seen.add(child)
                        discovered.append(child)
                        if child.depth < 0:
                            if self.placed >= state_budget:
                                raise StateBudgetExceeded(state_budget, "product exploration")
                            self.placed += 1
                            child.depth, child.parent, child.value = depth + 1, node, value
                        if found is None and child.h == 0:
                            found = child
                layers.append(discovered)
                layer = discovered
                depth += 1
            if found is not None or shallowest < 0:
                break
            bound = least
            self.bound_raises += 1
            # only the first search at an arity can raise its bound (a later
            # one starts at its witness's length, or at FAR after unsat), so
            # this search placed the states below the shallowest layer
            unplaced = [node for nodes in layers[shallowest + 1:] for node in nodes]
            del layers[shallowest + 1:]
            seen.difference_update(unplaced)
            self.placed -= len(unplaced)
            self._release(unplaced)
            for node in unplaced:
                node.depth, node.parent, node.value = -1, None, 0
            layer, depth = layers[shallowest], shallowest
        mine = [node for nodes in layers for node in nodes] if first else []  # what it placed
        explored = len(mine) - len({node.prefix for node in mine
                                    if node.prefix.depth >= 0 or node is root})
        # the last walk reached as deep as any earlier one, and expanded a
        # state of its last layer: the one that discovered the witness, or,
        # as it skipped nothing, all of them
        max_expanded = depth - 1
        self.skipped, self.widest = skipped, max(map(len, layers))
        self._retire(found is not None, self.held - held)
        if found is None:
            self.bound = FAR
            return StepVerdict(0, "unsat", None), explored, max_expanded
        word = []
        while found.parent is not None:
            word.append(found.value)
            found = found.parent
        self.bound = len(word)
        return StepVerdict(0, "sat", tuple(word[::-1]), len(self.tracks)), explored, max_expanded


class StreamSession:
    """State of one incremental conjunction run.

    A session owns its track registry, so free variables keep their
    track across conjuncts, and a compile cache shared by all its steps.
    The cache may also be shared with other sessions: its keys name
    tracks by rank, not index, so an entry means the same automaton in
    every registry.
    Sessions are single-threaded; sessions that run concurrently and
    share a cache need an external lock around it.

    ``budget`` is one optional cap, as ``WS1S_STATE_BUDGET`` is: a
    positive int caps both the product states a search may place and the
    subset states a determinization may build; None keeps the defaults
    (``DEFAULT_SESSION_BUDGET`` and ``DEFAULT_DETERMINIZE_BUDGET``).
    A push that exceeds either raises ``StateBudgetExceeded``, and a
    formula nested too deeply to compile raises ``WsError``.
    """

    def __init__(self, *, cache: MemoCache | None = None, budget: int | None = None):
        if budget is not None and (type(budget) is not int or budget <= 0):  # a bool is no budget
            raise ValueError(f"budget must be a positive int or None, not {budget!r}")
        self.registry = TrackRegistry()
        self.cache = cache if cache is not None else MemoCache()
        self.explorer = ProductExplorer()
        self.reports: list[StepReport] = []
        self.step = 0  # formulas conjoined so far
        self.state_budget = budget or DEFAULT_SESSION_BUDGET
        self.determinize_budget = budget or DEFAULT_DETERMINIZE_BUDGET

    @property
    def components(self) -> list[Dfa]:
        """The product's distinct components, one per distinct top-level
        conjunct of the formulas pushed, in the order they were added."""
        return [comp.dfa for comp in self.explorer.components]

    @property
    def verdicts(self) -> list[StepVerdict]:
        return [r.verdict for r in self.reports]

    def current_verdict(self) -> StepVerdict:
        if self.reports:
            return self.reports[-1].verdict
        return StepVerdict(0, "sat", ())  # empty conjunction

    def push(self, f: Formula) -> StepReport:
        """Conjoin one formula and decide satisfiability of the conjunction so far."""
        return self._conjoin([f], INCREMENTAL)

    def _conjoin(self, formulas: Sequence[Formula], mode: str) -> StepReport:
        """Compile ``formulas`` into new components, then decide the conjunction.

        Each formula adds the parts of its top-level ``&`` chain that no
        component equals yet; every part carries the first-order
        restrictions of its own free variables, so the parts' product
        accepts the formula's language.  Free variables are registered
        over the whole formula first, so the union tracks grow in
        first-occurrence order whatever the split.

        A registration, compile or search that raises leaves registered
        variables, components, reports and explored nodes as they were;
        only the memo cache keeps what the attempt added to it.  A formula
        too deep for the passes that recurse over it fails as a ``WsError``.
        """
        explorer = self.explorer
        kept, registered = len(explorer.components), len(self.registry)
        hits, misses = self.cache.hits, self.cache.misses
        previous = self.current_verdict()
        try:
            for f in formulas:
                for v in free_vars(f):
                    self.registry.register(v)
            t0 = time.perf_counter_ns()
            dfas = [compile_formula(part, self.registry, self.cache,
                                    determinize_budget=self.determinize_budget)
                    for f in formulas for part in conjuncts(f)]
            compile_ns = time.perf_counter_ns() - t0

            t1 = time.perf_counter_ns()
            for dfa in dfas:
                explorer.add_component(dfa)
            # after unsat, or with no new component, the verdict stands
            searching = previous.is_sat and len(self.explorer.components) > kept
            if searching:
                partial, explored, max_depth = explorer.search(self.state_budget)
                counters = (explorer.expanded, explorer.replayed, explorer.edges_out,
                            explorer.skipped, explorer.bound_raises, explorer.widest)
            else:
                partial, explored, max_depth = previous, 0, -1
                counters = (0,) * 6
        except BaseException as exc:
            self.explorer.drop_components(kept)
            self.registry.unregister_after(registered)
            if isinstance(exc, RecursionError):
                raise WsError("formula nested too deeply to compile") from None
            raise
        process_ns = time.perf_counter_ns() - t1 if searching else 0

        self.step += len(formulas)
        total = explored + (self.reports[-1].states_explored_total if self.reports else 0)
        verdict = replace(partial, step=self.step)  # with no new component, the same word
        report = StepReport(self.step, mode, compile_ns, process_ns, explored, total,
                            max_depth, *counters, explorer.held, explorer.complete,
                            explorer.placed, self.cache.hits - hits,
                            self.cache.misses - misses, len(explorer.components), verdict)
        self.reports.append(report)
        return report

    def witness_maps(self, verdict: StepVerdict) -> Optional[list[dict[str, int]]]:
        """Witness symbols as {variable name: bit} maps, for humans and logs."""
        if verdict.word is None:
            return None
        names = [self.registry.name_of(t.index) for t in self.explorer.union_tracks]
        return [dict(zip(names, symbol)) for symbol in verdict.witness]


def from_scratch_check(
    formulas: Sequence[Formula], *, budget: int | None = None
) -> tuple[StepVerdict, list[StepReport]]:
    """The naive baseline: for every prefix, recompile everything and search
    the product from its initial state, reusing nothing across prefixes.

    Each prefix takes the session's own compile-and-search path, on a
    fresh ``StreamSession(budget=budget)``; only the explored-state total
    runs across prefixes.
    """
    StreamSession(budget=budget)  # rejects a bad budget even with no formulas
    reports: list[StepReport] = []
    for i in range(1, len(formulas) + 1):
        report = StreamSession(budget=budget)._conjoin(formulas[:i], FROM_SCRATCH)
        before = reports[-1].states_explored_total if reports else 0
        reports.append(replace(report, states_explored_total=before + report.states_explored_step))
    final = reports[-1].verdict if reports else StepVerdict(0, "sat", ())
    return final, reports


@dataclass(frozen=True)
class SessionStats:
    """Cost breakdown of a run, on the exact recorded nanosecond values.

    ``combined_total_ns`` is the measured sum of every step's compile and
    process component; ``first_compile_plus_process_ns`` prices the run as
    if translation were paid only once, with each step then costing just
    its processing share - the idealized reuse account.
    """

    per_step: tuple[StepReport, ...]
    compile_total_ns: int
    process_total_ns: int
    combined_total_ns: int
    first_compile_plus_process_ns: int
    explored_total: int

    @property
    def verdicts(self) -> tuple[StepVerdict, ...]:
        return tuple(r.verdict for r in self.per_step)


def session_stats(source: StreamSession | Sequence[StepReport]) -> SessionStats:
    reports = tuple(source.reports if isinstance(source, StreamSession) else source)
    compile_total = sum(r.compile_ns for r in reports)
    process_total = sum(r.process_ns for r in reports)
    first_compile = reports[0].compile_ns if reports else 0
    return SessionStats(
        per_step=reports,
        compile_total_ns=compile_total,
        process_total_ns=process_total,
        combined_total_ns=compile_total + process_total,
        first_compile_plus_process_ns=first_compile + process_total,
        explored_total=reports[-1].states_explored_total if reports else 0,
    )
