"""Incremental satisfiability over a growing conjunction of formulas.

Each pushed formula is split along its top-level ``&`` chain, and each
part is compiled to its own minimal automaton: one product component
per distinct top-level conjunct, since a part equal to a component
already in the product adds nothing (L & L = L).  The conjunction's
product automaton is never materialized.  Instead the
session keeps every product state it has ever explored, together with
that state's outgoing edge cubes, and decides each step by a
shortest-first search that stops at the first state in which every
component accepts.

Product tuples are append-only: a component once pushed keeps its slot,
and a state explored at an earlier step is extended rather than
rebuilt.  Extension is demand-driven: when the search needs the
successors of a tuple, it replays the edge cubes stored for the longest
previously-explored prefix of that tuple through the automata added
since, splitting a cube only where a newer component distinguishes its
expansions and dropping successors whose new coordinate can no longer
reach acceptance.  States the search never touches keep their archived
form at the old arity and cost nothing, which is what keeps the
per-step price tied to the witness search rather than to the size of
everything seen so far.

The work per node and per edge does not grow with the number of
components.  A product state is an int id, interned on its prefix's id
and its last component state, so the longest explored prefix is found
along prefix links and acceptance is the prefix's acceptance and the
last component's.  Edge cubes are ``(care, value)`` int masks (see
``automata``), so widening is a shift, meeting is a few bit operations,
and least-symbol order is the order of ``value``.  Each placed state's
full tuple is built once, for the tuple-keyed view ``nodes``.

Verdicts are monotone (a conjunction can only lose models), so after
the first unsat step the session short-circuits exploration and keeps
answering unsat while still appending components and recording compile
times.  The from-scratch baseline runs the same compile-and-search path
on a fresh session per prefix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Sequence

from .automata import (
    DEFAULT_DETERMINIZE_BUDGET,
    Dfa,
    TrackSet,
    Witness,
    coreachable,
    cube_product,
    mask_min_symbol,
    mask_rows,
    merge_tracks,
)
from .compiler import MemoCache, TrackRegistry, compile_formula
from .errors import StateBudgetExceeded, WsError
from .syntax import And, Formula, free_vars

DEFAULT_SESSION_BUDGET = 5_000_000

INCREMENTAL = "Incremental"
FROM_SCRATCH = "FromScratch"


@dataclass(frozen=True)
class StepVerdict:
    step: int
    status: str  # "sat" | "unsat"
    witness: Optional[Witness]  # over the union tracks, shortest, lex-least

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


@dataclass(frozen=True)
class StepReport:
    step: int
    mode: str
    compile_ns: int
    process_ns: int
    states_explored_step: int
    states_explored_total: int
    max_expanded_depth: int  # -1 when nothing was expanded
    expanded: int  # nodes whose successor edges this step derived
    replayed: int  # of those, the ones derived from an archived complete prefix
    memo_hits: int  # memo cache lookups this step's compile answered from the cache
    memo_misses: int  # and those it had to build
    components: int  # the product's distinct components after the step
    verdict: StepVerdict


class _Node:
    """One product state, named by an int id: its index in ``ProductExplorer.by_id``.

    A state is interned as ``(prefix, state)``: the id of the state one
    arity lower and the component state appended to it, the first time an
    edge or a root reaches it.  It is placed when a search
    discovers it: then ``t`` is its full tuple (its key in
    ``ProductExplorer.nodes``), ``parent`` its predecessor on its
    shortest lex-least path and ``value`` the least symbol of that last
    edge, as a mask.  States interned on the way through several new
    components at once are never placed.  ``out`` is only meaningful when
    ``complete`` is set; it then lists every live successor edge at this
    state's arity as all-int ``(care, value, target id)`` triples, mask
    cubes over the union tracks of that arity, least symbol first.
    It is None until then.
    """

    __slots__ = ("prefix", "state", "accepting", "t", "depth", "parent", "value", "out")

    def __init__(self, prefix: int, state: int, accepting: bool):
        self.prefix = prefix
        self.state = state
        self.accepting = accepting
        self.t: tuple | None = None
        self.depth = 0
        self.parent: _Node | None = None
        self.value = 0
        self.out: tuple | None = None

    @property
    def complete(self) -> bool:
        return self.out is not None


class _Component:
    """A pushed automaton, the number of columns it adds to the union, and
    per state its edges to live states as mask cubes over the union."""

    __slots__ = ("dfa", "shift", "rows")

    def __init__(self, dfa: Dfa, union: TrackSet, shift: int):
        self.dfa = dfa
        self.shift = shift
        alive = coreachable(dfa)
        self.rows = tuple(tuple(e for e in edges if e[2] in alive)
                          for edges in mask_rows(dfa, union))


def _key(prefix: int, state: int) -> int:
    # one int per (prefix id, state) pair: cheaper to keep and hash than a
    # tuple; no automaton has 2^32 states
    return prefix << 32 | state


_edge_order = itemgetter(1)  # a mask's value is its least symbol; disjoint cubes never tie


class ProductExplorer:
    """Demand-driven product search over a growing component list."""

    def __init__(self):
        self.components: list[_Component] = []
        self.dfas: set[Dfa] = set()  # the components' automata, for equality lookups
        self.union_tracks: TrackSet = ()
        # the empty product accepts the empty word: a conjunction of
        # nothing is true.  It has id 0 and is placed from the start.
        empty = _Node(-1, -1, accepting=True)
        empty.t = ()
        self.by_id: list[_Node] = [empty]
        self.ids: dict[int, int] = {}  # _key(prefix, state) -> id
        self.roots: list[int] = [0]  # initial state id after the first i components
        self.nodes: dict[tuple, _Node] = {(): empty}  # the placed states by tuple
        # _edges_for calls in the last search, and those that replayed an
        # archived prefix
        self.expanded = self.replayed = 0

    def add_component(self, dfa: Dfa) -> None:
        union = merge_tracks(self.union_tracks, dfa.tracks)
        # registration order makes new tracks highest, so positions of
        # tracks already in the union never move; stored mask cubes extend
        # by a left shift
        if union[: len(self.union_tracks)] != self.union_tracks:
            raise AssertionError("union tracks must grow append-only")
        comp = _Component(dfa, union, len(union) - len(self.union_tracks))
        self.components.append(comp)
        self.dfas.add(dfa)
        self.union_tracks = union
        self.roots.append(self._intern(self.roots[-1], dfa.initial, comp))

    def drop_components(self, keep: int) -> None:
        """Undo every ``add_component`` after the first ``keep``.

        Every state interned since goes too.  The root at arity ``keep + 1``
        was the first of them (nothing reaches an arity before its root),
        so they are the tail of the id list from that root on.
        """
        if keep == len(self.components):
            return
        mark = self.roots[keep + 1]
        for node in self.by_id[mark:]:
            del self.ids[_key(node.prefix, node.state)]
            if node.t is not None:
                del self.nodes[node.t]
        del self.by_id[mark:]
        del self.roots[keep + 1:]
        self.dfas.difference_update(comp.dfa for comp in self.components[keep:])
        del self.components[keep:]
        self.union_tracks = self.union_tracks[: sum(c.shift for c in self.components)]

    # -- states and successor derivation ---------------------------------

    def _intern(self, prefix: int, state: int, comp: _Component) -> int:
        key = _key(prefix, state)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.by_id)
            accepting = self.by_id[prefix].accepting and state in comp.dfa.accepting
            self.by_id.append(_Node(prefix, state, accepting))
        return i

    def _tuple(self, node: _Node) -> tuple:
        """A node's full tuple: its nearest placed prefix's plus the states after it."""
        suffix = []
        while node.t is None:
            suffix.append(node.state)
            node = self.by_id[node.prefix]
        return node.t + tuple(reversed(suffix))

    def _edges_for(self, t: tuple) -> tuple[tuple[int, int, int], ...]:
        """Live successor edges of the placed state ``t`` at its own arity.

        Reuses the archived edge list of the longest fully-explored
        prefix of ``t``, found along prefix links, splitting those cubes
        through the components added since; only if no prefix was ever
        fully explored is the whole product enumerated fresh.
        """
        start = 0
        edges: Sequence[tuple[int, int, int]] = ((0, 0, 0),)  # the empty product's one edge
        ancestor = self.nodes[t]
        for j in range(len(t) - 1, 0, -1):
            ancestor = self.by_id[ancestor.prefix]
            if ancestor.out is not None:
                start, edges = j, ancestor.out
                self.replayed += 1
                break
        self.expanded += 1
        intern = self._intern
        for i in range(start, len(t)):
            comp = self.components[i]
            edges = [(care, value, intern(target, dst, comp)) for care, value, target, dst
                     in cube_product(edges, comp.rows[t[i]], comp.shift)]
        return tuple(sorted(edges, key=_edge_order))

    # -- search ------------------------------------------------------------

    def search(self, state_budget: int) -> tuple[StepVerdict, int, int]:
        """Shortest-first search at the current arity.

        Returns (partial verdict, states created, deepest level whose
        successors were derived).  The verdict's step index is filled in
        by the caller.  A layer's nodes are expanded in discovery order,
        each along its edges least symbol first, and a target's first
        discovery places it; paths into one layer have equal length, so
        that is lexicographic path order, and the first accepting node
        ends the shortest lex-least witness, read back along parent
        links.  Whole layers are materialized, so counts are reproducible.
        Every step of it works on ids and prefix links; a tuple is built
        once per placed node, for ``nodes``.
        """
        by_id, nodes = self.by_id, self.nodes
        created = 0
        max_expanded = -1
        extended_free: set[int] = set()  # prefix ids a free extension has used
        self.expanded = self.replayed = 0

        root = self.roots[-1]
        root_node = by_id[root]
        if root_node.t is None:  # the initial state is free
            root_node.t = self._tuple(root_node)
            nodes[root_node.t] = root_node
            extended_free.add(root_node.prefix)
        found = root_node if root_node.accepting else None
        seen = {root}  # placed by this search, not by an earlier one
        layer = [root]
        while found is None and layer:
            discovered = []  # the next layer, in discovery order
            for i in layer:
                node = by_id[i]
                if node.out is None:
                    node.out = self._edges_for(node.t)
                max_expanded = max(max_expanded, node.depth)
                for _, value, target in node.out:
                    if target in seen:
                        continue
                    seen.add(target)
                    discovered.append(target)
                    child = by_id[target]
                    if child.t is None:
                        prefix = child.prefix
                        if by_id[prefix].t is not None and prefix not in extended_free:
                            extended_free.add(prefix)  # extending a known state is free
                        else:
                            created += 1
                        if len(nodes) >= state_budget:
                            raise StateBudgetExceeded(state_budget, "product exploration")
                        child.t = self._tuple(child)
                        nodes[child.t] = child
                        child.depth, child.parent, child.value = node.depth + 1, node, value
                    if found is None and child.accepting:
                        found = child
            layer = discovered
        if found is None:
            return StepVerdict(0, "unsat", None), created, max_expanded
        width = len(self.union_tracks)
        witness = []
        while found.parent is not None:
            witness.append(mask_min_symbol(found.value, width))
            found = found.parent
        return StepVerdict(0, "sat", witness[::-1]), created, max_expanded


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
        return StepVerdict(0, "sat", [])  # empty conjunction

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
        kept, registered = len(self.explorer.components), len(self.registry)
        hits, misses = self.cache.hits, self.cache.misses
        searching = self.current_verdict().is_sat  # after unsat, nothing to search
        try:
            for f in formulas:
                for v in free_vars(f):
                    self.registry.register(v)
            t0 = time.perf_counter_ns()
            dfas = [compile_formula(part, self.registry, self.cache,
                                    determinize_budget=self.determinize_budget)
                    for f in formulas for part in _conjuncts(f)]
            compile_ns = time.perf_counter_ns() - t0

            t1 = time.perf_counter_ns()
            for dfa in dfas:
                if dfa not in self.explorer.dfas:
                    self.explorer.add_component(dfa)
            if searching:
                partial, explored, max_depth = self.explorer.search(self.state_budget)
                expanded, replayed = self.explorer.expanded, self.explorer.replayed
            else:
                partial, explored, max_depth = StepVerdict(0, "unsat", None), 0, -1
                expanded = replayed = 0
        except BaseException as exc:
            self.explorer.drop_components(kept)
            self.registry.unregister_after(registered)
            if isinstance(exc, RecursionError):
                raise WsError("formula nested too deeply to compile") from None
            raise
        process_ns = time.perf_counter_ns() - t1 if searching else 0

        self.step += len(formulas)
        total = explored + (self.reports[-1].states_explored_total if self.reports else 0)
        verdict = StepVerdict(self.step, partial.status, partial.witness)
        report = StepReport(self.step, mode, compile_ns, process_ns, explored, total,
                            max_depth, expanded, replayed, self.cache.hits - hits,
                            self.cache.misses - misses, len(self.explorer.components),
                            verdict)
        self.reports.append(report)
        return report

    def witness_maps(self, verdict: StepVerdict) -> Optional[list[dict[str, int]]]:
        """Witness symbols as {variable name: bit} maps, for humans and logs."""
        if verdict.witness is None:
            return None
        names = [self.registry.name_of(t.index) for t in self.explorer.union_tracks]
        return [dict(zip(names, symbol)) for symbol in verdict.witness]


def _conjuncts(f: Formula) -> list[Formula]:
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
    final = reports[-1].verdict if reports else StepVerdict(0, "sat", [])
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
