"""Incremental satisfiability over a growing conjunction of formulas.

Each pushed conjunct is compiled to its own minimal automaton; the
conjunction's product automaton is never materialized.  Instead the
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

Verdicts are monotone (a conjunction can only lose models), so after
the first unsat step the session short-circuits exploration and keeps
answering unsat while still appending components and recording compile
times.  The from-scratch baseline runs the same compile-and-search path
on a fresh session per prefix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .automata import (
    DEFAULT_DETERMINIZE_BUDGET,
    Dfa,
    TrackSet,
    Witness,
    coreachable,
    cube_min_symbol,
    cube_overlay,
    merge_tracks,
)
from .compiler import MemoCache, TrackRegistry, compile_formula
from .errors import StateBudgetExceeded
from .syntax import Formula, free_vars

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
    verdict: StepVerdict


class _Node:
    """One explored product state at the arity it was explored with.

    ``parent`` and ``cube`` are the last edge of its shortest lex-least
    path from the root.  ``out`` is only meaningful when ``complete`` is
    set; it then lists every live successor edge at this node's arity,
    cubes over the union tracks of that arity, least symbol first.
    """

    __slots__ = ("depth", "parent", "cube", "complete", "out", "accepting")

    def __init__(self, depth: int, accepting: bool, parent: _Node | None = None, cube: str = ""):
        self.depth = depth
        self.parent = parent
        self.cube = cube
        self.accepting = accepting
        self.complete = False
        self.out: tuple = ()


class _Component:
    __slots__ = ("dfa", "cols", "coreachable")

    def __init__(self, dfa: Dfa, cols: tuple[int, ...]):
        self.dfa = dfa
        self.cols = cols
        self.coreachable = coreachable(dfa)


def _edge_order(edge: tuple[str, tuple]) -> str:
    # the cube's least symbol; a node's edges are disjoint cubes, so no ties
    return edge[0].replace("X", "0")


class ProductExplorer:
    """Demand-driven product search over a growing component list."""

    def __init__(self):
        self.components: list[_Component] = []
        self.union_tracks: TrackSet = ()
        self.widths: list[int] = [0]  # union width after the first i components
        self.root: tuple = ()
        # the empty product accepts the empty word: a conjunction of
        # nothing is true
        self.nodes: dict[tuple, _Node] = {(): _Node(0, accepting=True)}

    def add_component(self, dfa: Dfa) -> None:
        union = merge_tracks(self.union_tracks, dfa.tracks)
        # registration order makes new tracks highest, so positions of
        # tracks already in the union never move; stored cubes extend by
        # right-padding with don't-cares
        if union[: len(self.union_tracks)] != self.union_tracks:
            raise AssertionError("union tracks must grow append-only")
        pos_of = {t.index: i for i, t in enumerate(union)}
        self.components.append(
            _Component(dfa, tuple(pos_of[t.index] for t in dfa.tracks))
        )
        self.union_tracks = union
        self.widths.append(len(union))
        self.root = self.root + (dfa.initial,)

    def drop_components(self, keep: int) -> None:
        """Undo every ``add_component`` after the first ``keep``.

        Nodes above arity ``keep`` go too: only searches run after those
        additions can have created them.
        """
        del self.components[keep:]
        del self.widths[keep + 1:]
        self.union_tracks = self.union_tracks[: self.widths[-1]]
        self.root = self.root[:keep]
        for t in [t for t in self.nodes if len(t) > keep]:
            del self.nodes[t]

    # -- successor derivation ---------------------------------------------

    def _edges_for(self, t: tuple) -> tuple[tuple[str, tuple], ...]:
        """Live successor edges of ``t`` at its own arity.

        Reuses the archived edge list of the longest fully-explored
        prefix of ``t``, splitting those cubes through the components
        added since; only if no prefix was ever fully explored is the
        whole product enumerated fresh.
        """
        start = 0
        edges: list[tuple[str, tuple]] | None = None
        for j in range(len(t) - 1, 0, -1):
            ancestor = self.nodes.get(t[:j])
            if ancestor is not None and ancestor.complete:
                start = j
                edges = list(ancestor.out)
                break
        if edges is None:
            edges = [("X" * self.widths[0], ())]
        for i in range(start, len(t)):
            comp = self.components[i]
            width = self.widths[i + 1]
            grown: list[tuple[str, tuple]] = []
            for cube, target in edges:
                cube = cube + "X" * (width - len(cube))
                for comp_cube, dst in comp.dfa.delta[t[i]]:
                    if dst not in comp.coreachable:
                        continue
                    merged = cube_overlay(cube, comp_cube, comp.cols)
                    if merged is not None:
                        grown.append((merged, target + (dst,)))
            edges = grown
            if not edges:
                break
        return tuple(sorted(edges, key=_edge_order))

    def _tuple_accepting(self, t: tuple) -> bool:
        return all(s in comp.dfa.accepting for s, comp in zip(t, self.components))

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
        """
        created = 0
        max_expanded = -1
        extended_free: set[tuple] = set()

        root_node = self.nodes.get(self.root)
        if root_node is None:  # the initial state is free
            root_node = self.nodes[self.root] = _Node(0, self._tuple_accepting(self.root))
            if self.root:
                extended_free.add(self.root[:-1])
        found = root_node if root_node.accepting else None
        seen = {self.root}  # placed by this search, not by an earlier one
        layer = [self.root]
        while found is None:
            discovered: dict[tuple, tuple[_Node, str]] = {}
            for t in layer:
                node = self.nodes[t]
                if not node.complete:
                    node.out = self._edges_for(t)
                    node.complete = True
                max_expanded = max(max_expanded, node.depth)
                for cube, target in node.out:
                    if target not in seen and target not in discovered:
                        discovered[target] = (node, cube)
            if not discovered:
                return StepVerdict(0, "unsat", None), created, max_expanded
            seen.update(discovered)
            layer = list(discovered)
            for target, (parent, cube) in discovered.items():
                node = self.nodes.get(target)
                if node is None:
                    base = target[:-1]
                    if base in self.nodes and base not in extended_free:
                        extended_free.add(base)  # extending a known state is free
                    else:
                        created += 1
                    if len(self.nodes) >= state_budget:
                        raise StateBudgetExceeded(state_budget, "product exploration")
                    node = _Node(parent.depth + 1, self._tuple_accepting(target), parent, cube)
                    self.nodes[target] = node
                if found is None and node.accepting:
                    found = node
        witness = []
        while found.parent is not None:
            witness.append(cube_min_symbol(found.cube))
            found = found.parent
        return StepVerdict(0, "sat", witness[::-1]), created, max_expanded


class StreamSession:
    """State of one incremental conjunction run.

    A session owns its track registry, so free variables keep their
    track across conjuncts, and a compile cache shared by all its steps.
    The cache may also be shared with other sessions: its keys name
    tracks, so an entry means the same automaton in every registry.
    Sessions are single-threaded; sessions that run concurrently and
    share a cache need an external lock around it.
    """

    def __init__(
        self,
        *,
        cache: MemoCache | None = None,
        state_budget: int = DEFAULT_SESSION_BUDGET,
        determinize_budget: int = DEFAULT_DETERMINIZE_BUDGET,
    ):
        if state_budget <= 0:
            raise ValueError("state budget must be positive")
        self.registry = TrackRegistry()
        self.cache = cache if cache is not None else MemoCache()
        self.explorer = ProductExplorer()
        self.reports: list[StepReport] = []
        self.state_budget = state_budget
        self.determinize_budget = determinize_budget

    @property
    def components(self) -> list[Dfa]:
        """The compiled conjuncts, in push order."""
        return [comp.dfa for comp in self.explorer.components]

    @property
    def verdicts(self) -> list[StepVerdict]:
        return [r.verdict for r in self.reports]

    @property
    def step(self) -> int:
        return len(self.explorer.components)

    def current_verdict(self) -> StepVerdict:
        if self.reports:
            return self.reports[-1].verdict
        return StepVerdict(0, "sat", [])  # empty conjunction

    def push(self, f: Formula) -> StepReport:
        """Add one conjunct and decide satisfiability of the conjunction so far."""
        return self._conjoin([f], INCREMENTAL)

    def _conjoin(self, formulas: Sequence[Formula], mode: str) -> StepReport:
        """Compile ``formulas`` into new components, then decide the conjunction.

        A registration, compile or search that raises leaves registered
        variables, components, reports and explored nodes as they were;
        only the memo cache keeps what the attempt added to it.
        """
        kept, registered = self.step, len(self.registry)
        searching = self.current_verdict().is_sat  # after unsat, nothing to search
        try:
            for f in formulas:
                for v in free_vars(f):
                    self.registry.register(v)
            t0 = time.perf_counter_ns()
            dfas = [compile_formula(f, self.registry, self.cache,
                                    determinize_budget=self.determinize_budget)
                    for f in formulas]
            compile_ns = time.perf_counter_ns() - t0

            t1 = time.perf_counter_ns()
            for dfa in dfas:
                self.explorer.add_component(dfa)
            if searching:
                partial, explored, max_depth = self.explorer.search(self.state_budget)
            else:
                partial, explored, max_depth = StepVerdict(0, "unsat", None), 0, -1
        except BaseException:
            self.explorer.drop_components(kept)
            self.registry.unregister_after(registered)
            raise
        process_ns = time.perf_counter_ns() - t1 if searching else 0

        total = explored + (self.reports[-1].states_explored_total if self.reports else 0)
        verdict = StepVerdict(self.step, partial.status, partial.witness)
        report = StepReport(self.step, mode, compile_ns, process_ns, explored, total,
                            max_depth, verdict)
        self.reports.append(report)
        return report

    def witness_maps(self, verdict: StepVerdict) -> Optional[list[dict[str, int]]]:
        """Witness symbols as {variable name: bit} maps, for humans and logs."""
        if verdict.witness is None:
            return None
        names = [self.registry.name_of(t.index) for t in self.explorer.union_tracks]
        return [dict(zip(names, symbol)) for symbol in verdict.witness]


def budget_caps(budget: int | None) -> tuple[int, int]:
    """Exploration and determinization caps from one optional budget that
    bounds both, as ``WS1S_STATE_BUDGET`` does; None keeps the defaults."""
    if budget is None:
        return DEFAULT_SESSION_BUDGET, DEFAULT_DETERMINIZE_BUDGET
    return budget, budget


def from_scratch_check(
    formulas: Sequence[Formula],
    *,
    state_budget: int = DEFAULT_SESSION_BUDGET,
    determinize_budget: int = DEFAULT_DETERMINIZE_BUDGET,
) -> tuple[StepVerdict, list[StepReport]]:
    """The naive baseline: for every prefix, recompile everything and search
    the product from its initial state, reusing nothing across prefixes.

    Each prefix takes the session's own compile-and-search path, on a
    fresh session; only the explored-state total runs across prefixes.
    """
    reports: list[StepReport] = []
    for i in range(1, len(formulas) + 1):
        session = StreamSession(state_budget=state_budget,
                                determinize_budget=determinize_budget)
        report = session._conjoin(formulas[:i], FROM_SCRATCH)
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
