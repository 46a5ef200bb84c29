"""Spans and counters around the calls into each layer of ws1s_stream.

Only traced runs import this module; it patches names where their
callers look them up and never edits the package.  Spans are kept in
memory as (name, start_ns, end_ns, parent, run_id) and written out when
the run ends.  A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from ws1s_stream import cli, compiler, stream


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.session = None  # the StreamSession the run pushed into

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        for fn in ("minimize", "intersect", "project", "complement"):
            self.wrap(compiler, fn, f"automata.{fn}")
        self.wrap(compiler, "normalize", "syntax.normalize")
        self.wrap(compiler, "determinize", "automata.determinize",
                  after=lambda args, dfa: self._count("automata.determinize.states_out",
                                                      dfa.num_states))
        self.wrap(stream, "coreachable", "automata.coreachable")
        self.wrap(stream, "compile_formula", "compiler.compile")
        explorer = stream.ProductExplorer
        self.wrap(explorer, "add_component", "stream.add_component")
        # nodes a search adds: the archive size after minus before
        self.wrap(explorer, "search", "stream.search",
                  before=lambda args: self._count("stream.nodes.materialized",
                                                  -len(args[0].nodes)),
                  after=lambda args, _: self._count("stream.nodes.materialized",
                                                    len(args[0].nodes)))
        self.wrap(explorer, "_edges_for", "stream.edges_for",
                  before=self._classify_edges_for,
                  after=lambda args, out: self._count("stream.edges.out", len(out)))
        self.wrap(stream.StreamSession, "push", "stream.push", before=self._keep_session)
        self.wrap(stream.StreamSession, "witness_maps", "cli.witness_maps")
        self.wrap(cli, "parse", "syntax.parse")
        self.wrap(cli, "stream_command", "cli.stream_command")

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _keep_session(self, args) -> None:
        self.session = args[0]

    def _classify_edges_for(self, args) -> None:
        # replayed when a complete prefix ancestor exists, the same test
        # _edges_for makes before it falls back to a fresh enumeration
        explorer, t = args
        for j in range(len(t) - 1, 0, -1):
            node = explorer.nodes.get(t[:j])
            if node is not None and node.complete:
                self.counts["stream.edges_for.replayed"] += 1
                return
        self.counts["stream.edges_for.fresh"] += 1

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            row = table[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - inner) / 1e9
        return table

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")


def layer_metrics(tracer: Tracer, session) -> dict[str, float]:
    """The per-layer metrics of one traced stream, counters and seconds."""
    spans = tracer.by_name()
    row = lambda name: spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})  # noqa: E731
    m: dict[str, float] = {}
    m["syntax.parse.calls"] = row("syntax.parse")["calls"]
    m["syntax.parse.self_s"] = row("syntax.parse")["self_s"]
    m["syntax.normalize.self_s"] = row("syntax.normalize")["self_s"]
    m["compiler.compile.calls"] = row("compiler.compile")["calls"]
    m["compiler.compile.self_s"] = row("compiler.compile")["self_s"]
    cache = session.cache
    m["compiler.memo.hits"] = cache.hits
    m["compiler.memo.misses"] = cache.misses
    m["compiler.memo.hit_ratio"] = cache.hits / max(1, cache.hits + cache.misses)
    sizes = [dfa.num_states for dfa in session.components]
    m["compiler.dfa.states_max"] = max(sizes, default=0)
    m["compiler.dfa.states_sum"] = sum(sizes)
    for op in ("intersect", "minimize", "project", "determinize", "complement", "coreachable"):
        m[f"automata.{op}.calls"] = row(f"automata.{op}")["calls"]
        m[f"automata.{op}.self_s"] = row(f"automata.{op}")["self_s"]
    m["automata.determinize.states_out"] = tracer.counts["automata.determinize.states_out"]
    m["stream.push.s"] = row("stream.push")["s"]
    m["stream.compile_ns_total"] = sum(r.compile_ns for r in session.reports)
    m["stream.process_ns_total"] = sum(r.process_ns for r in session.reports)
    m["stream.search.calls"] = row("stream.search")["calls"]
    m["stream.search.self_s"] = row("stream.search")["self_s"]
    m["stream.edges_for.calls"] = row("stream.edges_for")["calls"]
    m["stream.edges_for.s"] = row("stream.edges_for")["s"]
    replayed = tracer.counts["stream.edges_for.replayed"]
    fresh = tracer.counts["stream.edges_for.fresh"]
    m["stream.edges_for.replayed"] = replayed
    m["stream.edges_for.fresh"] = fresh
    m["stream.replay_ratio"] = replayed / max(1, replayed + fresh)
    m["stream.edges.out"] = tracer.counts["stream.edges.out"]
    nodes = session.explorer.nodes
    m["stream.nodes.resident"] = len(nodes)
    m["stream.nodes.complete"] = sum(1 for node in nodes.values() if node.complete)
    # a search at arity k creates only k-tuples, so (arity, depth) names one layer
    widths = Counter((len(t), node.depth) for t, node in nodes.items())
    m["stream.layer.max_width"] = max(widths.values(), default=0)
    m["stream.nodes.materialized"] = tracer.counts["stream.nodes.materialized"]
    m["stream.states_explored"] = session.reports[-1].states_explored_total if session.reports else 0
    # witness length per node expanded, summed over the sat steps; a node
    # is expanded when _edges_for derives its successors
    witness_symbols = sum(len(r.verdict.witness) for r in session.reports if r.verdict.witness)
    m["stream.search.useful_ratio"] = witness_symbols / max(1, m["stream.edges_for.calls"])
    m["cli.self_s"] = row("cli.stream_command")["self_s"]
    m["cli.witness_maps.s"] = row("cli.witness_maps")["s"]
    return m
