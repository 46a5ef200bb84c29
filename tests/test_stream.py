import dataclasses
import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

from formula_gen import random_formula
from ws1s_stream.automata import (
    accepts,
    cylindrify,
    find_witness,
    intersect,
    make_dfa,
    make_tracks,
    parse_dump,
    product,
)
from ws1s_stream.bench import BenchConfig, family1, family2
from ws1s_stream.compiler import MemoCache, TrackRegistry, compile_formula, restriction_automaton
from ws1s_stream.errors import (
    KindConflict,
    KindError,
    StateBudgetExceeded,
    TrackKindConflict,
    WsError,
)
from ws1s_stream import stream
from ws1s_stream.oracle import evaluate, interpretation_from_word, sat_bounded
from ws1s_stream.stream import (
    FROM_SCRATCH,
    ProductExplorer,
    StreamSession,
    from_scratch_check,
    session_stats,
)
from ws1s_stream.syntax import And, In, Kind, Less, Not, Succ, VarId, free_vars, parse


def _conjunction(formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def _random_stream(rng, length):
    """A sequence of conjuncts over a shared variable vocabulary."""
    return [random_formula(rng, rng.choice((1, 2, 2, 3))) for _ in range(length)]


def test_session_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        StreamSession(budget=0)


def test_fresh_session_is_empty():
    s = StreamSession()
    assert s.step == 0
    assert s.components == []
    assert s.current_verdict().status == "sat"
    assert s.current_verdict().witness == []


def test_sessions_are_independent():
    a, b = StreamSession(), StreamSession()
    a.push(parse("x in Y"))
    assert a.step == 1
    assert b.step == 0


def test_family1_all_sat_with_all_ones_witness():
    s = StreamSession()
    for n, f in enumerate(family1(4), start=1):
        report = s.push(f)
        assert report.verdict.status == "sat"
        assert report.verdict.witness == [(1,) * (2 * n)]


def test_contradiction_goes_unsat_and_stays():
    s = StreamSession()
    f = parse("x in Y")
    assert s.push(f).verdict.status == "sat"
    assert s.push(Not(f)).verdict.status == "unsat"
    later = s.push(parse("z in Y"))
    assert later.verdict.status == "unsat"
    assert later.process_ns == 0  # exploration short-circuited
    assert len(s.components) == len(s.verdicts) == 3


def test_fresh_track_tautology_never_flips_sat():
    s = StreamSession()
    s.push(parse("x in Y"))
    report = s.push(parse("ex2 W: w in W"))
    assert report.verdict.status == "sat"


def test_verdicts_monotone_on_random_streams():
    rng = random.Random(71)
    for _ in range(10):
        s = StreamSession()
        seen_unsat = False
        for f in _random_stream(rng, 4):
            status = s.push(f).verdict.status
            if seen_unsat:
                assert status == "unsat"
            seen_unsat = seen_unsat or status == "unsat"


def test_cross_mode_agreement_families():
    for family in (family1, family2):
        formulas = family(6)
        s = StreamSession()
        incremental = [s.push(f).verdict.status for f in formulas]
        _, reports = from_scratch_check(formulas)
        assert incremental == [r.verdict.status for r in reports]


def test_cross_mode_agreement_random_streams():
    rng = random.Random(73)
    for _ in range(12):
        formulas = _random_stream(rng, 4)
        s = StreamSession()
        incremental = [s.push(f).verdict.status for f in formulas]
        _, reports = from_scratch_check(formulas)
        assert incremental == [r.verdict.status for r in reports]


def test_witnesses_accepted_by_every_component():
    rng = random.Random(79)
    for _ in range(8):
        formulas = _random_stream(rng, 4)
        s = StreamSession()
        for f in formulas:
            report = s.push(f)
            if report.verdict.status != "sat":
                break
            union = s.explorer.union_tracks
            for dfa in s.components:
                widened = cylindrify(dfa, union)
                assert accepts(widened, report.verdict.witness)


def test_witness_decodes_to_model_of_conjunction():
    rng = random.Random(83)
    for _ in range(8):
        formulas = _random_stream(rng, 3)
        s = StreamSession()
        for n, f in enumerate(formulas, start=1):
            report = s.push(f)
            if report.verdict.status != "sat":
                break
            union = s.explorer.union_tracks
            variables = [VarId(s.registry.name_of(t.index), t.kind) for t in union]
            interp = interpretation_from_word(report.verdict.witness, variables)
            assert evaluate(_conjunction(formulas[:n]), interp)


def test_witness_matches_independent_compilation():
    formulas = family1(5)
    s = StreamSession()
    for n, f in enumerate(formulas, start=1):
        report = s.push(f)
        registry = TrackRegistry()
        for g in formulas[:n]:
            for v in free_vars(g):
                registry.register(v)
        full = compile_formula(_conjunction(formulas[:n]), registry)
        assert accepts(full, report.verdict.witness)


def test_lazy_verdict_matches_materialized_product():
    # the never-materialized search must reproduce automaton-core's
    # shortest/lex-least witness on the folded product, byte for byte
    rng = random.Random(89)
    for _ in range(40):
        formulas = _random_stream(rng, 4)
        s = StreamSession()
        materialized = None
        for f in formulas:
            k = len(s.components)
            report = s.push(f)
            for dfa in s.components[k:]:  # a push adds its new parts: several, or none
                materialized = dfa if materialized is None else intersect(materialized, dfa)
            direct = find_witness(cylindrify(materialized, s.explorer.union_tracks))
            if report.verdict.status == "sat":
                assert report.verdict.witness == direct
            else:
                assert direct is None


def test_pruned_states_cannot_lie_on_accepting_paths():
    # any full-product state on a path from the initial state to an
    # accepting state has every coordinate co-reachable in its component
    from ws1s_stream.automata import coreachable, merge_tracks

    rng = random.Random(97)
    for _ in range(6):
        formulas = _random_stream(rng, 3)
        s = StreamSession()
        for f in formulas:
            s.push(f)
        comps = s.components
        alive_sets = [coreachable(d) for d in comps]
        union = ()
        for d in comps:
            union = merge_tracks(union, d.tracks)
        pos_of = {t.index: i for i, t in enumerate(union)}
        cols = [tuple(pos_of[t.index] for t in d.tracks) for d in comps]

        def successors(state):
            width = len(union)
            partial = [("X" * width, ())]
            for i, dfa in enumerate(comps):
                grown = []
                for cube, tgt in partial:
                    for comp_cube, dst in dfa.delta[state[i]]:
                        merged = list(cube)
                        ok = True
                        for ch, col in zip(comp_cube, cols[i]):
                            if ch == "X":
                                continue
                            if merged[col] == "X":
                                merged[col] = ch
                            elif merged[col] != ch:
                                ok = False
                                break
                        if ok:
                            grown.append(("".join(merged), tgt + (dst,)))
                partial = grown
            return [t for _, t in partial]

        initial = tuple(d.initial for d in comps)
        reachable = {initial}
        stack = [initial]
        edges = {}
        while stack:
            state = stack.pop()
            succ = successors(state)
            edges[state] = succ
            for t in succ:
                if t not in reachable:
                    reachable.add(t)
                    stack.append(t)
        accepting = {t for t in reachable
                     if all(c in d.accepting for c, d in zip(t, comps))}
        co = set(accepting)
        changed = True
        while changed:
            changed = False
            for state, succ in edges.items():
                if state not in co and any(t in co for t in succ):
                    co.add(state)
                    changed = True
        for state in reachable & co:
            assert all(c in alive for c, alive in zip(state, alive_sets))


def test_no_expansion_beyond_witness_depth():
    rng = random.Random(101)
    streams = [family1(6), family2(6)] + [_random_stream(rng, 4) for _ in range(6)]
    for formulas in streams:
        s = StreamSession()
        for f in formulas:
            report = s.push(f)
            if report.verdict.status == "sat":
                assert report.max_expanded_depth <= len(report.verdict.witness)


def test_incremental_explores_no_more_than_scratch():
    for family in (family1, family2):
        formulas = family(8)
        s = StreamSession()
        inc = [s.push(f) for f in formulas]
        _, scratch = from_scratch_check(formulas)
        for r_inc, r_scr in zip(inc, scratch):
            assert r_inc.states_explored_total <= r_scr.states_explored_total


def test_explored_totals_monotone():
    s = StreamSession()
    last = 0
    for f in family1(6):
        report = s.push(f)
        assert report.states_explored_total >= last
        last = report.states_explored_total


def test_state_budget_enforced():
    s = StreamSession(budget=3)
    with pytest.raises(StateBudgetExceeded):
        for f in family1(6):
            s.push(f)


def test_push_kind_conflict():
    from ws1s_stream.syntax import Sub

    s = StreamSession()
    s.push(parse("q in Y"))  # q first-order by spelling
    conflicting = Sub(VarId("Y", Kind.SECOND_ORDER), VarId("q", Kind.SECOND_ORDER))
    with pytest.raises(KindConflict):
        s.push(conflicting)


def test_session_stats_identities():
    formulas = family1(5)
    s = StreamSession()
    for f in formulas:
        s.push(f)
    stats = session_stats(s)
    assert stats.combined_total_ns == sum(
        r.compile_ns + r.process_ns for r in s.reports)
    assert stats.first_compile_plus_process_ns == (
        s.reports[0].compile_ns + sum(r.process_ns for r in s.reports))
    assert stats.explored_total == s.reports[-1].states_explored_total
    assert stats.verdicts == tuple(s.verdicts)

    _, scratch_reports = from_scratch_check(formulas)
    scratch_stats = session_stats(scratch_reports)
    assert scratch_stats.combined_total_ns == sum(
        r.compile_ns + r.process_ns for r in scratch_reports)


def test_from_scratch_single_step_equals_incremental():
    f = parse("x in Y")
    s = StreamSession()
    inc = s.push(f)
    _, scratch = from_scratch_check([f])
    assert inc.states_explored_total == scratch[0].states_explored_total
    assert inc.verdict.status == scratch[0].verdict.status
    assert inc.verdict.witness == scratch[0].verdict.witness


def test_growing_witness_chain():
    # each conjunct forces one more position; archived states from earlier
    # steps are extended on demand
    s = StreamSession()
    r1 = s.push(parse("x < y"))
    assert r1.verdict.witness == [(1, 0), (0, 1)]
    r2 = s.push(parse("y < z"))
    assert r2.verdict.witness == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    r3 = s.push(parse("w = x + 1"))
    assert r3.verdict.witness == [(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0)]
    union = s.explorer.union_tracks
    for dfa in s.components:
        assert accepts(cylindrify(dfa, union), r3.verdict.witness)
    _, scratch = from_scratch_check([parse("x < y"), parse("y < z"),
                                     parse("w = x + 1")])
    assert [r.verdict.witness for r in scratch] == [
        r1.verdict.witness, r2.verdict.witness, r3.verdict.witness]


def test_closed_conjuncts():
    # closed formulas compile to zero-track components
    s = StreamSession()
    first = s.push(parse("ex2 W: ex1 q: q in W"))
    assert (first.verdict.status, first.verdict.witness) == ("sat", [])
    second = s.push(parse("x in Y"))
    assert second.verdict.witness == [(1, 1)]
    assert s.push(parse("ex1 q: q < q")).verdict.status == "unsat"

    formulas = [parse("ex2 W: ex1 q: q in W"), parse("x in Y"),
                parse("ex1 q: q < q")]
    _, scratch = from_scratch_check(formulas)
    assert [r.verdict.status for r in scratch] == ["sat", "sat", "unsat"]


def test_pushing_same_formula_twice():
    s = StreamSession()
    first = s.push(parse("x in Y"))
    again = s.push(parse("x in Y"))
    assert again.verdict.status == "sat"
    assert again.verdict.witness == first.verdict.witness
    assert s.cache.hits > 0


def test_shared_variables_reuse_tracks():
    s = StreamSession()
    s.push(parse("x in Y"))
    s.push(parse("x in Z"))
    names = {s.registry.name_of(t.index) for t in s.explorer.union_tracks}
    assert names == {"x", "Y", "Z"}
    verdict = s.verdicts[-1]
    assert verdict.status == "sat"
    maps = s.witness_maps(verdict)
    assert maps is not None and set(maps[0]) == {"x", "Y", "Z"}


def _session_state(s):
    return (s.step, len(s.components), len(s.explorer.components), s.verdicts,
            list(s.reports), len(s.explorer.nodes), s.explorer.union_tracks)


def test_push_that_exceeds_the_budget_leaves_the_session_as_it_was():
    formulas = family1(8)
    s = StreamSession(budget=40)
    for f in formulas[:4]:
        s.push(f)
    for f in formulas[4:]:
        before = _session_state(s)
        with pytest.raises(StateBudgetExceeded):
            s.push(f)
        assert _session_state(s) == before
    assert s.step == len(s.components) == len(s.explorer.components) == len(s.verdicts) == 4

    fresh = StreamSession(budget=40)
    for f in formulas[:4]:
        fresh.push(f)
    later, expected = s.push(parse("x1 = x2")), fresh.push(parse("x1 = x2"))
    assert later.verdict == expected.verdict and later.verdict.is_sat
    assert later.states_explored_step == expected.states_explored_step
    assert len(s.explorer.nodes) == len(fresh.explorer.nodes)


def test_shared_cache_across_sessions_keeps_verdicts():
    # memo keys name tracks, so an entry one session's registry put in
    # the cache means the same automaton in another session's registry
    cache = MemoCache()
    a, b = StreamSession(cache=cache), StreamSession(cache=cache)
    a.push(parse("ex1 z: z in Y"))
    f = parse("ex1 z: z in Y & x < z & ~(x in Y)")
    shared, alone = b.push(f), StreamSession().push(f)
    assert sat_bounded(f, 3) is not None
    assert shared.verdict == alone.verdict and shared.verdict.is_sat
    assert cache.hits > 0


def test_memo_counters_on_a_short_stream():
    s = StreamSession()
    for line in ("ex2 Y: x in Y & (ex1 z: z in Y)", "x in Y & ~(x in Z)",
                 "ex2 Y: x in Y & (ex1 z: z in Y)", "all1 z: z in Y -> z in Z"):
        s.push(parse(line))
    # every subformula is looked up once per push, after its children
    assert (s.cache.misses, s.cache.hits) == (16, 10)


def test_step_reports_carry_the_steps_memo_counters():
    s = StreamSession()
    reports = [s.push(parse(line)) for line in (
        "ex2 Y: x in Y & (ex1 z: z in Y)", "x in Y & ~(x in Z)",
        "ex2 Y: x in Y & (ex1 z: z in Y)", "all1 z: z in Y -> z in Z")]
    assert [(r.memo_misses, r.memo_hits) for r in reports] == [(6, 0), (3, 2), (0, 6), (7, 2)]
    assert sum(r.memo_misses for r in reports) == s.cache.misses
    assert sum(r.memo_hits for r in reports) == s.cache.hits


def test_failed_push_unregisters_its_free_variables():
    s = StreamSession()
    s.determinize_budget = 1
    with pytest.raises(StateBudgetExceeded):
        s.push(parse("ex2 W: x in W"))
    s.push(parse("y in Y"))
    assert s.push(parse("x < y")).verdict.is_sat
    assert [s.registry.name_of(t.index) for t in s.explorer.union_tracks] == ["y", "Y", "x"]


def test_registration_that_raises_midway_is_rolled_back():
    s = StreamSession()
    s.push(parse("y in Y"))
    a_first, a_second = VarId("a", Kind.FIRST_ORDER), VarId("a", Kind.SECOND_ORDER)
    conflicting = And(In(a_first, VarId("B", Kind.SECOND_ORDER)),
                      In(VarId("y", Kind.FIRST_ORDER), a_second))
    with pytest.raises(KindConflict):
        s.push(conflicting)
    s.push(parse("y in Z"))
    assert s.push(parse("a < y")).verdict.is_sat
    assert len(s.registry) == 4


def test_one_budget_caps_determinization():
    with pytest.raises(StateBudgetExceeded, match="during determinization"):
        StreamSession(budget=1).push(parse("ex2 W: x in W"))


def test_one_budget_caps_the_from_scratch_search():
    with pytest.raises(StateBudgetExceeded, match="during product exploration"):
        from_scratch_check(family1(4), budget=3)


def test_the_budget_counts_each_new_root():
    # every push places a new root, which the budget counts as it counts
    # the root's successors; the empty product already holds one state
    s = StreamSession(budget=2)
    report = s.push(parse("Y1 sub Y1"))
    assert report.verdict.is_sat and report.resident == 2
    with pytest.raises(StateBudgetExceeded, match="during product exploration"):
        s.push(parse("Y2 sub Y2"))
    assert len(s.reports) == len(s.components) == 1
    assert s.explorer.placed == 2
    with pytest.raises(StateBudgetExceeded, match="during product exploration"):
        StreamSession(budget=1).push(parse("Y1 sub Y1"))


def test_default_budget_keeps_both_caps():
    s = StreamSession()
    assert (s.state_budget, s.determinize_budget) == (5_000_000, 1_000_000)


@pytest.mark.parametrize("budget", [0, -1, 2.5, "3", True])
def test_budget_that_is_not_a_positive_int_is_rejected(budget):
    with pytest.raises(ValueError):
        StreamSession(budget=budget)
    with pytest.raises(ValueError):
        from_scratch_check(family1(1), budget=budget)
    # checked where the budget enters, with the session's message
    with pytest.raises(ValueError, match="budget must be a positive int or None"):
        from_scratch_check([], budget=budget)
    with pytest.raises(ValueError, match="budget must be a positive int or None"):
        BenchConfig(family=1, n_max=2, state_budget=budget)


def test_push_too_deep_to_compile_raises_and_leaves_the_session_as_it_was():
    s = StreamSession()
    s.push(parse("x in Y"))
    before, registered = _session_state(s), len(s.registry)
    with pytest.raises(WsError, match="nested too deeply"):
        s.push(parse(" | ".join(["z in W"] * 400)))
    assert _session_state(s) == before and len(s.registry) == registered
    assert s.push(parse("x < z")).verdict.is_sat
    assert [s.registry.name_of(t.index) for t in s.explorer.union_tracks] == ["x", "Y", "z"]


def test_no_garbage_cycles_outlive_a_walk_or_a_push():
    # a recursive closure that still refers to itself when its call returns
    # leaves a cycle behind that only the cyclic collector frees: once per
    # free_vars call, so once per compiled part of every push
    chain = parse("(ex1 z: z < x & z in Y) & Y sub Z & (all2 W: x in W -> W sub Z)")
    lines = ["x in Y", "ex1 z: z < x & z in Y", "y = x + 1", "~(y in Y)", "x in Y"]

    def stream():
        s = StreamSession()
        for line in lines:
            s.push(parse(line))

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in (lambda: free_vars(chain),
                     lambda: compile_formula(chain, TrackRegistry(), MemoCache()), stream):
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_free_vars_of_a_deep_formula_fits_the_interpreter_stack():
    deep = In(VarId("x", Kind.FIRST_ORDER), VarId("Y", Kind.SECOND_ORDER))
    for _ in range(10_000):
        deep = Not(deep)
    assert free_vars(deep) == [VarId("x", Kind.FIRST_ORDER), VarId("Y", Kind.SECOND_ORDER)]


@pytest.mark.parametrize("warm", [[], ["x in Y"]])
def test_ill_kinded_push_raises_before_any_memo_lookup(warm):
    # with "x in Y" pushed, the cache holds In's shape: the kind check,
    # not that entry, answers the hand-built atom
    s = StreamSession()
    for line in warm:
        s.push(parse(line))
    registry = [s.registry.name_of(i) for i in range(len(s.registry))]
    before, counts = _session_state(s), (s.cache.hits, s.cache.misses)
    with pytest.raises(KindError) as exc:
        s.push(In(VarId("Y", Kind.SECOND_ORDER), VarId("Z", Kind.SECOND_ORDER)))
    assert str(exc.value) == "Y must be first-order in 'in' left position"
    assert _session_state(s) == before and (s.cache.hits, s.cache.misses) == counts
    assert [s.registry.name_of(i) for i in range(len(s.registry))] == registry


def test_second_search_at_the_same_arity_raises_and_changes_nothing():
    # each arity is searched once: a second search raises before it resets
    # a counter or places a state, also after the first raised its bound,
    # as every succ push after the first does
    def state(explorer):
        return (explorer.placed, len(explorer.by_id), len(explorer.ids), explorer.held,
                explorer.complete, explorer.bound, list(explorer.stored), explorer.searches,
                explorer.expanded, explorer.replayed, explorer.edges_out, explorer.skipped,
                explorer.bound_raises, explorer.widest)

    rng = random.Random(11)
    streams = [_succ_chain(6)] + [_random_stream(rng, 5) for _ in range(100)]
    searches = after_raise = 0
    for formulas in streams:
        s = StreamSession()
        explorer = s.explorer
        for f in formulas:
            report = s.push(f)
            if not report.widest:  # no search ran
                continue
            before = state(explorer)
            with pytest.raises(AssertionError, match="one search per arity"):
                explorer.search(s.state_budget)
            assert state(explorer) == before
            searches += 1
            after_raise += report.bound_raises > 0
    assert searches > 100 and after_raise >= 5
    # the empty product is placed from the start
    with pytest.raises(AssertionError, match="one search per arity"):
        ProductExplorer().search(10)
    # a search that raised leaves its root placed, so a retry needs a drop
    explorer, fresh = ProductExplorer(), ProductExplorer()
    for track in (0, 1, 2):
        explorer.add_component(restriction_automaton(track))
        fresh.add_component(restriction_automaton(track))
    with pytest.raises(StateBudgetExceeded):
        explorer.search(3)
    for _ in range(2):
        with pytest.raises(AssertionError, match="one search per arity"):
            explorer.search(100)
    explorer.drop_components(2)
    explorer.add_component(restriction_automaton(2))
    assert explorer.search(100)[0] == fresh.search(100)[0]


_PINNED_STREAMS = {
    "family1": (family1(4), [
        ([(1, 1)], 1, 1, 0),
        ([(1, 1, 1, 1)], 2, 3, 0),
        ([(1, 1, 1, 1, 1, 1)], 4, 7, 0),
        ([(1, 1, 1, 1, 1, 1, 1, 1)], 8, 15, 0),
    ], (31, 2)),
    "succ-chain": ([parse(f"x{i + 1} = x{i} + 1") for i in range(1, 5)], [
        ([(0, 1), (1, 0)], 2, 2, 1),
        ([(0, 1, 0), (1, 0, 0), (0, 0, 1)], 1, 3, 2),
        ([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1, 4, 3),
        ([(0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
          (0, 0, 0, 0, 1)], 1, 5, 4),
    ], (19, 11)),
    "quantifier-unsat": ([parse(t) for t in ("x < y", "ex1 z: x < z & z < y",
                                              "y = x + 1", "x in Y")], [
        ([(1, 0), (0, 1)], 2, 2, 1),
        ([(1, 0), (0, 0), (0, 1)], 1, 3, 2),
        (None, 0, 3, 1),
        (None, 0, 3, -1),
    ], (10, 0)),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STREAMS))
def test_search_counters_are_pinned(name):
    # per step: witness, states explored (step, total), deepest expanded
    # layer; per session: resident nodes and nodes holding derived edges,
    # those the last two searches stored (none after unsat)
    formulas, steps, session = _PINNED_STREAMS[name]
    s = StreamSession()
    got = [(r.verdict.witness, r.states_explored_step, r.states_explored_total,
            r.max_expanded_depth) for r in map(s.push, formulas)]
    assert got == steps
    nodes = s.explorer.nodes.values()
    assert (len(nodes), sum(node.complete for node in nodes)) == session



def _succ_chain(n):
    return [parse(f"x{i + 1} = x{i} + 1") for i in range(1, n + 1)]


_PINNED_EDGES_HELD = {
    "family1": [2, 6, 12, 24],
    "succ-chain": [3, 8, 11, 13],
    "quantifier-unsat": [4, 9, 0, 0],
}


@pytest.mark.parametrize("name", sorted(_PINNED_STREAMS))
def test_edges_held_are_pinned(name):
    # the edges stored on complete states after each step: those of the last
    # two searches, none once a search ends unsat; kept as a running count,
    # which must equal the edges the complete states hold
    s = StreamSession()
    got = []
    for f in _PINNED_STREAMS[name][0]:
        got.append(s.push(f).edges_held)
        assert got[-1] == sum(len(node.out) for node in s.explorer.by_id if node.complete)
    assert got == _PINNED_EDGES_HELD[name]


def test_stored_edges_grow_linearly_with_a_succ_chain():
    # push i derives O(i) edges; keeping every search's edges held O(n^2)
    # at step n (81,399 edges at n=400), keeping the last two holds O(n)
    s = StreamSession()
    held = [s.push(f).edges_held for f in _succ_chain(200)]
    assert all(h <= 3 * (i + 2) for i, h in enumerate(held, start=1))


_PINNED_EXPANSIONS = {  # per step: (expanded, replayed)
    "family1": (_PINNED_STREAMS["family1"][0], [(1, 0), (1, 1), (1, 1), (1, 1)]),
    "succ-chain": (_PINNED_STREAMS["succ-chain"][0], [(2, 0), (3, 2), (4, 4), (5, 5)]),
    "quantifier-unsat": (_PINNED_STREAMS["quantifier-unsat"][0],
                         [(2, 0), (3, 3), (2, 2), (0, 0)]),
    "succ-24": (_succ_chain(24), [(2, 0), (3, 2)] + [(n + 1, n + 1) for n in range(3, 25)]),
}


@pytest.mark.parametrize("name", sorted(_PINNED_EXPANSIONS))
def test_step_expansion_counters_are_pinned(name):
    # expanded counts the nodes whose edges a step derived, replayed those
    # derived from an archived complete prefix; no search after unsat
    formulas, expected = _PINNED_EXPANSIONS[name]
    s = StreamSession()
    assert [(r.expanded, r.replayed) for r in map(s.push, formulas)] == expected


# Y{i} sub Y{i+1} & x{i} in Y{i} for i up to 8, then a contradiction
_SUB_CHAIN = [parse(f"Y{i} sub Y{i + 1} & x{i} in Y{i}") for i in range(1, 9)] + [
    parse("~(x1 in Y9)")]

_PINNED_MEMORY = {  # per step: (interned, edges_made)
    "family1": (_PINNED_STREAMS["family1"][0], [(3, 2), (7, 4), (15, 8), (31, 16)]),
    "succ-chain": (_PINNED_STREAMS["succ-chain"][0], [(4, 3), (8, 5), (13, 6), (19, 7)]),
    "quantifier-unsat": (_PINNED_STREAMS["quantifier-unsat"][0],
                         [(4, 4), (8, 5), (10, 2), (11, 0)]),
    # sat push i places 2^(i+1) - 1 states in all; its folds pass through
    # the arity of its first part, where they intern 2^(i-1) states that no
    # search places; the unsat push makes 33,910 edges, of which its
    # expanded states get 8,492
    "sub-chain": (_SUB_CHAIN, [(2 ** (i + 1) + 2 ** i - 2, 2 ** (i + 1) + 2 ** i - 1)
                               for i in range(1, 9)] + [(894, 33_910)]),
}


@pytest.mark.parametrize("name", sorted(_PINNED_MEMORY))
def test_interned_states_and_edges_made_are_pinned(name):
    # interned counts every state in the id list after the step, placed or
    # not; edges_made every edge the step's folds made, stored or not
    formulas, expected = _PINNED_MEMORY[name]
    s = StreamSession()
    assert [(r.interned, r.edges_made) for r in map(s.push, formulas)] == expected


def test_a_one_shot_search_interns_states_it_does_not_place():
    # a fold over several new components interns the intermediate states
    # of each, and no search places them: incremental pushes place every
    # state they intern, a from-scratch prefix of 6 places 9 of 34
    s = StreamSession()
    assert all(r.interned == r.resident for r in map(s.push, _succ_chain(6)))
    _, reports = from_scratch_check(_succ_chain(6))
    assert [(r.resident, r.interned) for r in reports] == [
        (4, 4), (5, 8), (6, 13), (7, 19), (8, 26), (9, 34)]


def _sub_chain(n):
    return [parse(f"Y{i} sub Y{i + 1} & x{i} in Y{i}") for i in range(1, n + 1)]


_CURVES = {  # n -> incremental (resident, interned, summed edges_made), then one-shot
    "succ-chain": (_succ_chain, {
        40: ((901, 901, 939), (43, 901, 1_680)),
        80: ((3_401, 3_401, 3_479), (83, 3_401, 6_560)),
        160: ((13_201, 13_201, 13_359), (163, 13_201, 25_920)),
    }),
    **{name: (family, {
        8: ((511, 511, 510), (257, 511, 510)),
        10: ((2_047, 2_047, 2_046), (1_025, 2_047, 2_046)),
        12: ((8_191, 8_191, 8_190), (4_097, 8_191, 8_190)),
    }) for name, family in (("family1", family1), ("family2", family2))},
    "sub-chain": (_sub_chain, {
        8: ((511, 766, 1_522), (257, 766, 1_522)),
        10: ((2_047, 3_070, 6_128), (1_025, 3_070, 6_128)),
        12: ((8_191, 12_286, 24_558), (4_097, 12_286, 24_558)),
    }),
}


@pytest.mark.parametrize("name", sorted(_CURVES))
def test_cost_curves_are_pinned(name):
    # the cost of a stream as a curve over n, in counters: the states placed
    # and interned after the last push and the edges every push's folds made,
    # pushed one formula at a time, then conjoined in one decision on a fresh
    # session; a change of order in either mode shows here
    make, points = _CURVES[name]
    for n, expected in points.items():
        formulas = make(n)
        s = StreamSession()
        reports = [s.push(f) for f in formulas]
        one = StreamSession()._conjoin(formulas, FROM_SCRATCH)
        got = ((reports[-1].resident, reports[-1].interned, sum(r.edges_made for r in reports)),
               (one.resident, one.interned, one.edges_made))
        assert got == expected, (n, got)
        (resident, interned, _), (one_resident, one_interned, _) = got
        if name == "succ-chain":
            # quadratic in both modes: the one decision places n + 3 states
            # but its folds intern as many as the stream places
            assert resident == interned == one_interned == (n * n + 5 * n + 2) // 2
            assert one_resident == n + 3
        else:
            # exponential: the stream places 2^i states at every arity i up
            # to n, the one decision 2^n at arity n (each count with the
            # empty product)
            assert resident == 2 ** (n + 1) - 1 and one_resident == 2 ** n + 1
            assert interned == one_interned == (3 * 2 ** n - 2 if name == "sub-chain" else resident)


def _succ_witness(n):
    # the union lists x2 before x1, then x3 ... x{n+1}; symbol k sets the
    # track of x{k+1}, so the word spells x{k+1} = x1 + k
    return [tuple(int(col == p) for col in range(n + 1)) for p in (1, 0, *range(2, n + 1))]


_FROM_SCRATCH_PINS = {  # per prefix: witness, (explored step, total, deepest expanded)
    "family1-5": (family1(5), [[(1,) * (2 * n)] for n in range(1, 6)],
                  [(1, 1, 0), (3, 4, 0), (7, 11, 0), (15, 26, 0), (31, 57, 0)]),
    "succ-6": (_succ_chain(6), [_succ_witness(n) for n in range(1, 7)],
               [(2, 2, 1), (3, 5, 2), (4, 9, 3), (5, 14, 4), (6, 20, 5), (7, 27, 6)]),
    "succ-24": (_succ_chain(24), [_succ_witness(n) for n in range(1, 25)],
                [(2, 2, 1), (3, 5, 2), (4, 9, 3), (5, 14, 4), (6, 20, 5), (7, 27, 6),
                 (8, 35, 7), (9, 44, 8), (10, 54, 9), (11, 65, 10), (12, 77, 11),
                 (13, 90, 12), (14, 104, 13), (15, 119, 14), (16, 135, 15), (17, 152, 16),
                 (18, 170, 17), (19, 189, 18), (20, 209, 19), (21, 230, 20), (22, 252, 21),
                 (23, 275, 22), (24, 299, 23), (25, 324, 24)]),
}


@pytest.mark.parametrize("name", sorted(_FROM_SCRATCH_PINS))
def test_from_scratch_counters_are_pinned(name):
    # every prefix is searched from nothing: each target is reached through
    # all components at once, with no placed prefix to extend
    formulas, witnesses, explored = _FROM_SCRATCH_PINS[name]
    _, reports = from_scratch_check(formulas)
    assert [r.verdict.witness for r in reports] == witnesses
    assert [(r.states_explored_step, r.states_explored_total, r.max_expanded_depth)
            for r in reports] == explored


def test_long_succ_chain_counters_are_pinned():
    s = StreamSession()
    reports = [s.push(f) for f in _succ_chain(24)]
    assert [r.verdict.witness for r in reports] == [_succ_witness(n) for n in range(1, 25)]
    assert [(r.states_explored_step, r.states_explored_total, r.max_expanded_depth)
            for r in reports] == [(2, 2, 1)] + [(1, n + 1, n) for n in range(2, 25)]
    nodes = s.explorer.nodes.values()
    # the last two searches' states hold edges, the others released theirs
    assert (len(nodes), sum(node.complete for node in nodes)) == (349, 51)


def test_archived_edges_are_not_gc_tracked():
    # edges are all-int triples, which the collector untracks once it has
    # seen them; edges that held objects made every one a container to scan
    # and let full collections pause single pushes
    s = StreamSession()
    for f in _succ_chain(24):
        s.push(f)
    gc.collect()
    entries = [e for node in s.explorer.nodes.values() if node.complete for e in node.out]
    assert len(entries) == s.explorer.held == 53  # the last two searches' edges
    assert not any(gc.is_tracked(e) for e in entries)


def test_placed_states_edges_are_derived_once(monkeypatch):
    # a fold keeps each level whose prefix is placed, so the accepting
    # states of earlier steps, placed but never expanded, hold their edges
    # after the next push; before, the last node on each witness path
    # folded all i components from the empty product (O(n^2) product steps)
    steps = []
    meet = stream.cube_product
    monkeypatch.setattr(stream, "cube_product", lambda *args: steps.append(1) or meet(*args))
    s = StreamSession()
    for n, f in enumerate(_succ_chain(96), start=1):
        steps.clear()
        report = s.push(f)
        assert report.verdict.is_sat and len(report.verdict.witness) == n + 1
        if n >= 3:
            assert report.replayed == report.expanded
        assert len(steps) <= report.expanded + 1
    # only placed states archive edges, so "replayed" stays the rule the
    # benchmark tracer reads: some placed prefix is complete
    assert all(node.out is None for node in s.explorer.by_id if node.depth < 0)


def test_search_that_raises_drops_the_edges_it_archived_on_older_states():
    # a failed search may archive a level on a state placed by an earlier
    # push, naming states that are dropped with the push; those edges go
    # too, or the ids they name are handed out again to other states
    lines = [parse(t) for t in ("Z sub Y | x = x & y = x + 1", "y = y", "x < x | x < y")]
    s, fresh = StreamSession(budget=18), StreamSession(budget=18)
    for f in lines[:2]:
        s.push(f)
        fresh.push(f)
    with pytest.raises(StateBudgetExceeded, match="during product exploration"):
        s.push(lines[2])

    def complete(session):
        return [(node.arity, node.out) for node in session.explorer.by_id if node.complete]

    def queue(session):
        return [(search, node.arity, node.out) for search, node in session.explorer.stored]

    # no entry of the failed search is left in the release queue
    assert complete(s) == complete(fresh) and queue(s) == queue(fresh)
    s.state_budget = fresh.state_budget = StreamSession().state_budget
    later, expected = s.push(lines[2]), fresh.push(lines[2])
    assert (later.verdict, later.expanded, later.replayed) == (
        expected.verdict, expected.expanded, expected.replayed)


def _and_stream(rng, length):
    """Conjuncts over a shared vocabulary: some pushed as ``&`` lines, some
    repeating an earlier line exactly, some with an earlier line in a chain."""
    out = []
    for _ in range(length):
        roll = rng.random()
        if out and roll < 0.3:
            out.append(rng.choice(out))
        elif roll < 0.75:
            parts = [random_formula(rng, rng.choice((1, 2))) for _ in range(rng.choice((2, 3)))]
            if out and rng.random() < 0.5:
                parts.insert(rng.randrange(len(parts) + 1), rng.choice(out))
            out.append(_conjunction(parts))
        else:
            out.append(random_formula(rng, rng.choice((1, 2, 3))))
    return out


def test_split_and_dedupe_keep_the_witness_of_the_whole_conjunction():
    # each step's witness is the shortest lex-least word of the whole
    # prefix compiled as one formula, however many parts each push added
    rng = random.Random(103)
    added = set()
    for _ in range(30):
        formulas = _and_stream(rng, 5)
        s = StreamSession()
        for n, f in enumerate(formulas, start=1):
            k = len(s.components)
            report = s.push(f)
            added.add(min(len(s.components) - k, 2))
            whole = compile_formula(_conjunction(formulas[:n]), s.registry)
            assert report.verdict.witness == find_witness(cylindrify(whole, s.explorer.union_tracks))
            assert report.step == report.verdict.step == n
        _, scratch = from_scratch_check(formulas)
        assert [r.verdict for r in scratch] == s.verdicts
    assert added == {0, 1, 2}  # pushes that added nothing, one part and several


def test_repeated_line_adds_no_component_and_no_search_work():
    s = StreamSession()
    first = s.push(parse("x in Y & y < x"))
    again = s.push(parse("x in Y & y < x"))
    assert (first.components, again.components, len(s.components)) == (2, 2, 2)
    assert (again.states_explored_step, again.expanded) == (0, 0)
    assert again.verdict.witness == first.verdict.witness
    assert s.step == again.step == 2
    # a repeated part inside a new chain adds only the new part
    third = s.push(parse("y < x & x in Z"))
    assert (third.step, third.components) == (3, 3)


def test_step_reports_count_the_products_distinct_components():
    s = StreamSession()
    assert [s.push(parse(line)).components for line in ("x in Y & x in Z", "x in Y")] == [2, 2]


def _rollback_state(s):
    return _session_state(s), set(s.explorer.dfas), len(s.registry)


def test_push_whose_second_part_exceeds_a_budget_leaves_the_session_as_it_was():
    line = parse("y in Y & (ex2 W: x in W)")
    s = StreamSession()
    s.push(parse("x in Y"))
    s.determinize_budget = 1  # the second part's determinization exceeds it
    before = _rollback_state(s)
    with pytest.raises(StateBudgetExceeded, match="during determinization"):
        s.push(line)
    assert _rollback_state(s) == before
    s.determinize_budget = StreamSession().determinize_budget
    fresh = StreamSession()
    fresh.push(parse("x in Y"))
    later, expected = s.push(line), fresh.push(line)
    assert later.verdict == expected.verdict and later.verdict.is_sat
    assert (later.components, later.states_explored_step) == (3, expected.states_explored_step)

    # parts added before a search that exceeds its budget are dropped again
    s = StreamSession(budget=20)
    s.push(parse("x1 in Y1 & x2 in Y2 & x3 in Y3"))
    before = _rollback_state(s)
    with pytest.raises(StateBudgetExceeded, match="during product exploration"):
        s.push(parse("x4 in Y4 & x5 in Y5 & x1 in Y1"))
    assert _rollback_state(s) == before
    later = s.push(parse("x2 in Y2 & x1 in Y1"))  # both parts still found in the product
    assert (later.step, later.components, later.verdict.witness) == (2, 3, [(1,) * 6])


def test_from_scratch_reports_one_step_per_formula_on_and_lines():
    formulas = [parse(t) for t in ("x in Y & y < x", "x in Y & y < x", "y in Z & x in Y",
                                   "z = y + 1")]
    _, reports = from_scratch_check(formulas)
    assert [(r.step, r.verdict.step, r.components) for r in reports] == [
        (1, 1, 2), (2, 2, 2), (3, 3, 3), (4, 4, 4)]
    s = StreamSession()
    assert [s.push(f).verdict for f in formulas] == [r.verdict for r in reports]


def test_repeated_line_runs_no_search_and_keeps_the_witness(monkeypatch):
    # a push that adds no component leaves the product as it was, so the
    # previous witness is the answer; a search would walk the root's 64
    # archived edges again (16,384 after family1(14))
    formulas = family1(6)
    s = StreamSession()
    for f in formulas:
        last = s.push(f)

    def no_search(self, state_budget):
        raise AssertionError("a push that adds no component searched")

    monkeypatch.setattr(ProductExplorer, "search", no_search)
    for line in (formulas[0], _conjunction(formulas[2:4])):
        again = s.push(line)
        assert repr(again.verdict.witness) == repr(last.verdict.witness)
        assert again.verdict.is_sat and again.components == last.components
        assert (again.states_explored_step, again.expanded, again.replayed,
                again.max_expanded_depth, again.process_ns) == (0, 0, 0, -1, 0)
        assert again.states_explored_total == last.states_explored_total
    monkeypatch.undo()
    fresh = StreamSession()
    for f in formulas + [parse("x1 < x2")]:
        expected = fresh.push(f)
    later = s.push(parse("x1 < x2"))  # a new component: searched again
    assert later.verdict.witness == expected.verdict.witness and later.expanded > 0


def test_nodes_view_answers_the_reads_the_benchmark_tracer_makes(monkeypatch):
    # perfbench/tracing.py receives each expanded node as ``t`` and calls
    # a node replayed when some ``explorer.nodes.get(t[:j])`` is complete,
    # for j from len(t) - 1 down to 1; that count must be the session's
    replayed = []
    edges_for = ProductExplorer._edges_for

    def classify(explorer, t):
        replayed.append(any(explorer.nodes.get(t[:j]) is not None
                            and explorer.nodes.get(t[:j]).complete
                            for j in range(len(t) - 1, 0, -1)))
        return edges_for(explorer, t)

    monkeypatch.setattr(ProductExplorer, "_edges_for", classify)
    s = StreamSession()
    reports = [s.push(f) for f in _succ_chain(4) + family1(3)]
    assert reports[-1].verdict.is_sat
    assert sum(replayed) == sum(r.replayed for r in reports) > 0
    assert len(replayed) == sum(r.expanded for r in reports)
    nodes = s.explorer.nodes
    assert len(nodes) == len(nodes.values()) == len(nodes.items())
    assert {len(t) for t, _ in nodes.items()} == set(range(len(s.components) + 1))
    assert all(t is node and nodes.get(node) is node for t, node in nodes.items())

    # the view holds the explorer, not the other way round: a session let
    # go frees its explorer at once, without waiting for the cycle collector
    explorer = weakref.ref(s.explorer)
    del s, nodes
    assert explorer() is None


def _bytes_per_placed_node(n):
    formulas = _succ_chain(n)
    gc.collect()  # a full collection empties the free lists, so every tuple is a traced allocation
    tracemalloc.start()
    try:
        s = StreamSession()
        for f in formulas:
            s.push(f)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traces = snapshot.filter_traces([tracemalloc.Filter(True, stream.__file__)])
    return sum(trace.size for trace in traces.traces) / len(s.explorer.nodes)


def test_bytes_per_placed_node_do_not_grow_with_arity():
    # a placed node keeps its prefix link and last state, nothing per
    # component: with a full tuple per node, the n=128 chain's nodes took
    # 1.8x the bytes of the n=32 chain's.  The chain places O(n^2) nodes but
    # holds only the last two searches' O(n) edges, so the bytes per node
    # fall as n grows (about 196 B at n=32, 160 B at n=128): the bound is on
    # growth only
    small, large = _bytes_per_placed_node(32), _bytes_per_placed_node(128)
    assert large <= 1.15 * small


def _session_bytes_per_placed_node(n):
    formulas = _succ_chain(n)
    gc.collect()  # as above: every tuple the session makes is a traced allocation
    tracemalloc.start()
    try:
        s = StreamSession()
        for f in formulas:
            s.push(f)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / len(s.explorer.nodes)


def test_session_bytes_per_placed_node_do_not_grow_with_the_union():
    # every allocation is counted, not only those made in stream.py: the
    # test above missed the reports' witnesses, a union-wide tuple per
    # symbol built in automata.py, which made a session hold O(n^3) bytes
    # (680, 1,123 and 1,815 per placed node at n=32, 128 and 256); a word
    # of mask values shares the ints its placed states already hold
    small, large = _session_bytes_per_placed_node(64), _session_bytes_per_placed_node(256)
    assert abs(large - small) <= 0.20 * small


def test_node_length_is_its_arity():
    s = StreamSession()
    for f in _succ_chain(5) + family1(2):
        s.push(f)
    arities = set()
    for node in s.explorer.nodes.values():
        links, prefix = 0, node.prefix
        while prefix is not None:
            links, prefix = links + 1, prefix.prefix
        assert len(node) == node.arity == links
        assert all(len(node[:j]) == j for j in range(links + 1))
        arities.add(links)
    assert arities == set(range(len(s.components) + 1))


def test_witness_is_a_word_of_mask_values_decoded_on_each_read(monkeypatch):
    decoded = []
    min_symbol = stream.mask_min_symbol
    monkeypatch.setattr(stream, "mask_min_symbol",
                        lambda value, width: decoded.append(value) or min_symbol(value, width))
    s = StreamSession()
    first = s.push(parse("x in Y & y < x")).verdict
    again = s.push(parse("y < x")).verdict
    assert not decoded  # a search reads back mask values and decodes none
    assert (first.word, first.width) == ((0b001, 0b110), 3)  # tracks x, Y, y
    assert first.witness == [(0, 0, 1), (1, 1, 0)] and decoded == [0b001, 0b110]
    assert first.witness is not first.witness  # a new list on each read, nothing kept
    assert again.word is first.word and again.width == first.width
    unsat = s.push(parse("~(y < x)")).verdict
    assert (unsat.word, unsat.witness) == (None, None)
    assert s.push(parse("x in Z")).verdict.word is None


def test_adding_a_component_appends_only_its_new_tracks():
    explorer = ProductExplorer()
    for track in (0, 3):
        explorer.add_component(restriction_automaton(track))
    held = explorer.union_tracks
    explorer.add_component(intersect(restriction_automaton(0), restriction_automaton(3)))
    assert all(a is b for a, b in zip(explorer.union_tracks, held))
    assert (explorer.union_tracks, explorer.components[-1].shift) == (held, 0)
    second_order = make_dfa(make_tracks([(3, Kind.SECOND_ORDER)]), 1, 0, {0}, {0: [("X", 0)]})
    with pytest.raises(TrackKindConflict):
        explorer.add_component(second_order)
    with pytest.raises(AssertionError, match="append-only"):
        explorer.add_component(restriction_automaton(1))  # it would sit between 0 and 3
    assert (len(explorer.components), explorer.union_tracks) == (3, held)
    assert explorer.columns == {0: 0, 3: 1}
    explorer.add_component(intersect(restriction_automaton(3), restriction_automaton(7)))
    assert explorer.columns == {0: 0, 3: 1, 7: 2}
    assert explorer.search(100)[0].witness == [(1, 1, 1)]
    explorer.drop_components(1)
    assert (explorer.union_tracks, explorer.columns) == (held[:1], {0: 0})
    # the search used components dropped here, so its stored edges go too
    assert explorer.held == 0 and not any(node.complete for node in explorer.by_id)


def test_drop_keeps_the_stored_edges_of_the_states_it_keeps():
    explorer = ProductExplorer()
    explorer.add_component(restriction_automaton(0))
    explorer.search(100)
    for track in (1, 2):
        explorer.add_component(restriction_automaton(track))
    explorer.search(100)
    explorer.drop_components(1)
    # the arity-1 root's edges name arity-1 states the drop keeps
    assert (explorer.held, explorer.complete) == (2, 1)
    # and every state it released left the queue
    listed = [node for _, node in explorer.stored]
    assert listed and all(node in explorer.by_id and node.complete for node in listed)
    explorer.add_component(restriction_automaton(1))
    verdict = explorer.search(100)[0]
    assert explorer.replayed == 1
    fresh = ProductExplorer()
    for track in (0, 1):
        fresh.add_component(restriction_automaton(track))
    assert verdict.witness == fresh.search(100)[0].witness == [(1, 1)]


def test_an_automaton_added_twice_is_one_component():
    explorer = ProductExplorer()
    for _ in range(2):
        explorer.add_component(restriction_automaton(0))
    explorer.drop_components(1)
    assert len(explorer.components) == 1 and explorer.components[0].dfa in explorer.dfas


def test_drop_releases_kept_edges_that_name_a_dropped_state():
    def not_a_singleton(track):  # accepts the empty word; one 1-bit leads to a rejecting state
        return make_dfa(make_tracks([(track, Kind.SECOND_ORDER)]), 3, 0, {0, 2},
                        {0: [("0", 0), ("1", 1)], 1: [("0", 1), ("1", 2)], 2: [("X", 2)]})

    explorer = ProductExplorer()
    explorer.add_component(not_a_singleton(0))
    assert explorer.search(100)[0].witness == []  # the root accepts and is not expanded
    for track in (1, 2):
        explorer.add_component(restriction_automaton(track))
    explorer.search(100)
    # that search stored the arity-1 root's edges, and one names a state it
    # interned after the arity-2 root; the drop removes that state
    explorer.drop_components(1)
    assert explorer.held == 0 and not any(node.complete for node in explorer.by_id)
    explorer.add_component(restriction_automaton(1))
    assert explorer.search(100)[0].witness == [(0, 1)]


_UNPLACED_AFTER_STORING = ("""
dfa tracks=1:2,2:2 states=2 initial=0
accepting 1
trans 0 00 0
trans 0 01 1
trans 0 10 1
trans 0 11 0
trans 1 00 0
trans 1 01 1
trans 1 1X 1
""", """
dfa tracks=1:2,2:2 states=5 initial=0
accepting 3
trans 0 0X 0
trans 0 10 1
trans 0 11 0
trans 1 00 1
trans 1 01 2
trans 1 1X 2
trans 2 00 3
trans 2 01 4
trans 2 10 0
trans 2 11 4
trans 3 00 1
trans 3 01 2
trans 3 10 3
trans 3 11 1
trans 4 00 3
trans 4 01 2
trans 4 10 0
trans 4 11 1
""")


def test_a_state_unplaced_after_storing_its_edges_is_queued_twice_and_released_once():
    # the search's bound raise unplaces a state whose edges it stored, and
    # the next walk stores them again: the release queue lists that state
    # twice, and releasing it must count its edges once
    a, b = map(parse_dump, _UNPLACED_AFTER_STORING)
    explorer = ProductExplorer()

    def counts():
        nodes = [node for node in explorer.by_id if node.complete]
        assert (explorer.held, explorer.complete) == (sum(len(node.out) for node in nodes),
                                                      len(nodes))
        return len(explorer.stored), explorer.complete, explorer.held

    explorer.add_component(a)
    explorer.add_component(b)
    verdict = explorer.search(1000)[0]
    assert verdict.witness == find_witness(product(a, b)) == [(1, 0), (0, 1), (0, 0), (1, 0)]
    assert explorer.bound_raises == 1
    assert counts() == (9, 8, 31)
    assert len({id(node) for _, node in explorer.stored}) == 8
    # one-state universal automata on new tracks: each search stores the
    # new arity's edges, and the queue releases the first search's entries,
    # the state listed twice once
    entries = []
    for track in range(3, 8):
        explorer.add_component(make_dfa(make_tracks([(track, Kind.SECOND_ORDER)]), 1, 0, {0},
                                        {0: [("X", 0)]}))
        assert explorer.search(1000)[0].is_sat
        entries.append(counts())
    assert entries == [(17, 16, 62)] + [(16, 16, 62)] * 4
    explorer.drop_components(1)
    assert counts() == (0, 0, 0)


_BOUND_COUNTERS = {  # per step: (skipped, bound_raises)
    "family1": [(0, 0)] * 4,
    "succ-chain": [(0, 0), (0, 1), (0, 1), (0, 1)],
    "quantifier-unsat": [(0, 0)] * 4,
}


@pytest.mark.parametrize("name", sorted(_PINNED_STREAMS))
def test_bound_counters_are_pinned(name):
    # each succ push first walks at the last witness's length, which no state
    # reaches acceptance within, then once more at one symbol longer
    s = StreamSession()
    got = [(r.skipped, r.bound_raises) for r in map(s.push, _PINNED_STREAMS[name][0])]
    assert got == _BOUND_COUNTERS[name]


_FO_POOL, _SO_POOL = ("x1", "x2", "x3", "x4", "x5", "x6"), ("Y1", "Y2", "Y3")


def _renamed(rng, f):
    """``f`` with its free variables renamed onto a wider vocabulary, so that
    conjuncts of a stream chain through shared variables."""
    names = {v: VarId(rng.choice(_FO_POOL if v.kind is Kind.FIRST_ORDER else _SO_POOL), v.kind)
             for v in free_vars(f)}

    def rename(g):
        if isinstance(g, VarId):
            return names.get(g, g)
        return dataclasses.replace(g, **{field.name: rename(getattr(g, field.name))
                                         for field in dataclasses.fields(g)})

    return rename(f)


def _chained_stream(rng, length):
    """Random conjuncts renamed onto a shared vocabulary, some pushed as
    ``&`` lines with an order atom that lengthens the witness, some
    repeating an earlier line exactly."""
    out = []
    for _ in range(length):
        if out and rng.random() < 0.2:
            out.append(rng.choice(out))
            continue
        parts = [_renamed(rng, random_formula(rng, rng.choice((2, 3))))
                 for _ in range(rng.choice((1, 2)))]
        if rng.random() < 0.6:
            x, y = (VarId(name, Kind.FIRST_ORDER) for name in sorted(rng.sample(_FO_POOL, 2)))
            parts.append(rng.choice((Less(x, y), Succ(y, x))))
        out.append(_conjunction(parts))
    return out


def test_bounded_search_keeps_the_witness_of_the_whole_conjunction():
    # the bound skips states, rises and resumes; each witness is still the
    # shortest lex-least word of the whole prefix compiled as one formula
    rng = random.Random(107)
    skipped = raises = 0
    for _ in range(40):
        formulas = _chained_stream(rng, 6)
        s, cache = StreamSession(), MemoCache()
        for n, f in enumerate(formulas, start=1):
            report = s.push(f)
            whole = compile_formula(_conjunction(formulas[:n]), s.registry, cache)
            assert report.verdict.witness == find_witness(cylindrify(whole, s.explorer.union_tracks))
            skipped, raises = skipped + report.skipped, raises + report.bound_raises
            if not report.verdict.is_sat:
                break  # no search runs after unsat
    assert skipped >= 100 and raises >= 10  # the bound rose and the walk resumed


_RESUMED = [parse(t) for t in ("ex1 z: z < x4 & z in Y3", "~(x4 = x2 + 1)", "x4 in Y3",
                               "all1 z: z < x3 -> z in Y3", "~(x1 in Y3)")]


def _placements(explorer):
    """Each placed state as its component states, with its depth, its
    parent's component states, its last symbol and whether it is complete."""
    def states(node):
        return () if node is None else states(node.prefix) + (node.state,)

    return {(states(node), node.depth, states(node.parent), node.value, node.complete)
            for node in explorer.by_id if node.depth >= 0}


def test_resumed_walk_places_what_a_walk_at_the_raised_bound_places():
    # the last push walks at bound 2, skips a state at layer 1 and walks on
    # to layer 2; no state accepts, so the bound rises to 3 and the walk
    # resumes at layer 1, unplacing layer 2 first
    s = StreamSession()
    reports = [s.push(f) for f in _RESUMED]
    last = reports[-1]
    assert [len(r.verdict.witness) for r in reports] == [2, 2, 2, 2, 3]
    assert (last.bound_raises, last.skipped, last.expanded) == (1, 3, 17)
    # a walk started at the raised bound makes the same placements, and
    # nothing that is not placed keeps edges
    direct = StreamSession()
    for f in _RESUMED[:-1]:
        direct.push(f)
    direct.explorer.bound = 3
    once = direct.push(_RESUMED[-1])
    assert (once.bound_raises, once.skipped, once.verdict) == (0, 3, last.verdict)
    assert once.states_explored_step == last.states_explored_step
    assert _placements(s.explorer) == _placements(direct.explorer)
    assert s.explorer.placed == len(_placements(s.explorer))
    assert all(node.out is None for node in s.explorer.by_id if node.depth < 0)


def test_push_that_exceeds_the_budget_after_a_bound_raise_leaves_the_session_as_it_was():
    def state(session):
        explorer = session.explorer
        return (_session_state(session), explorer.bound, explorer.placed,
                [(node.arity, node.out) for node in explorer.by_id if node.complete])

    s = StreamSession()
    for f in _RESUMED[:-1]:
        s.push(f)
    before = state(s)
    s.state_budget = s.explorer.placed + 18  # the first walk places 15 states, the resumed one 22
    with pytest.raises(StateBudgetExceeded, match="during product exploration"):
        s.push(_RESUMED[-1])
    assert s.explorer.bound_raises == 1  # the search raised its bound before it ran out
    assert state(s) == before
    s.state_budget = StreamSession().state_budget
    fresh = StreamSession()
    for f in _RESUMED[:-1]:
        fresh.push(f)
    later, expected = s.push(_RESUMED[-1]), fresh.push(_RESUMED[-1])
    # the memo cache keeps what the failed push compiled
    untimed = {"compile_ns": 0, "process_ns": 0, "memo_hits": 0, "memo_misses": 0}
    assert dataclasses.replace(later, **untimed) == dataclasses.replace(expected, **untimed)


def test_one_shot_search_replays_the_layers_it_resumes(monkeypatch):
    # a fresh explorer starts at the root's bound and raises it one symbol
    # per walk, resuming each time at its last layer, where it only skipped
    # states: nothing is unplaced or folded twice, so each expansion folds
    # each of the k components once
    steps, per_search = [], []
    meet, search = stream.cube_product, ProductExplorer.search
    monkeypatch.setattr(stream, "cube_product", lambda *args: steps.append(1) or meet(*args))

    def counted(explorer, state_budget):
        before = len(steps)
        out = search(explorer, state_budget)
        per_search.append(len(steps) - before)
        return out

    monkeypatch.setattr(ProductExplorer, "search", counted)
    _, reports = from_scratch_check(_succ_chain(48))
    assert [r.bound_raises for r in reports] == list(range(48))
    assert per_search == [r.expanded * k for k, r in enumerate(reports, start=1)]
    assert [r.expanded for r in reports] == list(range(2, 50))


# each & line's new root extends the root of the arity before it, which no
# search placed
_FREE_ROOTS = [parse(t) for t in ("x1 < x2 & x2 < x3", "x4 = x3 + 1 & ~(x1 in Y1)", "x2 in Y1")]

_PINNED_PLACEMENTS = {  # per step: (states explored, states placed after it, widest layer)
    "free-roots": (_FREE_ROOTS, [(3, 5, 1), (4, 10, 1), (0, 15, 1)]),
    "resumed": (_RESUMED, [(2, 4, 1), (3, 10, 3), (0, 16, 3), (5, 27, 6), (11, 49, 11)]),
}


@pytest.mark.parametrize("name", sorted(_PINNED_PLACEMENTS))
def test_explored_states_are_pinned(name):
    # a placed state counts as explored unless it is the new root or the
    # first placed extension of a placed prefix; the last push of _RESUMED
    # unplaces a layer when its bound rises, and what it places again
    # counts once
    formulas, expected = _PINNED_PLACEMENTS[name]
    s = StreamSession()
    assert [(r.states_explored_step, r.resident, r.widest) for r in map(s.push, formulas)] == expected


def test_step_reports_count_what_the_explorer_holds(monkeypatch):
    # the counters a report keeps in O(1) equal a count over the explorer:
    # placed states, those holding stored edges, the most placed states at
    # one depth of the step's arity, the edges the step's folds returned,
    # the states interned and the edges every product step of a fold made
    returned, made = [], []
    edges_for, cube_product = ProductExplorer._edges_for, stream.cube_product

    def counted(explorer, node):
        out = edges_for(explorer, node)
        returned.append(len(out))
        return out

    def product_step(*args):
        out = cube_product(*args)
        made.append(len(out))
        return out

    monkeypatch.setattr(ProductExplorer, "_edges_for", counted)
    monkeypatch.setattr(stream, "cube_product", product_step)
    for formulas in (_FREE_ROOTS, _RESUMED, _succ_chain(8), family1(4), _SUB_CHAIN):
        s = StreamSession()
        for f in formulas:
            returned.clear()
            made.clear()
            report = s.push(f)  # every push here adds a component and searches
            placed = [node for node in s.explorer.by_id if node.depth >= 0]
            widths = Counter(node.depth for node in placed if node.arity == report.components)
            assert (report.resident, report.complete, report.widest, report.edges_out) == (
                len(placed), sum(node.complete for node in placed), max(widths.values()),
                sum(returned))
            assert (report.interned, report.edges_made) == (len(s.explorer.by_id), sum(made))


_UNTIMED = {"compile_ns": 0, "process_ns": 0, "memo_hits": 0, "memo_misses": 0}


def _observed(s):
    """What a later push or reader can observe of a session, but for times
    and the memo counters (a failed push leaves its compiles in the cache):
    its reports, tracks, placed nodes, each complete node with its stored
    edges, the release queue, and the explorer's counters of held edges,
    complete states, release credit, retired searches, placements and bound."""
    explorer = s.explorer
    return ([dataclasses.replace(r, **_UNTIMED) for r in s.reports], explorer.union_tracks,
            [(node.arity, node.depth) for node in explorer.by_id],
            [(node.arity, node.out) for node in explorer.by_id if node.complete],
            [(search, node.arity, node.out) for search, node in explorer.stored],
            explorer.held, explorer.complete, explorer.credit, explorer.searches,
            explorer.placed, explorer.bound)


def _sat_stream(rng, length):
    """``_chained_stream`` lines and exact repeats, each drawn again until the
    conjunction so far stays satisfiable, then one more line that need not:
    searches keep running, so the edges of older ones get released."""
    out = []
    while len(out) < length:
        f = rng.choice(out) if out and rng.random() < 0.2 else _chained_stream(rng, 1)[0]
        s = StreamSession()
        if all(s.push(g).verdict.is_sat for g in out + [f]):
            out.append(f)
    return out + _chained_stream(rng, 1)


def test_push_that_raises_leaves_the_session_a_fresh_one_reaches():
    # seeded streams, each push under a small random budget on top of the
    # states already placed; after each push that raises, the session must
    # equal a fresh one given the pushes that survived, and so must the next
    # push's report and the session at the end of the stream, which shows
    # bookkeeping that only a later release would read
    rng = random.Random(109)
    raises = late = 0

    def replay(formulas, cache):
        fresh = StreamSession(cache=cache)  # the cache spares it the compiles
        for f in formulas:
            fresh.push(f)
        return fresh

    for _ in range(30):
        s, survived, fresh = StreamSession(), [], None
        for f in _sat_stream(rng, 8):
            s.state_budget = s.explorer.placed + rng.randrange(1, 24)
            try:
                report = s.push(f)
            except StateBudgetExceeded:
                raises += 1
                counts = [0] + [r.components for r in s.reports]
                # after three searches, the first of which the third released
                late += sum(a < b for a, b in zip(counts, counts[1:])) >= 3
                fresh = replay(survived, s.cache)
                assert _observed(s) == _observed(fresh)
                continue
            if fresh is not None:  # the push after a raise
                expected = fresh.push(f)
                assert dataclasses.replace(report, **_UNTIMED) == dataclasses.replace(expected, **_UNTIMED)
                fresh = None
            survived.append(f)
        assert _observed(s) == _observed(replay(survived, s.cache))
    assert raises >= 60 and late >= 20  # 92 and 32 as written
