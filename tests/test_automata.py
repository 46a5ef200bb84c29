import gc
import itertools
import random
import signal
import tracemalloc
from dataclasses import replace
from functools import reduce

import pytest

from formula_gen import all_words, compiled, random_formula
from ws1s_stream.automata import (
    FAR,
    Dfa,
    Nfa,
    _covers,
    _diagrams,
    _explore,
    Track,
    accept_distances,
    accepts,
    complement,
    coreachable,
    cube_matches,
    cylindrify,
    determinize,
    dump,
    find_witness,
    intersect,
    is_empty,
    language_equiv,
    make_dfa,
    make_tracks,
    mask_rows,
    minimize,
    parse_dump,
    product,
    project,
)
from ws1s_stream.compiler import (
    TrackRegistry,
    compile_atom,
    compile_formula,
    restriction_automaton,
)
from ws1s_stream.errors import ArityMismatch, StateBudgetExceeded, TrackKindConflict, UnknownTrack
from ws1s_stream.syntax import Kind, parse


def _compile(text: str):
    return compile_formula(parse(text), TrackRegistry())


def _compile_shared(*texts: str):
    """Compile several formulas against one registry (disjoint names get
    disjoint tracks, shared names share them)."""
    registry = TrackRegistry()
    return [compile_formula(parse(t), registry) for t in texts]


@pytest.fixture(scope="module")
def x_in_y():
    return _compile("x in Y")


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(99)
    automata = []
    while len(automata) < 40:
        dfa, _ = compiled(random_formula(rng))
        if dfa.num_states <= 40:
            automata.append(dfa)
    return automata


def test_accepts_basic(x_in_y):
    assert accepts(x_in_y, [(1, 1)])
    assert not accepts(x_in_y, [])
    assert not accepts(x_in_y, [(1, 0)])


def test_accepts_arity_check(x_in_y):
    with pytest.raises(ArityMismatch):
        accepts(x_in_y, [(1, 1, 0)])


def test_make_tracks_rejects_indices_out_of_order():
    with pytest.raises(ValueError, match="strictly increasing"):
        make_tracks([(1, Kind.FIRST_ORDER), (0, Kind.SECOND_ORDER)])


def test_intersect_with_complement_is_empty(x_in_y):
    assert find_witness(intersect(x_in_y, complement(x_in_y))) is None


def test_intersect_idempotent(x_in_y):
    assert language_equiv(intersect(x_in_y, x_in_y), x_in_y)


def test_intersect_disjoint_tracks_shortest_witness():
    a, b = _compile_shared("x1 in Y1", "x2 in Y2")
    product = intersect(a, b)
    witness = find_witness(product)
    assert witness == [(1, 1, 1, 1)]


def test_intersect_kind_conflict():
    fo_track0 = restriction_automaton(0)
    so_track0 = _compile("Y sub Z")  # tracks 0 and 1, both second-order
    with pytest.raises(TrackKindConflict):
        intersect(fo_track0, so_track0)


def test_product_kind_conflict():
    with pytest.raises(TrackKindConflict):
        product(restriction_automaton(0), _compile("Y sub Z"))
    with pytest.raises(TrackKindConflict):
        product(_compile("Y sub Z"), restriction_automaton(1))


def test_complement_involution(random_corpus):
    for dfa in random_corpus[:10]:
        assert language_equiv(complement(complement(dfa)), dfa)


def test_complement_of_universal_is_empty():
    universal = make_dfa(make_tracks([(0, Kind.SECOND_ORDER)]), 1, 0, {0},
                         {0: [("X", 0)]})
    assert find_witness(complement(universal)) is None


def test_complement_pointwise(x_in_y):
    rng = random.Random(3)
    comp = complement(x_in_y)
    for _ in range(100):
        word = [(rng.randint(0, 1), rng.randint(0, 1))
                for _ in range(rng.randint(0, 6))]
        assert accepts(comp, word) == (not accepts(x_in_y, word))


def test_project_membership_equals_quantified_compile(x_in_y):
    projected = minimize(determinize(project(x_in_y, 1)))
    assert language_equiv(projected, _compile("ex2 Y: x in Y"))


def test_project_dont_care_track_roundtrip(x_in_y):
    widened = cylindrify(x_in_y, make_tracks([(7, Kind.SECOND_ORDER)]))
    back = minimize(determinize(project(widened, 7)))
    assert language_equiv(back, x_in_y)


def test_project_empty_stays_empty(x_in_y):
    empty = intersect(x_in_y, complement(x_in_y))
    track = empty.tracks[0].index
    assert find_witness(minimize(determinize(project(empty, track)))) is None


def test_project_rejects_a_track_the_automaton_lacks(x_in_y):
    with pytest.raises(UnknownTrack):
        project(x_in_y, 99)


def test_determinize_preserves_deterministic_language(x_in_y):
    as_nfa = Nfa(x_in_y.tracks, x_in_y.num_states, x_in_y.initial, x_in_y.accepting, x_in_y.delta)
    assert language_equiv(determinize(as_nfa), x_in_y)


def test_determinize_matches_nfa_run_semantics(x_in_y):
    nfa = project(x_in_y, 1)
    dfa = determinize(nfa)
    rng = random.Random(17)
    for _ in range(100):
        word = [(rng.randint(0, 1),) for _ in range(rng.randint(0, 6))]
        assert accepts(dfa, word) == accepts(nfa, word)


def test_nfa_accepts_arity_check(x_in_y):
    with pytest.raises(ArityMismatch):
        accepts(project(x_in_y, 1), [(1, 1)])


def test_determinize_reads_a_dfa(random_corpus):
    for dfa in random_corpus:
        assert language_equiv(determinize(dfa), dfa)


def test_is_empty_reads_an_nfa(random_corpus):
    for dfa in random_corpus:
        if dfa.tracks:
            nfa = project(dfa, dfa.tracks[0].index)
            assert is_empty(nfa) == is_empty(determinize(nfa))


def test_determinize_projected_membership(x_in_y):
    dfa = determinize(project(x_in_y, 1))
    assert accepts(dfa, [(1,)])
    assert not accepts(dfa, [])


def test_determinize_budget():
    nfa = project(_compile("x in Y"), 1)
    with pytest.raises(StateBudgetExceeded):
        determinize(nfa, budget=1)


def test_minimize_idempotent(random_corpus):
    for dfa in random_corpus:
        once = minimize(dfa)
        assert minimize(once).num_states == once.num_states


def test_minimize_membership_three_states(x_in_y):
    assert minimize(x_in_y).num_states == 3


def test_minimize_canonical_across_build_orders():
    a, b = _compile_shared("x in Y", "Y sub Z")
    left = minimize(intersect(a, b))
    right = minimize(intersect(b, a))
    assert dump(left) == dump(right)


def test_minimize_drops_unreachable_states():
    # exactly one 1-bit (waiting, seen, dead), and the same automaton with an
    # unreachable universal state in front and an unreachable copy of "seen"
    tracks = make_tracks([(0, Kind.SECOND_ORDER)])
    trimmed = make_dfa(tracks, 3, 0, {1}, {
        0: [("0", 0), ("1", 1)], 1: [("0", 1), ("1", 2)], 2: [("X", 2)]})
    padded = make_dfa(tracks, 5, 1, {0, 2, 4}, {
        0: [("X", 0)], 1: [("0", 1), ("1", 2)], 2: [("0", 2), ("1", 3)], 3: [("X", 3)],
        4: [("0", 4), ("1", 3)]})
    assert dump(minimize(padded)) == dump(minimize(trimmed))


def test_minimize_never_grows_and_preserves_language(random_corpus):
    for dfa in random_corpus:
        small = minimize(dfa)
        assert small.num_states <= dfa.num_states
        assert language_equiv(small, dfa)


def _reference_cover(edges, width, union):
    """The canonical cover by its definition: tabulate the value of every
    one of the 2^width symbols, cofactor down to single symbols and merge
    equal halves to X."""

    def value(symbol):
        hits = [v for cube, v in edges
                if all(ch == "X" or int(ch) == bit for ch, bit in zip(cube, symbol))]
        if union:
            return frozenset().union(*hits)
        if len(set(hits)) != 1:
            raise ValueError(f"{symbol} has values {hits}")
        return hits[0]

    def go(prefix):
        if len(prefix) == width:
            return [("", value(prefix))]
        r0, r1 = go(prefix + (0,)), go(prefix + (1,))
        if r0 == r1:
            return [("X" + c, v) for c, v in r0]
        return [("0" + c, v) for c, v in r0] + [("1" + c, v) for c, v in r1]

    return go(())


def _random_partition(rng, width, targets):
    """Disjoint cubes covering all symbols, by random splits on X bits."""

    def split(cube):
        free = [i for i, ch in enumerate(cube) if ch == "X"]
        if free and rng.random() < 0.6:
            i = rng.choice(free)
            return split(cube[:i] + "0" + cube[i + 1:]) + split(cube[:i] + "1" + cube[i + 1:])
        return [(cube, rng.randrange(targets))]

    cover = split("X" * width)
    rng.shuffle(cover)
    return cover


def _joined_cover(cubes, width):
    """The cover ``determinize`` reads off one diagram of overlapping
    ``(cube, set)`` edges, its sets as they were."""
    tracks = make_tracks((i, Kind.SECOND_ORDER) for i in range(width))
    masks = tuple((cube, sum(1 << s for s in dsts)) for cube, dsts in cubes)
    row, = mask_rows(Nfa(tracks, 1, 0, frozenset(), (masks,)), range(width), width)
    edges = list(row) + [(0, 0, 0)]
    table = {}
    cover, = _covers(table, width, _diagrams(table, [edges], width))
    return [(cube, frozenset(s for s in range(mask.bit_length()) if mask >> s & 1))
            for cube, mask in cover]


def test_joined_diagram_cover_equals_reference_cover():
    rng = random.Random(6)
    for _ in range(300):
        width = rng.randrange(7)
        cubes = [("".join(rng.choice("01XX") for _ in range(width)),
                  frozenset(rng.sample(range(4), rng.randint(0, 2))))
                 for _ in range(rng.randrange(6))]
        assert _joined_cover(cubes, width) == _reference_cover(cubes, width, True)


def _reference_determinize(n):
    """The subset construction over frozensets, each subset's edges the
    ``_reference_cover`` of its members' overlapping cubes."""

    def successors(subset):
        edges = [(cube, frozenset({dst})) for s in sorted(subset) for cube, dst in n.delta[s]]
        return _reference_cover(edges, n.width, True)

    order, delta = _explore(frozenset({n.initial}), successors)
    accepting = frozenset(i for i, subset in enumerate(order) if subset & n.accepting)
    return Dfa(n.tracks, len(order), 0, accepting, delta)


def _random_nfa(rng, width):
    """An Nfa whose rows are empty, disjoint covers or random cubes, which
    may overlap and may leave symbols out; each cube gets a random set of
    targets, one edge per target, so a cube may have none or several."""
    n = rng.randint(1, 5)
    tracks = make_tracks((i, rng.choice(list(Kind))) for i in range(width))

    def targets():
        return frozenset(rng.sample(range(n), rng.randint(0, min(n, 3))))

    def row():
        kind = rng.random()
        if kind < 0.15:
            return ()
        if kind < 0.45:
            edges = [(cube, targets()) for cube, _ in _random_partition(rng, width, 1)]
        else:
            edges = [("".join(rng.choice("01XX") for _ in range(width)), targets())
                     for _ in range(rng.randint(1, 4))]
        return tuple((cube, dst) for cube, dsts in edges for dst in dsts)

    accepting = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Nfa(tracks, n, rng.randrange(n), accepting, tuple(row() for _ in range(n)))


def test_determinize_equals_the_reference_subset_construction():
    rng = random.Random(18)
    seen = {"empty": 0, "partial": 0, "overlapping": 0}
    for _ in range(3000):
        nfa = _random_nfa(rng, rng.randrange(5))
        for edges in nfa.delta:
            hits = [sum(cube_matches(cube, symbol) for cube, _ in edges)
                    for symbol in itertools.product((0, 1), repeat=nfa.width)]
            seen["empty"] += not edges
            seen["partial"] += bool(edges) and 0 in hits
            seen["overlapping"] += max(hits) > 1
        assert dump(determinize(nfa)) == dump(_reference_determinize(nfa))
    assert min(seen.values()) >= 1000, seen


def test_accepts_and_find_witness_read_any_nfa():
    rng = random.Random(19)
    witnessed = 0
    for _ in range(1500):
        width = rng.randrange(4)
        nfa = _random_nfa(rng, width)
        dfa = determinize(nfa)
        witness = find_witness(nfa)
        assert witness == find_witness(dfa)
        witnessed += witness is not None
        for word in all_words(width, 2 if width == 3 else 3):
            assert accepts(nfa, word) == accepts(dfa, word)
    assert witnessed >= 500, witnessed


def _reference_minimize(a):
    """Moore refinement on canonical covers, every state's cover rebuilt by
    ``_reference_cover`` in every round: the minimization that decision
    diagrams replaced, kept as the reference they must match byte for byte."""
    block = [int(s in a.accepting) for s in range(a.num_states)]
    while True:
        groups = {}
        new_block = []
        for s, edges in enumerate(a.delta):
            cover = _reference_cover([(cube, block[dst]) for cube, dst in edges], a.width, False)
            new_block.append(groups.setdefault((block[s], tuple(cover)), len(groups)))
        split = len(groups) != len(set(block))
        block = new_block
        if not split:
            break
    renamed = {old: b for (old, _), b in groups.items()}
    covers = tuple(tuple((cube, renamed[dst]) for cube, dst in cover) for _, cover in groups)
    alive = {block[s] for s in coreachable(a)}
    bfs, _ = _explore(block[a.initial], covers.__getitem__)
    order = [b for b in bfs if b in alive] + [b for b in bfs if b not in alive]
    renumber = {b: i for i, b in enumerate(order)}
    delta = tuple(tuple((cube, renumber[dst]) for cube, dst in covers[b]) for b in order)
    accepting = frozenset(renumber[block[s]] for s in a.accepting if block[s] in renumber)
    return Dfa(a.tracks, len(order), renumber[block[a.initial]], accepting, delta)


def _random_dfa(rng, width):
    n = rng.randint(1, 6)
    tracks = make_tracks((i, rng.choice(list(Kind))) for i in range(width))
    edges = {s: _random_partition(rng, width, n) for s in range(n)}
    accepting = {s for s in range(n) if rng.random() < 0.4}
    return make_dfa(tracks, n, rng.randrange(n), accepting, edges)


def test_minimize_equals_the_reference_refinement():
    rng = random.Random(11)
    for _ in range(3000):
        dfa = _random_dfa(rng, rng.randrange(6))
        dfa.audit()
        assert dump(minimize(dfa)) == dump(_reference_minimize(dfa))


def _interleaved(a, b):
    """``a`` and ``b`` moved to disjoint, interleaved tracks."""
    return (replace(a, tracks=tuple(t._replace(index=2 * t.index) for t in a.tracks)),
            replace(b, tracks=tuple(t._replace(index=2 * t.index + 1) for t in b.tracks)))


def test_product_equals_minimized_intersection():
    rng = random.Random(12)
    width0 = [make_dfa((), 1, 0, accept, {0: [("", 0)]}) for accept in ({0}, set())]
    for _ in range(150):
        f, g = random_formula(rng), random_formula(rng)
        registry = TrackRegistry()
        a, b = compile_formula(f, registry), compile_formula(g, registry)
        pairs = [(a, b), (b, a), (a, a), _interleaved(a, b), (a, rng.choice(width0)),
                 (rng.choice(width0), b)]
        for left, right in pairs:
            assert dump(product(left, right)) == dump(minimize(intersect(left, right)))
    for left in width0:
        for right in width0:
            assert dump(product(left, right)) == dump(minimize(intersect(left, right)))


def test_product_of_unminimized_operands():
    # operands with unreachable and equivalent states, on random tracks
    rng = random.Random(13)
    for _ in range(500):
        a, b = _random_dfa(rng, rng.randrange(4)), _random_dfa(rng, rng.randrange(4))
        shift = rng.randrange(3)
        b = replace(b, tracks=tuple(t._replace(index=t.index + shift) for t in b.tracks))
        try:
            expected = dump(_reference_minimize(intersect(a, b)))
        except TrackKindConflict:
            with pytest.raises(TrackKindConflict):
                product(a, b)
            continue
        assert dump(product(a, b)) == expected


def _pairwise(dfas):
    """The product of ``dfas`` as a fold of two-operand products."""
    return reduce(product, dfas[1:], minimize(dfas[0]))


def _spread(dfas):
    """Operand ``j`` of ``k`` moved from track ``i`` to track ``k * i + j``:
    disjoint tracks, interleaved."""
    k = len(dfas)
    return [replace(d, tracks=tuple(t._replace(index=k * t.index + j) for t in d.tracks))
            for j, d in enumerate(dfas)]


def test_k_ary_product_equals_the_pairwise_fold_on_compiled_operands():
    rng = random.Random(14)
    width0 = [make_dfa((), 1, 0, accept, {0: [("", 0)]}) for accept in ({0}, set())]
    for _ in range(120):
        formulas = [random_formula(rng) for _ in range(rng.randint(1, 5))]
        registry = TrackRegistry()
        dfas = [compile_formula(f, registry) for f in formulas]
        padded = list(dfas)
        padded.insert(rng.randrange(len(dfas) + 1), rng.choice(width0))
        for operands in (dfas, dfas[::-1], padded, _spread(dfas)):
            assert dump(product(*operands)) == dump(_pairwise(operands))
    for k in range(1, 4):
        for operands in itertools.product(width0, repeat=k):
            assert dump(product(*operands)) == dump(_pairwise(operands))


def test_k_ary_product_equals_the_pairwise_fold_on_unminimized_operands():
    # operands with unreachable, equivalent and dead states, on random tracks
    rng = random.Random(15)
    for _ in range(300):
        dfas = []
        for _ in range(rng.randint(1, 4)):
            d = _random_dfa(rng, rng.randrange(3))
            shift = rng.randrange(3)
            dfas.append(replace(d, tracks=tuple(t._replace(index=t.index + shift)
                                                for t in d.tracks)))
        try:
            expected = dump(_pairwise(dfas))
        except TrackKindConflict:
            with pytest.raises(TrackKindConflict):
                product(*dfas)
            continue
        assert dump(product(*dfas)) == expected
        assert dump(product(*_spread(dfas))) == dump(_pairwise(_spread(dfas)))


def test_product_names_its_missing_operand():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'first'"):
        product()


def test_product_of_one_automaton_is_its_minimization():
    rng = random.Random(16)
    for _ in range(500):
        dfa = _random_dfa(rng, rng.randrange(5))
        assert dump(product(dfa)) == dump(minimize(dfa))


def test_an_empty_operand_gives_the_one_state_empty_automaton():
    rng = random.Random(17)
    for _ in range(200):
        dfas = [compiled(random_formula(rng))[0] for _ in range(rng.randint(1, 4))]
        dfas = _spread(dfas + [replace(_random_dfa(rng, rng.randrange(3)), accepting=frozenset())])
        rng.shuffle(dfas)
        result = product(*dfas)
        width = result.width
        assert dump(result) == dump(make_dfa(result.tracks, 1, 0, set(), {0: [("X" * width, 0)]}))
        assert dump(result) == dump(_pairwise(dfas))


def test_product_kind_conflict_between_any_two_of_three_operands():
    first = restriction_automaton(0)  # track 0 first-order
    second = _compile("Y sub Z")  # tracks 0 and 1 second-order
    other = restriction_automaton(5)
    for operands in itertools.permutations([first, second, other]):
        with pytest.raises(TrackKindConflict):
            product(*operands)
    assert product(first, other, first).width == 2


def test_minimize_cost_does_not_grow_with_unread_tracks():
    # the product reads tracks 0 and 39 only; a cover that split on all
    # 40 positions would take 2^40 steps per state
    def seen_a_one(index):
        return make_dfa(make_tracks([(index, Kind.SECOND_ORDER)]), 2, 0, {1},
                        {0: [("0", 0), ("1", 1)], 1: [("X", 1)]})

    tracks = make_tracks((i, Kind.SECOND_ORDER) for i in range(40))
    product = intersect(cylindrify(seen_a_one(0), tracks), seen_a_one(39))

    def too_slow(signum, frame):
        raise TimeoutError("minimize did not finish in 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        small = minimize(product)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert small.num_states == 4
    mid = "X" * 38
    tracks_field = ",".join(f"{i}:2" for i in range(40))
    assert dump(small) == (
        f"dfa tracks={tracks_field} states=4 initial=0\n"
        "accepting 3\n"
        f"trans 0 0{mid}0 0\n"
        f"trans 0 0{mid}1 1\n"
        f"trans 0 1{mid}0 2\n"
        f"trans 0 1{mid}1 3\n"
        f"trans 1 0{mid}X 1\n"
        f"trans 1 1{mid}X 3\n"
        f"trans 2 X{mid}0 2\n"
        f"trans 2 X{mid}1 3\n"
        f"trans 3 X{mid}X 3\n"
    )


def test_no_garbage_cycles_outlive_a_call():
    # a recursive closure that still refers to itself when its call returns
    # keeps its memo and lists alive until the cyclic collector runs
    texts = [f"x{i} in Y{i}" for i in range(1, 6)]
    chain, *parts = _compile_shared(" & ".join(texts), *texts)
    nfa = project(chain, chain.tracks[-1].index)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in (lambda: minimize(chain), lambda: product(*parts),
                     lambda: determinize(nfa)):
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_find_witness_empty_language(x_in_y):
    assert find_witness(intersect(x_in_y, complement(x_in_y))) is None


def test_find_witness_epsilon():
    eps_only = make_dfa(make_tracks([(0, Kind.SECOND_ORDER)]), 2, 0, {0},
                        {0: [("0", 1), ("1", 1)], 1: [("X", 1)]})
    assert find_witness(eps_only) == []


def test_find_witness_shortest(x_in_y):
    assert find_witness(x_in_y) == [(1, 1)]


def test_find_witness_lexicographic_tie_break():
    tracks = make_tracks([(0, Kind.SECOND_ORDER), (1, Kind.SECOND_ORDER)])
    dfa = make_dfa(tracks, 3, 0, {1}, {
        0: [("01", 1), ("10", 1), ("00", 2), ("11", 2)],
        1: [("XX", 2)],
        2: [("XX", 2)],
    })
    assert find_witness(dfa) == [(0, 1)]


def test_language_equiv_basics(x_in_y, random_corpus):
    assert language_equiv(x_in_y, x_in_y)
    assert not language_equiv(x_in_y, complement(x_in_y))
    for dfa in random_corpus:
        assert language_equiv(minimize(dfa), dfa)


def test_cylindrify_properties(x_in_y):
    extra = make_tracks([(5, Kind.FIRST_ORDER)])
    widened = cylindrify(x_in_y, extra)
    assert widened.num_states == x_in_y.num_states
    assert (find_witness(widened) is None) == (find_witness(x_in_y) is None)
    back = minimize(determinize(project(widened, 5)))
    assert language_equiv(back, x_in_y)


def test_operations_keep_delta_invariant(random_corpus):
    for dfa in random_corpus[:12]:
        dfa.audit()
        complement(dfa).audit()
        minimize(dfa).audit()
        if dfa.width:
            determinize(project(dfa, dfa.tracks[0].index)).audit()
        cylindrify(dfa, make_tracks([(9, Kind.SECOND_ORDER)])).audit()
    a, b = random_corpus[0], random_corpus[1]
    intersect(a, b).audit()


def test_witness_length_bounded_by_state_count(random_corpus):
    for dfa in random_corpus:
        witness = find_witness(dfa)
        if witness is not None:
            assert len(witness) <= dfa.num_states
            assert accepts(dfa, witness)


def test_witness_is_shortest_and_lex_least_by_enumeration(random_corpus):
    for dfa in random_corpus:
        if dfa.width > 3:
            continue
        witness = find_witness(dfa)
        if witness is None or len(witness) > 3:
            continue
        shorter = [list(w) for w in all_words(dfa.width, len(witness))
                   if accepts(dfa, list(w))]
        assert min(len(w) for w in shorter) == len(witness)
        assert min(w for w in shorter if len(w) == len(witness)) == witness


def test_boolean_operations_pointwise_on_all_short_words(random_corpus):
    small = [d for d in random_corpus if d.width <= 2][:6]
    for a in small:
        comp = complement(a)
        for word in all_words(a.width, 4):
            assert accepts(comp, word) == (not accepts(a, word))
    from ws1s_stream.automata import merge_tracks

    for a, b in zip(small, small[1:]):
        kinds = {t.index: t.kind for t in a.tracks}
        if any(kinds.get(t.index, t.kind) is not t.kind for t in b.tracks):
            continue  # corpus automata from separate registries may clash
        tracks = merge_tracks(a.tracks, b.tracks)
        ua, ub = cylindrify(a, tracks), cylindrify(b, tracks)
        both = intersect(ua, ub)
        for word in all_words(len(tracks), 3):
            assert accepts(both, word) == (accepts(ua, word) and accepts(ub, word))


def test_emptiness_matches_reachability(random_corpus):
    for dfa in random_corpus:
        reachable = {dfa.initial}
        stack = [dfa.initial]
        while stack:
            for _, dst in dfa.delta[stack.pop()]:
                if dst not in reachable:
                    reachable.add(dst)
                    stack.append(dst)
        assert (find_witness(dfa) is None) == (not (reachable & dfa.accepting))


def test_is_empty_agrees_with_the_witness_search(random_corpus):
    for dfa in random_corpus + [complement(d) for d in random_corpus]:
        assert is_empty(dfa) == (find_witness(dfa) is None)


def _zero_padded(a, pos):
    """States from which some word that reads 0 on every track but the one
    at ``pos`` reaches acceptance, by a forward walk from each state."""
    found = set()
    for start in range(a.num_states):
        seen, stack = {start}, [start]
        while stack:
            state = stack.pop()
            if state in a.accepting:
                found.add(start)
                break
            for cube, dst in a.delta[state]:
                if dst not in seen and "1" not in cube[:pos] + cube[pos + 1:]:
                    seen.add(dst)
                    stack.append(dst)
    return found


def test_accept_distances_agree_with_forward_searches(random_corpus):
    # find_witness searches forward and shares no code with the backward walk
    rng = random.Random(41)
    dfas = [_random_dfa(rng, rng.randrange(5)) for _ in range(1000)] + random_corpus
    for a in dfas:
        dist = accept_distances(a.delta, a.accepting)
        for s in range(a.num_states):
            witness = find_witness(replace(a, initial=s))
            assert dist[s] == (FAR if witness is None else len(witness)), (dump(a), s)
        assert accept_distances(mask_rows(a, range(a.width), a.width), a.accepting) == dist
        assert coreachable(a) == {s for s, d in enumerate(dist) if d < FAR}
        for pos, t in enumerate(a.tracks):
            assert project(a, t.index).accepting == _zero_padded(a, pos), (dump(a), pos)


def test_compiled_languages_are_padding_invariant(random_corpus):
    rng = random.Random(31)
    for dfa in random_corpus[:15]:
        zeros = (0,) * dfa.width
        for _ in range(20):
            word = [tuple(rng.randint(0, 1) for _ in range(dfa.width))
                    for _ in range(rng.randint(0, 4))]
            assert accepts(dfa, word) == accepts(dfa, word + [zeros])


def test_dump_round_trip(x_in_y):
    again = parse_dump(dump(x_in_y))
    assert again == x_in_y
    assert dump(again) == dump(x_in_y)


def test_parse_dump_rejects_overlapping_cubes():
    text = "dfa tracks=0:2,1:2 states=1 initial=0\naccepting 0\ntrans 0 0X 0\ntrans 0 0X 0\n"
    with pytest.raises(ValueError, match="overlapping cubes at state 0"):
        parse_dump(text)


# parse_dump rejects these states itself, so only a hand-built automaton
# reaches audit's range, dangling and coverage checks
_ONE_TRACK = make_tracks([(0, Kind.SECOND_ORDER)])


@pytest.mark.parametrize("dfa, check, error, message", [
    (make_dfa(_ONE_TRACK, 1, 1, (), {0: [("X", 0)]}), Dfa.audit,
     ValueError, "initial state out of range"),
    (make_dfa(_ONE_TRACK, 1, 0, {1}, {0: [("X", 0)]}), Dfa.audit,
     ValueError, "accepting state out of range"),
    (make_dfa(_ONE_TRACK, 1, 0, (), {0: [("X", 1)]}), Dfa.audit,
     ValueError, "dangling transition 0 -> 1"),
    (make_dfa(_ONE_TRACK, 1, 0, (), {0: [("0", 0)]}), Dfa.audit,
     ValueError, "state 0 covers 1/2 symbols"),
], ids=["initial", "accepting", "dangling", "non-total"])
def test_hand_built_automata_fail_their_checks(dfa, check, error, message):
    with pytest.raises(error) as exc:
        check(dfa)
    assert str(exc.value) == message


def test_a_word_that_falls_off_a_non_total_automaton_is_rejected():
    dfa = make_dfa(_ONE_TRACK, 1, 0, {0}, {0: [("0", 0)]})  # no cube matches (1,)
    assert not accepts(dfa, [(1,)])
    assert accepts(dfa, [(0,)])


_HEADER = "dfa tracks=0:2 states=1 initial=0\n"


@pytest.mark.parametrize("text", [
    "",
    "dfa tracks=0:2 initial=0\naccepting 0\ntrans 0 X 0\n",
    _HEADER + "rejecting 0\ntrans 0 X 0\n",
    _HEADER + "accepting 0\nfoo 0 X 0\n",
    _HEADER + "accepting 0\ntrans 0 X 0\ntrans 5 X 0\n",
    _HEADER + "accepting 0\ntrans 0 X 0\ntrans -1 X 0\n",
    _HEADER + "accepting 0\ntrans 0 0 0\ntrans 0 2 0\n",
    _HEADER + "accepting 0\ntrans 0 0 0\n",
    _HEADER.replace("initial=0", "initial=3") + "accepting 0\ntrans 0 X 0\n",
    _HEADER + "accepting 7\ntrans 0 X 0\n",
    _HEADER + "accepting 0\ntrans 0 X 5\n",
    "dfa tracks= states=2 initial=0 states=1\naccepting 0\ntrans 0 - 0\n",
], ids=["empty", "no-states", "rejecting", "foo", "src-5", "src-minus-1", "cube-2",
        "missing-cubes", "initial-3", "accepting-7", "dst-5", "states-twice"])
def test_parse_dump_rejects_malformed_dumps(text):
    with pytest.raises(ValueError):
        parse_dump(text)


@pytest.mark.parametrize("text, message", [
    ("dfa tracks= states initial=0\naccepting 0\ntrans 0 - 0\n",
     r"dump header needs tracks=, states= and initial=, has \['initial=', 'states', "),
    ("dfa tracks= states=1 initial=0\naccepting 0\ntrans 0 -\n",
     "not a transition of a 1-state dump: 'trans 0 -'"),
    ("dfa tracks= states=1 initial=0\naccepting 0\ntrans 0 - 0 9\n",
     "not a transition of a 1-state dump: 'trans 0 - 0 9'"),
    (_HEADER.replace("0:2", "0") + "accepting 0\ntrans 0 X 0\n",
     "dump track '0' is not an index:kind pair"),
    (_HEADER.replace("0:2", "0:9") + "accepting 0\ntrans 0 X 0\n",
     "dump track '0:9' is not an index:kind pair, kind 1 or 2"),
    (_HEADER.replace("states=1", "states=x") + "accepting 0\ntrans 0 X 0\n",
     "a dump of 1 transitions cannot have states=x"),
    (_HEADER.replace("initial=0", "initial=x") + "accepting 0\ntrans 0 X 0\n",
     "dump header field initial=x is not a state"),
    (_HEADER + "accepting a\ntrans 0 X 0\n",
     "not an accepting line of a 1-state dump: 'accepting a'"),
    (_HEADER + "accepting 0\ntrans a X 0\n",
     "not a transition of a 1-state dump: 'trans a X 0'"),
    (_HEADER + "accepting 0\ntrans 0 X a\n",
     "not a transition of a 1-state dump: 'trans 0 X a'"),
], ids=["field-without-value", "short-trans", "long-trans", "track-without-kind",
        "kind-9", "states-x", "initial-x", "accepting-a", "src-a", "dst-a"])
def test_parse_dump_names_what_is_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        parse_dump(text)


def test_parse_dump_checks_the_state_count_before_building_states():
    # a header may claim more states than its dump gives transitions, and
    # the state table is not built for them
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            parse_dump("dfa tracks= states=100000 initial=0\naccepting\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zero_track_automata():
    dfa = _compile("ex2 Y: ex1 x: x in Y")
    assert dfa.width == 0
    dfa.audit()
    assert parse_dump(dump(dfa)) == dfa
    witness = find_witness(dfa)
    assert witness is not None
    assert accepts(dfa, witness)


def test_is_empty_boolean_view(x_in_y):
    assert not is_empty(x_in_y)
    assert is_empty(intersect(x_in_y, complement(x_in_y)))


# Unminimized constructions, pinned byte for byte: their state numbering is
# discovery order (``a``'s cubes outer, ``b``'s inner) and nothing else
# checks it, because every caller minimizes.
_ATOM_TRACKS = {"x": 0, "y": 1, "Y": 2}

_LESS_AND_NOT_MEMBER = """\
dfa tracks=0:1,1:1,2:2 states=7 initial=0
accepting 5
trans 0 00X 0
trans 0 01X 3
trans 0 100 1
trans 0 101 2
trans 0 110 4
trans 0 111 3
trans 1 X0X 1
trans 1 X1X 5
trans 2 00X 2
trans 2 01X 6
trans 2 100 1
trans 2 101 2
trans 2 110 5
trans 2 111 6
trans 3 0XX 3
trans 3 1X0 4
trans 3 1X1 3
trans 4 XXX 4
trans 5 XXX 5
trans 6 0XX 6
trans 6 1X0 5
trans 6 1X1 6
"""

_LESS_ONE_X_PROJECTED = """\
dfa tracks=1:1 states=7 initial=0
accepting 4 6
trans 0 0 1
trans 0 1 2
trans 1 0 3
trans 1 1 4
trans 2 X 5
trans 3 0 3
trans 3 1 4
trans 4 X 6
trans 5 X 5
trans 6 X 6
"""

_MEMBER_NOT_LESS_PROJECTED = """\
dfa tracks=0:1,2:2 states=6 initial=0
accepting 0 1 3 5
trans 0 0X 1
trans 0 10 2
trans 0 11 3
trans 1 0X 1
trans 1 10 2
trans 1 11 3
trans 2 XX 4
trans 3 0X 5
trans 3 10 4
trans 3 11 5
trans 4 XX 4
trans 5 0X 5
trans 5 10 4
trans 5 11 5
"""


def test_unminimized_constructions_are_pinned():
    less = compile_atom(parse("x < y"), _ATOM_TRACKS)
    member = compile_atom(parse("x in Y"), _ATOM_TRACKS)
    less_one_x = intersect(less, restriction_automaton(0))
    assert dump(intersect(less, complement(member))) == _LESS_AND_NOT_MEMBER
    assert dump(determinize(project(less_one_x, 0))) == _LESS_ONE_X_PROJECTED
    member_not_less = intersect(member, complement(less))
    assert dump(determinize(project(member_not_less, 1))) == _MEMBER_NOT_LESS_PROJECTED
    with pytest.raises(StateBudgetExceeded) as exc:
        determinize(project(less_one_x, 0), budget=1)
    assert str(exc.value) == "state budget of 1 exceeded during determinization"
