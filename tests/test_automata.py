import random

import pytest

from formula_gen import all_words, compiled, random_formula
from ws1s_stream.automata import (
    Nfa,
    Track,
    accepts,
    complement,
    cylindrify,
    determinize,
    dump,
    find_witness,
    intersect,
    is_empty,
    language_equiv,
    make_dfa,
    make_tracks,
    minimize,
    nfa_accepts,
    parse_dump,
    project,
)
from ws1s_stream.compiler import (
    TrackRegistry,
    compile_atom,
    compile_formula,
    restriction_automaton,
)
from ws1s_stream.errors import ArityMismatch, StateBudgetExceeded, TrackKindConflict
from ws1s_stream.syntax import Kind, free_vars, parse


def _compile(text: str):
    f = parse(text)
    registry = TrackRegistry()
    for v in free_vars(f):
        registry.register(v)
    return compile_formula(f, registry)


def _compile_shared(*texts: str):
    """Compile several formulas against one registry (disjoint names get
    disjoint tracks, shared names share them)."""
    formulas = [parse(t) for t in texts]
    registry = TrackRegistry()
    for f in formulas:
        for v in free_vars(f):
            registry.register(v)
    return [compile_formula(f, registry) for f in formulas]


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


def test_determinize_preserves_deterministic_language(x_in_y):
    as_nfa = Nfa(
        x_in_y.tracks, x_in_y.num_states, x_in_y.initial, x_in_y.accepting,
        tuple(tuple((c, frozenset({d})) for c, d in edges) for edges in x_in_y.delta),
    )
    assert language_equiv(determinize(as_nfa), x_in_y)


def test_determinize_matches_nfa_run_semantics(x_in_y):
    nfa = project(x_in_y, 1)
    dfa = determinize(nfa)
    rng = random.Random(17)
    for _ in range(100):
        word = [(rng.randint(0, 1),) for _ in range(rng.randint(0, 6))]
        assert accepts(dfa, word) == nfa_accepts(nfa, word)


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


def test_minimize_never_grows_and_preserves_language(random_corpus):
    for dfa in random_corpus:
        small = minimize(dfa)
        assert small.num_states <= dfa.num_states
        assert language_equiv(small, dfa)


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


def test_zero_track_automata():
    dfa = _compile("ex2 Y: ex1 x: x in Y")
    assert dfa.width == 0
    dfa.audit()
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
