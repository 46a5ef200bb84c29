import functools
import hashlib
import random

import pytest

from formula_gen import compiled, language_matches_oracle, random_formula
from ws1s_stream import automata, compiler
from ws1s_stream.automata import (
    accepts,
    dump,
    find_witness,
    intersect,
    language_equiv,
    minimize,
    product,
)
from ws1s_stream.bench import family1
from ws1s_stream.compiler import (
    MemoCache,
    TrackRegistry,
    compile_atom,
    compile_formula,
    restriction_automaton,
)
from ws1s_stream.errors import KindConflict, KindError, UnboundTrack
from ws1s_stream.oracle import sat_bounded
from ws1s_stream.syntax import And, In, Kind, Not, VarId, free_vars, parse


def _registry_for(*formulas):
    registry = TrackRegistry()
    for f in formulas:
        for v in free_vars(f):
            registry.register(v)
    return registry


def test_membership_is_three_states():
    f = parse("x in Y")
    dfa = compile_formula(f, _registry_for(f))
    assert dfa.num_states == 3
    assert minimize(dfa).num_states == 3


def test_contradiction_is_empty():
    f = parse("x in Y & ~(x in Y)")
    assert find_witness(compile_formula(f, _registry_for(f))) is None


def test_quantified_membership_equals_bare_restriction():
    f = parse("ex2 Y: x in Y")
    registry = _registry_for(f)
    dfa = compile_formula(f, registry)
    assert language_equiv(dfa, restriction_automaton(registry.register(
        VarId("x", Kind.FIRST_ORDER))))
    assert language_matches_oracle(f, dfa, registry, max_len=4)


def test_compile_atom_sub_two_states():
    f = parse("Y sub Z")
    registry = _registry_for(f)
    env = {v.name: registry.register(v) for v in free_vars(f)}
    assert compile_atom(f, env).num_states == 2


def test_compile_atom_membership_accepts_empty_word():
    f = parse("x in Y")
    registry = _registry_for(f)
    env = {v.name: registry.register(v) for v in free_vars(f)}
    assert accepts(compile_atom(f, env), [])


@pytest.mark.parametrize("text", ["~(x in Y)", "x in Y & y in Y"])
def test_compile_atom_rejects_non_atoms(text):
    with pytest.raises(KindError, match="not an atom"):
        compile_atom(parse(text), {"x": 0, "y": 1, "Y": 2})


def test_less_with_restrictions_needs_two_positions():
    f = parse("x < y")
    dfa = compile_formula(f, _registry_for(f))
    for symbol in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert not accepts(dfa, [symbol])
    assert accepts(dfa, [(1, 0), (0, 1)])


def test_restriction_automaton_exactly_one_bit():
    r = restriction_automaton(0)
    assert r.num_states == 3
    assert not accepts(r, [])
    assert accepts(r, [(1,)])
    assert not accepts(r, [(1,), (1,)])
    assert accepts(r, [(0,), (1,), (0,)])


def test_compile_formula_registers_free_variables_in_order():
    for text in ["x in Y & Z sub Y & y < x", "Z sub Y | x in W", "y < x -> x in Y",
                 "X sub Y <-> y in Z", "all1 z: z < y & z in Y", "W sub W & (x in Y | Z sub W)"]:
        f, registry = parse(text), TrackRegistry()
        compile_formula(f, registry)
        assert [registry.name_of(i) for i in range(len(registry))] == [
            v.name for v in free_vars(f)], text


def test_compiling_into_an_empty_registry_matches_a_pre_registered_one():
    rng = random.Random(34)
    for _ in range(200):
        f = random_formula(rng)
        empty, registered = TrackRegistry(), _registry_for(f)
        assert dump(compile_formula(f, empty)) == dump(compile_formula(f, registered))
        assert [empty.name_of(i) for i in range(len(empty))] == [
            registered.name_of(i) for i in range(len(registered))]


_Y2, _Z2 = VarId("Y", Kind.SECOND_ORDER), VarId("Z", Kind.SECOND_ORDER)
_X1 = VarId("x", Kind.FIRST_ORDER)
_ILL_KINDED = In(_Y2, _Z2)  # parse never builds it: the compiler checks each atom itself
_ILL_KINDED_MESSAGE = "Y must be first-order in 'in' left position"


@pytest.mark.parametrize("f", [_ILL_KINDED, Not(And(In(_X1, _Y2), _ILL_KINDED))])
def test_compile_formula_rejects_a_hand_built_ill_kinded_atom(f):
    with pytest.raises(KindError) as exc:
        compile_formula(f, _registry_for(f))
    assert str(exc.value) == _ILL_KINDED_MESSAGE


def test_compile_atom_rejects_ill_kinded_and_unbound_operands():
    with pytest.raises(KindError) as exc:
        compile_atom(_ILL_KINDED, {"Y": 0, "Z": 1})
    assert str(exc.value) == _ILL_KINDED_MESSAGE
    with pytest.raises(UnboundTrack, match="no track bound for Y"):
        compile_atom(In(_X1, _Y2), {"x": 0})


def test_registry_kind_conflict():
    registry = TrackRegistry()
    registry.register(VarId("w", Kind.FIRST_ORDER))
    with pytest.raises(KindConflict):
        registry.register(VarId("w", Kind.SECOND_ORDER))


def test_compositionality_on_random_pairs():
    rng = random.Random(41)
    for _ in range(15):
        f, g = random_formula(rng, 2), random_formula(rng, 2)
        registry = _registry_for(f, g)
        cache = MemoCache()
        both = compile_formula(And(f, g), registry, cache)
        separate = intersect(compile_formula(f, registry, cache),
                             compile_formula(g, registry, cache))
        assert language_equiv(both, separate)


def test_a_chain_built_from_its_parts_dumps_as_the_chain_built_whole():
    # normalize keeps the double negation, so the right side folds the
    # chain whole and restricts it once at the top
    rng = random.Random(53)
    cache = MemoCache()
    for _ in range(150):
        chain = functools.reduce(And, [random_formula(rng) for _ in range(rng.randint(2, 4))])
        registry = _registry_for(chain)
        assert dump(compile_formula(chain, registry, cache)) == \
            dump(compile_formula(Not(Not(chain)), registry))


@pytest.mark.parametrize("cache, widths", [
    (MemoCache, [1, 2]),  # all three parts share one shape
    (lambda: None, [1, 2]),  # a compile with no cache shares shapes in its own
], ids=["memo", "own-cache"])
def test_a_repeated_part_is_multiplied_in_once(cache, widths, monkeypatch):
    # a restriction meets a one-track automaton; the product of the two
    # distinct parts is the only meet with a two-track one
    seen = []
    monkeypatch.setattr(compiler, "product", lambda a, b: seen.append(b.width) or product(a, b))
    f = parse("x in Y & x in Y & y in Z")
    compile_formula(f, _registry_for(f), cache())
    assert seen == widths


def test_the_chain_product_stops_at_dead_states(monkeypatch):
    # each restricted part x_i in Y_i has a waiting, a seen and a dead
    # state; one product of the 8 parts hands minimization the 2^8 live
    # tuples and one dead state, the minimal count, where enumerating every
    # tuple would hand it 3^8 = 6,561
    registry = _registry_for(*family1(8))
    parts = [compile_formula(part, registry) for part in family1(8)]
    assert [part.num_states for part in parts] == [3] * 8
    handed = []
    minimal = automata._minimal

    def counted(tracks, table, roots, *rest):
        handed.append(len(roots))
        return minimal(tracks, table, roots, *rest)

    monkeypatch.setattr(automata, "_minimal", counted)
    assert product(*parts).num_states == 257
    assert handed == [257]


def test_memo_cache_is_transparent():
    rng = random.Random(43)
    cache = MemoCache()
    for _ in range(30):
        f = random_formula(rng)
        registry = _registry_for(f)
        with_cache = compile_formula(f, registry, cache)
        without = compile_formula(f, _registry_for(f), None)
        assert dump(with_cache) == dump(without)
    assert cache.hits > 0


def test_memo_cache_hits_on_repeats():
    f = parse("ex2 Y: x in Y & (ex1 z: z in Y)")
    registry = _registry_for(f)
    cache = MemoCache()
    first = compile_formula(f, registry, cache)
    misses = cache.misses
    second = compile_formula(f, registry, cache)
    assert dump(first) == dump(second)
    assert cache.misses == misses  # second run fully served from cache


def test_a_key_looked_up_inside_a_build_takes_its_own_name():
    # an entry is named when its build returns, after any entry the build made
    cache, dfa = MemoCache(), restriction_automaton(0)
    outer, _ = cache.lookup("a", (), lambda: cache.lookup("b", (), lambda: dfa)[1])
    inner, _ = cache.lookup("b", (), lambda: dfa)
    assert (inner, outer) == ("#0", "#1")


def test_distinct_binder_names_compile_equivalent_automata():
    f = parse("ex1 z: z in Y")
    g = parse("ex1 w: w in Y")
    registry = _registry_for(f, g)
    cache = MemoCache()
    assert language_equiv(compile_formula(f, registry, cache),
                          compile_formula(g, registry, cache))


def test_binder_names_share_one_cache_entry():
    f = parse("ex1 z: z in Y")
    g = parse("ex1 w: w in Y")
    registry = _registry_for(f, g)
    cache = MemoCache()
    first = compile_formula(f, registry, cache)
    misses, hits = cache.misses, cache.hits
    # the atom, the quantifier and the top level all hit
    assert compile_formula(g, registry, cache) == first
    assert (cache.misses, cache.hits) == (misses, hits + 3)


def test_shared_cache_across_shuffled_registries_matches_uncached_dumps():
    # one cache for every registry; free variables are registered in
    # shuffled order among unused ones, so the formula's tracks, and the
    # bound tracks placed above them, sit at random offsets and ranks
    rng, order = random.Random(5), random.Random(6)
    cache = MemoCache()
    for _ in range(500):
        f = random_formula(rng, max_depth=4)
        variables = free_vars(f)
        order.shuffle(variables)
        registry = TrackRegistry()
        for i, v in enumerate(variables):
            for j in range(order.randrange(3)):
                registry.register(VarId(f"unused{i}_{j}", order.choice(list(Kind))))
            registry.register(v)
        assert dump(compile_formula(f, registry, cache)) == dump(compile_formula(f, registry))
    assert cache.hits > cache.misses


def _succ_chain_misses(n):
    registry, cache = TrackRegistry(), MemoCache()
    for i in range(1, n + 1):
        f = parse(f"x{i + 1} = x{i} + 1")
        for v in free_vars(f):
            registry.register(v)
        compile_formula(f, registry, cache)
    return cache.misses


def test_one_shape_compiles_once_however_long_the_chain():
    assert _succ_chain_misses(20) == _succ_chain_misses(40)


def _chain(n):
    return " & ".join(["x in Y"] * n)


def _key_chars(text):
    f = parse(text)
    cache = MemoCache()
    compile_formula(f, _registry_for(f), cache)
    return cache, sum(map(len, cache._table))


def test_memo_key_characters_grow_linearly_in_a_chain():
    # a top-level chain is compiled part by part: the atom and its
    # restricted entry, which every part after the first hits
    cache, _ = _key_chars(_chain(900))
    assert (cache.hits, cache.misses) == (1798, 2)
    # under a negation _fold builds the chain whole; a key names its
    # children by the short names the cache gives their keys, and keys that
    # embedded their children's keys whole kept 5.3 MB of characters for
    # this chain of 900 conjuncts, and 589 KB for 300
    cache, chars = _key_chars(f"~({_chain(900)})")
    assert (cache.hits, cache.misses) == (899, 902)
    assert chars <= 16 * 901
    _, shorter = _key_chars(f"~({_chain(300)})")
    assert chars <= 3.5 * shorter


def test_deterministic_compilation_across_fresh_contexts():
    rng = random.Random(47)
    for _ in range(20):
        f = random_formula(rng)
        first, _ = compiled(f)
        second, _ = compiled(f)
        assert dump(first) == dump(second)


# sha256 over the dumps of a fixed corpus; it locks the canonical form of
# every compiled automaton against later changes to the cover code
_CORPUS_DUMPS_SHA256 = "bf47ff8567ed1e57557a51de6ebd2017102da3ba9d30fa70305732dc277dde7d"


def test_compile_dumps_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(200):
        dfa, _ = compiled(random_formula(rng, max_depth=4))
        digest.update(dump(dfa).encode())
    assert digest.hexdigest() == _CORPUS_DUMPS_SHA256


# the same lock on a wider corpus, whose last formula, the 8-pair family-1
# chain compiled as one formula, ends in a 257-state product
_GOLDEN_DUMPS_SHA256 = "81dc8994913ae5731a97a79991ae2d88f2d7de7ba9934b07b2afec3caeb44dfe"


def test_golden_dump_digest():
    rng = random.Random(2024)
    formulas = [random_formula(rng) for _ in range(300)]
    formulas.append(functools.reduce(And, family1(8)))
    digest = hashlib.sha256()
    for f in formulas:
        dfa, _ = compiled(f)
        digest.update(dump(dfa).encode())
    assert digest.hexdigest() == _GOLDEN_DUMPS_SHA256


def test_word_level_agreement_with_oracle():
    rng = random.Random(53)
    checked = 0
    while checked < 25:
        f = random_formula(rng, 2)
        dfa, registry = compiled(f)
        if dfa.width > 3:
            continue  # keep the word sweep small
        assert language_matches_oracle(f, dfa, registry, max_len=3)
        checked += 1


def test_soundness_against_bounded_models():
    rng = random.Random(59)
    checked = 0
    while checked < 30:
        f = random_formula(rng)
        dfa, _ = compiled(f)
        fo = sum(1 for v in free_vars(f) if v.kind is Kind.FIRST_ORDER)
        so = len(free_vars(f)) - fo
        if dfa.num_states > 10 or so > 1:
            continue  # enumeration would dominate the test run
        model = sat_bounded(f, dfa.num_states)
        assert (model is not None) == (find_witness(dfa) is not None)
        checked += 1


def test_compiled_automata_are_structurally_padding_closed():
    # acceptance must be invariant under the all-zeros symbol in both
    # directions: absorbed padding and appended padding
    rng = random.Random(61)
    for _ in range(25):
        dfa, _ = compiled(random_formula(rng))
        zeros = (0,) * dfa.width
        for state in range(dfa.num_states):
            successor = dfa.step(state, zeros)
            assert (state in dfa.accepting) == (successor in dfa.accepting)


def test_scratch_tracks_never_escape():
    f = parse("ex2 Y: x in Y & (ex1 z: z in Y)")
    registry = _registry_for(f)
    dfa = compile_formula(f, registry)
    x_track = registry.register(VarId("x", Kind.FIRST_ORDER))
    assert [t.index for t in dfa.tracks] == [x_track]
