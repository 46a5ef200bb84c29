import itertools
import random

import pytest

from formula_gen import random_formula
from ws1s_stream.errors import EnumerationBudgetExceeded, UnassignedVariable
from ws1s_stream.oracle import (
    Interpretation,
    evaluate,
    interpretation_from_word,
    sat_bounded,
)
from ws1s_stream.syntax import (
    And,
    Exists,
    Forall,
    In,
    Kind,
    Less,
    Not,
    Sub,
    VarId,
    free_vars,
    normalize,
    parse,
)

x = VarId("x", Kind.FIRST_ORDER)
Y = VarId("Y", Kind.SECOND_ORDER)
Z = VarId("Z", Kind.SECOND_ORDER)


def test_eval_membership():
    assert evaluate(In(x, Y), Interpretation(1, {"x": 0}, {"Y": frozenset({0})}))
    assert not evaluate(In(x, Y), Interpretation(1, {"x": 0}, {"Y": frozenset()}))


def test_eval_subset_reads_left_in_right():
    # Y sub Z: every member of Y is in Z, not the other way round
    one, none = frozenset({0}), frozenset()
    assert not evaluate(Sub(Y, Z), Interpretation(1, {}, {"Y": one, "Z": none}))
    assert evaluate(Sub(Y, Z), Interpretation(1, {}, {"Y": none, "Z": one}))


def test_eval_second_order_exists():
    f = parse("ex2 Y: x in Y")
    assert evaluate(f, Interpretation(1, {"x": 0}))


def test_eval_requires_assignments():
    with pytest.raises(UnassignedVariable):
        evaluate(In(x, Y), Interpretation(1, {"x": 0}))


@pytest.mark.parametrize("args", [(2, {"x": 2}), (2, {}, {"Y": frozenset({0, 3})})])
def test_interpretation_rejects_positions_outside_the_model(args):
    with pytest.raises(ValueError, match="outside model of length 2"):
        Interpretation(*args)


def test_sat_bounded_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        sat_bounded(parse("x in Y"), -1)


def test_sat_bounded_contradiction():
    assert sat_bounded(And(In(x, Y), Not(In(x, Y))), 4) is None


def test_sat_bounded_minimal_model():
    model = sat_bounded(In(x, Y), 4)
    assert model == Interpretation(1, {"x": 0}, {"Y": frozenset({0})})


def test_sat_bounded_less():
    model = sat_bounded(parse("x < y"), 4)
    assert model == Interpretation(2, {"x": 0, "y": 1})


def test_sat_bounded_deterministic():
    f = parse("x in Y | y in Y")
    assert sat_bounded(f, 4) == sat_bounded(f, 4)


def test_enumeration_guard():
    f = parse("x in Y & x in Z")
    with pytest.raises(EnumerationBudgetExceeded):
        sat_bounded(f, 30)


# Quantifiers range over all naturals, not just the model's positions:
# a witness may sit past the end of the word that encodes the model.

def test_exists_reaches_past_model_end():
    f = parse("ex1 z: y < z")
    assert evaluate(f, Interpretation(1, {"y": 0}))


def test_forall_over_naturals_is_not_vacuous():
    # no finite set contains every position
    f = parse("all1 z: z in Y")
    assert not evaluate(f, Interpretation(0, {}, {"Y": frozenset()}))
    assert sat_bounded(f, 6) is None


def test_forall_successor_closure_unsat():
    # a nonempty set closed under successor would have to be infinite
    f = parse("x in Y & (all1 z: ~z in Y | (ex1 w: w = z + 1 & w in Y))")
    assert sat_bounded(f, 5) is None


def test_word_decoding():
    interp = interpretation_from_word([(1, 0), (0, 1)], [x, Y])
    assert interp == Interpretation(2, {"x": 0}, {"Y": frozenset({1})})
    with pytest.raises(ValueError):
        interpretation_from_word([(0, 0)], [x, Y])  # no position for x
    with pytest.raises(ValueError):
        interpretation_from_word([(1, 0), (1, 0)], [x, Y])


@pytest.mark.parametrize("symbols", [[(1,)], [(1, 0, 1)], [(2, 1)]],
                         ids=["too-narrow", "too-wide", "not-a-bit"])
def test_word_decoding_rejects_symbols_of_the_wrong_shape(symbols):
    with pytest.raises(ValueError, match="expected one 0/1 bit for each of 2 variables"):
        interpretation_from_word(symbols, [x, Y])


def _interpretations(variables, k):
    fo_vars = [v for v in variables if v.kind is Kind.FIRST_ORDER]
    so_vars = [v for v in variables if v.kind is Kind.SECOND_ORDER]
    if fo_vars and k == 0:
        return
    for fo in itertools.product(range(k), repeat=len(fo_vars)):
        for masks in itertools.product(range(1 << k), repeat=len(so_vars)):
            yield Interpretation(
                k,
                {v.name: p for v, p in zip(fo_vars, fo)},
                {v.name: frozenset(p for p in range(k) if m >> p & 1)
                 for v, m in zip(so_vars, masks)},
            )


def test_normalize_preserves_truth():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        f = random_formula(rng, max_depth=2)
        variables = free_vars(f)
        if sum(1 for v in variables if v.kind is Kind.SECOND_ORDER) > 1:
            continue  # keep the interpretation sweep small
        g = normalize(f)
        for k in range(5):
            for interp in _interpretations(variables, k):
                assert evaluate(f, interp) == evaluate(g, interp)
        checked += 1


def test_eval_handles_shadowed_names_in_hand_built_asts():
    inner = Exists(x, Less(x, x))
    outer = Exists(x, And(In(x, Y), Not(inner)))
    assert evaluate(outer, Interpretation(1, {}, {"Y": frozenset({0})}))
    # the free Y comes back after the ex2 that shadows it: empty, so x is not in it
    assert not evaluate(And(Exists(Y, In(x, Y)), In(x, Y)),
                        Interpretation(1, {"x": 0}, {"Y": frozenset()}))


def test_oracle_imports_nothing_but_syntax_and_errors():
    """Ground truth must not share code with the automata, the compiler or
    the session, directly or through the package root."""
    import ast
    import pathlib

    import ws1s_stream.oracle as oracle

    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [a.name for a in node.names]
            imported.update(f"ws1s_stream.{m}" for m in modules)
    ours = {m for m in imported if m.split(".")[0] == "ws1s_stream"}
    assert "ws1s_stream.syntax" in ours  # the scan sees the relative imports
    assert ours <= {"ws1s_stream.syntax", "ws1s_stream.errors"}
