import random
import time

import pytest

from formula_gen import random_formula
from ws1s_stream.errors import KindError, ParseError
from ws1s_stream.syntax import (
    And,
    EqFo,
    Exists,
    Forall,
    Implies,
    In,
    Kind,
    Less,
    Not,
    Or,
    Sub,
    Succ,
    VarId,
    free_vars,
    normalize,
    parse,
    print_formula,
)

x = VarId("x", Kind.FIRST_ORDER)
y = VarId("y", Kind.FIRST_ORDER)
Y = VarId("Y", Kind.SECOND_ORDER)
Z = VarId("Z", Kind.SECOND_ORDER)


def test_parse_membership_atom():
    assert parse("x in Y") == In(x, Y)


def test_parse_second_order_exists():
    assert parse("ex2 Y: x in Y") == Exists(Y, In(x, Y))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("x in")
    assert exc.value.line == 1
    assert exc.value.col == 5


@pytest.mark.parametrize("text,line,col", [
    ("x in Y &\n  ~", 2, 4),
    ("x in Y &\n\n   Z sub", 3, 9),
])
def test_parse_error_position_after_newline(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("text,line,col,message", [
    ("x in Y )", 1, 8, "expected end of input, found ')'"),
    ("x = y + 2", 1, 9, "expected '1', found '2'"),
    ("x y", 1, 3, "expected 'in', 'sub', '<' or '=', found 'y'"),
    ("x", 1, 2, "expected 'in', 'sub', '<' or '='"),
    ("x =", 1, 4, "expected a variable name"),
    ("x = y +", 1, 8, "expected a number"),
    ("x = y + x", 1, 9, "expected a number, found 'x'"),
    ("x = y + 1 + 1", 1, 11, "expected end of input, found '+'"),
    ("x in Y + 1", 1, 8, "expected end of input, found '+'"),  # only '=' goes on to '+ 1'
    ("x < y + 1", 1, 7, "expected end of input, found '+'"),
])
def test_parse_error_branches(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text,expected", [
    ("x < y", Less(x, y)),
    ("x = y + 1", Succ(x, y)),
    ("x = y", EqFo(x, y)),
    ("Y sub Z", Sub(Y, Z)),
    ("~x in Y", Not(In(x, Y))),
    ("x in Y & x in Z", And(In(x, Y), In(x, Z))),
    ("x in Y | x in Z", Or(In(x, Y), In(x, Z))),
    ("x in Y -> x in Z", Implies(In(x, Y), In(x, Z))),
    ("all1 x: x in Y", Forall(x, In(x, Y))),
])
def test_parse_atoms_and_connectives(text, expected):
    assert parse(text) == expected


def test_precedence():
    f = parse("~x in Y & x in Z | x < y -> x = y")
    assert f == Implies(Or(And(Not(In(x, Y)), In(x, Z)), Less(x, y)), EqFo(x, y))


def test_implies_right_associative():
    f = parse("x < y -> x = y -> y < x")
    assert f == Implies(Less(x, y), Implies(EqFo(x, y), Less(y, x)))


def test_quantifier_body_extends_right():
    f = parse("ex1 x: x in Y & x in Z")
    assert f == Exists(x, And(In(x, Y), In(x, Z)))


def test_iff_is_sugar():
    f = parse("x in Y <-> x in Z")
    assert f == And(Implies(In(x, Y), In(x, Z)), Implies(In(x, Z), In(x, Y)))


def test_binder_decides_kind_over_spelling():
    f = parse("ex2 w: x in w")
    assert f == Exists(VarId("w", Kind.SECOND_ORDER),
                       In(x, VarId("w", Kind.SECOND_ORDER)))


@pytest.mark.parametrize("text", [
    "Y < x",          # second-order in a first-order slot
    "Y in Z",
    "x sub Y",
    "x in y",
    "Y = Z + 1",
])
def test_kind_errors(text):
    with pytest.raises(KindError):
        parse(text)


@pytest.mark.parametrize("text, message", [
    ("Y in Z", "1:1: Y must be first-order in 'in' left position"),
    ("x in y", "1:6: y must be second-order in 'in' right position"),
    ("x sub Y", "1:1: x must be second-order in 'sub' left position"),
    ("Y sub x", "1:7: x must be second-order in 'sub' right position"),
    ("Y < x", "1:1: Y must be first-order in '<' left position"),
    ("x < Y", "1:5: Y must be first-order in '<' right position"),
    ("Y = x", "1:1: Y must be first-order in '=' left position"),
    ("x = Y", "1:5: Y must be first-order in '=' right position"),
    ("Y = x + 1", "1:1: Y must be first-order in '= + 1' left position"),
    ("x = Y + 1", "1:5: Y must be first-order in '= + 1' right position"),
    ("ex1 x: x in x", "1:13: x must be second-order in 'in' right position"),
    ("x in Y &\n  y <  Z", "2:8: Z must be first-order in '<' right position"),
])
def test_kind_error_names_the_offending_operand_and_its_position(text, message):
    with pytest.raises(KindError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_shadowing_rejected():
    with pytest.raises(ParseError):
        parse("ex1 x: ex1 x: x < x")
    with pytest.raises(ParseError):
        parse("x in Y & (ex1 x: x < y)")


def test_binder_name_reused_in_a_sibling_scope_parses():
    z, z2 = VarId("z", Kind.FIRST_ORDER), VarId("z", Kind.SECOND_ORDER)
    assert parse("(ex1 z: z < x) & (ex1 z: z in Y)") == And(
        Exists(z, Less(z, x)), Exists(z, In(z, Y)))
    assert parse("(ex1 z: z < x) & (ex2 z: x in z)") == And(
        Exists(z, Less(z, x)), Exists(z2, In(x, z2)))
    # a name bound in one scope still cannot be used free in another
    with pytest.raises(ParseError, match="bound elsewhere"):
        parse("(ex1 z: z < x) & z in Y")


def test_normalize_forall():
    assert normalize(Forall(x, In(x, Y))) == Not(Exists(x, Not(In(x, Y))))


def test_normalize_atom_fixed_point():
    assert normalize(In(x, Y)) == In(x, Y)


def test_normalize_or_de_morgan():
    f = Or(In(x, Y), In(x, Z))
    assert normalize(f) == Not(And(Not(In(x, Y)), Not(In(x, Z))))


def _core_only(f) -> bool:
    if isinstance(f, (In, Less, Succ, EqFo, Sub)):
        return True
    if isinstance(f, Not):
        return _core_only(f.body)
    if isinstance(f, And):
        return _core_only(f.left) and _core_only(f.right)
    if isinstance(f, Exists):
        return _core_only(f.body)
    return False


def test_normalize_idempotent_on_random_formulas():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng)
        once = normalize(f)
        assert _core_only(once)
        assert normalize(once) == once


def test_parse_print_round_trip_on_random_formulas():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng)
        text = print_formula(f)
        assert parse(text) == f
        # printing is a normal form: reprinting the reparse changes nothing
        assert print_formula(parse(text)) == text


_LOOSEST_FIRST = ["<->", "->", "|", "&"]


@pytest.mark.parametrize("op2", _LOOSEST_FIRST)
@pytest.mark.parametrize("op1", _LOOSEST_FIRST)
def test_two_connectives_round_trip_grouped_either_way(op1, op2):
    a, b, c = "x in Y", "y in Y", "x < y"
    left, right = parse(f"({a} {op1} {b}) {op2} {c}"), parse(f"{a} {op1} ({b} {op2} {c})")
    # unparenthesized, the tighter connective takes the middle operand; on
    # a tie, only -> groups to the right
    tighter_first = _LOOSEST_FIRST.index(op1) > _LOOSEST_FIRST.index(op2)
    tie_left = op1 == op2 != "->"
    assert parse(f"{a} {op1} {b} {op2} {c}") == (left if tighter_first or tie_left else right)
    for tree in (left, right):
        text = print_formula(tree)
        assert parse(text) == tree
        assert print_formula(parse(text)) == text


def test_print_parse_identity_up_to_whitespace():
    for text in ["x in Y", "ex2 Y: x in Y", "~(x in Y & x in Z)", "x = y + 1"]:
        assert " ".join(print_formula(parse(text)).split()) == " ".join(text.split())


def test_sub_keeps_its_operands_in_written_order():
    assert free_vars(Sub(Y, Z)) == [Y, Z]
    assert print_formula(Sub(Y, Z)) == "Y sub Z"


# the six reserved words, which print_formula would write as text that does
# not parse ("in in Y"), and a name that is not an identifier
@pytest.mark.parametrize("name", ["in", "sub", "ex1", "ex2", "all1", "all2", "1x"])
def test_var_id_rejects_a_name_the_parser_cannot_read(name):
    with pytest.raises(ValueError, match="invalid variable name"):
        VarId(name, Kind.FIRST_ORDER)


def test_free_vars_order():
    assert free_vars(In(x, Y)) == [x, Y]
    assert free_vars(Exists(Y, In(x, Y))) == [x]
    x1, Y1 = VarId("x1", Kind.FIRST_ORDER), VarId("Y1", Kind.SECOND_ORDER)
    x2, Y2 = VarId("x2", Kind.FIRST_ORDER), VarId("Y2", Kind.SECOND_ORDER)
    assert free_vars(And(In(x1, Y1), In(x2, Y2))) == [x1, Y1, x2, Y2]


def test_free_vars_of_a_long_chain_takes_linear_time():
    # 20,000 distinct variables: a membership test against the returned list
    # at each occurrence took about 40 s here
    pairs = [(VarId(f"x{i}", Kind.FIRST_ORDER), VarId(f"Y{i}", Kind.SECOND_ORDER))
             for i in range(10_000)]
    chain = parse(" & ".join(f"{x.name} in {Y.name}" for x, Y in pairs))
    start = time.perf_counter()
    assert free_vars(chain) == [v for pair in pairs for v in pair]
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "name", ["free_vars", "normalize", "print_formula", "quantifier_count"])
def test_traversals_reject_non_formula_nodes(name):
    import ws1s_stream.syntax as syntax

    x, Y = VarId("x", Kind.FIRST_ORDER), VarId("Y", Kind.SECOND_ORDER)
    for bad in (42, And(In(x, Y), 42), Exists(x, Not("x in Y"))):
        with pytest.raises(TypeError):
            getattr(syntax, name)(bad)


def test_deep_nesting_is_a_parse_error():
    # no depth cap: what fits on the interpreter stack parses
    assert parse("~" * 900 + "x in Y") is not None
    with pytest.raises(ParseError, match="nested less deeply"):
        parse("(" * 2000 + "x in Y" + ")" * 2000)


@pytest.mark.parametrize("nested", [
    lambda n: "(" * n + "x in Y" + ")" * n,
    lambda n: "".join(f"ex1 z{i}: " for i in range(n)) + "z0 in Y",
], ids=["parentheses", "binders"])
def test_200_levels_of_nesting_parse_and_2000_are_a_parse_error(nested):
    # a level takes three parser frames: formula, unary, then atom or quantified
    assert parse(nested(200)) is not None
    with pytest.raises(ParseError, match="nested less deeply"):
        parse(nested(2000))
