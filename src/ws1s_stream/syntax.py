"""Surface syntax and abstract syntax trees for WS1S formulas.

The concrete grammar is a small MONA-flavoured keyword language::

    formula := quantified | iff
    quantified := ("ex1" | "ex2" | "all1" | "all2") ident ":" formula
    iff     := implies ("<->" implies)*          (sugar, desugared here)
    implies := or ("->" implies)?                (right associative)
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | quantified | atom
    atom    := ident "in" ident | ident "sub" ident | ident "<" ident
             | ident "=" ident ("+" "1")? | "(" formula ")"

First-order versus second-order is decided by the binder (``ex1`` vs
``ex2``) and, for free variables, by spelling: a lowercase first letter
means first-order, an uppercase one second-order.

Each rule of this syntax is stated once, and the parser and the printer
both read it: ``_BINARY`` gives each connective its node, precedence
and grouping, ``_QUANTIFIERS`` each binder keyword its node and kind,
and ``_IDENT`` the spelling of a variable name.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import ClassVar

from .errors import KindError, ParseError


class Kind(enum.Enum):
    FIRST_ORDER = 1
    SECOND_ORDER = 2

    def __repr__(self):
        return self.name


_IDENT = r"[A-Za-z][A-Za-z0-9_]*"


@dataclass(frozen=True)
class VarId:
    name: str
    kind: Kind

    def __post_init__(self):
        if not re.fullmatch(_IDENT, self.name) or self.name in _KEYWORDS:
            raise ValueError(f"invalid variable name {self.name!r}")


def var_from_name(name: str) -> VarId:
    """Free-variable kind convention: lowercase initial = first-order."""
    kind = Kind.FIRST_ORDER if name[0].islower() else Kind.SECOND_ORDER
    return VarId(name, kind)


# --- AST nodes -------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """Two variables related by one atom type, in written order.

    Each atom type fixes the kind each operand takes and its written
    form, a format string over the operands' names.
    """

    x: VarId
    y: VarId
    kinds: ClassVar[tuple[Kind, Kind]]
    text: ClassVar[str]


class In(Atom):
    kinds, text = (Kind.FIRST_ORDER, Kind.SECOND_ORDER), "{} in {}"


class Sub(Atom):
    kinds, text = (Kind.SECOND_ORDER, Kind.SECOND_ORDER), "{} sub {}"


class Less(Atom):
    kinds, text = (Kind.FIRST_ORDER, Kind.FIRST_ORDER), "{} < {}"


class Succ(Atom):
    kinds, text = (Kind.FIRST_ORDER, Kind.FIRST_ORDER), "{} = {} + 1"


class EqFo(Atom):
    kinds, text = (Kind.FIRST_ORDER, Kind.FIRST_ORDER), "{} = {}"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: VarId
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: VarId
    body: "Formula"


Formula = Atom | Not | And | Or | Implies | Exists | Forall


def check_atom_kinds(atom: Atom, tokens=(None, None)):
    """Raise ``KindError`` unless each operand of an atom has the kind its
    side takes; given the operands' tokens, the message starts with the
    offending one's position."""
    for v, kind, side, tok in zip((atom.x, atom.y), atom.kinds, ("left", "right"), tokens):
        if v.kind is not kind:
            wanted = "first-order" if kind is Kind.FIRST_ORDER else "second-order"
            where = f"{tok.line}:{tok.col}: " if tok else ""
            connective = " ".join(atom.text.format("", "").split())
            raise KindError(f"{where}{v.name} must be {wanted} in '{connective}' {side} position")


def children(f: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of ``f``, left to right.

    The one place that lists the node types: every structural traversal
    goes through it, so anything that is not a formula node raises here.
    """
    match f:
        case Atom():
            return ()
        case Not(body) | Exists(_, body) | Forall(_, body):
            return (body,)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return (left, right)
    raise TypeError(f"not a formula node: {f!r}")


def conjuncts(f: Formula) -> list[Formula]:
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


# --- concrete syntax -------------------------------------------------------

def _iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))  # sugar: no node of its own


# connective token -> (node builder, precedence, groups to the right);
# a higher precedence binds tighter
_BINARY = {"<->": (_iff, 0, False), "->": (Implies, 1, True),
           "|": (Or, 2, False), "&": (And, 3, False)}
_QUANTIFIERS = {"ex1": (Exists, Kind.FIRST_ORDER), "ex2": (Exists, Kind.SECOND_ORDER),
                "all1": (Forall, Kind.FIRST_ORDER), "all2": (Forall, Kind.SECOND_ORDER)}


# --- tokenizer -------------------------------------------------------------

_KEYWORDS = {*_QUANTIFIERS, "in", "sub"}
_RELATIONS = {"in": In, "sub": Sub, "<": Less, "=": EqFo}  # "x = y + 1" is Succ

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<ident>{_IDENT})
      | (?P<num>[0-9]+)
      | (?P<op><->|->|[()&|~<=+:])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    type: str  # ident | num | kw | one of the literal operators | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # the line's number and the offset of its first character
    for m in _TOKEN_RE.finditer(text):
        lexeme, col = m.group(), m.start() - line_start + 1
        if m.lastgroup == "ws":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
            continue
        if m.lastgroup == "bad":
            raise ParseError(line, col, "a token", lexeme)
        if m.lastgroup == "ident":
            ttype = "kw" if lexeme in _KEYWORDS else "ident"
        else:  # operators, "<->" and "->" included, are typed by their text
            ttype = "num" if m.lastgroup == "num" else lexeme
        tokens.append(_Token(ttype, lexeme, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.scope: dict[str, VarId] = {}   # binder-introduced, innermost wins
        self.free_seen: dict[str, VarId] = {}
        self.binder_names: set[str] = set()

    _TOKEN_DESC = {"ident": "a variable name", "num": "a number", "kw": "a keyword"}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, ttype: str) -> _Token:
        tok = self.peek()
        if tok.type != ttype:
            raise ParseError(tok.line, tok.col,
                             self._TOKEN_DESC.get(ttype, f"'{ttype}'"),
                             tok.text or None)
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        try:
            f = self.formula()
        except RecursionError:
            # nesting deeper than the interpreter stack is bad input, not a
            # crash: report it at the token the parser had reached
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "a formula nested less deeply",
                             tok.text or None) from None
        tok = self.peek()
        if tok.type != "eof":
            raise ParseError(tok.line, tok.col, "end of input", tok.text)
        return f

    def formula(self, least: int = 0) -> Formula:
        """Operands joined by connectives of precedence ``least`` or more.
        A right-grouping connective's right operand may hold the same
        connective again; a left-grouping one's holds only tighter ones,
        so the loop here takes the next of the same."""
        left = self.unary()
        while (op := _BINARY.get(self.peek().type)) and op[1] >= least:
            build, prec, right_grouping = op
            self.pos += 1
            left = build(left, self.formula(prec if right_grouping else prec + 1))
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.type == "~":
            self.take("~")
            return Not(self.unary())
        if tok.type == "kw" and tok.text in _QUANTIFIERS:
            return self.quantified()
        return self.atom()

    def quantified(self) -> Formula:
        binder, kind = _QUANTIFIERS[self.take("kw").text]
        name_tok = self.take("ident")
        name = name_tok.text
        # a name bound in a sibling scope may be bound again; one in scope
        # or already used free may not
        if name in self.scope or name in self.free_seen:
            raise ParseError(name_tok.line, name_tok.col,
                             "a fresh variable name (shadowing is not allowed)", name)
        var = VarId(name, kind)
        self.take(":")
        self.scope[name] = var
        self.binder_names.add(name)
        try:
            body = self.formula()
        finally:
            del self.scope[name]
        return binder(var, body)

    def variable(self) -> tuple[VarId, _Token]:
        tok = self.take("ident")
        name = tok.text
        if name in self.scope:
            return self.scope[name], tok
        if name in self.binder_names:
            raise ParseError(tok.line, tok.col,
                             f"a variable in scope ({name!r} is bound elsewhere)", name)
        var = self.free_seen.get(name)
        if var is None:
            var = var_from_name(name)
            self.free_seen[name] = var
        return var, tok

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.type == "(":
            self.take("(")
            f = self.formula()
            self.take(")")
            return f
        if tok.type != "ident":
            raise ParseError(tok.line, tok.col, "a variable or '('", tok.text or None)
        left, left_tok = self.variable()
        op = self.peek()
        relation = _RELATIONS.get(op.text)
        if relation is None:
            raise ParseError(op.line, op.col, "'in', 'sub', '<' or '='", op.text or None)
        self.take(op.type)
        right, right_tok = self.variable()
        if relation is EqFo and self.peek().type == "+":
            self.take("+")
            one = self.take("num")
            if one.text != "1":
                raise ParseError(one.line, one.col, "'1'", one.text)
            relation = Succ
        node = relation(left, right)
        check_atom_kinds(node, (left_tok, right_tok))
        return node


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST; positions in errors are 1-based."""
    return _Parser(text).parse()


# --- printing --------------------------------------------------------------

# the two tables read backwards; a binder's body extends as far right as
# it can, so a quantifier prints at the loosest precedence, 0, and ~ and
# atoms bind tighter than every connective
_CONNECTIVES = {build: (tok, prec, right) for tok, (build, prec, right) in _BINARY.items()
                if build is not _iff}
_BINDERS = {quantifier: kw for kw, quantifier in _QUANTIFIERS.items()}
_PREC_NOT, _PREC_ATOM = 4, 5


def _print(f: Formula, ctx: int) -> str:
    match f:
        case Not(body):
            s, p = "~" + _print(body, _PREC_NOT), _PREC_NOT
        case And(left, right) | Or(left, right) | Implies(left, right):
            tok, p, right_grouping = _CONNECTIVES[type(f)]
            # the operand on the grouping side may sit at p, the other binds tighter
            s = f"{_print(left, p + right_grouping)} {tok} {_print(right, p + (not right_grouping))}"
        case Exists(var, body) | Forall(var, body):
            s, p = f"{_BINDERS[type(f), var.kind]} {var.name}: {_print(body, 0)}", 0
        case _:
            children(f)  # only atoms are left; anything else raises there
            s, p = f.text.format(f.x.name, f.y.name), _PREC_ATOM
    return f"({s})" if p < ctx else s


def print_formula(f: Formula) -> str:
    """Render an AST back to concrete syntax with minimal parentheses."""
    return _print(f, 0)


# --- normalization ---------------------------------------------------------

def normalize(f: Formula) -> Formula:
    """Rewrite to the {atom, Not, And, Exists} core, preserving semantics."""
    match f:
        case Not(body):
            return Not(normalize(body))
        case And(left, right):
            return And(normalize(left), normalize(right))
        case Or(left, right):
            return Not(And(Not(normalize(left)), Not(normalize(right))))
        case Implies(left, right):
            return Not(And(normalize(left), Not(normalize(right))))
        case Exists(var, body):
            return Exists(var, normalize(body))
        case Forall(var, body):
            return Not(Exists(var, Not(normalize(body))))
    children(f)  # only atoms are left, already normal; anything else raises there
    return f


# --- variable metadata -----------------------------------------------------

def free_vars(f: Formula) -> list[VarId]:
    """Free variables in first-occurrence order of a preorder traversal."""
    seen: list[VarId] = []

    def visit(node: Formula, bound: frozenset[str]):
        if isinstance(node, Atom):
            for v in (node.x, node.y):
                if v.name not in bound and v not in seen:
                    seen.append(v)
        elif isinstance(node, (Exists, Forall)):
            bound = bound | {node.var.name}
        # an & chain is split by a loop, so one of any length fits the stack
        for sub in conjuncts(node) if isinstance(node, And) else children(node):
            visit(sub, bound)

    visit(f, frozenset())
    return seen


def quantifier_count(f: Formula, kind: Kind | None = None) -> int:
    here = isinstance(f, (Exists, Forall)) and (kind is None or f.var.kind is kind)
    return int(here) + sum(quantifier_count(sub, kind) for sub in children(f))
