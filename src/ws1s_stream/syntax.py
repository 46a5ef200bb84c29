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


@dataclass(frozen=True)
class VarId:
    name: str
    kind: Kind

    _NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

    def __post_init__(self):
        if not self._NAME_RE.match(self.name) or self.name in _KEYWORDS:
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


# --- tokenizer -------------------------------------------------------------

_KEYWORDS = {"ex1", "ex2", "all1", "all2", "in", "sub"}
_RELATIONS = {"in": In, "sub": Sub, "<": Less, "=": EqFo}  # "x = y + 1" is Succ

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<num>[0-9]+)
      | (?P<iff><->)
      | (?P<arrow>->)
      | (?P<op>[()&|~<=+:])
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
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, "a token", text[pos])
        lexeme = m.group(0)
        if m.lastgroup == "ws":
            for ch in lexeme:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
        else:
            if m.lastgroup == "ident":
                ttype = "kw" if lexeme in _KEYWORDS else "ident"
            else:  # operators, "<->" and "->" included, are typed by their text
                ttype = "num" if m.lastgroup == "num" else lexeme
            tokens.append(_Token(ttype, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
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

    def formula(self) -> Formula:
        left = self.implies()
        while self.peek().type == "<->":
            self.take("<->")
            right = self.implies()
            left = And(Implies(left, right), Implies(right, left))
        return left

    def implies(self) -> Formula:
        left = self.or_()
        if self.peek().type == "->":
            self.take("->")
            return Implies(left, self.implies())
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.peek().type == "|":
            self.take("|")
            left = Or(left, self.and_())
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.peek().type == "&":
            self.take("&")
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.type == "~":
            self.take("~")
            return Not(self.unary())
        if tok.type == "kw" and tok.text in ("ex1", "ex2", "all1", "all2"):
            return self.quantified()
        return self.atom()

    def quantified(self) -> Formula:
        kw = self.take("kw")
        name_tok = self.take("ident")
        name = name_tok.text
        # a name bound in a sibling scope may be bound again; one in scope
        # or already used free may not
        if name in self.scope or name in self.free_seen:
            raise ParseError(name_tok.line, name_tok.col,
                             "a fresh variable name (shadowing is not allowed)", name)
        kind = Kind.FIRST_ORDER if kw.text.endswith("1") else Kind.SECOND_ORDER
        var = VarId(name, kind)
        self.take(":")
        self.scope[name] = var
        self.binder_names.add(name)
        try:
            body = self.formula()
        finally:
            del self.scope[name]
        return Exists(var, body) if kw.text.startswith("ex") else Forall(var, body)

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

_PREC_QUANT = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5


def _print(f: Formula, ctx: int) -> str:
    match f:
        case Not(body):
            s, p = "~" + _print(body, _PREC_NOT), _PREC_NOT
        case And(left, right):
            s, p = f"{_print(left, _PREC_AND)} & {_print(right, _PREC_AND + 1)}", _PREC_AND
        case Or(left, right):
            s, p = f"{_print(left, _PREC_OR)} | {_print(right, _PREC_OR + 1)}", _PREC_OR
        case Implies(left, right):
            s, p = f"{_print(left, _PREC_IMPLIES + 1)} -> {_print(right, _PREC_IMPLIES)}", _PREC_IMPLIES
        case Exists(var, body) | Forall(var, body):
            kw = ("ex" if isinstance(f, Exists) else "all") + \
                ("1" if var.kind is Kind.FIRST_ORDER else "2")
            s, p = f"{kw} {var.name}: {_print(body, _PREC_QUANT)}", _PREC_QUANT
        case _:
            children(f)  # only atoms are left; anything else raises there
            s, p = f.text.format(f.x.name, f.y.name), _PREC_ATOM
    return f"({s})" if p < ctx else s


def print_formula(f: Formula) -> str:
    """Render an AST back to concrete syntax with minimal parentheses."""
    return _print(f, _PREC_QUANT)


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
        for sub in children(node):
            visit(sub, bound)

    visit(f, frozenset())
    return seen


def quantifier_count(f: Formula, kind: Kind | None = None) -> int:
    here = isinstance(f, (Exists, Forall)) and (kind is None or f.var.kind is kind)
    return int(here) + sum(quantifier_count(sub, kind) for sub in children(f))
