"""A small arithmetic expression language over the index variable z.

Coefficient sequences are written as expressions in one variable z, e.g.
"(z*(z+1))^(5/3)" or "4*(z^2-1)*z^(2/3)/3".  Precedence, loosest first:

    + -  <  * /  <  ^ (right-associative)  <  unary minus

Note that unary minus binds tighter than ^, so "-z^2" parses as (-z)^2.
Exponentiation requires a positive base unless the exponent is a literal
integer or a literal ratio of odd integers; odd/odd ratios use sign-preserving
semantics (see :func:`oscdelay.power.signed_pow`).  The builtin
spow(x, m, n) applies the sign-preserving power unconditionally;
pow(x, y) is the general positive-base power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, DomainError, LexError, ParseError

NUMBER = "number"
IDENT = "ident"
PLUS = "plus"
MINUS = "minus"
STAR = "star"
SLASH = "slash"
CARET = "caret"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"
EOF = "eof"

_SINGLE = {
    "+": PLUS,
    "-": MINUS,
    "*": STAR,
    "/": SLASH,
    "^": CARET,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
}

BUILTINS = {"spow": 3, "pow": 2}

MAX_DEPTH = 200


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    position: int


class Ast:
    """Base class for expression nodes; instances are immutable.  A root node caches
    its compiled forms (_compile) at first use, outside equality, hashing and pickles."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_forms"}


@dataclass(frozen=True)
class Literal(Ast):
    value: float


@dataclass(frozen=True)
class Var(Ast):
    """The index variable z."""


@dataclass(frozen=True)
class Unary(Ast):
    op: str
    child: Ast


@dataclass(frozen=True)
class Binary(Ast):
    op: str
    left: Ast
    right: Ast


@dataclass(frozen=True)
class Call(Ast):
    name: str
    args: tuple


def tokenize(text: str) -> list[Token]:
    """Tokenize an expression string; raises LexError on unknown characters."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE:
            tokens.append(Token(_SINGLE[c], c, i))
            i += 1
            continue
        if c.isdecimal():  # the digits float() reads: "²" is a digit, not a decimal
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdecimal():
                    raise LexError(i, "digit expected after decimal point")
                while i < n and text[i].isdecimal():
                    i += 1
            # optional exponent part; 'e' not followed by digits stays an ident
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdecimal():
                    while j < n and text[j].isdecimal():
                        j += 1
                    i = j
            tokens.append(Token(NUMBER, text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalpha() or text[i].isdecimal() or text[i] == "_"):
                i += 1
            tokens.append(Token(IDENT, text[start:i], start))
            continue
        raise LexError(i, f"unrecognized character {c!r}")
    tokens.append(Token(EOF, "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.position, what)
        return self.advance()

    def expression(self, depth: int = 0) -> Ast:
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        node = self.term(depth + 1)
        while self.peek().kind in (PLUS, MINUS):
            op = self.advance()
            rhs = self.term(depth + 1)
            node = Binary("+" if op.kind == PLUS else "-", node, rhs)
        return node

    def term(self, depth: int) -> Ast:
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        node = self.power(depth + 1)
        while self.peek().kind in (STAR, SLASH):
            op = self.advance()
            rhs = self.power(depth + 1)
            node = Binary("*" if op.kind == STAR else "/", node, rhs)
        return node

    def power(self, depth: int) -> Ast:
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        base = self.unary(depth + 1)
        if self.peek().kind == CARET:
            self.advance()
            # right-associative exponent
            expo = self.power(depth + 1)
            return Binary("^", base, expo)
        return base

    def unary(self, depth: int) -> Ast:
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        if self.peek().kind == MINUS:
            self.advance()
            return Unary("-", self.unary(depth + 1))
        return self.atom(depth + 1)

    def atom(self, depth: int) -> Ast:
        if depth > MAX_DEPTH:
            raise ParseError(self.peek().position, "shallower nesting")
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            return Literal(float(tok.lexeme))
        if tok.kind == IDENT:
            self.advance()
            if self.peek().kind == LPAREN:
                if tok.lexeme not in BUILTINS:
                    raise ParseError(tok.position, f"a known function, got {tok.lexeme!r}")
                self.advance()
                args = [self.expression(depth + 1)]
                while self.peek().kind == COMMA:
                    self.advance()
                    args.append(self.expression(depth + 1))
                self.expect(RPAREN, "')'")
                arity = BUILTINS[tok.lexeme]
                if len(args) != arity:
                    raise ParseError(tok.position, f"{arity} arguments to {tok.lexeme}")
                return Call(tok.lexeme, tuple(args))
            if tok.lexeme == "z":
                return Var()
            raise ParseError(tok.position, f"'z', got {tok.lexeme!r}")
        if tok.kind == LPAREN:
            self.advance()
            node = self.expression(depth + 1)
            self.expect(RPAREN, "')'")
            return node
        raise ParseError(tok.position, "a number, 'z', '-' or '('")


def parse(tokens: list[Token]) -> Ast:
    p = _Parser(tokens)
    node = p.expression()
    tok = p.peek()
    if tok.kind != EOF:
        raise ParseError(tok.position, "end of input")
    return node


def parse_expression(text: str) -> Ast:
    return parse(tokenize(text))


def pretty(ast: Ast) -> str:
    """Fully parenthesized rendering; re-parsing yields a structurally identical tree."""
    if isinstance(ast, Literal):
        v = ast.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(ast, Var):
        return "z"
    if isinstance(ast, Unary):
        return f"(-{pretty(ast.child)})"
    if isinstance(ast, Binary):
        return f"({pretty(ast.left)} {ast.op} {pretty(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.name}({', '.join(pretty(a) for a in ast.args)})"
    raise TypeError(f"not an Ast node: {ast!r}")


def _literal_ratio(node: Ast):
    """Return (a, b) for a literal integer or literal integer ratio exponent, else None."""
    neg = False
    if isinstance(node, Unary) and node.op == "-":
        neg = True
        node = node.child
    if isinstance(node, Literal) and node.value.is_integer():
        a = int(node.value)
        return (-a if neg else a, 1)
    if (
        isinstance(node, Binary)
        and node.op == "/"
        and isinstance(node.left, Literal)
        and isinstance(node.right, Literal)
        and node.left.value.is_integer()
        and node.right.value.is_integer()
        and node.right.value != 0
    ):
        a, b = int(node.left.value), int(node.right.value)
        return (-a if neg else a, b)
    return None


def _fpow(x, e):
    """x ** e; an overflow gives inf (-inf for an odd integer power of a negative base)."""
    try:
        return x ** e
    except OverflowError:  # only a Python float raises: numpy gives inf under errstate
        return -math.inf if x < 0 and e % 2 == 1 else math.inf


def _ratio_form(a: int, b: int, test):
    """base -> base**(a/b) for a literal integer ratio exponent, with sign handling."""
    if b < 0:
        a, b = -a, -b
    if b != 1 and a % 2 != 0 and b % 2 != 0:
        return _odd_form(a, b, test)
    # an integer power takes any base; an even ratio needs a non-negative one
    e, even = (a, False) if b == 1 else (a / b, True)
    negative = f"negative base with exponent {a}/{b}"
    zero = "zero base with negative " + ("integer exponent" if b == 1 else "exponent")

    def power(x):
        if even and test(x < 0):
            raise DomainError(negative)
        if a < 0 and test(x == 0):
            raise DivisionByZero(zero)
        return _fpow(x, e)
    return power


def _odd_form(a: int, b: int, test):
    """t -> sign(t) |t|^(a/b) for odd a and b > 0; the odd/odd powers of +-0 are +0.0."""
    e, scalar = a / b, test is bool

    def odd(x):
        if a < 0 and test(x == 0):
            raise DivisionByZero("zero base with negative exponent")
        if scalar:
            return math.copysign(_fpow(abs(x), e), x) if x != 0 else 0.0
        return np.sign(x) * _fpow(np.abs(x), e)
    return odd


def _nonliteral_pow(base, expo, test):
    """base**expo for a non-literal exponent: positive base required."""
    if test(base < 0):
        raise DomainError("negative base with non-literal exponent")
    if test((base == 0) & (expo < 0)):
        raise DivisionByZero("zero base with negative exponent")
    return _fpow(base, expo)


def _spow_form(x, m, n, test):
    """The form of spow(x, m, n), the sign-preserving power: x is the form of its
    argument, m and n the literal ratios of the other two."""
    if m is None or m[1] != 1 or n is None or n[1] != 1:
        error = DomainError("spow(x, m, n) requires integer literals m and n")
    elif n[0] == 0:
        error = DivisionByZero("spow with zero denominator")
    else:
        m, n = (m[0], n[0]) if n[0] > 0 else (-m[0], -n[0])
        if abs(m) % 2 != 0 and n % 2 != 0:
            odd = _odd_form(m, n, test)
            return lambda z: odd(x(z))
        error = DomainError(f"spow exponent {m}/{n}: both integers must be odd")

    def fail(z):
        x(z)  # the argument is evaluated, and may raise, first
        raise type(error)(*error.args)
    return fail


def _build(node: Ast, test):
    """One compiled form of node: test is bool for Python floats, np.any for arrays."""
    if isinstance(node, Literal):
        v = node.value
        return lambda z: v
    if isinstance(node, Var):
        return lambda z: z
    if isinstance(node, Unary):
        f = _build(node.child, test)
        return lambda z: -f(z)
    if isinstance(node, Binary):
        f = _build(node.left, test)
        ratio = _literal_ratio(node.right) if node.op == "^" else None
        if ratio is not None:
            power = _ratio_form(*ratio, test)
            return lambda z: power(f(z))
        g = _build(node.right, test)
        if node.op == "^":
            return lambda z: _nonliteral_pow(f(z), g(z), test)
        if node.op == "+":
            return lambda z: f(z) + g(z)
        if node.op == "-":
            return lambda z: f(z) - g(z)
        if node.op == "*":
            return lambda z: f(z) * g(z)
        if node.op == "/":
            def divisor(y):
                if test(y == 0):
                    raise DivisionByZero("division by zero")
                return y
            return lambda z: f(z) / divisor(g(z))
        raise TypeError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        if node.name == "spow":
            x, (m, n) = _build(node.args[0], test), map(_literal_ratio, node.args[1:])
            return _spow_form(x, m, n, test)
        if node.name == "pow":
            f, g = _build(node.args[0], test), _build(node.args[1], test)
            return lambda z: _nonliteral_pow(f(z), g(z), test)
        raise DomainError(f"unknown function {node.name!r}")
    raise TypeError(f"not an Ast node: {node!r}")


def _compile(ast: Ast) -> tuple:
    """(scalar form, array form) of ast: closures of z that resolve every literal
    exponent, sign rule and check once per node, cached on the root at first use.
    The scalar form runs on Python floats, the array form on numpy arrays.  Each
    check raises at evaluation, in the order the tree gives; a malformed tree
    raises here."""
    try:
        return ast._forms
    except AttributeError:
        object.__setattr__(ast, "_forms", (_build(ast, bool), _build(ast, np.any)))
        return ast._forms


# an overflowing power is +-inf and propagates in both forms; callers judge inf
def eval_at(ast: Ast, zeta) -> float:
    """Evaluate with z bound to the integer index zeta."""
    return float(_compile(ast)[0](float(zeta)))


def eval_values(ast: Ast, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an array of index values."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN follow the column contract
        out = _compile(ast)[1](np.asarray(z, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(z)).copy() if np.ndim(out) == 0 else np.asarray(out, dtype=float)
