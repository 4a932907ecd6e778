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
    """Base class for expression nodes; instances are immutable."""


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
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise LexError(i, "digit expected after decimal point")
                while i < n and text[i].isdigit():
                    i += 1
            # optional exponent part; 'e' not followed by digits stays an ident
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    while j < n and text[j].isdigit():
                        j += 1
                    i = j
            tokens.append(Token(NUMBER, text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
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


def _any(x) -> bool:
    return bool(np.any(x))


def _ratio_pow(base, a: int, b: int):
    """base**(a/b) for a literal integer ratio exponent, with sign handling."""
    if b < 0:
        a, b = -a, -b
    if b == 1:
        if a < 0 and _any(base == 0):
            raise DivisionByZero("zero base with negative integer exponent")
        return base ** a
    if a % 2 != 0 and b % 2 != 0:
        # odd/odd ratio: sign-preserving power
        if a < 0 and _any(base == 0):
            raise DivisionByZero("zero base with negative exponent")
        return np.sign(base) * np.abs(base) ** (a / b)
    # even numerator or even denominator: positive base required
    if _any(base < 0):
        raise DomainError(f"negative base with exponent {a}/{b}")
    if a < 0 and _any(base == 0):
        raise DivisionByZero("zero base with negative exponent")
    return base ** (a / b)


def _general_pow(base, expo):
    """base**expo for a non-literal exponent: positive base required."""
    if _any(base < 0):
        raise DomainError("negative base with non-literal exponent")
    if _any(np.logical_and(np.asarray(base) == 0, np.asarray(expo) < 0)):
        raise DivisionByZero("zero base with negative exponent")
    return base ** expo


def _eval(ast: Ast, z):
    if isinstance(ast, Literal):
        return ast.value
    if isinstance(ast, Var):
        return z
    if isinstance(ast, Unary):
        return -_eval(ast.child, z)
    if isinstance(ast, Binary):
        if ast.op == "^":
            base = _eval(ast.left, z)
            ratio = _literal_ratio(ast.right)
            if ratio is not None:
                return _ratio_pow(base, *ratio)
            return _general_pow(base, _eval(ast.right, z))
        left = _eval(ast.left, z)
        right = _eval(ast.right, z)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        if ast.op == "/":
            if _any(right == 0):
                raise DivisionByZero("division by zero")
            return left / right
        raise TypeError(f"unknown operator {ast.op!r}")
    if isinstance(ast, Call):
        if ast.name == "spow":
            x = _eval(ast.args[0], z)
            m = _literal_ratio(ast.args[1])
            n = _literal_ratio(ast.args[2])
            if m is None or m[1] != 1 or n is None or n[1] != 1:
                raise DomainError("spow(x, m, n) requires integer literals m and n")
            return _ratio_pow_signed(x, m[0], n[0])
        if ast.name == "pow":
            base = _eval(ast.args[0], z)
            return _general_pow(base, _eval(ast.args[1], z))
        raise DomainError(f"unknown function {ast.name!r}")
    raise TypeError(f"not an Ast node: {ast!r}")


def _ratio_pow_signed(base, m: int, n: int):
    """Unconditional sign-preserving power for spow(x, m, n)."""
    if n == 0:
        raise DivisionByZero("spow with zero denominator")
    if n < 0:
        m, n = -m, -n
    if abs(m) % 2 == 0 or n % 2 == 0:
        raise DomainError(f"spow exponent {m}/{n}: both integers must be odd")
    if m < 0 and _any(base == 0):
        raise DivisionByZero("zero base with negative exponent")
    return np.sign(base) * np.abs(base) ** (m / n)


# an overflow anywhere in an evaluation gives inf, not a numpy warning; callers judge inf
def eval_at(ast: Ast, zeta) -> float:
    """Evaluate with z bound to the integer index zeta."""
    with np.errstate(over="ignore"):
        return float(_eval(ast, float(zeta)))


def eval_values(ast: Ast, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an array of index values."""
    with np.errstate(over="ignore"):
        out = _eval(ast, np.asarray(z, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(z)).copy() if np.ndim(out) == 0 else np.asarray(out, dtype=float)
