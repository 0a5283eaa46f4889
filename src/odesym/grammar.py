"""Text grammar for kernel expressions.

Identifiers: x, y, y1..y24 (jet orders), u, v, q and their derivative forms
u1, q2, ..., parameters k1, k2, k3, lam, theta, alpha, a0..a3.  Operators
+ - * / ^ with the usual precedence, ^ binding tightest and associating to
the right.  Functions: ln(), exp(), sqrt().  Numbers are exact: integers,
ratios via /, decimals converted to rationals.
"""

from __future__ import annotations

import re

import sympy as sp

from . import exprcore

_FUNCTIONS = {"ln": sp.log, "exp": sp.exp, "sqrt": sp.sqrt}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ParseError(ValueError):
    """Syntax or identifier error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            line += text.count("\n", pos, bad_pos)
            col = bad_pos - (text.rfind("\n", 0, bad_pos) + 1) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        line += text.count("\n", pos, m.start(m.lastgroup))
        start = m.start(m.lastgroup)
        col = start - (text.rfind("\n", 0, start) + 1) + 1
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), line, col))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            self.error(f"expected {op!r}", tok)

    def parse(self) -> sp.Expr:
        e = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected trailing {tok.text!r}", tok)
        return e

    def sum(self):
        e = self.product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.product()
            e = e + rhs if op == "+" else e - rhs
        return e

    def product(self):
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            e = self.unary()
            return e if tok.text == "+" else -e
        return self.power()

    def power(self):
        base = self.primary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            return base ** self.unary()
        return base

    def primary(self):
        tok = self.next()
        if tok.kind == "num":
            if "." in tok.text:
                return sp.Rational(tok.text)
            return sp.Integer(tok.text)
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return _FUNCTIONS[tok.text](arg)
            sym = exprcore.resolve_name(tok.text)
            if sym is None:
                self.error(f"unknown identifier {tok.text!r}", tok)
            return sym
        if tok.kind == "op" and tok.text == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        self.error("expected a number, identifier or '('", tok)


def parse(text: str) -> sp.Expr:
    """Parse grammar text into a kernel expression."""
    return _Parser(_tokenize(text)).parse()


def render(e) -> str:
    """Print an expression in the grammar; parse(render(e)) == canon-equal e."""
    out = sp.StrPrinter({"order": "lex"}).doprint(sp.sympify(e))
    return out.replace("**", "^").replace("log(", "ln(")
