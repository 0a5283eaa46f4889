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
    """Print an expression in the grammar; parse(render(e)) == canon-equal e.

    The text is ``StrPrinter({"order": "lex"})``'s with ``^`` for ``**`` and
    ``ln`` for ``log``.  The kernel's shapes (see :func:`_direct`) are
    written from the tree's args; every other tree goes through StrPrinter.
    """
    if not isinstance(e, sp.Basic):
        e = sp.sympify(e)
    out = _direct(e, str_order=False)
    if out is None:
        out = sp.StrPrinter({"order": "lex"}).doprint(e)
        out = out.replace("**", "^").replace("log(", "ln(")
    return out


def sympy_text(e) -> str:
    """``str(e)``, byte for byte: sympy's spelling, ``**`` and ``log``.

    The kernel's shapes are written from the tree's args by the printer
    that :func:`render` uses, in ``str``'s term order, and spelled with
    ``**`` (they hold no ``log``); every other tree, Floats included, is
    ``str(e)`` itself.
    """
    if not isinstance(e, sp.Basic):
        e = sp.sympify(e)
    out = _direct(e, str_order=True)
    return str(e) if out is None else out.replace("^", "**")


# The direct printer.  It follows StrPrinter's rules for these shapes:
#
# - a Mul's factors sort by sort_key: its Rational coefficient first, then
#   the symbol powers by the symbol's name, then a sum and a Pow(sum, -1);
#   a negative coefficient prints as a leading "-", |p| is the first
#   numerator factor, and q and the negative powers form the denominator,
#   "/d" for one factor and "/(d1*d2)" for more;
# - a sum's terms go in descending lex order of their exponent vectors
#   over the sum's symbols sorted by name, ties by the coefficient, and a
#   term that prints with a leading "-" joins as " - ";
# - in ``str``'s default order (``str_order``) a sum of a positive
#   Rational and a negative Rational times one factor prints the Rational
#   first, 1 - y, where the lex order of the grammar prints -y + 1;
# - a bare power prints as y^k, 1/y or y^(-k).


def _symbol_power(e):
    """(name, exponent) of a Symbol or of its integer power other than the
    0th and 1st (an unevaluated y^1 prints its exponent); else None."""
    if type(e) is sp.Symbol:
        return e.name, 1
    if type(e) is sp.Pow:
        base, k = e.args
        if type(base) is sp.Symbol and k.is_Integer and k.p not in (0, 1):
            return base.name, k.p
    return None


def _quotient(e):
    """The factors (coefficient, {name: exponent}, numerator sum,
    denominator sum) of e, a sum None when there is none: e is a Rational,
    a symbol power, Pow(sum, -1), or a Mul of an optional Rational first
    arg, symbol powers, at most one sum and at most one Pow(sum, -1).
    None for any other tree, an unevaluated Mul (1 as the first arg, a
    Number after it, a repeated symbol) included."""
    if e.is_Rational:
        return e, {}, None, None
    if type(e) is sp.Pow and type(e.base) is sp.Add and e.exp is sp.S.NegativeOne:
        return sp.S.One, {}, None, e.base
    if type(e) is not sp.Mul:
        power = _symbol_power(e)
        return None if power is None else (sp.S.One, dict((power,)), None, None)
    args = e.args
    coefficient = args[0]
    if coefficient.is_Rational:
        if coefficient is sp.S.One:
            return None
        args = args[1:]
    else:
        coefficient = sp.S.One
    powers, top, bottom = {}, None, None
    for a in args:
        power = _symbol_power(a)
        if power is not None:
            if power[0] in powers:
                return None
            powers[power[0]] = power[1]
        elif type(a) is sp.Add and top is None:
            top = a
        elif type(a) is sp.Pow and type(a.base) is sp.Add and a.exp is sp.S.NegativeOne and bottom is None:
            bottom = a.base
        else:
            return None
    return coefficient, powers, top, bottom


def _quotient_text(coefficient, powers, top=None, bottom=None) -> str:
    """The text StrPrinter gives the Mul of these factors: the sums as
    their texts."""
    sign, p, q = "", coefficient.p, coefficient.q
    if p < 0:
        sign, p = "-", -p
    num = [str(p)] if p != 1 else []
    den = [str(q)] if q != 1 else []
    for name in sorted(powers):
        k = powers[name]
        if k > 0:
            num.append(name if k == 1 else f"{name}^{k}")
        else:
            den.append(name if k == -1 else f"{name}^{-k}")
    if top is not None:
        num.append(f"({top})")
    if bottom is not None:
        den.append(f"({bottom})")
    out = sign + ("*".join(num) or "1")
    if len(den) == 1:
        return f"{out}/{den[0]}"
    return f"{out}/({'*'.join(den)})" if den else out


def _sum_text(e, str_order):
    """The text of a sum of monomials, else None."""
    terms, names = [], set()
    for t in e.args:
        monomial = _quotient(t)
        if monomial is None or monomial[2] is not None or monomial[3] is not None:
            return None
        terms.append((t, monomial[0], monomial[1]))
        names.update(monomial[1])
    order = sorted(names)
    terms.sort(key=lambda t: (tuple(-t[2].get(name, 0) for name in order), t[1]))
    if str_order and _rational_first(terms):
        terms.reverse()
    texts = [_power_text(t) if type(t) is sp.Pow else _quotient_text(c, powers) for t, c, powers in terms]
    return texts[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in texts[1:])


def _rational_first(terms) -> bool:
    """True for the lex-ordered (term, coefficient, powers) of c - r*t, c
    and r positive Rationals and t one symbol power: ``str`` prints them
    with c first (``Expr.as_ordered_terms`` with no order)."""
    if len(terms) != 2:
        return False
    (t, r, _), (c, _, _) = terms
    return c.is_Rational and c.p > 0 and type(t) is sp.Mul and len(t.args) == 2 and r.p < 0


def _power_text(e) -> str:
    """The text of a bare symbol power (not inside a Mul)."""
    name, k = _symbol_power(e)
    if k > 0:
        return f"{name}^{k}"
    return f"1/{name}" if k == -1 else f"{name}^({k})"


def _direct(e, str_order):
    """e's text when e has a kernel shape, else None: a Rational, a Symbol,
    an integer power of one, a sum of monomials (a Rational first arg times
    symbol powers), or a quotient as sympy's ``/`` builds it: a Rational
    times symbol powers times at most one such sum and at most one
    Pow(sum, -1)."""
    if type(e) is sp.Add:
        return _sum_text(e, str_order)
    parts = _quotient(e)
    if parts is None:
        return None
    coefficient, powers, top, bottom = parts
    if type(e) is sp.Pow and bottom is None:
        return _power_text(e)
    if top is not None:
        top = _sum_text(top, str_order)
        if top is None:
            return None
    if bottom is not None:
        bottom = _sum_text(bottom, str_order)
        if bottom is None:
            return None
    return _quotient_text(coefficient, powers, top, bottom)
