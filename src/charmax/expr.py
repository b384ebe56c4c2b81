"""Analytic expression trees: parsing, printing, evaluation, differentiation.

The expression language covers real literals, the variables t, x1..xn, u
(or a caller-supplied variable set), the binary operators + - * / ^, unary
minus, and the functions exp, log, sin, cos, sqrt.  Trees are immutable,
evaluation is pure, and domain violations (log of a non-positive number,
sqrt of a negative, division by zero, bad powers) are reported as typed
errors rather than silently turning into NaN.

Grammar notes: + - * / ^ all parse left-associatively, ^ binds tighter
than unary minus (so ``-x^2`` is ``-(x^2)``), and a ^-exponent may carry
leading minus signs (``2^-3``).

Hot loops do not walk the trees: ``compile`` turns a list of trees into
one generated straight-line function that computes each distinct subtree
once.  One walker feeds two back ends.  The scalar one is bit-identical
to ``evaluate``; the array one, behind ``evaluate_grid``, runs numpy
operations with a domain-violation mask per output and releases each
grid temporary after its last use.  The tree-walking ``evaluate``
remains the reference and the error path: scalar code re-runs it when a
domain violation or an arithmetic error interrupts it, so errors are
raised with the same type, node and binding.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
NEG = "neg"


class ExprError(Exception):
    """Base class for expression front-end errors."""


class ParseError(ExprError):
    """Syntax or identifier error, carrying the byte offset into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.reason = message


class EvalDomainError(ExprError):
    """A numeric domain violation, carrying the offending subexpression."""

    def __init__(self, reason: str, node: "Expr | None" = None, binding=None):
        self.reason = reason
        self.node = node
        self.binding = dict(binding) if binding is not None else None
        at = f" in {to_str(node)!r}" if node is not None else ""
        where = f" with {self.binding}" if self.binding else ""
        super().__init__(f"{reason}{at}{where}")


@dataclass(frozen=True)
class Expr:
    """Immutable expression node; the smart constructors build it folded."""

    def __str__(self):
        return to_str(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "neg" or one of FUNCTIONS
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Smart constructors: fold constant subtrees plus a few cheap identities.
# No deeper rewriting is attempted; derivative correctness is enforced by
# finite-difference tests, not by canonical forms.

def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Unary) and e.op == NEG:
        return e.arg
    return Unary(NEG, e)


def add(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value + r.value)
    if isinstance(l, Const) and l.value == 0.0:
        return r
    if isinstance(r, Const) and r.value == 0.0:
        return l
    return Binary("+", l, r)


def sub(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value - r.value)
    if isinstance(r, Const) and r.value == 0.0:
        return l
    if isinstance(l, Const) and l.value == 0.0:
        return neg(r)
    return Binary("-", l, r)


def mul(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value * r.value)
    if isinstance(l, Const):
        if l.value == 0.0:
            return Const(0.0)
        if l.value == 1.0:
            return r
        if l.value == -1.0:
            return neg(r)
    if isinstance(r, Const):
        if r.value == 0.0:
            return Const(0.0)
        if r.value == 1.0:
            return l
        if r.value == -1.0:
            return neg(l)
    return Binary("*", l, r)


def div(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Const) and isinstance(r, Const) and r.value != 0.0:
        return Const(l.value / r.value)
    if isinstance(r, Const):
        if r.value == 1.0:
            return l
        if r.value == -1.0:
            return neg(l)
    return Binary("/", l, r)


def pow_(l: Expr, r: Expr) -> Expr:
    if isinstance(r, Const):
        if r.value == 0.0:
            return Const(1.0)
        if r.value == 1.0:
            return l
        if isinstance(l, Const):
            try:
                return Const(_scalar_pow(l.value, r.value))
            except EvalDomainError:
                pass
    return Binary("^", l, r)


def func(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        try:
            return Const(_apply_unary(name, arg.value))
        except EvalDomainError:
            pass
    return Unary(name, arg)


_BUILD = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}


# ---------------------------------------------------------------------------
# Variable universes

def var_names(n: int) -> tuple[str, ...]:
    """Canonical variable order (t, x1..xn, u) for an n-space problem."""
    return ("t", *(f"x{k}" for k in range(1, n + 1)), "u")


def variables(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.arg)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    return frozenset()


# ---------------------------------------------------------------------------
# Parsing

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_XVAR_RE = re.compile(r"x\d+\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | one of "+-*/^()" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, m = 0, len(text)
    while i < m:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or c == ".":
            match = _NUM_RE.match(text, i)
            if not match:
                raise ParseError(f"malformed number starting with {c!r}", i)
            tokens.append(_Token("num", match.group(), i))
            i = match.end()
            continue
        if c.isalpha() or c == "_":
            match = _IDENT_RE.match(text, i)
            tokens.append(_Token("ident", match.group(), i))
            i = match.end()
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", m))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allowed: Mapping[str, str], n):
        self.tokens = tokens
        self.i = 0
        self.allowed = allowed
        self.n = n

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"syntax error: expected {what}", tok.pos)
        return self.next()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            inner = self.factor()
            # fold a sign directly into literal constants so that printed
            # negative constants round-trip structurally
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary(NEG, inner)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.peek().kind == "^":
            self.next()
            node = Binary("^", node, self.signed_atom())
        return node

    def signed_atom(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            inner = self.signed_atom()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary(NEG, inner)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.pos)
                self.next()
                arg = self.expr()
                self.expect(")", "')'")
                return Unary(name, arg)
            if name in FUNCTIONS:
                raise ParseError(f"expected '(' after function {name!r}",
                                 self.peek().pos)
            canonical = self.allowed.get(name)
            if canonical is None:
                if self.n is not None and _XVAR_RE.match(name):
                    raise ParseError(
                        f"variable {name!r} out of range for n={self.n}", tok.pos)
                raise ParseError(f"unknown identifier {name!r}", tok.pos)
            return Var(canonical)
        raise ParseError(
            "syntax error: expected a number, variable, function or '('", tok.pos)


def parse(text: str, n: int | None = None,
          allowed_variables: Iterable[str] | None = None) -> Expr:
    """Parse ``text`` over the variables {t, x1..xn, u} (alias x = x1 when
    n = 1) or over an explicit variable set.  Raises ParseError with the
    byte offset of the first problem."""
    if allowed_variables is not None:
        allowed = {v: v for v in allowed_variables}
    else:
        if n is None:
            raise ValueError("parse() needs n or an explicit variable set")
        if n < 0:
            raise ValueError("n must be >= 0")
        allowed = {v: v for v in var_names(n)}
        if n == 1:
            allowed["x"] = "x1"
    parser = _Parser(_tokenize(text), allowed, n)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("syntax error: expected an operator or end of input",
                         tok.pos)
    return node


# ---------------------------------------------------------------------------
# Printing (emits parse-compatible text; minimal parentheses)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return 5 if e.value >= 0 else _UNARY_PREC
    if isinstance(e, Var):
        return 5
    if isinstance(e, Unary):
        return _UNARY_PREC if e.op == NEG else 5
    return _PREC[e.op]


def _is_signed_atom(e: Expr) -> bool:
    # what the ^-exponent slot accepts without parentheses
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Unary):
        return _is_signed_atom(e.arg) if e.op == NEG else True
    return False


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) <= 1e16:
        return str(int(v))
    return repr(v)


def to_str(e: Expr) -> str:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == NEG:
            inner = to_str(e.arg)
            if _prec(e.arg) < _UNARY_PREC:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_str(e.arg)})"
    p = _PREC[e.op]
    ls = to_str(e.left)
    rs = to_str(e.right)
    if e.op == "^":
        if _prec(e.left) < p:
            ls = f"({ls})"
        if not _is_signed_atom(e.right):
            rs = f"({rs})"
        return f"{ls}^{rs}"
    if _prec(e.left) < p:
        ls = f"({ls})"
    if _prec(e.right) <= p:
        rs = f"({rs})"
    sep = f" {e.op} " if p == 1 else e.op
    return f"{ls}{sep}{rs}"


# ---------------------------------------------------------------------------
# Scalar evaluation

def _is_integral(v: float) -> bool:
    return math.isfinite(v) and v == math.floor(v) and abs(v) < 2.0**53


def _apply_unary(op: str, v: float) -> float:
    if op == NEG:
        return -v
    if op == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    if op == "log":
        if v <= 0.0:
            raise EvalDomainError(f"log of non-positive value {v!r}")
        return math.log(v)
    if op in ("sin", "cos"):
        if math.isinf(v):
            raise EvalDomainError(f"{op} of infinite value {v!r}")
        return math.sin(v) if op == "sin" else math.cos(v)
    if op == "sqrt":
        if v < 0.0:
            raise EvalDomainError(f"sqrt of negative value {v!r}")
        return math.sqrt(v)
    raise ValueError(f"unknown unary op {op!r}")


def _scalar_pow(b: float, e: float) -> float:
    if b == 0.0 and e < 0.0:
        raise EvalDomainError("zero base raised to a negative exponent")
    if b < 0.0 and not _is_integral(e):
        raise EvalDomainError(
            f"negative base {b!r} raised to non-integer exponent {e!r}")
    try:
        return float(b ** e)
    except OverflowError:
        sign = -1.0 if (b < 0.0 and int(e) % 2 == 1) else 1.0
        return sign * math.inf


def evaluate(e: Expr, binding: Mapping[str, float]) -> float:
    """Evaluate at a point.  Same binding always gives bit-identical output;
    domain violations raise EvalDomainError with the offending subtree."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(binding[e.name])
        except KeyError:
            raise EvalDomainError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Unary):
        v = evaluate(e.arg, binding)
        try:
            return _apply_unary(e.op, v)
        except EvalDomainError as err:
            raise EvalDomainError(err.reason, e, binding) from None
    l = evaluate(e.left, binding)
    r = evaluate(e.right, binding)
    op = e.op
    if op == "+":
        return l + r
    if op == "-":
        return l - r
    if op == "*":
        return l * r
    if op == "/":
        if r == 0.0:
            raise EvalDomainError("division by zero", e, binding)
        return l / r
    if op == "^":
        try:
            return _scalar_pow(l, r)
        except EvalDomainError as err:
            raise EvalDomainError(err.reason, e, binding) from None
    raise ValueError(f"unknown binary op {op!r}")


# ---------------------------------------------------------------------------
# Compiled evaluation: one walker, a scalar and an array back end

def compile(exprs: Sequence[Expr], names: Sequence[str], arrays: bool = False):
    """One generated function ``f(*values) -> tuple`` giving every tree of
    ``exprs`` at the point that binds ``names`` to ``values``.

    The straight-line code computes each distinct subtree once, in the
    tree's operation order.  The scalar back end uses the scalar
    operations of ``evaluate``, so every output is bit-identical to
    ``evaluate``.  Arguments go through ``float()``, as in ``evaluate``:
    an np.float64 would turn a division by zero into inf instead of an
    exception.  An ArithmeticError, ValueError or EvalDomainError in the
    fast code (division by zero, a math domain error, an overflow) makes
    it re-run ``evaluate`` output by output, which raises the same typed
    error or returns the same IEEE value (exp overflow gives inf).

    With ``arrays`` the walker emits numpy code instead (np.float64
    constants, np.power for ``^``; call it under ``np.errstate``), and
    each output is a pair ``(values, bad)``, ``bad`` being the OR of the
    domain-violation masks of its subtree (np.False_ if none; a mask that
    a constant operand makes all False is left out).  ``_release`` frees
    each temporary after its last use.
    """
    exprs, names = tuple(exprs), tuple(names)
    lib = np if arrays else math
    env = {name: getattr(lib, name) for name in
           ("exp", "log", "sin", "cos", "sqrt", "floor", "isinf")}
    env.update(pow=np.power if arrays else _scalar_pow, asarray=np.asarray,
               False_=np.False_,
               ERRORS=(ArithmeticError, ValueError, EvalDomainError))
    coerce: dict[str, str] = {}      # variable -> its coercion line
    body: list[str] = []
    temps: dict[str, str] = {}       # code -> the local holding its value
    consts: dict[str, str] = {}      # repr(value) -> the global holding it
    done: dict[int, str] = {}        # id(node) -> operand text
    bad: dict[str, str | None] = {}  # operand text -> its mask (arrays)

    def line(code: str) -> str:
        text = temps.get(code)
        if text is None:
            text = temps[code] = f"t{len(temps)}"
            body.append(f"{text} = {code}")
        return text

    def operand(e: Expr) -> str:
        if id(e) in done:
            return done[id(e)]
        children, viol = (), None
        if isinstance(e, Const):
            if (not arrays and type(e.value) is float
                    and math.isfinite(e.value)):
                text = f"({e.value!r})"
            else:
                text = consts.setdefault(repr(e.value), f"k{len(consts)}")
                env[text] = np.float64(e.value) if arrays else e.value
        elif isinstance(e, Var):
            if e.name not in names:
                raise ValueError(f"variable {e.name!r} is not in {names}")
            i = names.index(e.name)
            text = f"v{i}"
            coerce[e.name] = (f"{text} = asarray(a{i}, dtype=float)" if arrays
                              else f"{text} = float(a{i})")
        else:
            if isinstance(e, Unary):
                if e.op != NEG and e.op not in FUNCTIONS:
                    raise ValueError(f"unknown unary op {e.op!r}")
                a = operand(e.arg)
                children = (a,)
                code = f"-{a}" if e.op == NEG else f"{e.op}({a})"
                viol = {"log": f"{a} <= 0.0", "sqrt": f"{a} < 0.0",
                        "sin": f"isinf({a})", "cos": f"isinf({a})"}.get(e.op)
            else:
                if e.op not in ("+", "-", "*", "/", "^"):
                    raise ValueError(f"unknown binary op {e.op!r}")
                l, r = children = (operand(e.left), operand(e.right))
                if e.op != "^":
                    code = f"{l} {e.op} {r}"
                elif not arrays and isinstance(e.right, Const) \
                        and _is_integral(e.right.value):
                    code = f"{l} ** {r}"
                else:
                    code = f"pow({l}, {r})"
                if e.op == "/" and (not isinstance(e.right, Const)
                                    or e.right.value == 0.0):
                    viol = f"{r} == 0.0"
                elif e.op == "^" and isinstance(e.right, Const):
                    # the exponent's half of the test is decided here, so
                    # no all-False mask is built (or kept, or ORed)
                    c = e.right.value
                    viol = " | ".join([f"({l} < 0.0)"] * bool(c != np.floor(c))
                                      + [f"({l} == 0.0)"] * bool(c < 0.0))
                elif e.op == "^":
                    viol = (f"(({l} < 0.0) & ({r} != floor({r}))) "
                            f"| (({l} == 0.0) & ({r} < 0.0))")
            text = line(code)
        if arrays:  # the OR of this node's mask and its children's
            masks = [*dict.fromkeys(m for m in (*map(bad.get, children),
                                                viol and line(viol)) if m)]
            bad[text] = (line(" | ".join(masks)) if len(masks) > 1
                         else next(iter(masks), None))
        done[id(e)] = text
        return text

    outs = [operand(e) for e in exprs]
    args = "".join(f"a{i}, " for i in range(len(names)))
    if arrays:
        results = "".join(f"({o}, {bad[o] or 'False_'}), " for o in outs)
        lines = _release([*coerce.values(), *body, f"return ({results})"])
        source = "".join(f"    {line}\n" for line in lines)
    else:
        def fallback(values):
            binding = dict(zip(names, values))
            return tuple([evaluate(e, binding) for e in exprs])

        env["fallback"] = fallback
        results = "".join(f"{o}, " for o in outs)
        lines = [*coerce.values(), *body, f"return ({results})"]
        source = ("    try:\n" + "".join(f"        {line}\n" for line in lines)
                  + f"    except ERRORS:\n        return fallback(({args}))\n")
    exec(f"def compiled({args}):\n" + source, env)
    return env["compiled"]


def output_rows(outputs, shape):
    """The ``(values, bad)`` pairs of an array-compiled function at
    ``shape``, where compile gave 0-d ones (constants, no domain test)."""
    return [tuple(v if np.ndim(v) else np.full(shape, v) for v in pair)
            for pair in outputs]


_TEMP = re.compile(r"\bt\d+\b")


def _release(lines: list[str]) -> list[str]:
    """Array code that frees each temporary as soon as it can: one that
    only the next line uses is written into it, so numpy may compute in
    its buffer (temporary elision); any other gets a ``del`` after the
    line that last uses it.  The last line, the return, takes no
    temporary in: that measured a higher peak RSS (heap placement)."""
    uses = Counter(name for text in lines
                   for name in _TEMP.findall(text.split(" = ", 1)[-1]))
    merged: list[str] = []
    for text in lines[:-1]:
        name, _, code = merged[-1].partition(" = ") if merged else ("",) * 3
        if uses[name] == 1 and re.search(rf"\b{name}\b", text):
            merged[-1] = re.sub(rf"\b{name}\b", f"({code})", text)
        else:
            merged.append(text)
    out, seen = [lines[-1]], set(_TEMP.findall(lines[-1]))
    for text in reversed(merged):
        dead = [n for n in dict.fromkeys(_TEMP.findall(text)) if n not in seen]
        seen.update(dead)
        out[:0] = [text, f"del {', '.join(dead)}"] if dead else [text]
    return out


def evaluate_grid(e: Expr | Callable, binding: Mapping[str, np.ndarray]):
    """Evaluate over the arrays of ``binding``, by ``compile``'s array back
    end.  ``e`` is what ``compile(trees, names, arrays=True)`` returned for
    the names of ``binding``, so that subtrees the trees share are computed
    once and a caller that evaluates them on many grids compiles them
    once; a tree is compiled here as the one-output form of ``[e]``.

    Returns one pair (values, valid) per output, both of the shape the
    bound arrays broadcast to, where valid marks points whose evaluation
    hit no domain violation and produced a finite number.  Values at
    invalid points follow IEEE semantics (inf/nan) and must not be trusted.
    """
    shape = np.broadcast_shapes(*map(np.shape, binding.values()))
    if isinstance(e, Expr):
        e = compile([e], tuple(binding), arrays=True)
    with np.errstate(all="ignore"):
        outputs = [(np.asarray(vals, dtype=float), bad)
                   for vals, bad in e(*binding.values())]
    return [(np.broadcast_to(vals, shape),
             np.broadcast_to(np.isfinite(vals) & ~bad, shape))
            for vals, bad in outputs]


# ---------------------------------------------------------------------------
# Differentiation and substitution

def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with constant subtrees folded.

    A ^ with non-constant exponent is rewritten through exp(r*log(l))
    before the chain rule is applied.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        a = e.arg
        da = diff(a, var)
        if e.op == NEG:
            return neg(da)
        if e.op == "exp":
            return mul(Unary("exp", a), da)
        if e.op == "log":
            return div(da, a)
        if e.op == "sin":
            return mul(func("cos", a), da)
        if e.op == "cos":
            return neg(mul(func("sin", a), da))
        if e.op == "sqrt":
            return div(da, mul(Const(2.0), Unary("sqrt", a)))
        raise ValueError(f"unknown unary op {e.op!r}")
    l, r = e.left, e.right
    dl = diff(l, var)
    dr = diff(r, var)
    op = e.op
    if op == "+":
        return add(dl, dr)
    if op == "-":
        return sub(dl, dr)
    if op == "*":
        return add(mul(dl, r), mul(l, dr))
    if op == "/":
        return div(sub(mul(dl, r), mul(l, dr)), pow_(r, Const(2.0)))
    if op == "^":
        if isinstance(r, Const):
            c = r.value
            return mul(mul(Const(c), pow_(l, Const(c - 1.0))), dl)
        rewritten = Unary("exp", mul(r, func("log", l)))
        inner = add(mul(dr, func("log", l)), div(mul(r, dl), l))
        return mul(rewritten, inner)
    raise ValueError(f"unknown binary op {op!r}")


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (constant subtrees get folded)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        inner = substitute(e.arg, mapping)
        return neg(inner) if e.op == NEG else func(e.op, inner)
    return _BUILD[e.op](substitute(e.left, mapping), substitute(e.right, mapping))
