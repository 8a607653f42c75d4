"""The while-language with synchronous output: AST, parser, compiler to flat code.

Programs are deterministic and operate on a finite store.  The only
observable behaviour is the sequence of values emitted by ``out``
statements.  Release flags are write-once booleans that may appear solely
in ``release`` statements; the parser enforces that discipline so the
rest of the system can rely on it.

Concrete grammar (whitespace-insensitive, ``;`` separates statements)::

    P ::= "skip" | "out" E | "out" STRING | ID ":=" E | P ";" P
        | "if" E "then" "{" P "}" "else" "{" P "}"
        | "while" E "do" "{" P "}" | "release" ID
    E ::= literal | ID | "(" E ")" | "!" E | "-" E | E OP E | "hash" "(" E ")"
    OP ::= "&&" | "||" | "==" | "!=" | "<" | "<=" | ">=" | ">" | "+" | "-" | "*" | "mod"

Input nested more than ``MAX_DEPTH`` deep, each operator after the first in
a chain counting as a level, is refused with a ``ParseError``.

Syntax nodes, here and in ``logic``, and the ``Identifier`` and ``Program``
records are ``Node`` classes (``node.Node``) that name their fields in
``__slots__``, not dataclasses, so that importing the module compiles no
per-class source text; ``Code``, a record compared by identity, is a plain
slotted class.
"""

from __future__ import annotations

import operator
from functools import cached_property
from operator import itemgetter
from typing import Callable, Mapping

from .domain import Domain, Label
from .node import Node


class LangError(ValueError):
    """Semantic error in a program (flag misuse, bad literal, bad operator)."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# --------------------------------------------------------------------------
# Expressions


class Expr(Node):
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)
    value: object


class Var(Expr):
    __slots__ = ("name",)
    name: str


class Unary(Expr):
    __slots__ = ("op", "arg")
    op: str  # "!" | "-"
    arg: Expr


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")
    op: str
    lhs: Expr
    rhs: Expr


class HashCall(Expr):
    __slots__ = ("arg",)
    arg: Expr


INT_ONLY_OPS = {"<", "<=", ">", ">=", "+", "-", "*", "mod"}


def expr_ids(e: Expr) -> tuple[str, ...]:
    """Identifiers of an expression, in first-occurrence order, without
    recursion: a left operand's subtree is walked before the right's."""
    if type(e) is Var:
        return (e.name,)
    out: dict[str, None] = {}
    stack = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            out[node.name] = None
        elif kind is Binary:
            stack += (node.rhs, node.lhs)
        elif kind is Unary or kind is HashCall:
            stack.append(node.arg)
        elif kind is not Const:
            raise TypeError(f"not an expression: {node!r}")
    return tuple(out)


def compile_expr(e: Expr, dom: Domain) -> Callable[[Mapping], object]:
    """``e`` as a function of a name-to-value mapping; total on the domain.

    The expression is walked once and becomes a tree of closures (Feeley
    and Lapalme, "Using closures for code generation", 1987), so callers
    that evaluate it at many stores pay for the walk once.  Integer results
    wrap into the canonical range, comparisons and connectives yield the
    domain's encoding of tt/ff, and ``x mod 0`` is defined as ``x``.  A value
    is true when it is ``tt`` or a nonzero integer, which is Python's own
    truth test on both kinds of value.
    """
    tt, ff = dom.true_value, dom.false_value
    match e:
        case Const(v):
            value = dom.bool_value(v) if isinstance(v, bool) else v
            return lambda store: value
        case Var(name):
            return itemgetter(name)
        case Unary("!", arg):
            a = compile_expr(arg, dom)
            return lambda store: ff if a(store) else tt
        case Unary("-", arg):
            a, wrap = compile_expr(arg, dom), _wrap(dom)
            return lambda store: wrap(-a(store))
        case HashCall(arg):
            a = compile_expr(arg, dom)
            if dom.hash_table is not None:
                table = {v: dom.hash_value(v) for v in dom.values}
                return lambda store: table[a(store)]
            if dom.kind == "bool":
                return a  # the default hash is the identity on booleans
            wrap = _wrap(dom)
            return lambda store: wrap(3 * a(store))
        case Binary(op, lhs, rhs):
            a, b = compile_expr(lhs, dom), compile_expr(rhs, dom)
            match op:
                case "&&":
                    return lambda store: tt if a(store) and b(store) else ff
                case "||":
                    return lambda store: tt if a(store) or b(store) else ff
                case "mod":
                    wrap = _wrap(dom)

                    def mod(store):
                        x, y = a(store), b(store)
                        return wrap(x % y) if y != 0 else x
                    return mod
            if op in _COMPARE:
                test = _COMPARE[op]
                return lambda store: tt if test(a(store), b(store)) else ff
            if op in _ARITH:
                arith, wrap = _ARITH[op], _wrap(dom)
                return lambda store: wrap(arith(a(store), b(store)))
    raise TypeError(f"not an expression: {e!r}")


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _wrap(dom: Domain) -> Callable[[int], object]:
    """Wrap an integer into the domain's canonical range."""
    if dom.kind != "int":
        return dom.normalize  # raises: arithmetic is not boolean
    lo, size = dom.least, dom.size
    if lo == 0:
        return lambda i: i % size
    return lambda i: (i - lo) % size + lo


def validate_expr(e: Expr, dom: Domain, allowed: set[str] | None = None) -> None:
    """Check literals against the domain, operator shapes, and identifiers."""
    match e:
        case Const(v):
            # tt/ff literals are accepted everywhere as the truth encoding
            if not isinstance(v, bool) and v not in dom:
                raise LangError(f"literal {v!r} outside the {dom.spec()} domain")
        case Var(name):
            if allowed is not None and name not in allowed:
                raise LangError(f"unknown identifier {name!r}")
        case Unary(op, arg):
            if op == "-" and dom.kind == "bool":
                raise LangError("arithmetic negation is not boolean")
            validate_expr(arg, dom, allowed)
        case HashCall(arg):
            validate_expr(arg, dom, allowed)
        case Binary(op, lhs, rhs):
            if dom.kind == "bool" and op in INT_ONLY_OPS:
                raise LangError(f"operator {op!r} is not boolean")
            validate_expr(lhs, dom, allowed)
            validate_expr(rhs, dom, allowed)


# --------------------------------------------------------------------------
# Statements and programs


class Stmt(Node):
    __slots__ = ()


class Skip(Stmt):
    __slots__ = ()


class Out(Stmt):
    __slots__ = ("expr",)
    expr: Expr


class OutLit(Stmt):
    __slots__ = ("text",)
    text: str


class Assign(Stmt):
    __slots__ = ("name", "expr")
    name: str
    expr: Expr


class Seq(Stmt):
    __slots__ = ("first", "second")
    first: Stmt
    second: Stmt


class If(Stmt):
    __slots__ = ("guard", "then", "orelse")
    guard: Expr
    then: Stmt
    orelse: Stmt


class While(Stmt):
    __slots__ = ("guard", "body")
    guard: Expr
    body: Stmt


class Release(Stmt):
    __slots__ = ("flag",)
    flag: str


class Identifier(Node):
    """A store identifier of a program, and whether it is a release flag."""

    __slots__ = ("name", "is_flag")
    name: str
    is_flag: bool
    _defaults = {"is_flag": False}


class Program(Node):
    """A program's body and its store signature, in occurrence order.  Its
    source ``text``, when it has one, is not compared or hashed."""

    __slots__ = ("body", "signature", "text", "__dict__")
    body: Stmt
    signature: tuple[Identifier, ...]
    text: str | None
    _defaults = {"text": None}

    def __eq__(self, other):
        if other.__class__ is Program:
            return (self.body, self.signature) == (other.body, other.signature)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body, self.signature))

    # computed once per program; not fields, so equality and hashing ignore them
    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.signature if not i.is_flag)

    @cached_property
    def flags(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.signature if i.is_flag)


def _statements(s: Stmt) -> list[Stmt]:
    """The statements of a ``;`` chain, in order, however it is nested.

    Long programs are long ``Seq`` spines, so the walk uses a stack rather
    than recursion.
    """
    out: list[Stmt] = []
    stack = [s]
    while stack:
        s = stack.pop()
        if isinstance(s, Seq):
            stack.append(s.second)
            stack.append(s.first)
        else:
            out.append(s)
    return out


def _walk(body: Stmt):
    """Every statement other than ``;``, in source order, without recursion."""
    stack = [body]
    while stack:
        s = stack.pop()
        match s:
            case Seq(a, b):
                stack += (b, a)
                continue
            case If(_, then, orelse):
                stack += (orelse, then)
            case While(_, inner):
                stack.append(inner)
            case Skip() | Out() | OutLit() | Assign() | Release():
                pass
            case _:
                raise TypeError(f"not a statement: {s!r}")
        yield s


def program_from_body(body: Stmt, text: str | None = None) -> Program:
    """Wrap a statement, deriving the store signature in occurrence order.

    Enforces the release-flag discipline: a flag identifier appears only in
    ``release`` statements, never in expressions or assignment targets.
    """
    order: dict[str, None] = {}
    flag_names: set[str] = set()
    var_names: set[str] = set()
    for s in _walk(body):
        match s:
            case Release(flag):
                order.setdefault(flag)
                flag_names.add(flag)
                continue
            case Assign(name, _):
                order.setdefault(name)
                var_names.add(name)
        for e in _exprs(s):
            for name in expr_ids(e):
                order.setdefault(name)
                var_names.add(name)
    clash = flag_names & var_names
    if clash:
        name = sorted(clash)[0]
        raise LangError(f"release flag {name!r} used as an ordinary identifier")
    signature = tuple(Identifier(n, n in flag_names) for n in order)
    return Program(body, signature, text)


def _exprs(s: Stmt) -> tuple[Expr, ...]:
    """The expressions a statement evaluates itself (not its sub-statements)."""
    match s:
        case Out(expr) | Assign(_, expr):
            return (expr,)
        case If(guard, _, _) | While(guard, _):
            return (guard,)
    return ()


def validate_program(program: Program, dom: Domain) -> None:
    for s in _walk(program.body):
        for e in _exprs(s):
            validate_expr(e, dom)


class _AllLive(Exception):
    pass


def live_inputs(program: Program) -> frozenset[str]:
    """The ordinary identifiers whose initial value some run may read
    before writing it (live-variable analysis: Kildall, "A unified approach
    to global program optimization", POPL 1973).

    One forward pass carries the identifiers written on every path so far.
    An ``if`` writes what both of its branches write; a ``while`` writes
    nothing, since its body may not run, and its body is read once from
    the loop's entry: a later iteration starts from a superset of those
    writes.  The pass stops as soon as every input has been read.  Any
    other input is dead: runs that differ only in its initial value take
    the same steps and emit the same events.
    """
    live: set[str] = set()
    if program.variables:
        try:
            _live_block(program.body, frozenset(), live, len(program.variables))
        except _AllLive:
            pass
    return frozenset(live)


# The helpers of ``live_inputs`` and ``compile_program`` are module
# functions, not closures: a closure that calls itself sits in a reference
# cycle, which only the cyclic collector frees, with all it refers to.


def _live_block(body: Stmt, written: frozenset, live: set[str], inputs: int) -> frozenset:
    """Add to ``live`` what ``body`` reads before writing, given what is
    ``written`` on entry; return what is written on every path through it."""
    rest = [body]  # the ``;`` spine, walked only as far as the pass goes
    while rest:
        s = rest.pop()
        kind = type(s)  # not ``match``: every model build runs this pass
        if kind is Seq:
            rest += (s.second, s.first)
        elif kind is Assign:
            _live_read(s.expr, written, live, inputs)
            written |= {s.name}
        elif kind is Out:
            _live_read(s.expr, written, live, inputs)
        elif kind is If:
            _live_read(s.guard, written, live, inputs)
            written = (_live_block(s.then, written, live, inputs)
                       & _live_block(s.orelse, written, live, inputs))
        elif kind is While:
            _live_read(s.guard, written, live, inputs)
            _live_block(s.body, written, live, inputs)
    return written


def _live_read(e: Expr, written: frozenset, live: set[str], inputs: int) -> None:
    for name in expr_ids(e):
        if name not in written:
            live.add(name)
    if len(live) == inputs:
        raise _AllLive


# --------------------------------------------------------------------------
# Compiled programs: the small-step semantics


OUT, ASSIGN, BRANCH = "out", "assign", "branch"
EXIT = -1  # the program counter of a finished run


class Code:
    """A program compiled for one domain into flat code.

    ``instrs[pc]`` is ``(op, fn, name, next, other)``; ``fn`` is a compiled
    expression over the store.  One instruction is one step of a run:

    * ``OUT``: emit ``fn(store)``, go to ``next``.  ``out "text"`` emits its
      label the same way.
    * ``ASSIGN``: a new store with ``name`` set to ``fn(store)``, go to
      ``next``.  ``release r`` assigns tt to ``r``.
    * ``BRANCH``: go to ``next`` when ``fn(store)`` is true, else to
      ``other``.  One step, like ``if`` and each test of ``while``.

    ``skip`` and ``;`` compile to nothing.  A run starts at ``entry`` and
    terminates on reaching ``EXIT``.
    """

    __slots__ = ("instrs", "entry")

    def __init__(self, instrs: tuple[tuple, ...], entry: int):
        self.instrs = instrs
        self.entry = entry


def compile_program(program: Program, dom: Domain) -> Code:
    """Compile every statement once, each to the pc of its first step."""
    instrs: list[tuple] = []
    entry = _compile_block(program.body, EXIT, instrs, dom)
    return Code(tuple(instrs), entry)


def _compile_block(body: Stmt, nxt: int, instrs: list[tuple], dom: Domain) -> int:
    """The pc that runs ``body`` and then continues at ``nxt``."""
    for s in reversed(_statements(body)):
        nxt = _compile_statement(s, nxt, instrs, dom)
    return nxt


def _compile_statement(s: Stmt, nxt: int, instrs: list[tuple], dom: Domain) -> int:
    """Append the instructions of ``s``, which continues at ``nxt``, and
    return the pc of its first step."""
    match s:
        case Skip():
            return nxt
        case Out(expr):
            instr = (OUT, compile_expr(expr, dom), None, nxt, nxt)
        case OutLit(text):
            label = Label(text)
            instr = (OUT, lambda store: label, None, nxt, nxt)
        case Assign(name, expr):
            instr = (ASSIGN, compile_expr(expr, dom), name, nxt, nxt)
        case Release(flag):
            true = dom.true_value
            instr = (ASSIGN, lambda store: true, flag, nxt, nxt)
        case If(guard, then, orelse):
            yes = _compile_block(then, nxt, instrs, dom)
            no = _compile_block(orelse, nxt, instrs, dom)
            instr = (BRANCH, compile_expr(guard, dom), None, yes, no)
        case While(guard, body):
            head = len(instrs)  # the body loops back here
            instrs.append(None)
            instrs[head] = (BRANCH, compile_expr(guard, dom), None,
                            _compile_block(body, head, instrs, dom), nxt)
            return head
        case _:
            raise TypeError(f"not a statement: {s!r}")
    instrs.append(instr)
    return len(instrs) - 1


# --------------------------------------------------------------------------
# Parser


_KEYWORDS = {
    "skip", "out", "if", "then", "else", "while", "do", "release",
    "mod", "hash", "tt", "ff", "true", "false",
}

_PUNCT = (":=", "&&", "||", "==", "!=", "<=", ">=", "->", "<", ">", "+", "-",
          "*", "!", "(", ")", "{", "}", ";", ",", ".")

# How tightly each binary operator binds, loosest first; all group left.
_BINDING = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
            "+": 4, "-": 4, "*": 5, "mod": 5}
_COMPARISON = 3

# The deepest nesting of parentheses, unary operators, blocks and the
# formula connectives that nest (see ``logic.parse_formula``) a parser
# accepts.  Every later walk of the tree (validation, compiling, running,
# unparsing, formula evaluation) recurses through it within Python's
# default recursion limit.
MAX_DEPTH = 200


class _Token(Node):
    __slots__ = ("kind", "value", "line", "column")
    kind: str  # "id" | "int" | "string" | "punct" | "kw" | "eof"
    value: str
    line: int
    column: int


def _tokenize(text: str, primes: bool = False) -> list[_Token]:
    """Tokens of ``text``; with ``primes``, an identifier may end in primes
    (``x'``, ``x''``), as the formulas name quantified initial values."""
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c.isspace():
            i, col = i + 1, col + 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string literal", line, col)
            tokens.append(_Token("string", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while primes and j < n and text[j] == "'":
                j += 1
            word = text[i:j]
            tokens.append(_Token("kw" if word in _KEYWORDS else "id", word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def enter(self) -> None:
        """One level deeper, at the next token; a parse that returns from
        the level lowers ``depth`` again.  Refuses input nested past
        ``MAX_DEPTH``."""
        if self.depth == MAX_DEPTH:
            self.fail(f"input nested more than {MAX_DEPTH} deep")
        self.depth += 1

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            self.fail(f"expected {want!r}, found {tok.value or tok.kind!r}")
        return self.next()

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_kw(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.value == value

    # statements

    def sequence(self, stop: set[str]) -> Stmt:
        stmts = [self.statement()]
        while self.at_punct(";"):
            self.next()
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "punct" and tok.value in stop):
                break  # trailing semicolon
            stmts.append(self.statement())
        node = stmts[-1]
        for s in reversed(stmts[:-1]):
            node = Seq(s, node)
        return node

    def statement(self) -> Stmt:
        tok = self.peek()
        if self.at_kw("skip"):
            self.next()
            return Skip()
        if self.at_kw("out"):
            self.next()
            if self.peek().kind == "string":
                return OutLit(self.next().value)
            return Out(self.expression())
        if self.at_kw("if"):
            self.next()
            guard = self.expression()
            self.expect("kw", "then")
            then = self.block()
            self.expect("kw", "else")
            return If(guard, then, self.block())
        if self.at_kw("while"):
            self.next()
            guard = self.expression()
            self.expect("kw", "do")
            return While(guard, self.block())
        if self.at_kw("release"):
            self.next()
            name = self.expect("id")
            return Release(name.value)
        if tok.kind == "id":
            name = self.next()
            self.expect("punct", ":=")
            return Assign(name.value, self.expression())
        self.fail(f"expected a statement, found {tok.value or tok.kind!r}")

    def block(self) -> Stmt:
        self.enter()
        self.expect("punct", "{")
        body = self.sequence({"}"})
        self.depth -= 1
        self.expect("punct", "}")
        return body

    # expressions

    def expression(self, lowest: int = 1) -> Expr:
        """The operators binding at least as tightly as ``lowest``, by
        precedence climbing: one call per binding level the input uses,
        so a parenthesis costs three frames.  The tree of a chain is as
        deep as the chain, so each operator after the first is a level."""
        node = self.unary_expr()
        depth, chained, compared = self.depth, False, False
        while True:
            tok = self.peek()
            binding = _BINDING.get(tok.value) if tok.kind in ("punct", "kw") else None
            if binding is None or binding < lowest:
                self.depth = depth
                return node
            if binding == _COMPARISON:
                if compared:
                    self.fail("comparisons do not chain; parenthesize")
                compared = True
            if chained:
                self.enter()
            chained = True
            self.next()
            node = Binary(tok.value, node, self.expression(binding + 1))

    def cmp_expr(self) -> Expr:
        """An expression with no ``&&`` or ``||`` outside parentheses."""
        return self.expression(_COMPARISON)

    def unary_expr(self) -> Expr:
        if self.at_punct("!") or self.at_punct("-"):
            self.enter()
            op = self.next().value
            arg = self.unary_expr()
            self.depth -= 1
            if op == "!":
                return Unary("!", arg)
            if isinstance(arg, Const) and not isinstance(arg.value, bool):
                return Const(-arg.value)  # negative literal
            return Unary("-", arg)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(int(tok.value))
        if tok.kind == "kw" and tok.value in ("tt", "true"):
            self.next()
            return Const(True)
        if tok.kind == "kw" and tok.value in ("ff", "false"):
            self.next()
            return Const(False)
        if tok.kind == "id":
            self.next()
            return Var(tok.value)
        hashed = tok.kind == "kw" and tok.value == "hash"
        if hashed or self.at_punct("("):
            self.enter()
            if hashed:
                self.next()
            self.expect("punct", "(")
            node = self.expression()
            self.expect("punct", ")")
            self.depth -= 1
            return HashCall(node) if hashed else node
        self.fail(f"expected an expression, found {tok.value or tok.kind!r}")


def parse_expression(text: str) -> Expr:
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.value!r}")
    return node


def parse(text: str, dom: Domain | None = None) -> Program:
    """Parse a program; with a domain, also validate literals and operators.

    Boolean literals ``tt``/``ff``/``true``/``false`` are accepted in every
    domain and denote the domain's truth encoding.
    """
    parser = _Parser(_tokenize(text))
    body = parser.sequence(set())
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.value!r}")
    program = program_from_body(body, text)
    if dom is not None:
        validate_program(program, dom)
    return program


# --------------------------------------------------------------------------
# Unparser, used by reports and counterexample bundles


def expr_to_source(e: Expr, dom: Domain | None = None) -> str:
    def fmt(v) -> str:
        if isinstance(v, bool):
            return "tt" if v else "ff"
        if dom is not None:
            return dom.format_value(v)
        return str(v)

    match e:
        case Const(v):
            return fmt(v)
        case Var(name):
            return name
        case Unary(op, arg):
            return f"{op}{_paren(arg, dom)}"
        case HashCall(arg):
            return f"hash({expr_to_source(arg, dom)})"
        case Binary(op, lhs, rhs):
            return f"{_paren(lhs, dom)} {op} {_paren(rhs, dom)}"
    raise TypeError(f"not an expression: {e!r}")


def _paren(e: Expr, dom: Domain | None) -> str:
    src = expr_to_source(e, dom)
    return src if isinstance(e, (Const, Var, HashCall)) else f"({src})"


def to_source(s: Stmt, dom: Domain | None = None) -> str:
    # a list: join resuming a generator would spend a frame more per block
    return "; ".join([_stmt_source(x, dom) for x in _statements(s)])


def _stmt_source(s: Stmt, dom: Domain | None) -> str:
    match s:
        case Skip():
            return "skip"
        case Out(expr):
            return f"out {expr_to_source(expr, dom)}"
        case OutLit(text):
            return f'out "{text}"'
        case Assign(name, expr):
            return f"{name} := {expr_to_source(expr, dom)}"
        case If(guard, then, orelse):
            return (f"if {expr_to_source(guard, dom)} then {{ {to_source(then, dom)} }}"
                    f" else {{ {to_source(orelse, dom)} }}")
        case While(guard, body):
            return f"while {expr_to_source(guard, dom)} do {{ {to_source(body, dom)} }}"
        case Release(flag):
            return f"release {flag}"
    raise TypeError(f"not a statement: {s!r}")
