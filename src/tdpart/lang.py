"""Mini imperative language: AST, parser, lowering to basic blocks, validation.

Source programs (.tdp) declare symbolic integer inputs with bounded domains
and manipulate signed 64-bit integers. Two concrete syntaxes parse to the
same Program value: a structured form (if/else, while) that is lowered to
basic blocks at parse time, and an explicit block form which is what the
canonical printer emits. parse(print(p)) == p for any valid program p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

DEFAULT_DOMAIN_CAP = 65536

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node:
    """Base of the expression nodes. Nodes are immutable and shared: an
    expression built in a loop reuses its previous value as an operand. So
    what is derived from a node is kept in these slots, filled in on first
    use (through object.__setattr__, as the nodes are frozen) and built from
    the operands' values. Slots, unlike attributes added to each node's
    __dict__, cost no dictionary per node."""

    __slots__ = (
        "_text", "_reads",  # expr_text and reads, below
        # owned by solve: _affine, _linear and _revise
        "_solve_affine", "_solve_linear", "_solve_revise",
    )


@dataclass(frozen=True, slots=True)
class Const(_Node):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Var(_Node):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Unary(_Node):
    op: str  # 'not' | 'neg'
    operand: Expr

    def __str__(self) -> str:
        return expr_text(self)


@dataclass(frozen=True, slots=True)
class Binary(_Node):
    op: str  # + - * < <= > >= == != and or
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return expr_text(self)


Expr = Const | Var | Unary | Binary

ARITH_OPS = ("+", "-", "*")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGIC_OPS = ("and", "or")


def expr_text(e: Expr) -> str:
    """Canonical text; reparsing it yields an equal Expr."""
    try:
        return e._text
    except AttributeError:
        pass
    if isinstance(e, Binary):
        sep = f" {e.op} " if e.op in LOGIC_OPS else e.op
        t = f"({expr_text(e.left)}{sep}{expr_text(e.right)})"
    elif isinstance(e, Unary):
        t = ("!" if e.op == "not" else "-") + expr_text(e.operand)
    else:
        t = str(e)
    object.__setattr__(e, "_text", t)
    return t


# one shared copy of each distinct input set, kept for the life of the
# process. It grows with the distinct sets of input names, not with the
# programs or paths (4,000 generated corpus programs give 17 sets); a copy
# per node raised the threads corpus benchmark's peak RSS by ~0.6 MB.
_INPUT_SETS: dict[frozenset[str], frozenset[str]] = {}
_NO_READS: frozenset[str] = frozenset()


def reads(e: Expr) -> frozenset[str]:
    """Variable names mentioned anywhere in the expression."""
    try:
        return e._reads
    except AttributeError:
        pass
    if isinstance(e, Binary):
        a, b = reads(e.left), reads(e.right)
        if b <= a:
            r = a
        elif a <= b:
            r = b
        else:
            r = a | b
            r = _INPUT_SETS.setdefault(r, r)
    elif isinstance(e, Unary):
        r = reads(e.operand)
    elif isinstance(e, Var):
        r = frozenset((e.name,))
        r = _INPUT_SETS.setdefault(r, r)
    else:
        r = _NO_READS
    object.__setattr__(e, "_reads", r)
    return r


# ---------------------------------------------------------------------------
# Instructions and program structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Branch:
    cond: Expr
    on_true: int
    on_false: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Jump:
    target: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Exit:
    code: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Error:
    label: str
    line: int = field(default=0, compare=False)


Terminator = Branch | Jump | Exit | Error


@dataclass(frozen=True)
class BasicBlock:
    body: tuple[Assign, ...]
    term: Terminator


@dataclass(frozen=True)
class SymDecl:
    name: str
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)


@dataclass(frozen=True)
class Program:
    name: str
    inputs: tuple[SymDecl, ...]
    blocks: tuple[BasicBlock, ...]
    # entry is always block 0


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<punct><=|>=|==|!=|[-+*<>=!;(){}\[\],:])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "program", "sym", "in", "if", "else", "while", "exit", "error",
    "block", "branch", "jump", "and", "or",
}


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'ident' | 'string' | 'punct' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            toks.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[Token], domain_cap: int):
        self.toks = toks
        self.i = 0
        self.domain_cap = domain_cap

    # -- token helpers

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def _fail(self, msg: str) -> ParseError:
        t = self.cur
        return ParseError(msg, t.line, t.col)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.cur
        if t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            want = text if text is not None else kind
            raise self._fail(f"expected {want!r}, got {self.cur.text!r}")
        return t

    # -- top level

    def parse(self) -> Program:
        self.expect("kw", "program")
        name = self.expect("ident").text
        self.expect("punct", ";")
        inputs = []
        while self.cur.kind == "kw" and self.cur.text == "sym":
            inputs.append(self.sym_decl())
        if self.cur.kind == "kw" and self.cur.text == "block":
            blocks = self.block_form()
        else:
            blocks = self.structured_form()
        self.expect("eof")
        return Program(name, tuple(inputs), tuple(blocks))

    def sym_decl(self) -> SymDecl:
        kw = self.expect("kw", "sym")
        name = self.expect("ident").text
        self.expect("kw", "in")
        self.expect("punct", "[")
        lo = self.int_literal()
        self.expect("punct", ",")
        hi = self.int_literal()
        self.expect("punct", "]")
        self.expect("punct", ";")
        if hi - lo + 1 > self.domain_cap:
            raise ParseError(
                f"domain cap exceeded for {name} ({hi - lo + 1} > {self.domain_cap})",
                kw.line, kw.col,
            )
        return SymDecl(name, lo, hi)

    def int_literal(self) -> int:
        neg = self.accept("punct", "-") is not None
        t = self.expect("int")
        v = -int(t.text) if neg else int(t.text)
        if not INT64_MIN <= v <= INT64_MAX:
            raise ParseError(f"integer literal out of range: {v}", t.line, t.col)
        return v

    # -- expressions (precedence: or < and < comparison < addsub < mul < unary)

    def expr(self) -> Expr:
        return self.expr_or()

    def expr_or(self) -> Expr:
        e = self.expr_and()
        while self.accept("kw", "or"):
            e = Binary("or", e, self.expr_and())
        return e

    def expr_and(self) -> Expr:
        e = self.expr_cmp()
        while self.accept("kw", "and"):
            e = Binary("and", e, self.expr_cmp())
        return e

    def expr_cmp(self) -> Expr:
        e = self.expr_add()
        while self.cur.kind == "punct" and self.cur.text in CMP_OPS:
            op = self.cur.text
            self.i += 1
            e = Binary(op, e, self.expr_add())
        return e

    def expr_add(self) -> Expr:
        e = self.expr_mul()
        while self.cur.kind == "punct" and self.cur.text in ("+", "-"):
            op = self.cur.text
            self.i += 1
            e = Binary(op, e, self.expr_mul())
        return e

    def expr_mul(self) -> Expr:
        e = self.expr_unary()
        while self.accept("punct", "*"):
            e = Binary("*", e, self.expr_unary())
        return e

    def expr_unary(self) -> Expr:
        if self.accept("punct", "!"):
            return Unary("not", self.expr_unary())
        if self.accept("punct", "-"):
            return Unary("neg", self.expr_unary())
        return self.expr_atom()

    def expr_atom(self) -> Expr:
        t = self.cur
        if t.kind == "int":
            self.i += 1
            v = int(t.text)
            if v > INT64_MAX:
                raise ParseError(f"integer literal out of range: {v}", t.line, t.col)
            return Const(v)
        if t.kind == "ident":
            self.i += 1
            return Var(t.text)
        if self.accept("punct", "("):
            e = self.expr()
            self.expect("punct", ")")
            return e
        raise self._fail(f"expected expression, got {t.text!r}")

    # -- structured form, lowered to blocks on the fly

    def structured_form(self) -> list[BasicBlock]:
        builder = _BlockBuilder()
        stmts = []
        while self.cur.kind != "eof":
            stmts.append(self.stmt())
        entry = builder.new_block()
        open_end = self._lower_stmts(stmts, entry, builder)
        if open_end is not None:
            builder.seal(open_end, Exit(0))
        return builder.finish()

    def stmt(self):
        t = self.cur
        if t.kind == "kw" and t.text == "if":
            self.i += 1
            self.expect("punct", "(")
            cond = self.expr()
            self.expect("punct", ")")
            then = self.stmt_block()
            other = []
            if self.accept("kw", "else"):
                other = self.stmt_block()
            return ("if", cond, then, other, t.line)
        if t.kind == "kw" and t.text == "while":
            self.i += 1
            self.expect("punct", "(")
            cond = self.expr()
            self.expect("punct", ")")
            body = self.stmt_block()
            return ("while", cond, body, t.line)
        if t.kind == "kw" and t.text == "exit":
            self.i += 1
            self.expect("punct", "(")
            code = self.int_literal()
            self.expect("punct", ")")
            self.expect("punct", ";")
            return ("exit", code, t.line)
        if t.kind == "kw" and t.text == "error":
            self.i += 1
            self.expect("punct", "(")
            s = self.expect("string")
            self.expect("punct", ")")
            self.expect("punct", ";")
            return ("error", s.text[1:-1], t.line)
        if t.kind == "ident":
            self.i += 1
            self.expect("punct", "=")
            e = self.expr()
            self.expect("punct", ";")
            return ("assign", t.text, e, t.line)
        raise self._fail(f"expected statement, got {t.text!r}")

    def stmt_block(self) -> list:
        self.expect("punct", "{")
        stmts = []
        while not (self.cur.kind == "punct" and self.cur.text == "}"):
            stmts.append(self.stmt())
        self.expect("punct", "}")
        return stmts

    def _lower_stmts(self, stmts: list, cur: int, b: "_BlockBuilder") -> int | None:
        """Lower statements into block `cur`; returns the open trailing block,
        or None if control already left via exit/error."""
        for s in stmts:
            if cur is None:
                break  # dead code after exit/error, dropped
            kind = s[0]
            if kind == "assign":
                _, name, e, line = s
                b.emit(cur, Assign(name, e, line))
            elif kind == "exit":
                b.seal(cur, Exit(s[1], s[2]))
                cur = None
            elif kind == "error":
                b.seal(cur, Error(s[1], s[2]))
                cur = None
            elif kind == "if":
                _, cond, then, other, line = s
                tb = b.new_block()
                fb = b.new_block()
                b.seal(cur, Branch(cond, tb, fb, line))
                t_end = self._lower_stmts(then, tb, b)
                f_end = self._lower_stmts(other, fb, b)
                join = b.new_block()
                if t_end is not None:
                    b.seal(t_end, Jump(join, line))
                if f_end is not None:
                    b.seal(f_end, Jump(join, line))
                cur = join
            elif kind == "while":
                _, cond, body, line = s
                header = b.new_block()
                b.seal(cur, Jump(header, line))
                body_blk = b.new_block()
                after = b.new_block()
                b.seal(header, Branch(cond, body_blk, after, line))
                body_end = self._lower_stmts(body, body_blk, b)
                if body_end is not None:
                    b.seal(body_end, Jump(header, line))
                cur = after
        return cur

    # -- explicit block form

    def block_form(self) -> list[BasicBlock]:
        labels: dict[str, int] = {}
        raw: list[tuple[list[Assign], tuple]] = []
        while self.cur.kind == "kw" and self.cur.text == "block":
            self.i += 1
            lbl = self.expect("ident")
            if lbl.text in labels:
                raise ParseError(f"duplicate block label {lbl.text}", lbl.line, lbl.col)
            labels[lbl.text] = len(raw)
            self.expect("punct", ":")
            body: list[Assign] = []
            term = None
            while term is None:
                t = self.cur
                if t.kind == "ident":
                    self.i += 1
                    self.expect("punct", "=")
                    e = self.expr()
                    self.expect("punct", ";")
                    body.append(Assign(t.text, e, t.line))
                elif t.kind == "kw" and t.text == "branch":
                    self.i += 1
                    cond = self.expr()
                    bt = self.expect("ident")
                    bf = self.expect("ident")
                    self.expect("punct", ";")
                    term = ("branch", cond, bt, bf, t.line)
                elif t.kind == "kw" and t.text == "jump":
                    self.i += 1
                    tgt = self.expect("ident")
                    self.expect("punct", ";")
                    term = ("jump", tgt, t.line)
                elif t.kind == "kw" and t.text == "exit":
                    self.i += 1
                    self.expect("punct", "(")
                    code = self.int_literal()
                    self.expect("punct", ")")
                    self.expect("punct", ";")
                    term = ("exit", code, t.line)
                elif t.kind == "kw" and t.text == "error":
                    self.i += 1
                    self.expect("punct", "(")
                    s = self.expect("string")
                    self.expect("punct", ")")
                    self.expect("punct", ";")
                    term = ("error", s.text[1:-1], t.line)
                else:
                    raise self._fail(f"expected instruction, got {t.text!r}")
            raw.append((body, term))

        def resolve(tok: Token) -> int:
            if tok.text not in labels:
                raise ParseError(f"branch target {tok.text} undeclared", tok.line, tok.col)
            return labels[tok.text]

        blocks = []
        for body, term in raw:
            if term[0] == "branch":
                t = Branch(term[1], resolve(term[2]), resolve(term[3]), term[4])
            elif term[0] == "jump":
                t = Jump(resolve(term[1]), term[2])
            elif term[0] == "exit":
                t = Exit(term[1], term[2])
            else:
                t = Error(term[1], term[2])
            blocks.append(BasicBlock(tuple(body), t))
        if not blocks:
            raise self._fail("expected at least one block")
        return blocks


class _BlockBuilder:
    """Accumulates blocks during structured lowering, then prunes unreachable
    ones and renumbers so the canonical print stays tidy."""

    def __init__(self):
        self.bodies: list[list[Assign]] = []
        self.terms: list[Terminator | None] = []

    def new_block(self) -> int:
        self.bodies.append([])
        self.terms.append(None)
        return len(self.bodies) - 1

    def emit(self, idx: int, instr: Assign) -> None:
        self.bodies[idx].append(instr)

    def seal(self, idx: int, term: Terminator) -> None:
        assert self.terms[idx] is None
        self.terms[idx] = term

    def finish(self) -> list[BasicBlock]:
        for i, t in enumerate(self.terms):
            if t is None:
                # open join block nothing jumps out of (e.g. both if arms exit)
                self.terms[i] = Exit(0)
        # keep only blocks reachable from entry, preserving index order
        succ = {
            i: ([t.on_true, t.on_false] if isinstance(t, Branch)
                else [t.target] if isinstance(t, Jump) else [])
            for i, t in enumerate(self.terms)
        }
        seen = {0}
        work = [0]
        while work:
            for s in succ[work.pop()]:
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        order = sorted(seen)
        remap = {old: new for new, old in enumerate(order)}
        out = []
        for old in order:
            t = self.terms[old]
            if isinstance(t, Branch):
                t = Branch(t.cond, remap[t.on_true], remap[t.on_false], t.line)
            elif isinstance(t, Jump):
                t = Jump(remap[t.target], t.line)
            out.append(BasicBlock(tuple(self.bodies[old]), t))
        return out


def parse_program(text: str, *, domain_cap: int = DEFAULT_DOMAIN_CAP) -> Program:
    """Parse either concrete syntax into a basic-block Program.

    Raises ParseError with line:col on malformed input. Domain widths are
    checked against the cap here; all other checks live in validate().
    """
    return _Parser(tokenize(text), domain_cap).parse()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(program: Program, *, domain_cap: int = DEFAULT_DOMAIN_CAP) -> list[str]:
    """Returns diagnostics; empty list means the program is executable."""
    diags: list[str] = []
    seen_names: set[str] = set()
    for d in program.inputs:
        if d.name in seen_names:
            diags.append(f"duplicate sym declaration {d.name}")
        seen_names.add(d.name)
        if d.lo > d.hi:
            diags.append(f"empty domain for {d.name} [{d.lo}, {d.hi}]")
        elif d.size > domain_cap:
            diags.append(f"domain cap exceeded for {d.name} ({d.size} > {domain_cap})")

    if not program.blocks:
        diags.append("program has no blocks")
        return diags

    n = len(program.blocks)
    for i, blk in enumerate(program.blocks):
        t = blk.term
        targets = ([t.on_true, t.on_false] if isinstance(t, Branch)
                   else [t.target] if isinstance(t, Jump) else [])
        for tgt in targets:
            if not 0 <= tgt < n:
                diags.append(f"branch target b{tgt} undeclared (block b{i})")

    diags.extend(_check_definite_assignment(program))
    return diags


def _check_definite_assignment(program: Program) -> list[str]:
    """Must-analysis: every read must be dominated by an assignment or sym decl.
    Conservative (intersection over predecessors), so a variable assigned on
    only one arm of an if is flagged when read after the join."""
    n = len(program.blocks)
    syms = {d.name for d in program.inputs}
    everything = set(syms)
    for blk in program.blocks:
        for a in blk.body:
            everything.add(a.name)

    preds: list[set[int]] = [set() for _ in range(n)]
    for i, blk in enumerate(program.blocks):
        t = blk.term
        targets = ([t.on_true, t.on_false] if isinstance(t, Branch)
                   else [t.target] if isinstance(t, Jump) else [])
        for tgt in targets:
            if 0 <= tgt < n:
                preds[tgt].add(i)

    def block_out(idx: int, avail_in: set[str]) -> set[str]:
        avail = set(avail_in)
        for a in program.blocks[idx].body:
            avail.add(a.name)
        return avail

    avail_in: list[set[str]] = [set(everything) for _ in range(n)]
    avail_in[0] = set(syms)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i == 0:
                new = set(syms)
            else:
                p = preds[i]
                if not p:
                    continue
                new = set.intersection(*(block_out(j, avail_in[j]) for j in p))
            if new != avail_in[i]:
                avail_in[i] = new
                changed = True

    diags = []
    for i, blk in enumerate(program.blocks):
        avail = set(avail_in[i])
        for a in blk.body:
            for v in sorted(reads(a.expr) - avail):
                diags.append(f"{v} possibly unassigned (block b{i})")
            avail.add(a.name)
        if isinstance(blk.term, Branch):
            for v in sorted(reads(blk.term.cond) - avail):
                diags.append(f"{v} possibly unassigned (block b{i})")
    return diags


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def print_program(program: Program) -> str:
    """Canonical block-form text. parse_program(print_program(p)) == p."""
    out = [f"program {program.name};"]
    for d in program.inputs:
        out.append(f"sym {d.name} in [{d.lo}, {d.hi}];")
    for i, blk in enumerate(program.blocks):
        out.append(f"block b{i}:")
        for a in blk.body:
            out.append(f"  {a.name} = {expr_text(a.expr)};")
        t = blk.term
        if isinstance(t, Branch):
            out.append(f"  branch {expr_text(t.cond)} b{t.on_true} b{t.on_false};")
        elif isinstance(t, Jump):
            out.append(f"  jump b{t.target};")
        elif isinstance(t, Exit):
            out.append(f"  exit({t.code});")
        else:
            out.append(f'  error("{t.label}");')
    return "\n".join(out) + "\n"
