"""Mini imperative language: AST, parser, lowering to basic blocks, validation.

Source programs (.tdp) declare symbolic integer inputs with bounded domains
and manipulate signed 64-bit integers. Two concrete syntaxes parse to the
same Program value: a structured form (if/else, while) that is lowered to
basic blocks at parse time, and an explicit block form which is what the
canonical printer emits. parse(print(p)) == p for any valid program p.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right

from .record import Record

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# widest input domain (hi - lo + 1) that parsing, validation and the
# solver accept; read at call time, so a test can lower it
DOMAIN_CAP = 65536

# validate rejects expressions deeper than the recursion limit less this: the
# caller's frames (~35 under pytest) and the ~20 from run_program down to the
# evaluator, printer and constraint-text walks, which recurse once per level
EXPR_DEPTH_HEADROOM = 100

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node(Record):
    """Base of the expression nodes. Nodes are immutable and shared: an
    expression built in a loop reuses its previous value as an operand. So
    what is derived from a node is kept in these slots, filled in on first
    use and built from the operands' values. Slots, unlike attributes added
    to each node's __dict__, cost no dictionary per node."""

    __slots__ = (
        "_text", "_reads",  # expr_text and reads, below
        # owned by solve: _affine, _linear and _revise
        "_solve_affine", "_solve_linear", "_solve_revise",
    )

    def __hash__(self) -> int:
        # equal nodes have one canonical text, which the node keeps
        return hash(expr_text(self))


class Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __str__(self) -> str:
        return str(self.value)


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class Unary(_Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op  # 'not' | 'neg'
        self.operand = operand

    def __str__(self) -> str:
        return expr_text(self)


class Binary(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # + - * < <= > >= == != and or
        self.left = left
        self.right = right

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
    e._text = t
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
    e._reads = r
    return r


# ---------------------------------------------------------------------------
# Instructions and program structure
# ---------------------------------------------------------------------------


class Assign(Record):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr):
        self.name, self.expr = name, expr


class Branch(Record):
    __slots__ = ("cond", "on_true", "on_false")

    def __init__(self, cond: Expr, on_true: int, on_false: int):
        self.cond, self.on_true, self.on_false = cond, on_true, on_false


class Jump(Record):
    __slots__ = ("target",)

    def __init__(self, target: int):
        self.target = target


class Exit(Record):
    __slots__ = ("code",)

    def __init__(self, code: int):
        self.code = code

    def __str__(self) -> str:
        return f"exit {self.code}"


class Error(Record):
    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __str__(self) -> str:
        return f"error {self.label}"


Terminator = Branch | Jump | Exit | Error


class BasicBlock(Record):
    __slots__ = ("body", "term")

    def __init__(self, body: tuple[Assign, ...], term: Terminator):
        self.body, self.term = body, term


class SymDecl(Record):
    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int):
        self.name, self.lo, self.hi = name, lo, hi

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)


class Program(Record):
    """A program's value is its fields; entry is always block 0. What is
    derived from it alone is kept in the other slots, as a node keeps its
    own, so every engine and every run on this object shares it."""

    __slots__ = (
        "name", "inputs", "blocks",
        # owned by engine: _runs (per block None, then its loop's function
        # or False; made here, so engines on several threads store into one
        # list) and _loops; by harness: _digest
        "_engine_runs", "_engine_loops", "_harness_digest",
    )
    _fields = ("name", "inputs", "blocks")

    def __init__(self, name: str, inputs: tuple[SymDecl, ...], blocks: tuple[BasicBlock, ...]):
        self.name, self.inputs, self.blocks = name, inputs, blocks
        self._engine_runs = [None] * len(blocks)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One match per token: whitespace and comments before it are skipped by the
# pattern itself, and `end` takes the character nothing else takes (a bad
# character) or, at the end of the text, nothing.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
        (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"[^"\n]*")
      | (?P<punct><=|>=|==|!=|[-+*<>=!;(){}\[\],:])
      | (?P<end>.?)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = {
    "program", "sym", "in", "if", "else", "while", "exit", "error",
    "block", "branch", "jump", "and", "or",
}

# a keyword's or a punctuator's kind is its own text
_OWN_KIND = {t: t for t in (*KEYWORDS, "<=", ">=", "==", "!=", *"-+*<>=!;(){}[],:")}

# (kind, text, offset); kind is 'int' | 'ident' | 'string' | 'eof', or the
# text itself for a keyword or a punctuator
Token = tuple[str, str, int]


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        if kind == "end":
            break
        toks.append((_OWN_KIND.get(text, kind), text, m.start(kind)))
    if text:
        raise ParseError(f"unexpected character {text!r}",
                         *_line_col(_line_starts(src), m.start(kind)))
    toks.append(("eof", "", len(src)))
    return toks


def _line_starts(src: str) -> list[int]:
    """The offset of each line's first character. A column counts
    characters from there, so a tab is one column."""
    return [0, *(m.end() for m in re.finditer("\n", src))]


def _line_col(starts: list[int], pos: int) -> tuple[int, int]:
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# binary operator -> precedence level, loosest first; all group left-to-right
_LEVEL = {"or": 1, "and": 2, **dict.fromkeys(CMP_OPS, 3), "+": 4, "-": 4, "*": 5}
_PREFIX = {"!": "not", "-": "neg"}


class _Parser:
    """Recursive descent over the token list. The structured form is
    lowered to blocks as it is parsed."""

    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.starts = _line_starts(src)
        self.i = 0

    # -- token helpers

    def error(self, msg: str, pos: int | None = None) -> ParseError:
        """A ParseError at pos, by default at the current token."""
        if pos is None:
            pos = self.toks[self.i][2]
        return ParseError(msg, *_line_col(self.starts, pos))

    def expect(self, kind: str) -> Token:
        t = self.toks[self.i]
        if t[0] != kind:
            raise self.error(f"expected {kind!r}, got {t[1]!r}")
        self.i += 1
        return t

    # -- top level

    def parse(self) -> Program:
        self.expect("program")
        name = self.expect("ident")[1]
        self.expect(";")
        inputs = []
        while self.toks[self.i][0] == "sym":
            inputs.append(self.sym_decl())
        if self.toks[self.i][0] == "block":
            blocks = self.block_form()
        else:
            blocks = self.structured_form()
        self.expect("eof")
        return Program(name, tuple(inputs), tuple(blocks))

    def sym_decl(self) -> SymDecl:
        pos = self.expect("sym")[2]
        name = self.expect("ident")[1]
        self.expect("in")
        self.expect("[")
        lo = self.int_literal()
        self.expect(",")
        hi = self.int_literal()
        self.expect("]")
        self.expect(";")
        if hi - lo + 1 > DOMAIN_CAP:
            raise self.error(
                f"domain cap exceeded for {name} ({hi - lo + 1} > {DOMAIN_CAP})", pos
            )
        return SymDecl(name, lo, hi)

    def int_literal(self) -> int:
        neg = self.toks[self.i][0] == "-"
        self.i += neg
        _, text, pos = self.expect("int")
        v = -int(text) if neg else int(text)
        if not INT64_MIN <= v <= INT64_MAX:
            raise self.error(f"integer literal out of range: {v}", pos)
        return v

    # -- expressions: prefix operators bind tightest, then _LEVEL

    def expr(self, min_level: int = 1) -> Expr:
        """An operand, then each binary operator of at least min_level."""
        toks = self.toks
        kind, text, pos = toks[self.i]
        prefix = []
        while kind in _PREFIX:
            prefix.append(_PREFIX[kind])
            self.i += 1
            kind, text, pos = toks[self.i]
        if kind == "int":
            self.i += 1
            v = int(text)
            if v > INT64_MAX:
                raise self.error(f"integer literal out of range: {v}", pos)
            e = Const(v)
        elif kind == "ident":
            self.i += 1
            e = Var(text)
        elif kind == "(":
            self.i += 1
            e = self.expr()
            self.expect(")")
        else:
            raise self.error(f"expected expression, got {text!r}")
        while prefix:
            e = Unary(prefix.pop(), e)
        while True:
            op = toks[self.i][0]
            level = _LEVEL.get(op, 0)
            if level < min_level:
                return e
            self.i += 1
            e = Binary(op, e, self.expr(level + 1))

    def cond(self) -> Expr:
        self.expect("(")
        e = self.expr()
        self.expect(")")
        return e

    def assign(self, name: str) -> Assign:
        """The rest of `<name> = <expr>;`."""
        self.expect("=")
        e = self.expr()
        self.expect(";")
        return Assign(name, e)

    def stop(self, kind: str) -> Exit | Error:
        """The rest of `exit(<int>);` or `error("<label>");`."""
        self.expect("(")
        if kind == "exit":
            term = Exit(self.int_literal())
        else:
            term = Error(self.expect("string")[1][1:-1])
        self.expect(")")
        self.expect(";")
        return term

    # -- structured form, lowered to blocks as it is parsed

    def structured_form(self) -> list[BasicBlock]:
        b = _BlockBuilder()
        cur = b.new_block()
        while self.toks[self.i][0] != "eof":
            cur = self.stmt(b, cur)
        b.seal(cur, Exit(0))
        return b.finish()

    def stmt(self, b: _BlockBuilder, cur: int) -> int:
        """Parse one statement and lower it into block cur; returns the open
        block after it. After exit or error that is a fresh block nothing
        jumps to, so the statements lowered into it are dead and
        _BlockBuilder.finish drops them with every other unreachable block."""
        kind, text, _ = self.toks[self.i]
        self.i += 1
        if kind == "ident":
            b.bodies[cur].append(self.assign(text))
            return cur
        if kind == "exit" or kind == "error":
            b.seal(cur, self.stop(kind))
            return b.new_block()
        if kind == "if":
            cond = self.cond()
            tb, fb = b.new_block(), b.new_block()
            b.seal(cur, Branch(cond, tb, fb))
            t_end = self.stmt_block(b, tb)
            f_end = fb
            if self.toks[self.i][0] == "else":
                self.i += 1
                f_end = self.stmt_block(b, fb)
            join = b.new_block()
            b.seal(t_end, Jump(join))
            b.seal(f_end, Jump(join))
            return join
        if kind == "while":
            cond = self.cond()
            header = b.new_block()
            b.seal(cur, Jump(header))
            body, after = b.new_block(), b.new_block()
            b.seal(header, Branch(cond, body, after))
            b.seal(self.stmt_block(b, body), Jump(header))
            return after
        self.i -= 1
        raise self.error(f"expected statement, got {text!r}")

    def stmt_block(self, b: _BlockBuilder, cur: int) -> int:
        self.expect("{")
        while self.toks[self.i][0] != "}":
            cur = self.stmt(b, cur)
        self.i += 1
        return cur

    # -- explicit block form

    def block_form(self) -> list[BasicBlock]:
        labels: dict[str, int] = {}
        raw: list[tuple[list[Assign], Terminator | tuple]] = []
        toks = self.toks
        while toks[self.i][0] == "block":
            self.i += 1
            _, label, lpos = self.expect("ident")
            if label in labels:
                raise self.error(f"duplicate block label {label}", lpos)
            labels[label] = len(raw)
            self.expect(":")
            body: list[Assign] = []
            while True:
                kind, text, _ = toks[self.i]
                self.i += 1
                if kind == "ident":
                    body.append(self.assign(text))
                    continue
                if kind == "branch":
                    cond = self.expr()
                    term = (cond, self.expect("ident"), self.expect("ident"))
                    self.expect(";")
                elif kind == "jump":
                    term = (None, self.expect("ident"), None)
                    self.expect(";")
                elif kind == "exit" or kind == "error":
                    term = self.stop(kind)
                else:
                    self.i -= 1
                    raise self.error(f"expected instruction, got {text!r}")
                break
            raw.append((body, term))

        def resolve(tok: Token) -> int:
            if tok[1] not in labels:
                raise self.error(f"branch target {tok[1]} undeclared", tok[2])
            return labels[tok[1]]

        blocks = []
        for body, term in raw:
            if type(term) is tuple:
                cond, on_true, on_false = term
                if cond is None:
                    term = Jump(resolve(on_true))
                else:
                    term = Branch(cond, resolve(on_true), resolve(on_false))
            blocks.append(BasicBlock(tuple(body), term))
        return blocks


def successors(t: Terminator) -> tuple[int, ...]:
    """The blocks a terminator may pass control to."""
    if isinstance(t, Branch):
        return (t.on_true, t.on_false)
    if isinstance(t, Jump):
        return (t.target,)
    return ()


class _BlockBuilder:
    """Accumulates blocks during structured lowering, each sealed exactly
    once, then prunes unreachable ones and renumbers so the canonical print
    stays tidy."""

    def __init__(self):
        self.bodies: list[list[Assign]] = []
        self.terms: list[Terminator | None] = []

    def new_block(self) -> int:
        self.bodies.append([])
        self.terms.append(None)
        return len(self.bodies) - 1

    def seal(self, idx: int, term: Terminator) -> None:
        assert self.terms[idx] is None
        self.terms[idx] = term

    def finish(self) -> list[BasicBlock]:
        terms = self.terms
        # keep only blocks reachable from entry, preserving index order
        seen = {0}
        work = [0]
        while work:
            for s in successors(terms[work.pop()]):
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        order = sorted(seen)
        if len(order) < len(terms):
            remap = {old: new for new, old in enumerate(order)}
            for old in order:
                t = terms[old]
                if isinstance(t, Branch):
                    terms[old] = Branch(t.cond, remap[t.on_true], remap[t.on_false])
                elif isinstance(t, Jump):
                    terms[old] = Jump(remap[t.target])
        return [BasicBlock(tuple(self.bodies[old]), terms[old]) for old in order]


def parse_program(text: str) -> Program:
    """Parse either concrete syntax into a basic-block Program.

    Raises ParseError with line:col on malformed input, and on input nested
    too deeply for the parser's recursion. Domain widths are checked against
    the cap here; all other checks live in validate().
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("nested too deeply to parse") from None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(program: Program) -> list[str]:
    """Returns diagnostics; empty list means the program is executable."""
    diags: list[str] = []
    seen_names: set[str] = set()
    for d in program.inputs:
        if d.name in seen_names:
            diags.append(f"duplicate sym declaration {d.name}")
        seen_names.add(d.name)
        if d.lo > d.hi:
            diags.append(f"empty domain for {d.name} [{d.lo}, {d.hi}]")
        elif d.size > DOMAIN_CAP:
            diags.append(f"domain cap exceeded for {d.name} ({d.size} > {DOMAIN_CAP})")

    if not program.blocks:
        diags.append("program has no blocks")
        return diags

    n = len(program.blocks)
    for i, blk in enumerate(program.blocks):
        for tgt in successors(blk.term):
            if not 0 <= tgt < n:
                diags.append(f"branch target b{tgt} undeclared (block b{i})")

    diags.extend(_check_definite_assignment(program))
    return diags


def _names_and_depth(e: Expr) -> tuple[set[str], int]:
    """The names an expression reads and its depth, walked one level at a
    time, so that no depth of expression overflows the stack here."""
    names = set()
    depth = 0
    level = [e]
    while level:
        depth += 1
        below = []
        for e in level:
            kind = type(e)
            if kind is Binary:
                below.append(e.left)
                below.append(e.right)
            elif kind is Var:
                names.add(e.name)
            elif kind is Unary:
                below.append(e.operand)
        level = below
    return names, depth


def _check_definite_assignment(program: Program) -> list[str]:
    """Must-analysis: every read must be dominated by an assignment or sym decl.
    Conservative (intersection over predecessors), so a variable assigned on
    only one arm of an if is flagged when read after the join.

    An expression deeper than the recursion limit less EXPR_DEPTH_HEADROOM
    is reported too: printing and executing it walk it recursively."""
    blocks = program.blocks
    n = len(blocks)
    syms = {d.name for d in program.inputs}
    assigned = [{a.name for a in blk.body} for blk in blocks]
    everything = syms.union(*assigned)

    preds: list[set[int]] = [set() for _ in range(n)]
    for i, blk in enumerate(blocks):
        for tgt in successors(blk.term):
            if 0 <= tgt < n:
                preds[tgt].add(i)

    avail_in: list[set[str]] = [set(everything) for _ in range(n)]
    avail_in[0] = syms
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            if preds[i]:
                new = set.intersection(*(avail_in[j] | assigned[j] for j in preds[i]))
                if new != avail_in[i]:
                    avail_in[i] = new
                    changed = True

    limit = sys.getrecursionlimit() - EXPR_DEPTH_HEADROOM
    diags = []
    for i, blk in enumerate(blocks):
        avail = set(avail_in[i])
        uses = [(a.expr, a.name) for a in blk.body]
        if isinstance(blk.term, Branch):
            uses.append((blk.term.cond, None))
        for e, name in uses:
            names, depth = _names_and_depth(e)
            if depth > limit:
                diags.append(
                    f"expression {depth} deep, past the depth limit {limit} (block b{i})"
                )
            for v in sorted(names - avail):
                diags.append(f"{v} possibly unassigned (block b{i})")
            avail.add(name)
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
