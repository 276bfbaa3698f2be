"""Parser, validator, and canonical printer."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpart import lang
from tdpart.harness import corpus_shape, generate_program
from tdpart.lang import (
    Assign,
    BasicBlock,
    Binary,
    Branch,
    Const,
    Exit,
    Jump,
    ParseError,
    Program,
    SymDecl,
    Unary,
    Var,
    expr_text,
    parse_program,
    print_program,
    validate,
)

FIND_MIDDLE = Path("programs/find_middle.tdp").read_text()


def test_parse_find_middle():
    p = parse_program(FIND_MIDDLE)
    assert p.name == "find_middle"
    assert [d.name for d in p.inputs] == ["x", "y", "z"]
    assert all(d.lo == -8 and d.hi == 7 for d in p.inputs)
    assert validate(p) == []
    # three decision levels: branch terminators for x<y, then y<z / x<z
    conds = [expr_text(b.term.cond) for b in p.blocks if isinstance(b.term, Branch)]
    assert conds.count("(x<y)") == 1
    assert conds.count("(y<z)") == 2
    assert conds.count("(x<z)") == 2


def test_print_parse_round_trip():
    p = parse_program(FIND_MIDDLE)
    text = print_program(p)
    again = parse_program(text)
    assert again == p
    assert print_program(again) == text


def test_entry_is_block_zero_after_pruning():
    # code after exit is dropped; unreachable blocks are pruned and renumbered
    src = (
        "program p;\nsym x in [0, 3];\n"
        "exit(7);\n"
        "t = x + 1;\n"
        "if (x < 2) { exit(1); } else { exit(2); }\n"
    )
    p = parse_program(src)
    assert len(p.blocks) == 1
    assert p.blocks[0].term == Exit(7)
    assert p.blocks[0].body == ()


# a statement as a format: {k} is a constant, {0} and {1} are arms
_DEAD_CODE_FORMS = (
    ("t = t + x * {k};", 0),
    ("while (t < {k}) {{ {0} }}", 1),
    ("if (x < {k}) {{ {0} }}", 1),
    ("if (x < {k}) {{ {0} }} else {{ {1} }}", 2),
)


def _dead_code_stmt(rng: random.Random, depth: int) -> tuple[str, str]:
    form, n_arms = rng.choice(_DEAD_CODE_FORMS if depth else _DEAD_CODE_FORMS[:1])
    arms = [_dead_code_stmts(rng, depth - 1) for _ in range(n_arms)]
    k = rng.randint(0, 3)
    return (form.format(*(a[0] for a in arms), k=k),
            form.format(*(a[1] for a in arms), k=k))


def _dead_code_stmts(rng: random.Random, depth: int) -> tuple[str, str]:
    """A statement list as text twice: with statements after an exit or an
    error, at every nesting level, and with those statements deleted."""
    stmts = [_dead_code_stmt(rng, depth) for _ in range(rng.randint(0, 3))]
    full, live = [s[0] for s in stmts], [s[1] for s in stmts]
    if rng.random() < 0.6:
        stop = rng.choice(("exit(1);", "exit(2);", 'error("e");'))
        full.append(stop)
        live.append(stop)
        full.extend(_dead_code_stmt(rng, depth)[0] for _ in range(rng.randint(1, 3)))
    return " ".join(full), " ".join(live)


def test_statements_after_exit_or_error_are_dropped_at_every_level():
    # the dead statements lower into blocks nothing reaches, which pruning
    # drops: the program is the one parsed from the text without them
    header = "program p;\nsym x in [0, 3];\nt = 0;\n"
    rng = random.Random(2718)
    differs = 0
    for _ in range(400):
        full, live = _dead_code_stmts(rng, 3)
        p = parse_program(header + full)
        assert p == parse_program(header + live), full
        assert parse_program(print_program(p)) == p
        differs += full != live
    assert differs > 300


def test_precedence_and_expr_text():
    p = parse_program(
        "program p;\nsym x in [-3, 3];\n"
        "t = -x + 2 * x - 1;\n"
        "if (!(x < 1) and x <= 2 or !(x == 0)) { exit(1); } else { exit(0); }\n"
    )
    assign = p.blocks[0].body[0]
    assert expr_text(assign.expr) == "((-x+(2*x))-1)"
    cond = p.blocks[0].term.cond
    assert expr_text(cond) == "((!(x<1) and (x<=2)) or !(x==0))"
    # or binds loosest, then and, then comparisons
    assert isinstance(cond, Binary) and cond.op == "or"
    assert isinstance(cond.left, Binary) and cond.left.op == "and"
    p = parse_program("program p;\nsym x in [-3, 3];\nt = x < 1 or x > 2 and x == 3;\n")
    assert expr_text(p.blocks[0].body[0].expr) == "((x<1) or ((x>2) and (x==3)))"


def test_if_without_else():
    p = parse_program(
        "program p;\nsym x in [0, 3];\nt = 0;\nif (x < 2) { t = 1; }\nexit(0);\n"
    )
    assert validate(p) == []
    b0 = p.blocks[0].term
    assert isinstance(b0, Branch)
    # both arms reach the same exit
    assert isinstance(p.blocks[-1].term, Exit)


def test_while_lowering_has_back_edge():
    p = parse_program(
        "program p;\nsym x in [0, 4];\n"
        "while (x < 3) { x = x + 1; }\nexit(0);\n"
    )
    assert validate(p) == []
    headers = [i for i, b in enumerate(p.blocks) if isinstance(b.term, Branch)]
    assert len(headers) == 1
    h = headers[0]
    body = p.blocks[h].term.on_true
    # the loop body jumps back to the header
    assert p.blocks[body].term == Jump(h)


def test_comments_and_whitespace():
    p = parse_program(
        "program p;  # header\n"
        "sym x in [0, 1];   # one bit\n"
        "\n\t exit( 3 ) ;\n"
    )
    assert p.blocks[0].term == Exit(3)


def test_block_form_parses():
    src = (
        "program p;\nsym x in [0, 3];\n"
        "block b0:\n  t = x + 1;\n  branch (t<3) b1 b2;\n"
        "block b1:\n  exit(1);\n"
        "block b2:\n  error(\"boom\");\n"
    )
    p = parse_program(src)
    assert len(p.blocks) == 3
    assert p.blocks[2].term.label == "boom"
    assert parse_program(print_program(p)) == p


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("program p\nexit(0);\n", "expected"),  # missing semicolon
        ("program p;\nsym x in [0, 70000];\nexit(0);\n", "domain cap exceeded"),
        ("program p;\nsym x in [0, 1];\nblock b0:\n  jump b9;\n", "branch target b9 undeclared"),
        ("program p;\nsym x in [0, 1];\nt = x $ 1;\nexit(0);\n", "unexpected"),
        ("program p;\nsym x in [0, 1];\nexit(x);\n", "expected"),  # exit takes a literal
    ],
)
def test_parse_errors(src, fragment):
    with pytest.raises(ParseError) as ei:
        parse_program(src)
    assert fragment in str(ei.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        parse_program("program p;\nsym x in [0, 70000];\nexit(0);\n")
    assert ei.value.line == 2
    assert str(ei.value).startswith("2:")


def _prog(blocks, inputs=(SymDecl("x", 0, 3),)):
    return Program("p", tuple(inputs), tuple(blocks))


def test_validate_duplicate_sym():
    p = _prog([BasicBlock((), Exit(0))], inputs=(SymDecl("x", 0, 1), SymDecl("x", 0, 1)))
    assert any("duplicate sym declaration x" in d for d in validate(p))


def test_validate_empty_domain():
    p = _prog([BasicBlock((), Exit(0))], inputs=(SymDecl("x", 5, 2),))
    assert any("empty domain" in d for d in validate(p))


def test_validate_domain_cap(monkeypatch):
    p = _prog([BasicBlock((), Exit(0))], inputs=(SymDecl("x", 0, 99),))
    assert validate(p) == []
    monkeypatch.setattr(lang, "DOMAIN_CAP", 50)
    assert any("domain cap exceeded" in d for d in validate(p))


def test_parse_checks_the_domain_cap_it_reads_at_call_time(monkeypatch):
    src = "program p;\nsym x in [0, 99];\nexit(0);\n"
    parse_program(src)
    monkeypatch.setattr(lang, "DOMAIN_CAP", 50)
    with pytest.raises(ParseError, match=r"domain cap exceeded for x \(100 > 50\)"):
        parse_program(src)


def test_validate_branch_target_range():
    p = _prog([BasicBlock((), Branch(Binary("<", Var("x"), Const(1)), 0, 9))])
    assert any("branch target b9 undeclared (block b0)" in d for d in validate(p))


def test_validate_possibly_unassigned_on_one_arm():
    src = (
        "program p;\nsym x in [0, 3];\n"
        "if (x < 2) { t = 1; }\n"
        "u = t + 1;\n"
        "exit(0);\n"
    )
    p = parse_program(src)
    assert any(d.startswith("t possibly unassigned") for d in validate(p))


def test_validate_assigned_on_both_arms_is_fine():
    src = (
        "program p;\nsym x in [0, 3];\n"
        "if (x < 2) { t = 1; } else { t = 2; }\n"
        "u = t + 1;\n"
        "exit(0);\n"
    )
    assert validate(parse_program(src)) == []


def test_validate_read_of_unknown_variable():
    p = parse_program("program p;\nsym x in [0, 3];\nt = q + 1;\nexit(0);\n")
    assert any("q possibly unassigned" in d for d in validate(p))


def test_loop_carried_assignment_is_definite():
    src = (
        "program p;\nsym x in [0, 4];\nt = 0;\n"
        "while (x < 3) { x = x + 1; t = t + x; }\n"
        "u = t;\nexit(0);\n"
    )
    assert validate(parse_program(src)) == []


def test_expr_equality_ignores_source_line():
    a = parse_program("program p;\nsym x in [0, 1];\nexit(0);\n")
    b = parse_program("program p;\n\n\nsym x in [0, 1];\n\nexit(0);\n")
    assert a == b


def test_unary_not_and_negation_nest():
    p = parse_program("program p;\nsym x in [-2, 2];\nt = !!x;\nu = --x;\nv = -!x * 2;\nexit(0);\n")
    t, u, v = p.blocks[0].body
    assert t.expr == Unary("not", Unary("not", Var("x")))
    assert u.expr == Unary("neg", Unary("neg", Var("x")))
    assert v.expr == Binary("*", Unary("neg", Unary("not", Var("x"))), Const(2))
    assert expr_text(t.expr) == "!!x"
    assert expr_text(u.expr) == "--x"


def test_generated_corpus_round_trips():
    rng = random.Random(314)
    for i in range(24):
        src = generate_program(rng, f"rt_{i:02d}", corpus_shape(i))
        p = parse_program(src)
        assert validate(p) == [], src
        assert parse_program(print_program(p)) == p


# -- lexical edge cases: exact positions; a column counts characters, so a
# tab is one column, and "\r" is whitespace


@pytest.mark.parametrize(
    "src,where",
    [
        ("program p;\n\t$x = 1;\n", "2:2: unexpected character '$'"),  # tab before it
        ("program p;\nx =\t1 $;\n", "2:7: unexpected character '$'"),
        ("program p;\r\nsym x in [0, 1];\r\nt = x $ 1;\r\nexit(0);\r\n",
         "3:7: unexpected character '$'"),  # CRLF line ends
        ("program p;\r\nsym x in [0, 1];\r\n  exit(x);\r\n", "3:8: expected 'int', got 'x'"),
        ("program p;\nexit(0) # done", "2:15: expected ';', got ''"),  # comment at EOF
        ("program p; # c\n@\n", "2:1: unexpected character '@'"),  # right after a comment
        ("program p; # c @\n$", "2:1: unexpected character '$'"),
        ('program p;\nerror("abc);\n', "2:7: unexpected character '\"'"),  # unterminated
        ("program p;\nt = 9223372036854775808;\nexit(0);\n",
         "2:5: integer literal out of range: 9223372036854775808"),
        ("program p;\nsym x in [-9223372036854775809, 0];\nexit(0);\n",
         "2:12: integer literal out of range: -9223372036854775809"),
        ("program p;\nexit(9223372036854775808);\n",
         "2:6: integer literal out of range: 9223372036854775808"),
        ("", "1:1: expected 'program', got ''"),  # empty input
        ("  \n\t# only a comment\n", "3:1: expected 'program', got ''"),
        ("program p;\x0bexit(0);\n", "1:11: unexpected character '\\x0b'"),
        ("program if;\n", "1:9: expected 'ident', got 'if'"),
        ("program p;\nblock b0:\n exit(0);\n x", "4:2: expected 'eof', got 'x'"),
        ("program p;\nblock b0:\n  jump b9;\nblock b1:\n  exit(0);\n",
         "3:8: branch target b9 undeclared"),
        ("program p;\nblock b0:\n  jump b0;\nblock b0:\n  exit(0);\n",
         "4:7: duplicate block label b0"),
    ],
)
def test_parse_error_position(src, where):
    with pytest.raises(ParseError) as ei:
        parse_program(src)
    assert str(ei.value) == where
    line, col, _ = where.split(":", 2)
    assert (ei.value.line, ei.value.col) == (int(line), int(col))


def test_crlf_and_trailing_comment_parse_like_lf():
    lf = "program p;\nsym x in [0, 1];\nif (x < 1) { exit(1); }\nexit(0);\n"
    p = parse_program(lf)
    assert parse_program(lf.replace("\n", "\r\n")) == p
    assert parse_program(lf + "# done") == p
    assert parse_program(lf.rstrip("\n") + " # no newline at EOF") == p


def test_hash_inside_an_error_string_is_not_a_comment():
    p = parse_program('program p;\nerror("a # b");\n')
    assert p.blocks[0].term.label == "a # b"
    assert print_program(p).endswith('  error("a # b");\n')


def test_max_int64_literal_parses():
    p = parse_program("program p;\nt = 9223372036854775807;\nexit(-9223372036854775808);\n")
    assert p.blocks[0].body[0].expr == Const(2**63 - 1)
    assert p.blocks[0].term.code == -(2**63)


# -- nesting: what parsed before the front end was rewritten still does, one
# step past the old limits (at the top level of a fresh interpreter: 122
# parentheses, 983 unary minuses, a 995-term chain) too; deeper input is a
# ParseError or a diagnostic, never a RecursionError. validate rejects an
# expression deeper than the recursion limit less EXPR_DEPTH_HEADROOM,
# which no run could walk.


def _parens(n):
    return "program p;\nsym x in [0, 1];\nt = " + "(" * n + "x" + ")" * n + ";\nexit(0);\n"


def _negations(n):
    return "program p;\nsym x in [0, 1];\nt = " + "-" * n + "x;\nexit(0);\n"


def _chain(n):
    return "program p;\nsym x in [0, 1];\nt = x" + " + x" * (n - 1) + ";\nexit(0);\n"


def _max_depth():
    return sys.getrecursionlimit() - lang.EXPR_DEPTH_HEADROOM


def _too_deep(depth):
    return f"expression {depth} deep, past the depth limit {_max_depth()} (block b0)"


def _nested_ifs(n):
    return "program p;\nsym x in [0, 1];\n" + "if (x < 1) {" * n + "t = 1;" + "}" * n + "\n"


@pytest.mark.parametrize("make,n", [
    (_parens, 122), (_parens, 123),
    (_negations, 983), (_negations, 984),
    (_chain, 995), (_chain, 996),
])
def test_nesting_at_the_old_limits_parses_and_validates(make, n):
    program = parse_program(make(n))
    depth = {_parens: 1, _negations: n + 1, _chain: n}[make]
    assert validate(program) == ([] if depth <= _max_depth() else [_too_deep(depth)])


def test_parentheses_nested_too_deeply_are_a_parse_error():
    n = 4 * sys.getrecursionlimit()
    with pytest.raises(ParseError) as ei:
        parse_program(_parens(n))
    assert "nested too deeply to parse" in str(ei.value)
    assert ei.value.line == 3 and 5 <= ei.value.col <= 5 + n


def test_statements_nested_too_deeply_are_a_parse_error():
    with pytest.raises(ParseError) as ei:
        parse_program(_nested_ifs(2 * sys.getrecursionlimit()))
    assert "nested too deeply to parse" in str(ei.value)
    assert ei.value.line == 3


@pytest.mark.parametrize("make", [_negations, _chain])
def test_an_expression_deeper_than_the_recursion_limit_is_a_diagnostic(make):
    n = max(1500, sys.getrecursionlimit() + 1)
    program = parse_program(make(n))
    depth = n + 1 if make is _negations else n
    assert validate(program) == [_too_deep(depth)]


def test_validate_does_not_fill_the_reads_memo():
    p = parse_program(FIND_MIDDLE)
    assert validate(p) == []
    cond = p.blocks[0].term.cond
    assert not hasattr(cond, "_reads")
    assert lang.reads(cond) == {"x", "y"}


# -- random token soup: a ParseError or a program that round-trips


_VOCAB = (
    "program", "sym", "in", "if", "else", "while", "exit", "error", "block",
    "branch", "jump", "and", "or", "p", "x", "y", "b0", "b1", "0", "1", "7",
    "9223372036854775807", "9223372036854775808", '"e"', '"#"', '"', "<=",
    ">=", "==", "!=", "-", "+", "*", "<", ">", "=", "!", ";", "(", ")", "{",
    "}", "[", "]", ",", ":", "#", "$", "\t", "\r\n", "\n",
)
# whole statements, so that some of the texts parse
_PHRASES = (
    "t = x + 1 ;", "x = -x * y ;", "exit ( 0 ) ;", 'error ( "e" ) ;', "if ( x < y ) {",
    "} else {", "while ( x > 0 and !y ) {", "}", "block b0 :", "block b1 :",
    "branch x <= 1 or y b0 b1 ;", "jump b1 ;",
)
_HEADER = "program p;\nsym x in [0, 3];\nsym y in [-2, 2];\n"


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.one_of(
    st.lists(st.sampled_from(_VOCAB + _PHRASES), max_size=40),
    st.lists(st.sampled_from(_PHRASES), max_size=12),
))
def test_random_tokens_parse_and_round_trip_or_raise_parse_error(header, words):
    text = (_HEADER if header else "") + " ".join(words)
    try:
        p = parse_program(text)
    except ParseError:
        return
    assert parse_program(print_program(p)) == p
