"""Concrete evaluation, path conditions, the interval solver, the cache."""

import collections
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_model, brute_force_sat, domain_cube, eval_expr
from tdpart import lang
from tdpart import solve as solve_mod
from tdpart.engine import Engine, Strategy
from tdpart.lang import INT64_MAX, INT64_MIN, Binary, Const, SymDecl, Unary, Var
from tdpart.solve import (
    DomainCapError,
    PathCondition,
    QueryCache,
    SolveError,
    _fixpoint,
    _narrowed,
    _Unsat,
    evaluate_concrete,
    solve_model,
    solve_path,
    wrap,
)

X, Y, Z = Var("x"), Var("y"), Var("z")


def lt(a, b):
    return Binary("<", a, b)


# -- concrete evaluation


def test_wrap_at_int64_bounds():
    assert wrap(INT64_MAX + 1) == INT64_MIN
    assert wrap(INT64_MIN - 1) == INT64_MAX
    assert wrap(INT64_MAX) == INT64_MAX
    assert wrap(-(1 << 64)) == 0


def test_evaluate_concrete_ops():
    env = {"x": 3, "y": -2}
    assert evaluate_concrete(Binary("+", X, Y), env) == 1
    assert evaluate_concrete(Binary("*", X, Y), env) == -6
    assert evaluate_concrete(Binary("<", Y, X), env) == 1
    assert evaluate_concrete(Binary("==", X, Const(3)), env) == 1
    assert evaluate_concrete(Binary("and", X, Const(0)), env) == 0
    assert evaluate_concrete(Binary("or", Const(0), Y), env) == 1
    assert evaluate_concrete(Unary("not", Const(0)), env) == 1
    assert evaluate_concrete(Unary("neg", X), env) == -3


def test_evaluate_concrete_wraps_multiplication():
    big = Const(INT64_MAX)
    assert evaluate_concrete(Binary("+", big, Const(1)), {}) == INT64_MIN
    assert evaluate_concrete(Binary("*", big, Const(2)), {}) == -2


def test_evaluate_unbound_variable():
    with pytest.raises(SolveError, match="unbound variable q"):
        evaluate_concrete(Var("q"), {})


def test_solve_path_polarity():
    assert solve_path({"x": 1, "y": 2}, lt(X, Y)) is True
    assert solve_path({"x": 2, "y": 2}, lt(X, Y)) is False


@given(st.integers(), st.integers())
def test_wrap_matches_oracle(a, b):
    from oracles import wrap64

    assert wrap(a + b) == wrap64(a + b)
    assert wrap(a * b) == wrap64(a * b)


# -- path conditions


def test_path_condition_basics():
    pc = PathCondition().extend(lt(X, Y), False).extend(lt(X, Z), True)
    assert pc.depth == 2
    assert pc.texts() == ["!(x<y)", "(x<z)"]
    assert pc.path_bits() == "01"
    assert pc.satisfied_by({"x": 0, "y": 0, "z": 1})
    assert not pc.satisfied_by({"x": 0, "y": 1, "z": 1})


def test_path_condition_key_is_order_independent():
    a = PathCondition().extend(lt(X, Y), True).extend(lt(Y, Z), False)
    b = PathCondition().extend(lt(Y, Z), False).extend(lt(X, Y), True)
    assert a.key() == b.key()
    assert a.path_bits() != b.path_bits()


# -- solving


DECLS_XYZ = (SymDecl("x", -8, 7), SymDecl("y", -8, 7), SymDecl("z", -8, 7))


def test_known_lex_minimum_models():
    pc00 = PathCondition().extend(lt(X, Y), False).extend(lt(X, Z), False)
    assert solve_model(pc00, DECLS_XYZ) == {"x": -8, "y": -8, "z": -8}
    pc10 = PathCondition().extend(lt(X, Y), True).extend(lt(Y, Z), False)
    assert solve_model(pc10, DECLS_XYZ) == {"x": -8, "y": -7, "z": -8}


def test_unsat_contradiction():
    pc = PathCondition().extend(lt(X, Const(0)), True).extend(
        Binary(">", X, Const(0)), True
    )
    assert solve_model(pc, (SymDecl("x", -8, 7),)) is None


def test_empty_domain_is_unsat():
    assert solve_model(PathCondition(), (SymDecl("x", 3, 2),)) is None


def test_domain_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(lang, "DOMAIN_CAP", 50)
    with pytest.raises(DomainCapError):
        solve_model(PathCondition(), (SymDecl("x", 0, 99),))
    assert solve_model(PathCondition(), (SymDecl("x", 0, 49),)) == {"x": 0}


def test_empty_path_condition_gives_domain_minimum():
    assert solve_model(PathCondition(), DECLS_XYZ) == {"x": -8, "y": -8, "z": -8}


def test_model_respects_declaration_order_not_name_order():
    decls = (SymDecl("b", 0, 3), SymDecl("a", 0, 3))
    pc = PathCondition().extend(Binary("<", Var("a"), Var("b")), True)
    # lex order over (b, a): b=1, a=0 beats b=0 (infeasible) and a-first orders
    assert solve_model(pc, decls) == {"b": 1, "a": 0}


def test_equality_chain():
    pc = (
        PathCondition()
        .extend(Binary("==", X, Y), True)
        .extend(Binary("==", Y, Z), True)
        .extend(Binary(">", X, Const(2)), True)
    )
    assert solve_model(pc, DECLS_XYZ) == {"x": 3, "y": 3, "z": 3}


def test_arithmetic_through_constraints():
    # x + y == 5 with x in [0,4], y in [0,4]: lex-min is x=1, y=4
    pc = PathCondition().extend(
        Binary("==", Binary("+", X, Y), Const(5)), True
    )
    decls = (SymDecl("x", 0, 4), SymDecl("y", 0, 4))
    assert solve_model(pc, decls) == {"x": 1, "y": 4}


def test_negated_compound_condition():
    # !((x<y) or (x<z)) forces x >= y and x >= z
    pc = PathCondition().extend(Binary("or", lt(X, Y), lt(X, Z)), False)
    m = solve_model(pc, DECLS_XYZ)
    assert m["x"] >= m["y"] and m["x"] >= m["z"]
    assert m == {"x": -8, "y": -8, "z": -8}


# -- randomized agreement with brute force


def _random_side(rng, names, depth=0):
    r = rng.random()
    if depth >= 2 or r < 0.45:
        return Var(rng.choice(names))
    if r < 0.6:
        return Const(rng.randint(-6, 6))
    if r < 0.7:
        return Unary("neg", _random_side(rng, names, depth + 1))
    op = rng.choice(["+", "-", "*"])
    return Binary(op, _random_side(rng, names, depth + 1),
                  _random_side(rng, names, depth + 1))


def _random_atom(rng, names):
    op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    return Binary(op, _random_side(rng, names), _random_side(rng, names))


def random_constraint_expr(rng, names):
    r = rng.random()
    if r < 0.7:
        return _random_atom(rng, names)
    if r < 0.85:
        return Binary(rng.choice(["and", "or"]),
                      _random_atom(rng, names), _random_atom(rng, names))
    return Unary("not", _random_atom(rng, names))


def random_system(rng):
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    decls = []
    for nm in names:
        lo = rng.randint(-4, 4)
        hi = rng.randint(lo, 4)
        decls.append(SymDecl(nm, lo, hi))
    pc = PathCondition()
    pairs = []
    for _ in range(rng.randint(1, 4)):
        e = random_constraint_expr(rng, names)
        taken = rng.random() < 0.5
        pc = pc.extend(e, taken)
        pairs.append((e, taken))
    return tuple(decls), pc, pairs


def test_solver_agrees_with_brute_force_seeded():
    rng = random.Random(20240817)
    sats = 0
    for _ in range(300):
        decls, pc, pairs = random_system(rng)
        expect = brute_force_model(pairs, decls)
        model = solve_model(pc, decls)
        assert (model is not None) == (expect is not None)
        if expect is not None:
            sats += 1
            assert model == expect
    assert sats > 50  # the generator must not be degenerate


# -- the parent's model


def _pc_of(pairs):
    pc = PathCondition()
    for e, taken in pairs:
        pc = pc.extend(e, taken)
    return pc


def test_parent_model_gives_the_lex_min_model_seeded():
    rng = random.Random(20261018)
    checked = reused = 0
    for _ in range(300):
        decls, _, pairs = random_system(rng)
        for i, (e, taken) in enumerate(pairs):
            parent = _pc_of(pairs[:i])
            model = solve_model(parent, decls)  # the parent first
            assert model == brute_force_model(pairs[:i], decls)
            for flag in (taken, not taken):
                child = pairs[:i] + [(e, flag)]
                expect = brute_force_model(child, decls)
                got = solve_model(parent.extend(e, flag), decls)
                assert got == expect, (decls, child, model)
                checked += 1
                reused += model is not None and got == model
    assert checked > 1000 and reused > 100  # both the parent's model and a search answer


def _tree(levels):
    """Every pc of the full binary tree that the branch conditions `levels`
    make, as (pc, its (expr, taken) pairs, its parent's index or None),
    each parent before its children."""
    nodes = [(PathCondition(), [], None)]
    for k, (pc, pairs, _) in enumerate(nodes):  # nodes grows as it is read
        if len(pairs) < len(levels):
            e = levels[len(pairs)]
            for taken in (False, True):
                nodes.append((pc.extend(e, taken), pairs + [(e, taken)], k))
    return nodes


def test_any_solve_order_gives_the_lex_min_model_seeded():
    # every pc of random trees, solved in shuffled order, children before
    # their parents too: a pc whose parent has no model yet is searched;
    # one whose parent has one takes it when it satisfies the pc
    rng = random.Random(20261020)
    checked = early = want_reused = 0
    for _ in range(100):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        decls = []
        for nm in names:
            lo = rng.randint(-4, 4)
            decls.append(SymDecl(nm, lo, rng.randint(lo, 4)))
        decls = tuple(decls)
        levels = [random_constraint_expr(rng, names) for _ in range(rng.randint(2, 4))]
        expect = [brute_force_model(pairs, decls) for _, pairs, _ in _tree(levels)]
        order = list(range(len(expect)))
        rng.shuffle(order)
        for cached in (True, False):
            nodes, cache, solved, reused = _tree(levels), QueryCache(), set(), 0
            for k in order:
                pc, pairs, up = nodes[k]
                parent_model = expect[up] if up in solved else None
                early += cached and up is not None and up not in solved
                misses = cache.misses
                got = cache.query(pc, decls) if cached else solve_model(pc, decls)
                assert got == expect[k], (decls, pairs, up in solved)
                if cache.misses > misses and parent_model is not None and all(
                    (eval_expr(e, parent_model) != 0) == t for e, t in pairs
                ):
                    reused += 1
                solved.add(k)
                checked += 1
            for k in order:  # again: from the cache's entries or pc's own model
                pc = nodes[k][0]
                assert (cache.query(pc, decls) if cached else solve_model(pc, decls)) == expect[k]
            assert cache.reused == reused, (decls, levels)  # hits never count
            want_reused += reused
    assert checked > 3000 and early > 600 and want_reused > 150  # all occur


def test_a_parent_model_failing_the_pc_is_never_returned():
    rng = random.Random(77)
    failing = 0
    for _ in range(300):
        decls, _, pairs = random_system(rng)
        expect = brute_force_model(pairs, decls)
        model = brute_force_model(pairs[:-1], decls)
        if model is None or all((eval_expr(e, model) != 0) == t for e, t in pairs):
            continue  # no parent model, or one that satisfies the pc
        failing += 1
        pc = _pc_of(pairs)
        assert solve_model(pc.parent, decls) == model
        assert solve_model(pc, decls) == expect
        cache, pc = QueryCache(), _pc_of(pairs)
        assert cache.query(pc.parent, decls) == model
        assert cache.query(pc, decls) == expect
        assert cache.reused == 0
    assert failing > 100


def test_the_parent_model_is_returned_as_a_copy_and_counted_as_reused():
    parent = PathCondition().extend(lt(X, Y), True)
    pc = parent.extend(lt(Y, Z), False)
    cache = QueryCache()
    assert cache.query(parent, DECLS_XYZ) == {"x": -8, "y": -7, "z": -8}
    assert cache.reused == 0  # the root has no model
    model = cache.query(pc, DECLS_XYZ)
    assert model == parent._model and model is not parent._model
    assert cache.misses == 2 and cache.reused == 1
    cache.query(pc, DECLS_XYZ)
    assert cache.hits == 1 and cache.reused == 1  # hits never count


def test_domain_cap_is_enforced_with_a_parent_model(monkeypatch):
    decls = (SymDecl("x", 0, 99),)
    root = PathCondition()
    assert solve_model(root, decls) == {"x": 0}  # under the default cap
    monkeypatch.setattr(lang, "DOMAIN_CAP", 50)
    pc = root.extend(lt(X, Const(5)), True)  # the root's model satisfies it
    for solve in (solve_model, QueryCache().query):
        for p in (root, pc):  # checked before the model a pc or its parent has
            with pytest.raises(DomainCapError):
                solve(p, decls)


def test_empty_domain_is_unsat_with_a_parent_model():
    root = PathCondition()
    assert solve_model(root, (SymDecl("x", 3, 3),)) == {"x": 3}
    empty = (SymDecl("x", 3, 2),)
    assert solve_model(root, empty) is None
    assert solve_model(root.extend(lt(X, Const(5)), True), empty) is None


def test_constraint_text_is_rendered_once():
    pc = PathCondition().extend(Binary("+", X, Const(3)), False)
    c = pc.constraints[0]
    assert c.text == "!(x+3)" and c.text is c.text
    assert pc.key() == "!(x+3)" and pc.texts() == ["!(x+3)"]


# -- narrowing: soundness, lex-min at product scale, linear work


def _inside(test, iv):
    return all(iv[n][0] <= v <= iv[n][1] for n, v in test.items())


@pytest.fixture(params=["tree", "generated"])
def tier(request, monkeypatch):
    """Revise comparisons on the tree alone, or through generated functions
    from each comparison's first revise on. Yields the functions made."""
    made = []
    if request.param == "tree":
        monkeypatch.setattr(solve_mod, "_generated_revise", lambda e, want, make: None)
    else:
        monkeypatch.setattr(solve_mod, "HOT", 1)
        generated = solve_mod._generated_revise

        def making(e, want, make):
            run = generated(e, want, make)
            made.append(run)
            return run

        monkeypatch.setattr(solve_mod, "_generated_revise", making)
    yield request.param
    if request.param == "generated":
        assert made and None not in made  # every revise ran generated


def _non_inputs(e):
    """The nodes of e that _ieval evaluates: all but the inputs."""
    if isinstance(e, Var):
        return 0
    if isinstance(e, Const):
        return 1
    if isinstance(e, Unary):
        return 1 + _non_inputs(e.operand)
    return 1 + _non_inputs(e.left) + _non_inputs(e.right)


def _count_node_evaluations(m):
    """Node evaluations on both tiers, patched in through m: each _ieval
    call, and for each call of a generated revise the nodes its forward
    pass evaluates, as many as _ieval would on the tree."""
    calls = [0]
    ieval, generated = solve_mod._ieval, solve_mod._generated_revise

    def counting(e, box):
        calls[0] += 1
        return ieval(e, box)

    def making(e, want, make):
        run = generated(e, want, make)
        if run is None:
            return None
        n = _non_inputs(e)

        def counted(box):
            calls[0] += n
            return run(box)

        return counted

    m.setattr(solve_mod, "_ieval", counting)
    m.setattr(solve_mod, "_generated_revise", making)
    return calls


def test_fixpoint_keeps_every_solution_seeded():
    # from the full box, as before backtracking, and with the first input
    # pinned to each of its values, as at backtracking's first level
    rng = random.Random(4401)
    refuted = narrowed = kept = 0
    for _ in range(400):
        decls, pc, pairs = random_system(rng)
        solutions = [t for t in domain_cube(decls)
                     if all((eval_expr(e, t) != 0) == taken for e, taken in pairs)]
        full = {d.name: (d.lo, d.hi) for d in decls}
        first = decls[0]
        starts = [full] + [{**full, first.name: (v, v)}
                           for v in range(first.lo, first.hi + 1)]
        for start in starts:
            inside = [t for t in solutions if _inside(t, start)]
            iv = dict(start)
            try:
                _fixpoint(pc.constraints, iv)
            except _Unsat:
                assert not inside, (decls, pairs, start)
                refuted += 1
                continue
            assert all(_inside(t, iv) for t in inside), (pairs, start, iv)
            again = dict(iv)
            _fixpoint(pc.constraints, again)
            assert again == iv  # a fixpoint: one more run shrinks nothing
            narrowed += iv != start
            kept += iv == start
    assert refuted > 800 and narrowed > 80 and kept > 200  # all three occur


def random_product_system(rng):
    """Three inputs in [-10, 10] and 1-3 constraints, each over a product of
    two inputs (a square included) compared with a constant, an input or
    an input plus a constant."""
    names = ["x", "y", "z"]
    decls = tuple(SymDecl(n, -10, 10) for n in names)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        lhs = Binary("*", Var(rng.choice(names)), Var(rng.choice(names)))
        r = rng.random()
        if r < 0.5:
            rhs = Const(rng.randint(-40, 40))
        elif r < 0.75:
            rhs = Var(rng.choice(names))
        else:
            rhs = Binary("+", Var(rng.choice(names)), Const(rng.randint(-9, 9)))
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        pairs.append((Binary(op, lhs, rhs), rng.random() < 0.5))
    return decls, pairs


def test_product_systems_get_the_lex_min_model_seeded():
    rng = random.Random(4402)
    unsat = sat = reused = 0
    for _ in range(200):
        decls, pairs = random_product_system(rng)
        parent, (e, taken) = pairs[:-1], pairs[-1]
        parent_pc = _pc_of(parent)
        model = solve_model(parent_pc, decls)  # the parent first
        assert model == brute_force_model(parent, decls)
        for flag in (taken, not taken):
            child = parent + [(e, flag)]
            expect = brute_force_model(child, decls)
            assert solve_model(_pc_of(child), decls) == expect, child
            got = solve_model(parent_pc.extend(e, flag), decls)
            assert got == expect, (child, model)
            sat += expect is not None
            unsat += expect is None
            reused += model is not None and got == model
    assert sat > 100 and unsat > 50 and reused > 50


def test_product_with_no_factor_pair_in_range_is_refuted(monkeypatch, tier):
    decls = (SymDecl("x", -200, 200), SymDecl("y", -200, 200))
    pc = PathCondition().extend(Binary("==", Binary("*", X, Y), Const(7919)), True)
    evaluations = _count_node_evaluations(monkeypatch)
    checks = [0]
    all_hold = solve_mod._all_hold

    def counting(*args):
        checks[0] += 1
        return all_hold(*args)

    monkeypatch.setattr(solve_mod, "_all_hold", counting)
    assert solve_model(pc, decls) is None  # 7919 is prime and > 200
    # each pinned x narrows y to nothing: a few node evaluations per value
    # of x, and no point of the 401x401 cube is evaluated concretely
    assert checks[0] == 0 and evaluations[0] <= 10 * 401, (checks, evaluations)


def test_truthy_variable_narrowing_propagates():
    iv = {"x": (0, 3), "y": (0, 3)}
    pc = PathCondition().extend(Binary("==", Y, X), True).extend(X, True)
    _fixpoint(pc.constraints, iv)
    assert iv == {"x": (1, 3), "y": (1, 3)}


def test_point_factor_narrows_a_product():
    iv = {"x": (3, 3), "y": (-10, 10)}
    pc = PathCondition().extend(Binary("==", Binary("*", Y, X), Const(12)), True)
    _fixpoint(pc.constraints, iv)
    assert iv == {"x": (3, 3), "y": (4, 4)}


def _interval_evaluations(monkeypatch, links):
    chain = X
    for _ in range(links):
        chain = Binary("+", chain, Const(3))
    pc = PathCondition().extend(lt(chain, Const(20)), True).extend(lt(Y, X), True)
    decls = (SymDecl("x", -400, 400), SymDecl("y", -400, 400))
    calls = [0]
    ieval = solve_mod._ieval

    def counting(e, box):
        calls[0] += 1
        return ieval(e, box)

    with monkeypatch.context() as m:
        m.setattr(solve_mod, "_ieval", counting)
        assert solve_model(pc, decls) == {"x": -399, "y": -400}
    return calls[0]


def test_narrowing_work_is_linear_in_chain_length(monkeypatch):
    # x+3+...+3 < 20: a left-deep chain as loops build it. Re-evaluating
    # child intervals at each level of the descent makes this quadratic.
    short = _interval_evaluations(monkeypatch, 50)
    long = _interval_evaluations(monkeypatch, 100)
    assert long <= 2.5 * short, (short, long)


def _tree_interval_evaluations(monkeypatch, links):
    # x*y+3+...+3 < 20 is not affine, so the tree or its generated revise
    # revises it: the lex-min model needs x > 0, and each x below 1 is
    # refuted by narrowing
    chain = Binary("*", X, Y)
    for _ in range(links):
        chain = Binary("+", chain, Const(3))
    pc = PathCondition().extend(lt(chain, Const(20)), True).extend(lt(Y, X), True)
    assert pc.constraints[0].lin is None
    decls = (SymDecl("x", -400, 400), SymDecl("y", -400, 400))
    with monkeypatch.context() as m:
        calls = _count_node_evaluations(m)
        assert solve_model(pc, decls) == {"x": 1, "y": -400}
    return calls[0]


def test_tree_narrowing_work_is_linear_in_chain_length(monkeypatch, tier):
    short = _tree_interval_evaluations(monkeypatch, 50)
    long = _tree_interval_evaluations(monkeypatch, 100)
    assert long <= 2.5 * short, (short, long)


# -- incremental narrowing along the path


def _solutions(pairs, decls):
    return [t for t in domain_cube(decls)
            if all((eval_expr(e, t) != 0) == taken for e, taken in pairs)]


def test_child_box_from_the_parent_box_is_sound_seeded():
    rng = random.Random(4403)
    refuted = narrowed = kept = 0
    for _ in range(600):
        decls, pc, pairs = random_system(rng)
        chain = [pc]
        while chain[-1].parent is not None:
            chain.append(chain[-1].parent)
        for i, child in enumerate(reversed(chain[:-1])):
            parent = child.parent
            before = _narrowed(parent, decls).iv
            box = _narrowed(child, decls)
            assert child.parent._narrowed.iv is before  # the parent's box is reused
            solutions = _solutions(pairs[: i + 1], decls)
            if box.iv is None:
                assert not solutions, (decls, pairs[: i + 1])
                refuted += 1
                break  # and so is every descendant
            assert all(_inside(t, box.iv) for t in solutions), (pairs[: i + 1], box.iv)
            assert all(before[n][0] <= lo and hi <= before[n][1]
                       for n, (lo, hi) in box.iv.items())
            again = dict(box.iv)
            _fixpoint(child.constraints, again)
            assert again == box.iv  # a full run from the child's box shrinks nothing
            narrowed += box.iv != before
            kept += box.iv == before
    assert refuted > 200 and narrowed > 80 and kept > 300  # all three occur


def test_incremental_solves_give_the_lex_min_model_seeded():
    # along each chain, every child is solved after its parent, as the
    # engine does, so each solve starts from the parent's box, or from the
    # parent's model, which is checked on the newest constraint only
    rng = random.Random(4404)
    checked = reused = 0
    for _ in range(300):
        decls, _, pairs = random_system(rng)
        pc = PathCondition()
        model = solve_model(pc, decls)
        for i, (e, taken) in enumerate(pairs):
            expect_flags = {}
            for flag in (not taken, taken):
                child = pc.extend(e, flag)
                expect = brute_force_model(pairs[:i] + [(e, flag)], decls)
                got = solve_model(child, decls)
                assert got == expect, (decls, pairs[:i], (e, flag), model)
                checked += 1
                reused += got == model
                expect_flags[flag] = (child, got)
            pc, model = expect_flags[taken]
            if model is None:
                break
    assert checked > 1000 and reused > 100


def _chain_lt(links):
    chain = X
    for _ in range(links):
        chain = Binary("+", chain, Const(3))
    return lt(chain, Const(20))


def _last_child_revises(monkeypatch, depth):
    """_revise_linear calls of narrowing the last pc of `depth` extends by
    fresh copies of x+3+...+3 < 20, which is affine, so it is revised on its
    affine form: x < -10. Each ancestor is narrowed first, as a search of it
    leaves it; a solve of such a child takes its parent's model, and
    narrows nothing."""
    decls = (SymDecl("x", -400, 400),)
    pc = PathCondition()
    for _ in range(depth - 1):
        pc = pc.extend(_chain_lt(10), True)
        assert solve_model(pc, decls) == {"x": -400}
        _narrowed(pc, decls)
    child = pc.extend(_chain_lt(10), True)
    assert child.constraints[-1].lin is not None
    calls = [0]
    revise = solve_mod._revise_linear

    def counting(lin, box):
        calls[0] += 1
        return revise(lin, box)

    with monkeypatch.context() as m:
        m.setattr(solve_mod, "_revise_linear", counting)
        assert _narrowed(child, decls).iv == {"x": (-400, -11)}
    assert solve_model(child, decls) == {"x": -400}
    return calls[0]


def test_child_solve_work_does_not_grow_with_depth(monkeypatch):
    # the child revises only its new constraint, which the parent's box
    # already entails: one revise, whatever the depth
    counts = [_last_child_revises(monkeypatch, d) for d in (1, 2, 8, 15)]
    assert counts[1] == counts[2] == counts[3] <= counts[0], counts
    assert counts[1] > 0  # the new constraint was revised


def _square_chain_lt(links):
    chain = Binary("*", X, X)
    for _ in range(links):
        chain = Binary("+", chain, Const(3))
    return lt(chain, Const(1000))


def _last_tree_child_ievals(monkeypatch, depth):
    """_ieval calls of narrowing the last pc of `depth` extends by fresh
    copies of x*x+3+...+3 < 1000, which the tree revises (x*x is not
    affine): x^2 < 970 narrows x to [-31, 31]. Each ancestor is narrowed
    first, as a search of it leaves it; a solve of such a child takes its
    parent's model, and narrows nothing."""
    decls = (SymDecl("x", -400, 400),)
    pc = PathCondition()
    for _ in range(depth - 1):
        pc = pc.extend(_square_chain_lt(10), True)
        assert solve_model(pc, decls) == {"x": -31}
        _narrowed(pc, decls)
    child = pc.extend(_square_chain_lt(10), True)
    assert child.constraints[-1].lin is None
    calls = [0]
    ieval = solve_mod._ieval

    def counting(e, box):
        calls[0] += 1
        return ieval(e, box)

    with monkeypatch.context() as m:
        m.setattr(solve_mod, "_ieval", counting)
        assert _narrowed(child, decls).iv == {"x": (-31, 31)}
    assert solve_model(child, decls) == {"x": -31}
    return calls[0]


def test_tree_child_solve_work_does_not_grow_with_depth(monkeypatch):
    # the tree's own work: no comparison runs a generated revise
    monkeypatch.setattr(solve_mod, "_generated_revise", lambda e, want, make: None)
    counts = [_last_tree_child_ievals(monkeypatch, d) for d in (1, 2, 8, 15)]
    assert counts[1] == counts[2] == counts[3] <= counts[0], counts
    assert counts[1] > 0  # the chain was walked


def test_revision_bound_ends_a_slow_fixpoint(monkeypatch):
    # each revise shrinks x or y by one, so without the bound this runs
    # ~65,000 revisions before refuting the pc
    pc = PathCondition().extend(lt(X, Y), True).extend(lt(Y, X), True)
    iv = {"x": (-32768, 32767), "y": (-32768, 32767)}
    revisions = [0]
    require = solve_mod._require

    def counting(*args):
        revisions[0] += 1
        return require(*args)

    monkeypatch.setattr(solve_mod, "_require", counting)
    t0 = time.perf_counter()
    _fixpoint(pc.constraints, iv)
    assert time.perf_counter() - t0 < 1.0
    assert revisions[0] == 100 * 2
    assert iv["x"][0] > -32768 and iv["y"][1] < 32767  # sound progress, then stop


# -- the square rule


def test_square_narrowing_keeps_exactly_the_roots_hull(tier):
    # x*x in [lo, hi] for every x box in [-6, 6] and target in [-3, 40]:
    # the narrowed box is the hull of the x whose square lies in the target
    sq = Binary("*", X, X)
    for xl in range(-6, 7):
        for xh in range(xl, 7):
            for lo in range(-3, 41, 3):
                for hi in range(lo, 41, 4):
                    pc = (PathCondition().extend(Binary(">=", sq, Const(lo)), True)
                          .extend(Binary("<=", sq, Const(hi)), True))
                    roots = [v for v in range(xl, xh + 1) if lo <= v * v <= hi]
                    iv = {"x": (xl, xh)}
                    try:
                        _fixpoint(pc.constraints, iv)
                    except _Unsat:
                        assert not roots, (xl, xh, lo, hi)
                        continue
                    assert roots and iv["x"] == (min(roots), max(roots)), (xl, xh, lo, hi, iv)


def test_sum_of_squares_is_refuted_quickly(tier):
    # 999999 = 3^3 * 7 * 11 * 13 * 37 is not a sum of two squares
    decls = (SymDecl("x", 1, 1000), SymDecl("y", 1, 1000))
    total = Binary("+", Binary("*", X, X), Binary("*", Y, Y))
    pc = PathCondition().extend(Binary("==", total, Const(999999)), True)
    t0 = time.perf_counter()
    assert solve_model(pc, decls) is None
    assert time.perf_counter() - t0 < 0.5


# -- linear comparisons: the affine form at the int64 edge

_EDGE_CONSTS = (INT64_MAX, INT64_MIN, INT64_MAX - 5, INT64_MIN + 3, 2**62, -(2**62))


def _edge_const(rng):
    r = rng.random()
    if r < 0.35:
        return rng.choice(_EDGE_CONSTS) + rng.randint(-2, 2) * (r < 0.15)
    if r < 0.65:
        return rng.randint(-(2**40), 2**40)
    return rng.randint(-6, 6)


def _edge_side(rng, names, depth=0):
    """Affine sides: constants near +-2**63, coefficients up to 2**40,
    repeated inputs and neg."""
    x = Var(rng.choice(names))
    r = rng.random()
    if depth >= 3 or r < 0.2:
        return x if rng.random() < 0.6 else Const(wrap(_edge_const(rng)))
    if r < 0.3:
        return Unary("neg", _edge_side(rng, names, depth + 1))
    if r < 0.45:
        k = Const(rng.choice([rng.randint(-(2**40), 2**40), rng.randint(-4, 4)]))
        sub = _edge_side(rng, names, depth + 1)
        return Binary("*", k, sub) if rng.random() < 0.5 else Binary("*", sub, k)
    if r < 0.55:
        return Binary("-", Binary("+", x, x), x)  # x + x - x
    return Binary(rng.choice(["+", "-"]), _edge_side(rng, names, depth + 1),
                  _edge_side(rng, names, depth + 1))


def _edge_domain(rng, name):
    base = rng.choice([0, 0, 2**62, INT64_MAX - 4, INT64_MIN + 4, 2**23])
    lo = base + rng.randint(-4, 0)
    return SymDecl(name, lo, min(lo + rng.randint(0, 5), INT64_MAX))


def random_edge_system(rng):
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    decls = tuple(_edge_domain(rng, n) for n in names)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        e = Binary(op, _edge_side(rng, names), _edge_side(rng, names))
        pairs.append((e, rng.random() < 0.5))
    return decls, pairs


def _unwrapped(e, t):
    """e's value in unbounded integers: where it leaves int64, e wraps."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t[e.name]
    if isinstance(e, Unary):
        return -_unwrapped(e.operand, t)
    a, b = _unwrapped(e.left, t), _unwrapped(e.right, t)
    return a + b if e.op == "+" else a - b if e.op == "-" else a * b


def test_linear_narrowing_at_the_int64_edge_keeps_every_solution_seeded(monkeypatch):
    rng = random.Random(4405)
    revised = collections.Counter()
    revise = solve_mod._revise_linear

    def counting(lin, box):
        done = revise(lin, box)
        revised[done] += 1
        return done

    monkeypatch.setattr(solve_mod, "_revise_linear", counting)
    sat = unsat = 0
    for _ in range(400):
        decls, pairs = random_edge_system(rng)
        pc = _pc_of(pairs)
        solutions = _solutions(pairs, decls)
        iv = {d.name: (d.lo, d.hi) for d in decls}
        try:
            _fixpoint(pc.constraints, iv)
        except _Unsat:
            assert not solutions, (decls, pairs)
        else:
            assert all(_inside(t, iv) for t in solutions), (decls, pairs, iv)
        expect = solutions[0] if solutions else None
        assert expect == brute_force_model(pairs, decls)
        assert solve_model(pc, decls) == expect, (decls, pairs)
        sat += expect is not None
        unsat += expect is None
    # both verdicts occur, and both the affine revise and the tree fallback
    assert sat > 100 and unsat > 100, (sat, unsat)
    assert revised[True] > 200 and revised[False] > 100, revised


def test_linear_check_equals_the_tree_where_a_side_wraps_seeded():
    rng = random.Random(4406)
    wrapped = exact = 0
    for _ in range(300):
        decls, pairs = random_edge_system(rng)
        for e, taken in pairs:
            c = PathCondition().extend(e, taken).constraints[0]
            for t in domain_cube(decls):
                assert solve_mod._all_hold((c,), t) == ((eval_expr(e, t) != 0) == taken), (e, t)
                sides = (_unwrapped(e.left, t), _unwrapped(e.right, t))
                if any(not INT64_MIN <= v <= INT64_MAX for v in sides):
                    wrapped += 1
                elif c.lin is not None:
                    exact += 1
    assert wrapped > 1000 and exact > 1000, (wrapped, exact)


def test_a_linear_inequality_narrows_to_its_solutions_hull_seeded():
    # bounds consistency on one integer inequality is exact: each bound it
    # leaves is met by a solution with every other input at its extreme
    rng = random.Random(4408)
    refuted = narrowed = 0
    for _ in range(300):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        decls = tuple(SymDecl(n, lo, lo + rng.randint(0, 6))
                      for n in names for lo in [rng.randint(-5, 3)])
        side = Const(rng.randint(-8, 8))
        for n in names:
            term = Binary("*", Const(rng.choice([-3, -2, -1, 1, 2, 3])), Var(n))
            side = Binary("+", side, term)
        e = Binary(rng.choice(["<", "<=", ">", ">="]), side, Const(rng.randint(-6, 6)))
        taken = rng.random() < 0.5
        pc = PathCondition().extend(e, taken)
        assert pc.constraints[0].lin is not None
        solutions = _solutions([(e, taken)], decls)
        iv = {d.name: (d.lo, d.hi) for d in decls}
        try:
            _fixpoint(pc.constraints, iv)
        except _Unsat:
            assert not solutions, (decls, e, taken)
            refuted += 1
            continue
        hull = {n: (min(t[n] for t in solutions), max(t[n] for t in solutions)) for n in names}
        assert iv == hull, (decls, e, taken, iv)
        narrowed += any(iv[d.name] != (d.lo, d.hi) for d in decls)
    assert refuted > 50 and narrowed > 50, (refuted, narrowed)


def test_a_parent_model_missing_an_input_raises_solve_error():
    y_only = (SymDecl("y", -4, 4),)
    decls = (SymDecl("x", -4, 4), SymDecl("y", -4, 4))
    x_minus_x = Binary("-", X, X)  # x's coefficient is 0, x is still read
    for e in (lt(Binary("+", X, Y), Const(3)), lt(Binary("+", x_minus_x, Y), Const(3))):
        root = PathCondition()
        assert solve_model(root, y_only) == {"y": -4}  # a model with no x
        pc = root.extend(e, True)
        assert pc.constraints[0].lin is not None
        with pytest.raises(SolveError, match="unbound variable x"):
            solve_model(pc, decls)


# -- the generated revise against brute force, and both tiers' models


def _random_operand(rng, names, depth):
    """+ - * and neg over inputs, squares and constants, _EDGE_CONSTS among
    them so that values wrap."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(names))
        return Const(rng.choice(_EDGE_CONSTS) if rng.random() < 0.3 else rng.randint(-6, 6))
    if r < 0.35:
        return Unary("neg", _random_operand(rng, names, depth - 1))
    if r < 0.5:
        x = Var(rng.choice(names))
        return Binary("*", x, x)
    return Binary(rng.choice(["+", "-", "*"]), _random_operand(rng, names, depth - 1),
                  _random_operand(rng, names, depth - 1))


def _random_comparison(rng, names):
    """A comparison with at least one operand that is not an input or a
    constant: what gets a generated revise."""
    while True:
        e = Binary(rng.choice(["<", "<=", ">", ">=", "==", "!="]),
                   _random_operand(rng, names, rng.randint(1, 3)),
                   _random_operand(rng, names, rng.randint(1, 3)))
        if not all(isinstance(o, (Var, Const)) for o in (e.left, e.right)):
            return e


def _wraps(e, test):
    """Does some node of e leave int64 at test, so that it wraps?"""
    if isinstance(e, (Var, Const)):
        return False
    operands = (e.operand,) if isinstance(e, Unary) else (e.left, e.right)
    return any(_wraps(o, test) for o in operands) or (
        e.op not in lang.CMP_OPS and not INT64_MIN <= _unwrapped(e, test) <= INT64_MAX)


_SMALL = (SymDecl("x", -5, 5), SymDecl("y", -5, 5), SymDecl("z", -3, 3))


def test_generated_revise_keeps_every_solution_seeded():
    # random sub-boxes of small domains, inputs pinned to points among them
    rng = random.Random(4407)
    counts = collections.Counter()
    for _ in range(1000):
        e = _random_comparison(rng, ["x", "y", "z"])
        want = rng.random() < 0.5
        run = solve_mod._generated_revise(e, want, True)
        assert run is not None
        sub = []
        for d in _SMALL:
            lo, hi = sorted((rng.randint(d.lo, d.hi), rng.randint(d.lo, d.hi)))
            sub.append(SymDecl(d.name, lo, lo if rng.random() < 0.3 else hi))
        iv = {d.name: (d.lo, d.hi) for d in sub}
        points = list(domain_cube(tuple(sub)))
        solutions = [t for t in points if (eval_expr(e, t) != 0) == want]
        counts["wrapping"] += any(_wraps(e, t) for t in points)
        counts["pinned"] += any(lo == hi for lo, hi in iv.values())
        box = solve_mod._Box(dict(iv))
        try:
            run(box)
        except _Unsat:
            assert not solutions, (e, want, iv)  # refutes only empty boxes
            counts["refuted"] += 1
            continue
        assert all(_inside(t, box.iv) for t in solutions), (e, want, iv, box.iv)
        for name, (lo, hi) in iv.items():  # never widens
            assert lo <= box.iv[name][0] <= box.iv[name][1] <= hi, (e, want, iv, box.iv)
        # each shrunk input is noted, so the worklist queues its readers
        assert set(box.shrunk) == {n for n in iv if box.iv[n] != iv[n]}
        counts["narrowed" if box.iv != iv else "kept"] += 1
    # every outcome occurs, on wrapping trees and on pinned inputs too
    assert counts["refuted"] > 200 and counts["narrowed"] > 60 and counts["kept"] > 400, counts
    assert counts["wrapping"] > 200 and counts["pinned"] > 600, counts


def test_generated_revise_narrows_like_the_tree_on_simple_shapes_seeded():
    # where each input occurs once and no interval is evaluated again after
    # a narrowing changes it, the two tiers' boxes must be the same
    shapes = [
        lambda k: (X, Binary("+", Y, Const(k))),
        lambda k: (Binary("-", X, Const(k)), Y),
        lambda k: (Unary("neg", X), Y),
        lambda k: (X, Binary("*", Y, Const(k or 2))),
        lambda k: (Binary("*", X, Y), Const(k)),
        lambda k: (Binary("*", X, X), Const(k * 3)),
    ]
    rng = random.Random(4409)
    outcomes = collections.Counter()
    for _ in range(3000):
        left, right = rng.choice(shapes)(rng.randint(-3, 3))
        if rng.random() < 0.5:
            left, right = right, left
        e = Binary(rng.choice(["<", "<=", ">", ">=", "==", "!="]), left, right)
        want = rng.random() < 0.5
        iv = {}
        for name in ("x", "y"):
            lo, hi = sorted((rng.randint(-4, 4), rng.randint(-4, 4)))
            iv[name] = (lo, lo) if rng.random() < 0.3 else (lo, hi)
        boxes = []
        for revise in (solve_mod._generated_revise(e, want, True),
                       lambda box: solve_mod._require(e, want, box)):
            box = solve_mod._Box(dict(iv))
            try:
                revise(box)
            except _Unsat:
                box = None
            boxes.append(box and box.iv)
        assert boxes[0] == boxes[1], (e, want, iv, boxes)
        outcomes["refuted" if boxes[0] is None else "narrowed" if boxes[0] != iv else "kept"] += 1
    assert min(outcomes.values()) > 300, outcomes


def _revise_text(cond, want):
    program = lang.parse_program(
        "program p; sym x in [-9, 9]; sym y in [-9, 9]; sym z in [-9, 9];\n"
        f"if ({cond}) {{ exit(1); }} exit(2);")
    return solve_mod._revise_source(program.blocks[0].term.cond, want)


# a test between two literals, or one that always holds
_KNOWN_TEST = re.compile(r"if \(-?\d+\) [<>=!]=? \(-?\d+\)|if (\w+) \+ 1 > \1\b|if (\w+) - 1 < \2\b")


def test_generated_revise_folds_a_constant_factor():
    for want in (True, False):
        text = _revise_text("x*x + y*3 == -z", want)
        assert not _KNOWN_TEST.search(text), text
        # y*3's interval and its division by 3, for the positive sign only
        assert "    a5 = a6 * (3); b5 = b6 * (3)\n" in text
        assert "-((-a5) // (3)) > a6" in text and "b5 // (3) < b6" in text
        assert "(-b5) // (3)" not in text and "a5 // (3)" not in text
        # x*x still divides by a pinned x of either sign
        assert "if a3 > 0:" in text
    # by a negative constant (as evaluation makes them), the ends swap
    text = solve_mod._revise_source(Binary("<", Binary("*", Y, Const(-3)), X), True)
    assert "a1 = b2 * (-3); b1 = a2 * (-3)" in text and "(-b1) // (-3)" in text, text
    assert not _KNOWN_TEST.search(text), text
    # times 0 the node is (0, 0): nothing below it is ever narrowed, so y's
    # bounds l0, h0 are loaded and neither written nor written back
    text = _revise_text("0*y < x", True)
    assert "// (0)" not in text and "_narrow_var('y'" not in text, text
    assert "l0, h0 = iv['y']" in text and not re.search(r": [lh]0 = ", text), text


def test_generated_revise_writes_an_input_once_and_meets_after(monkeypatch):
    # y and z occur once: their first write takes the occurrence's interval,
    # which only narrowed the bounds it was read from. x's square writes
    # its hull, so each occurrence of x then meets the bounds
    text = _revise_text("x*x + y*3 == -z", True)
    assert "    if d6: l1 = a6; h1 = b6\n" in text and "    if d8: l2 = a8; h2 = b8\n" in text
    assert "else: l0, h0 = _square_hull(a2, b2, l0, h0)\n    if d3:\n" in text, text
    for k in (3, 4):
        assert f"    if a{k} > l0: l0 = a{k}\n        if b{k} < h0: h0 = b{k}\n" in text, text
    # a write-back tests each input's bounds against those it loaded; under
    # an entailment test, it runs only when that test fails
    assert text.endswith("\n    if l2 != L2 or h2 != H2: _narrow_var('z', l2, h2, box)\n"), text
    text = _revise_text("x*y < z", True)
    assert "\n    if not (b1 < a4):\n" in text, text
    assert text.endswith("\n        if l2 != L2 or h2 != H2: _narrow_var('z', l2, h2, box)\n"), text
    # in x < x the left x loses its top and the right x its bottom: the box
    # gets both
    monkeypatch.setattr(solve_mod, "_codes", {})
    box = solve_mod._Box({"x": (-6, 6)})
    solve_mod._generated_revise(Binary("<", X, X), True, True)(box)
    assert box.iv == {"x": (-5, 5)} and box.shrunk == ["x"]


def test_generated_revise_of_not_equal_assigns_its_cuts():
    text = _revise_text("x*y != z", True)
    assert not _KNOWN_TEST.search(text), text
    for end in ("a1 = a1 + 1", "b1 = b1 - 1", "a4 = a4 + 1", "b4 = b4 - 1"):
        assert f"\n                {end}; d{end[1]} = 1\n" in text, text
    # a constant side is one point: its test is gone, and only the other
    # side is cut
    text = _revise_text("x*y != 4", True)
    assert not _KNOWN_TEST.search(text) and "elif a1 == b1:" not in text, text
    assert "\n        if a1 == (4):\n            a1 = a1 + 1; d1 = 1\n" in text, text


def test_search_gives_the_same_model_on_both_tiers_seeded(monkeypatch):
    rng = random.Random(4408)
    decls = (SymDecl("x", -4, 4), SymDecl("y", -4, 4), SymDecl("z", -2, 2))
    sat = unsat = 0
    for _ in range(150):
        seed = rng.random()
        models = []
        for tier in ("generated", "tree"):
            # fresh nodes for each tier: a node keeps its generated revise
            r = random.Random(seed)
            pairs = [(_random_comparison(r, ["x", "y", "z"]), r.random() < 0.5)
                     for _ in range(r.randint(1, 3))]
            with monkeypatch.context() as m:
                if tier == "generated":
                    m.setattr(solve_mod, "HOT", 1)
                else:
                    m.setattr(solve_mod, "_generated_revise", lambda e, want, make: None)
                models.append(solve_mod._search(_pc_of(pairs), decls))
        expect = brute_force_model(pairs, decls)
        assert models == [expect, expect], pairs
        sat += expect is not None
        unsat += expect is None
    assert sat > 30 and unsat > 30, (sat, unsat)


# -- a component's generated search against backtracking


def _nodes(e):
    yield e
    if isinstance(e, Unary):
        yield from _nodes(e.operand)
    elif isinstance(e, Binary):
        yield from _nodes(e.left)
        yield from _nodes(e.right)


def _searchable(pairs, decls):
    """The pc of pairs, each comparison revised once (with HOT 1, through
    its generated revise), so that their component gets a generated search."""
    pc = _pc_of(pairs)
    box = {d.name: (d.lo, d.hi) for d in decls}
    for c in pc.constraints:
        try:
            solve_mod._revise(c.expr, c.taken, solve_mod._Box(dict(box)))
        except _Unsat:
            pass
    return pc


def _far_domains(rng, names):
    """Up to 9 values each (4 for four inputs), some near 2**31 or
    +-2**62, where a sum or a product of inputs leaves int64."""
    decls = []
    for name in names:
        lo = rng.choice((-5, -5, -3, 0, 2**31 - 2, 2**62, -(2**62) - 2)) + rng.randint(-1, 1)
        decls.append(SymDecl(name, lo, lo + rng.randint(0, 3 if len(names) == 4 else 8)))
    return tuple(decls)


def _pinned_operand(rng, names, depth):
    """+ - * and neg over inputs and small constants, with squares and
    constant factors (0 among them), and now and then a constant near
    +-2**63."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        if rng.random() < 0.7:
            return Var(rng.choice(names))
        return Const(rng.choice(_EDGE_CONSTS) if rng.random() < 0.1 else rng.randint(-3, 3))
    if r < 0.4:
        return Unary("neg", _pinned_operand(rng, names, depth - 1))
    if r < 0.5:
        x = Var(rng.choice(names))
        return Binary("*", x, x)
    if r < 0.6:
        return Binary("*", Const(rng.randint(-3, 3)), _pinned_operand(rng, names, depth - 1))
    return Binary(rng.choice(["+", "-", "*"]), _pinned_operand(rng, names, depth - 1),
                  _pinned_operand(rng, names, depth - 1))


def test_the_generated_search_returns_what_backtracking_returns_seeded(monkeypatch):
    monkeypatch.setattr(solve_mod, "HOT", 1)
    rng = random.Random(4411)
    seen = collections.Counter()
    for _ in range(200):
        names = ["w", "x", "y", "z"][:rng.randint(2, 4)]
        decls = _far_domains(rng, names)
        pairs = []
        while len(pairs) < 3 and (not pairs or rng.random() < 0.7):
            e = Binary(rng.choice(list(solve_mod._CMP)), _pinned_operand(rng, names, 2),
                       _pinned_operand(rng, names, 2))
            if not all(isinstance(o, (Var, Const)) for o in (e.left, e.right)):
                pairs.append((e, rng.random() < 0.5))
        pc = _searchable(pairs, decls)
        constraints = list(pc.constraints)
        # its first miss marks its key, and the second compiles it
        search = (solve_mod._generated_search(constraints, names)
                  or solve_mod._generated_search(constraints, names))
        assert search is not None, pairs
        narrow = search.__defaults__[0]
        points = list(domain_cube(decls))
        solutions = [t for t in points if all((eval_expr(e, t) != 0) == w for e, w in pairs)]

        def checked(*bounds):
            # every solution in the box stays in it, and the rounds end
            # where one more round shrinks nothing
            box = dict(zip(names, zip(bounds[::2], bounds[1::2])))
            inside = [t for t in solutions if _inside(t, box)]
            try:
                got = narrow(*bounds)
            except _Unsat:
                assert not inside, (pairs, box)
                seen["refuted"] += 1
                raise
            after = dict(zip(names, zip(got[::2], got[1::2])))
            assert all(_inside(t, after) for t in inside), (pairs, box, after)
            assert narrow(*got) == got, (pairs, box, after)
            seen["narrowed" if got != bounds else "kept"] += 1
            return got

        box = {d.name: (d.lo, d.hi) for d in decls}
        try:
            checked(*[v for d in decls for v in (d.lo, d.hi)])
        except _Unsat:
            pass
        watch = solve_mod._watch_list({}, pc.constraints, 0)
        want = solve_mod._backtrack(pc, watch, names, constraints, {}, dict(box), 0)
        assert want == brute_force_model(pairs, decls), pairs
        assert search(dict(box), {}, constraints, checked) == want, pairs
        seen["sat" if want else "unsat"] += 1
        seen["wrapping"] += any(_wraps(e, t) for e, _ in pairs for t in points)
        seen["far"] += any(abs(d.lo) > 2**30 for d in decls)
        for e, w in pairs:
            seen[e.op, w] += 1
            for node in _nodes(e):
                if isinstance(node, Binary) and node.op == "*":
                    consts = [o.value for o in (node.left, node.right) if isinstance(o, Const)]
                    seen["square"] += solve_mod._is_square(node)
                    seen["factor"] += bool(consts)
                    seen["zero factor"] += 0 in consts
                seen["neg"] += isinstance(node, Unary)
    # every comparison in both polarities, each kind of node, wrapping
    # trees and far domains, and every outcome of a narrowing
    assert min(seen[op, w] for op in solve_mod._CMP for w in (True, False)) > 15, seen
    assert min(seen[k] for k in ("square", "factor", "zero factor", "neg")) > 5, seen
    assert min(seen[k] for k in ("sat", "unsat", "wrapping", "far")) > 30, seen
    assert min(seen[k] for k in ("refuted", "kept")) > 100 and seen["narrowed"] > 20, seen


# input names that are also identifiers of the generated revises and searches
_LOCAL_NAMES = (
    "l0", "h0", "L0", "o0", "iv", "box", "a1", "d1", "p", "u", "narrow", "search", "env",
)


def test_inputs_named_like_the_generated_locals_get_the_backtracking_models_seeded(
    monkeypatch,
):
    monkeypatch.setattr(solve_mod, "HOT", 1)
    monkeypatch.setattr(solve_mod, "_codes", {})
    real = solve_mod._generated_search
    searches = []
    monkeypatch.setattr(solve_mod, "_generated_search",
                        lambda *a: searches.append(real(*a)) or searches[-1])
    rng = random.Random(4412)
    seen = collections.Counter()

    def pairs_of(r, names):  # fresh nodes: a node keeps its generated revise
        pairs = []
        while len(pairs) < 3 and (not pairs or r.random() < 0.7):
            e = Binary(r.choice(list(solve_mod._CMP)), _pinned_operand(r, names, 2),
                       _pinned_operand(r, names, 2))
            if not all(isinstance(o, (Var, Const)) for o in (e.left, e.right)):
                pairs.append((e, r.random() < 0.5))
        return pairs

    for _ in range(150):
        names = rng.sample(_LOCAL_NAMES, rng.randint(2, 3))
        decls = tuple(SymDecl(n, lo, lo + rng.randint(0, 6))
                      for n, lo in zip(names, [rng.randint(-4, 2) for _ in names]))
        seed = rng.random()
        with monkeypatch.context() as m:  # the tree and backtracking alone
            m.setattr(solve_mod, "_generated_revise", lambda e, want, make: None)
            want = solve_mod._search(_pc_of(pairs_of(random.Random(seed), names)), decls)
        pairs = pairs_of(random.Random(seed), names)
        assert want == brute_force_model(pairs, decls), pairs
        # generated revises under backtracking, then (its key marked by the
        # first search) the component's generated search
        pc = _searchable(pairs, decls)
        searches.clear()
        assert [solve_mod._search(pc, decls) for _ in range(2)] == [want, want], pairs
        assert all(type(c.expr._solve_revise[c.taken]) is not int for c in pc.constraints)
        seen["searched"] += bool(searches) and searches[-1] is not None
        seen["sat" if want else "unsat"] += 1
    assert seen["searched"] > 60 and min(seen["sat"], seen["unsat"]) > 60, seen


def test_a_component_gets_a_generated_search_once_its_revises_are_generated(monkeypatch):
    monkeypatch.setattr(solve_mod, "_codes", {})
    decls = (SymDecl("x", -9, 9), SymDecl("y", -9, 9), SymDecl("z", -9, 9))
    product = Binary("==", Binary("*", X, Y), Binary("+", Z, Const(1)))
    pairs = [(product, True), (lt(Binary("*", Y, Z), Const(3)), False)]
    pc = _pc_of(pairs)
    names = ["x", "y", "z"]
    assert solve_mod._generated_search(list(pc.constraints), names) is None
    monkeypatch.setattr(solve_mod, "HOT", 1)
    pc = _searchable(pairs, decls)
    # the first miss only marks the component's key; the second compiles
    assert solve_mod._generated_search(list(pc.constraints), names) is None
    assert list(solve_mod._codes)[-1][1] == ("x", "y", "z")
    search = solve_mod._generated_search(list(pc.constraints), names)
    assert search is not None and solve_mod._search(pc, decls) == brute_force_model(pairs, decls)
    # keyed on the sorted texts and the input order, compiled once
    key = ("\n".join(sorted(pc.texts())), ("x", "y", "z"))
    assert list(solve_mod._codes)[-1] == key
    again = solve_mod._generated_search(list(reversed(pc.constraints)), names)
    assert again.__code__ is search.__code__
    # one input, or a comparison whose revise runs on the tree, gets none
    one = _searchable([(lt(Binary("*", X, X), Const(5)), True)], decls[:1])
    calls = []
    real = solve_mod._generated_search
    monkeypatch.setattr(solve_mod, "_generated_search", lambda *a: calls.append(a) or real(*a))
    assert solve_mod._search(one, decls[:1]) == {"x": -2} and calls == []
    linear = _searchable(pairs + [(lt(X, Y), True)], decls)
    keys = list(solve_mod._codes)
    for _ in range(2):  # not even marked
        assert real(list(linear.constraints), names) is None
    assert list(solve_mod._codes) == keys


@pytest.mark.parametrize("where", ["revise", "search"])
def test_a_comparison_too_deep_to_generate_is_searched_by_backtracking(monkeypatch, where):
    monkeypatch.setattr(solve_mod, "_codes", {})
    monkeypatch.setattr(solve_mod, "HOT", 1)

    def too_deep(*args):
        deep.append(args)
        raise RecursionError

    # too deep for its own revise, which the tree then makes, or for the
    # component's search
    monkeypatch.setattr(solve_mod, "_revise_source" if where == "revise" else "_search_source",
                        too_deep)
    decls = (SymDecl("x", -9, 9), SymDecl("y", -9, 9))
    pairs = [(Binary("==", Binary("*", X, Y), Const(12)), True), (lt(X, Unary("neg", Y)), True)]
    calls = []
    real = solve_mod._backtrack
    monkeypatch.setattr(solve_mod, "_backtrack", lambda *a: calls.append(a) or real(*a))
    deep = []
    pc = _searchable(pairs, decls)
    for _ in range(3):
        model = solve_mod._search(pc, decls)
        assert model is not None and model == brute_force_model(pairs, decls)
    assert [a[-1] for a in calls].count(0) == 3  # each search backtracks
    # a failed generation is cached as None, so it is tried once
    searches = {key: code for key, code in solve_mod._codes.items() if type(key[1]) is tuple}
    if where == "revise":
        assert len(deep) == 2 and searches == {}
    else:
        assert len(deep) == 1 and list(searches.values()) == [None]


def test_a_component_of_more_inputs_than_the_compiler_nests_is_searched_by_backtracking(
    monkeypatch,
):
    # a chain of products over 24 inputs: the search's loops over the 23
    # pinned inputs nest past the compiler's limit of statically nested
    # blocks, so it fails to compile, once, and _backtrack finds the model
    monkeypatch.setattr(solve_mod, "_codes", {})
    monkeypatch.setattr(solve_mod, "HOT", 1)
    rng = random.Random(31)
    names = [f"x{i}" for i in range(24)]
    decls = tuple(SymDecl(name, rng.randint(-3, 0), rng.randint(2, 4)) for name in names)
    pairs = [(Binary(">=", Binary("*", Var(a), Var(b)), Const(rng.randint(1, 3))), True)
             if rng.random() < 0.7 else (Binary("==", Binary("*", Var(a), Var(b)), Const(0)), False)
             for a, b in zip(names, names[1:])]
    pc = _searchable(pairs, decls)
    built = []
    real = solve_mod._search_source
    monkeypatch.setattr(solve_mod, "_search_source", lambda *a: built.append(a) or real(*a))
    box = {d.name: (d.lo, d.hi) for d in decls}
    watch = solve_mod._watch_list({}, pc.constraints, 0)
    want = solve_mod._backtrack(pc, watch, names, list(pc.constraints), {}, box, 0)
    assert want is not None and solve_mod._all_hold(pc.constraints, want)
    for _ in range(3):
        assert solve_mod._search(pc, decls) == want
    key = ("\n".join(sorted(pc.texts())), tuple(names))
    assert len(built) == 1 and solve_mod._codes[key] is None


def test_a_comparison_runs_generated_from_its_hot_revise(monkeypatch):
    monkeypatch.setattr(solve_mod, "_codes", {})  # nothing compiled yet
    iv = {"x": (-9, 9), "y": (-9, 9), "z": (-9, 9)}

    def tier_after(e, want, revises):
        for _ in range(revises):
            solve_mod._revise(e, want, solve_mod._Box(dict(iv)))
        return e._solve_revise

    def product():
        return Binary("==", Binary("*", X, Y), Binary("+", Z, Const(1)))

    hot = solve_mod.HOT
    # the tree revises it, counted per polarity, until the HOT-th revise
    assert tier_after(product(), True, hot - 1) == [0, hot - 1]
    tier = tier_after(product(), True, hot)
    assert tier[0] == 0 and callable(tier[1])
    # an equal comparison on a fresh node runs the compiled code from its
    # first revise, in that polarity only
    assert callable(tier_after(product(), True, 1)[1])
    assert tier_after(product(), False, 1) == [1, 0]
    # a comparison over a comparison, logic and two inputs stay on the tree
    nested = Binary("==", lt(X, Y), Binary("+", Z, Const(1)))
    assert tier_after(nested, True, hot) is None
    assert tier_after(Binary("or", lt(X, Y), lt(Y, Z)), True, 1) is None
    assert tier_after(lt(X, Y), True, 1) is None


def test_a_constraint_holds_its_hot_revise(monkeypatch):
    monkeypatch.setattr(solve_mod, "_codes", {})  # nothing compiled yet
    iv = {"x": (-9, 9), "y": (-9, 9), "z": (-9, 9)}  # no revise narrows it
    e = Binary("==", Binary("*", X, Y), Binary("+", Z, Const(1)))
    held, other = solve_mod.Constraint(e, True), solve_mod.Constraint(e, False)
    hot = solve_mod.HOT
    for _ in range(hot - 1):
        solve_mod._fixpoint((held,), dict(iv))
    assert held.revise is None and e._solve_revise == [0, hot - 1]
    solve_mod._fixpoint((held,), dict(iv))
    assert callable(held.revise) and held.revise is e._solve_revise[True]
    solve_mod._fixpoint((other,), dict(iv))  # counted per polarity, as before
    assert other.revise is None and e._solve_revise[False] == 1
    # the fixpoint then calls it with no _revise, and narrows as the tree does
    start = {"x": (2, 9), "y": (3, 9), "z": (-9, 8)}
    tree = Binary("==", Binary("*", X, Y), Binary("+", Z, Const(1)))
    want = dict(start)
    with monkeypatch.context() as m:
        m.setattr(solve_mod, "_generated_revise", lambda e, want, make: None)
        solve_mod._fixpoint((solve_mod.Constraint(tree, True),), want)
    calls = []
    monkeypatch.setattr(solve_mod, "_revise", lambda *a: calls.append(a))
    got = dict(start)
    solve_mod._fixpoint((held,), got)
    assert calls == [] and got == want != start


# -- incrementality: what a constraint derives is built from its parts


def test_extending_a_chain_computes_the_new_node_only(monkeypatch):
    three, twenty = Const(3), Const(20)
    chain = X
    for _ in range(100):
        chain = Binary("+", chain, three)
    pc = PathCondition().extend(lt(chain, twenty), True)
    assert pc.key() == "(" * 101 + "x" + "+3)" * 100 + "<20)"
    assert pc.constraints[0].inputs == {"x"}
    computed = collections.Counter()
    for mod, name, memo in ((lang, "expr_text", "_text"), (lang, "reads", "_reads"),
                            (solve_mod, "_affine", "_solve_affine")):
        def counting(e, _f=getattr(mod, name), _name=name, _memo=memo):
            computed[_name] += not hasattr(e, _memo)
            return _f(e)
        monkeypatch.setattr(mod, name, counting)
    longer = Binary("+", chain, three)
    child = pc.extend(lt(longer, twenty), True)
    assert child.key().endswith("+3)<20)") and child.constraints[1].inputs == {"x"}
    # the new comparison and the new link; only the link has an affine form
    assert computed == {"expr_text": 2, "reads": 2, "_affine": 1}, computed
    assert child.constraints[1].lin[4] == (283, (("x", 1),))  # x + 303 - 20


def test_key_is_the_sorted_texts_seeded():
    rng = random.Random(4407)
    pool = [random_constraint_expr(rng, ["x", "y"]) for _ in range(6)]
    repeated = 0
    for _ in range(300):
        pc = PathCondition()
        for _ in range(rng.randint(1, 8)):
            pc = pc.extend(rng.choice(pool), rng.random() < 0.5)
            if rng.random() < 0.6:  # some parents keep sorted texts, some not
                assert pc.key() == "\n".join(sorted(pc.texts()))
        assert pc.key() == "\n".join(sorted(pc.texts()))
        repeated += len(set(pc.texts())) < len(pc.texts())
    assert repeated > 50


# -- query cache


def test_cache_hit_on_repeat_and_stored_model():
    cache = QueryCache()
    pc = PathCondition().extend(lt(X, Y), True)
    m1 = cache.query(pc, DECLS_XYZ)
    m2 = cache.query(pc, DECLS_XYZ)
    assert m1 == m2 == {"x": -8, "y": -7, "z": -8}
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_cache_key_ignores_constraint_order():
    cache = QueryCache()
    a = PathCondition().extend(lt(X, Y), True).extend(lt(Y, Z), True)
    b = PathCondition().extend(lt(Y, Z), True).extend(lt(X, Y), True)
    cache.query(a, DECLS_XYZ)
    cache.query(b, DECLS_XYZ)
    assert cache.hits == 1 and len(cache) == 1


def test_cache_stores_unsat_verdicts():
    cache = QueryCache()
    pc = PathCondition().extend(lt(X, X), True)
    assert cache.query(pc, DECLS_XYZ) is None
    assert cache.query(pc, DECLS_XYZ) is None
    assert cache.hits == 1 and cache.misses == 1


# -- independent components and the component memo

# three groups of inputs that no constraint but a merging one ties
# together, declared interleaved: a and c, then b, then d
GROUPS = (("a", "c"), ("b",), ("d",))
DECLS_GROUPS = (SymDecl("a", -2, 1), SymDecl("b", -2, 2), SymDecl("c", -1, 2), SymDecl("d", -2, 1))


def grouped_levels(rng):
    """One branch condition per level. Each reads one group, but for one
    that adds two groups' inputs; one condition comes twice, so that one
    polarity of its repeat is unsat whatever else holds."""
    levels = [random_constraint_expr(rng, list(rng.choice(GROUPS))) for _ in range(5)]
    i = rng.randrange(4)
    levels.insert(rng.randrange(i + 1, 6), levels[i])
    g, h = rng.sample(GROUPS, 2)
    both = Binary("+", Var(rng.choice(g)), Var(rng.choice(h)))
    cmp = Binary(rng.choice(["<", "<=", "==", "!="]), both, Const(rng.randint(-2, 2)))
    levels.insert(rng.randrange(3, 7), cmp)
    return levels


@pytest.mark.parametrize("cached", [True, False])
def test_component_solves_agree_with_brute_force_seeded(cached):
    # every pc of the tree that the levels make, both polarities at each
    # level, solved after its parent, as the engine does: so each solve
    # starts from the parent's model, and sibling subtrees meet the same
    # components again
    rng = random.Random(20261019)
    cube = list(domain_cube(DECLS_GROUPS))
    checked = memo_sat = memo_unsat = composed = 0
    for _ in range(40):
        levels = grouped_levels(rng)
        cache = QueryCache()
        root = PathCondition()
        solve_model(root, DECLS_GROUPS)
        stack = [(root, cube)]
        while stack:
            pc, solutions = stack.pop()
            if pc.depth == len(levels):
                continue
            e = levels[pc.depth]
            for taken in (False, True):
                child = pc.extend(e, taken)
                # brute force (oracles.brute_force_model, one constraint at
                # a time): the parent's solutions, in the cube's lex order,
                # that satisfy the new constraint
                kept = [t for t in solutions if (eval_expr(e, t) != 0) == taken]
                expect = kept[0] if kept else None
                hits = cache.memo.hits
                if cached:
                    got = cache.query(child, DECLS_GROUPS)
                else:
                    got = solve_model(child, DECLS_GROUPS)
                assert got == expect, (levels, child.texts())
                checked += 1
                if cache.memo.hits > hits:
                    memo_sat += expect is not None
                    memo_unsat += expect is None
                    box = child._narrowed
                    if box is not None:  # composed: holds every solution
                        assert (box.iv is None) == (expect is None)
                        assert all(_inside(t, box.iv) for t in kept)
                        composed += 1
                if expect is not None:
                    stack.append((child, kept))
    assert checked > 1500
    if cached:
        assert memo_sat > 100 and memo_unsat > 100 and composed > 50


W, V = Var("w"), Var("v")


def test_a_component_follows_shared_inputs_from_the_last_constraint():
    # w < x is passed over until x < y brings x in, two links from y < z
    pc = PathCondition()
    for e in (lt(W, X), lt(Const(3), V), lt(X, Y), lt(Y, Z)):
        pc = pc.extend(e, True)
    inputs, part = solve_mod._component(pc)
    assert inputs == {"w", "x", "y", "z"}  # v's component is left out
    assert [c.text for c in part] == ["(w<x)", "(x<y)", "(y<z)"]  # path order
    assert solve_mod._component(pc.parent.parent) == ({"v"}, [pc.constraints[1]])


def test_a_condition_on_no_input_is_its_own_component():
    pc = PathCondition().extend(lt(X, Y), True).extend(lt(Const(1), Const(2)), True)
    assert solve_mod._component(pc) == (set(), [pc.constraints[1]])
    # and it joins no component of an input
    child = pc.extend(lt(Y, Z), False)
    assert solve_mod._component(child)[1] == [child.constraints[0], child.constraints[2]]


def test_a_component_keeps_repeated_texts():
    pc = PathCondition()
    for e in (lt(X, Y), lt(Const(3), V), lt(X, Y), lt(Y, Z)):
        pc = pc.extend(e, True)
    inputs, part = solve_mod._component(pc)
    assert inputs == {"x", "y", "z"}
    assert [c.text for c in part] == ["(x<y)", "(x<y)", "(y<z)"]


def test_the_component_of_a_miss_gives_the_lex_min_model():
    # x's lex-min is 4, which y < z leaves alone; x < y ties them
    decls = (SymDecl("x", 0, 9), SymDecl("y", 0, 9), SymDecl("z", 0, 9))
    root = PathCondition()
    p1 = root.extend(lt(Const(3), X), True)
    p2 = p1.extend(lt(Y, Z), True)
    p3 = p2.extend(lt(X, Y), True)
    assert solve_mod._component(p2) == ({"y", "z"}, [p2.constraints[1]])
    assert solve_mod._component(p3) == ({"x", "y", "z"}, list(p3.constraints))
    cache = QueryCache()
    for pc in (root, p1, p2, p3):  # each parent first
        cache.query(pc, decls)
    assert p2._model == {"x": 4, "y": 0, "z": 1}
    assert p3._model == {"x": 4, "y": 5, "z": 6}


def test_components_agree_with_a_brute_force_closure_seeded():
    rng = random.Random(7517)
    names = ["v", "w", "x", "y", "z"]
    grew = 0
    for _ in range(400):
        pc = PathCondition()
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.1:  # a condition on no input
                e = lt(Const(rng.randint(-2, 2)), Const(rng.randint(-2, 2)))
            else:
                e = random_constraint_expr(rng, rng.sample(names, rng.randint(1, 2)))
            pc = pc.extend(e, rng.random() < 0.5)
        constraints = pc.constraints
        for c in constraints:
            assert c.inputs == lang.reads(c.expr)
        # the closure: constraints joined to the last one through shared
        # inputs, added until none is left to add
        inside = {len(constraints) - 1}
        while True:
            reached = set().union(*(constraints[k].inputs for k in inside))
            more = {k for k, c in enumerate(constraints) if c.inputs & reached} - inside
            if not more:
                break
            inside |= more
        want = [c for k, c in enumerate(constraints) if k in inside]
        assert solve_mod._component(pc) == (reached, want), pc.texts()
        grew += len(want) > 2 and len(reached) > len(constraints[-1].inputs)
    assert grew > 50


def test_a_component_memo_hit_replaces_only_its_inputs_and_composes_the_box():
    decls = (SymDecl("x", 0, 9), SymDecl("y", 0, 9), SymDecl("z", 0, 9))
    cache = QueryCache()

    def solved(pc):
        cache.query(pc, decls)
        return pc

    yz = [(lt(Binary("+", Y, Const(4)), Z), True), (lt(Const(0), Y), True)]
    root = solved(PathCondition())
    for x_big in (False, True):  # x's branch, then the same (y, z) pcs
        pc = solved(root.extend(lt(Const(5), X), x_big))
        for e, taken in yz:
            pc = solved(pc.extend(e, taken))
    # the root's model answers x <= 5; the second branch's (y, z) pcs are
    # memo hits
    assert cache.misses == 7 and cache.reused == 1 and cache.memo.hits == 2
    assert pc._model == {"x": 6, "y": 1, "z": 6}
    assert pc._narrowed.iv == {"x": (6, 9), "y": (1, 4), "z": (6, 9)}
    fresh = PathCondition()
    for c in pc.constraints:
        fresh = fresh.extend(c.expr, c.taken)
    assert _narrowed(fresh, decls).iv == pc._narrowed.iv
    # an unsat component is answered unsat, on either x branch
    for x_big in (False, True):
        x = root.extend(lt(Const(5), X), x_big)
        cache.query(x, decls)
        assert cache.query(x.extend(lt(Y, Y), True), decls) is None
    assert cache.memo.hits == 3


def test_a_fresh_query_cache_starts_with_an_empty_memo():
    cache = QueryCache()
    assert len(cache.memo) == 0 and cache.memo.hits == 0
    assert cache.memo is not QueryCache().memo


@settings(max_examples=60)
@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_model_satisfies_its_own_pc(a, b, c):
    pc = (
        PathCondition()
        .extend(Binary("<=", Binary("+", X, Const(a)), Y), b % 2 == 0)
        .extend(Binary(">", Binary("*", Y, Const(2)), Const(c)), c % 2 == 0)
    )
    decls = (SymDecl("x", -4, 4), SymDecl("y", -4, 4))
    m = solve_model(pc, decls)
    if m is not None:
        assert pc.satisfied_by(m)
        assert eval_expr(pc.constraints[0].expr, dict(m)) in (0, 1)


def test_a_sum_over_1024_inputs_in_one_comparison_gets_its_lex_min_witness():
    # each side of the branch is one component of all 1,024 inputs, pinned
    # in turn by backtracking, which must not recurse once per input
    def balanced(lo, hi):
        if hi - lo == 1:
            return f"x{lo}"
        mid = (lo + hi) // 2
        return f"({balanced(lo, mid)} + {balanced(mid, hi)})"

    decls = "".join(f"sym x{i} in [0, 1];\n" for i in range(1024))
    prog = lang.parse_program(
        f"program sum;\n{decls}if ({balanced(0, 1024)} < 3) {{ exit(0); }}\nexit(1);\n"
    )
    eng = Engine(prog)
    res = eng.start_execution(eng.initial_state(), {}, 0, 1, Strategy("dfs"))
    zeros = {f"x{i}": 0 for i in range(1024)}
    # the sum reaches 3 first with the last three inputs at 1
    assert {c.path: c.test for c in res.completed} == {
        "1": zeros, "0": {**zeros, "x1021": 1, "x1022": 1, "x1023": 1},
    }
