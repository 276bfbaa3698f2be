"""Concrete evaluation, path conditions, the interval solver, the cache."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_model, brute_force_sat, domain_cube, eval_expr
from tdpart import solve as solve_mod
from tdpart.lang import INT64_MAX, INT64_MIN, Binary, Const, SymDecl, Unary, Var
from tdpart.solve import (
    DomainCapError,
    PathCondition,
    QueryCache,
    SolveError,
    _fixpoint,
    _narrowed,
    _Unsat,
    check_sat,
    decode_test,
    encode_test,
    evaluate_concrete,
    get_model,
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


def test_constraint_depths_are_one_based():
    pc = PathCondition().extend(lt(X, Y), True).extend(lt(Y, Z), True)
    assert [c.depth for c in pc.constraints] == [1, 2]


# -- solving


DECLS_XYZ = (SymDecl("x", -8, 7), SymDecl("y", -8, 7), SymDecl("z", -8, 7))


def test_known_lex_minimum_models():
    pc00 = PathCondition().extend(lt(X, Y), False).extend(lt(X, Z), False)
    assert get_model(pc00, DECLS_XYZ) == {"x": -8, "y": -8, "z": -8}
    pc10 = PathCondition().extend(lt(X, Y), True).extend(lt(Y, Z), False)
    assert get_model(pc10, DECLS_XYZ) == {"x": -8, "y": -7, "z": -8}


def test_unsat_contradiction():
    pc = PathCondition().extend(lt(X, Const(0)), True).extend(
        Binary(">", X, Const(0)), True
    )
    assert not check_sat(pc, (SymDecl("x", -8, 7),))
    assert solve_model(pc, (SymDecl("x", -8, 7),)) is None
    with pytest.raises(SolveError):
        get_model(pc, (SymDecl("x", -8, 7),))


def test_empty_domain_is_unsat():
    assert not check_sat(PathCondition(), (SymDecl("x", 3, 2),))


def test_domain_cap_is_enforced():
    with pytest.raises(DomainCapError):
        check_sat(PathCondition(), (SymDecl("x", 0, 99),), domain_cap=50)


def test_empty_path_condition_gives_domain_minimum():
    assert get_model(PathCondition(), DECLS_XYZ) == {"x": -8, "y": -8, "z": -8}


def test_model_respects_declaration_order_not_name_order():
    decls = (SymDecl("b", 0, 3), SymDecl("a", 0, 3))
    pc = PathCondition().extend(Binary("<", Var("a"), Var("b")), True)
    # lex order over (b, a): b=1, a=0 beats b=0 (infeasible) and a-first orders
    assert get_model(pc, decls) == {"b": 1, "a": 0}


def test_equality_chain():
    pc = (
        PathCondition()
        .extend(Binary("==", X, Y), True)
        .extend(Binary("==", Y, Z), True)
        .extend(Binary(">", X, Const(2)), True)
    )
    assert get_model(pc, DECLS_XYZ) == {"x": 3, "y": 3, "z": 3}


def test_arithmetic_through_constraints():
    # x + y == 5 with x in [0,4], y in [0,4]: lex-min is x=1, y=4
    pc = PathCondition().extend(
        Binary("==", Binary("+", X, Y), Const(5)), True
    )
    decls = (SymDecl("x", 0, 4), SymDecl("y", 0, 4))
    assert get_model(pc, decls) == {"x": 1, "y": 4}


def test_negated_compound_condition():
    # !((x<y) or (x<z)) forces x >= y and x >= z
    pc = PathCondition().extend(Binary("or", lt(X, Y), lt(X, Z)), False)
    m = get_model(pc, DECLS_XYZ)
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
        assert check_sat(pc, decls) == (expect is not None)
        if expect is not None:
            sats += 1
            assert get_model(pc, decls) == expect
    assert sats > 50  # the generator must not be degenerate


# -- parent-model hints


def _pc_of(pairs):
    pc = PathCondition()
    for e, taken in pairs:
        pc = pc.extend(e, taken)
    return pc


def test_parent_model_hint_gives_the_lex_min_model_seeded():
    rng = random.Random(20261018)
    checked = reused = 0
    for _ in range(300):
        decls, _, pairs = random_system(rng)
        for i, (e, taken) in enumerate(pairs):
            parent = pairs[:i]
            hint = brute_force_model(parent, decls)
            for flag in (taken, not taken):
                child = parent + [(e, flag)]
                expect = brute_force_model(child, decls)
                got = solve_model(_pc_of(child), decls, hint=hint)
                assert got == expect, (decls, child, hint)
                checked += 1
                reused += hint is not None and got == hint
    assert checked > 1000 and reused > 100  # both the hint and the solve run


def test_hint_violating_the_pc_is_never_returned():
    rng = random.Random(77)
    ignored = 0
    for _ in range(300):
        decls, pc, pairs = random_system(rng)
        expect = brute_force_model(pairs, decls)
        hint = {d.name: rng.randint(d.lo, d.hi) for d in decls}
        if all((eval_expr(e, hint) != 0) == t for e, t in pairs):
            continue  # satisfies pc: a valid model, just not a violating hint
        ignored += 1
        assert solve_model(pc, decls, hint=hint) == expect
        cache = QueryCache()
        assert cache.query(pc, decls, hint=hint) == (expect is not None, expect)
        assert cache.reused == 0
    assert ignored > 100


def test_hint_is_returned_as_a_copy_and_counted_as_reused():
    hint = {"x": -8, "y": -7, "z": -8}  # lex-min model of x<y
    pc = PathCondition().extend(lt(X, Y), True).extend(lt(Y, Z), False)
    cache = QueryCache()
    sat, model = cache.query(pc, DECLS_XYZ, hint=hint)
    assert sat and model == hint and model is not hint
    assert cache.misses == 1 and cache.reused == 1
    cache.query(pc, DECLS_XYZ, hint=hint)
    assert cache.hits == 1 and cache.reused == 1  # hits never consult it


def test_domain_cap_is_enforced_with_a_hint():
    decls = (SymDecl("x", 0, 99),)
    with pytest.raises(DomainCapError):
        solve_model(PathCondition(), decls, domain_cap=50, hint={"x": 0})
    with pytest.raises(DomainCapError):
        QueryCache().query(PathCondition(), decls, domain_cap=50, hint={"x": 0})


def test_empty_domain_is_unsat_with_a_hint():
    assert solve_model(PathCondition(), (SymDecl("x", 3, 2),), hint={"x": 3}) is None


def test_constraint_text_is_rendered_once():
    pc = PathCondition().extend(Binary("+", X, Const(3)), False)
    c = pc.constraints[0]
    assert c.text == "!(x+3)" and c.text is c.text
    assert pc.key() == "!(x+3)" and pc.texts() == ["!(x+3)"]


# -- narrowing: soundness, lex-min at product scale, linear work


def _inside(test, iv):
    return all(iv[n][0] <= v <= iv[n][1] for n, v in test.items())


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
        hint = brute_force_model(parent, decls)
        for flag in (taken, not taken):
            child = parent + [(e, flag)]
            expect = brute_force_model(child, decls)
            assert solve_model(_pc_of(child), decls) == expect, child
            got = solve_model(_pc_of(child), decls, hint=hint)
            assert got == expect, (child, hint)
            sat += expect is not None
            unsat += expect is None
            reused += hint is not None and got == hint
    assert sat > 100 and unsat > 50 and reused > 50


def test_product_with_no_factor_pair_in_range_is_refuted(monkeypatch):
    decls = (SymDecl("x", -200, 200), SymDecl("y", -200, 200))
    pc = PathCondition().extend(Binary("==", Binary("*", X, Y), Const(7919)), True)
    calls = {"_ieval": 0, "_all_hold": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(solve_mod, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(solve_mod, name, counting)
    assert solve_model(pc, decls) is None  # 7919 is prime and > 200
    # each pinned x narrows y to nothing: a few node evaluations per value
    # of x, and no point of the 401x401 cube is evaluated concretely
    assert calls["_all_hold"] == 0 and calls["_ieval"] <= 10 * 401, calls


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
    # engine does, so each solve starts from the parent's box; with the
    # parent's model as the hint, only the newest constraint is checked
    rng = random.Random(4404)
    checked = reused = 0
    for _ in range(300):
        decls, _, pairs = random_system(rng)
        for use_hint in (False, True):
            pc, model = PathCondition(), None
            solve_model(pc, decls)
            for i, (e, taken) in enumerate(pairs):
                expect_flags = {}
                for flag in (not taken, taken):
                    child = pc.extend(e, flag)
                    expect = brute_force_model(pairs[:i] + [(e, flag)], decls)
                    got = solve_model(child, decls, hint=model if use_hint else None)
                    assert got == expect, (decls, pairs[:i], (e, flag), model)
                    checked += 1
                    reused += use_hint and model is not None and got == model
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


def _last_child_ievals(monkeypatch, depth):
    """_ieval calls of the last solve on a pc of `depth` extends by fresh
    copies of x+3+...+3 < 20, each ancestor solved first."""
    decls = (SymDecl("x", -400, 400),)
    pc = PathCondition()
    for _ in range(depth - 1):
        pc = pc.extend(_chain_lt(10), True)
        assert solve_model(pc, decls) == {"x": -400}
    child = pc.extend(_chain_lt(10), True)
    calls = [0]
    ieval = solve_mod._ieval

    def counting(e, box):
        calls[0] += 1
        return ieval(e, box)

    with monkeypatch.context() as m:
        m.setattr(solve_mod, "_ieval", counting)
        assert solve_model(child, decls) == {"x": -400}
    return calls[0]


def test_child_solve_work_does_not_grow_with_depth(monkeypatch):
    # the child revises only its new constraint, which the parent's box
    # already entails: one walk down its chain, whatever the depth
    counts = [_last_child_ievals(monkeypatch, d) for d in (1, 2, 8, 15)]
    assert counts[1] == counts[2] == counts[3] <= counts[0], counts


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


def test_square_narrowing_keeps_exactly_the_roots_hull():
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


def test_sum_of_squares_is_refuted_quickly():
    # 999999 = 3^3 * 7 * 11 * 13 * 37 is not a sum of two squares
    decls = (SymDecl("x", 1, 1000), SymDecl("y", 1, 1000))
    total = Binary("+", Binary("*", X, X), Binary("*", Y, Y))
    pc = PathCondition().extend(Binary("==", total, Const(999999)), True)
    t0 = time.perf_counter()
    assert solve_model(pc, decls) is None
    assert time.perf_counter() - t0 < 0.5


# -- query cache


def test_cache_hit_on_repeat_and_stored_model():
    cache = QueryCache()
    pc = PathCondition().extend(lt(X, Y), True)
    sat1, m1 = cache.query(pc, DECLS_XYZ)
    sat2, m2 = cache.query(pc, DECLS_XYZ)
    assert sat1 and sat2 and m1 == m2 == {"x": -8, "y": -7, "z": -8}
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
    assert cache.query(pc, DECLS_XYZ) == (False, None)
    assert cache.query(pc, DECLS_XYZ) == (False, None)
    assert cache.hits == 1 and cache.misses == 1


# -- test serialization


def test_encode_test_golden():
    assert encode_test({}) == b"\x00\x00"
    enc = encode_test({"y": 7, "x": -8})
    assert enc == (
        b"\x00\x02"
        b"\x00\x01x\xff\xff\xff\xff\xff\xff\xff\xf8"
        b"\x00\x01y\x00\x00\x00\x00\x00\x00\x00\x07"
    )


def test_decode_test_round_trip_and_offset():
    test = {"x": -8, "y": 7, "mid": 0}
    buf = encode_test(test) + b"tail"
    got, off = decode_test(buf)
    assert got == test
    assert buf[off:] == b"tail"


def test_decode_test_truncated():
    enc = encode_test({"x": 1})
    for cut in range(len(enc)):
        with pytest.raises(ValueError, match="truncated test encoding"):
            decode_test(enc[:cut])


@given(
    st.dictionaries(
        st.text(
            st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        max_size=6,
    )
)
def test_encode_decode_test_round_trip(test):
    got, off = decode_test(encode_test(test))
    assert got == test
    assert off == len(encode_test(test))


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
    if check_sat(pc, decls):
        m = get_model(pc, decls)
        assert pc.satisfied_by(m)
        assert eval_expr(pc.constraints[0].expr, dict(m)) in (0, 1)
