import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dgdescent.dgla import (el_add, el_eq, el_is_zero, el_scale, el_sub,
                            el_sum, lower_central_series, tensor_lie)
from dgdescent.forms import face_map
from dgdescent.instances import (abelian_algebra, dual_numbers, ef_algebra,
                                 probe_class2, random_acyclic_fibration,
                                 random_gauge, random_mc, random_nilpotent,
                                 spec_lifting_fibration, t_truncated,
                                 tampered_fibration, wz_algebra)
from dgdescent.mcgauge import (FiniteLieContext, FormLieContext,
                               ObstructionUnsolvable, bch,
                               constrained_mc_solve, flow_path, gauge_act,
                               gauge_equivalent, holonomy, mc_element,
                               mc_residual, mc_lift, solve_1simplex)

F = Fraction


def tf_instance():
    """(t)/t^3 tensor {e,f,[e,f]=f}: class 2, dim 4."""
    nil = tensor_lie(t_truncated(3), ef_algebra())
    a = nil.algebra
    te = a.space.index(0, ("t", "e"))
    t2e = a.space.index(0, ("t2", "e"))
    tf = a.space.index(1, ("t", "f"))
    t2f = a.space.index(1, ("t2", "f"))
    return nil, te, t2e, tf, t2f


# -- residual ----------------------------------------------------------------

def test_residual_zero_element():
    nil = tensor_lie(dual_numbers(), ef_algebra())
    ctx = FiniteLieContext(nil)
    assert mc_residual(ctx, {}) == {}


def test_residual_abelian_is_differential():
    nil = lower_central_series(
        abelian_algebra({0: 1, 1: 1, 2: 1}, d={1: {2: F(1)}}))
    ctx = FiniteLieContext(nil)
    v = ctx.degree_keys(1)[0]
    w = ctx.degree_keys(2)[0]
    assert mc_residual(ctx, {v: F(3)}) == {w: F(3)}


def test_residual_wz_half_square():
    nil = tensor_lie(t_truncated(3), wz_algebra())
    a = nil.algebra
    tw = a.space.index(1, ("t", "w"))
    t2z = a.space.index(2, ("t2", "z"))
    ctx = FiniteLieContext(nil)
    assert mc_residual(ctx, {tw: F(1)}) == {t2z: F(1, 2)}
    with pytest.raises(ValueError):
        mc_element(ctx, {tw: F(1)})


# -- gauge action -------------------------------------------------------------

def test_gauge_abelian_is_translation_by_dy():
    nil = lower_central_series(
        abelian_algebra({0: 2, 1: 2}, d={0: {2: F(1)}, 1: {2: F(2), 3: F(1)}}))
    ctx = FiniteLieContext(nil)
    rng = random.Random(0)
    for _ in range(10):
        x = {k: F(rng.randint(-3, 3)) for k in ctx.degree_keys(1)}
        y = {k: F(rng.randint(-3, 3)) for k in ctx.degree_keys(0)}
        assert el_eq(gauge_act(ctx, y, x), el_add(x, ctx.d_el(y)))


def test_gauge_fixed_point():
    # dy = 0 and [x,y] = 0 leaves x unchanged
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    x = {t2f: F(7)}
    y = {t2e: F(5)}       # [t2 e, t2 f] = t^4 f = 0
    assert el_eq(gauge_act(ctx, y, x), x)


def test_gauge_tf_closed_form():
    # x = (ta + t^2 a')f, y = tb e gives x - t^2 ab f
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    for a, ap, b in [(F(3), F(5), F(2)), (F(1), F(0), F(-4)),
                     (F(2, 3), F(1, 7), F(9))]:
        x = {tf: a, t2f: ap}
        y = {te: b}
        expect = {tf: a, t2f: ap - a * b}
        expect = {k: v for k, v in expect.items() if v}
        assert el_eq(gauge_act(ctx, y, x), expect)


def test_gauge_preserves_mc_randomized():
    rng = random.Random(42)
    for _ in range(25):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        x = random_mc(rng, nil)
        assert el_is_zero(mc_residual(ctx, x))
        y = random_gauge(rng, nil)
        out = gauge_act(ctx, y, x)
        assert el_is_zero(mc_residual(ctx, out))


# -- bch ----------------------------------------------------------------------

def test_bch_with_zero():
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    y = {te: F(2), t2e: F(3)}
    assert el_eq(bch(ctx, y, {}), y)
    assert el_eq(bch(ctx, {}, y), y)


def test_bch_abelian_is_addition():
    nil = lower_central_series(abelian_algebra({0: 3, 1: 1}))
    ctx = FiniteLieContext(nil)
    y1 = {0: F(1), 2: F(-2)}
    y2 = {1: F(5), 2: F(2)}
    assert el_eq(bch(ctx, y1, y2), el_add(y1, y2))


def test_bch_class2_closed_form():
    # composition order: acting by y2 then y1 is y1 + y2 + [y2,y1]/2
    nil = lower_central_series(probe_class2())
    ctx = FiniteLieContext(nil)
    g = nil.algebra
    a = {g.space.index(0, "a"): F(1)}
    b = {g.space.index(0, "b"): F(1)}
    expect = el_add(el_add(a, b),
                    el_scale(F(1, 2), ctx.bracket_el(b, a)))
    assert el_eq(bch(ctx, a, b), expect)


def test_action_law_randomized():
    rng = random.Random(7)
    for _ in range(20):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        x = random_mc(rng, nil)
        y1 = random_gauge(rng, nil)
        y2 = random_gauge(rng, nil)
        lhs = gauge_act(ctx, y1, gauge_act(ctx, y2, x))
        rhs = gauge_act(ctx, bch(ctx, y1, y2), x)
        assert el_eq(lhs, rhs)


def test_bch_inverse_and_many():
    nil = lower_central_series(probe_class2())
    ctx = FiniteLieContext(nil)
    g = nil.algebra
    y = {g.space.index(0, "a"): F(2), g.space.index(0, "b"): F(1)}
    assert el_eq(bch(ctx, y, el_scale(F(-1), y)), {})
    ys = [{g.space.index(0, "a"): F(1)}, {g.space.index(0, "b"): F(1)},
          {g.space.index(0, "c"): F(1)}]
    folded = bch(ctx, bch(ctx, ys[0], ys[1]), ys[2])
    assert el_eq(folded, bch(ctx, ys[0], bch(ctx, ys[1], ys[2])))


# -- 1-simplices and holonomy --------------------------------------------------

def _gauge_family(n, ys):
    """The degree-0 family t_1 ys[0] + ... + t_n ys[n-1] on Omega_n (x) g."""
    family = {}
    for j, y in enumerate(ys):
        mono = (tuple(1 if i == j else 0 for i in range(n)), 0)
        for gi, c in y.items():
            family[(n, gi, mono)] = c
    return family


def test_solve_1simplex_zero_gauge():
    nil, te, t2e, tf, t2f = tf_instance()
    ctx1 = FormLieContext(nil, 1)
    x0 = {tf: F(2)}
    z = solve_1simplex(ctx1, x0, {})
    assert el_eq(ctx1.vertex(0, z), x0)
    assert el_eq(ctx1.vertex(1, z), x0)
    # constant simplex: no dt part, no t dependence
    assert all(mono == ((0,), 0) for (_, _, mono) in z)


def test_solve_1simplex_abelian_expansion():
    # abelian: z = x0 + t d(theta) + dt theta
    nil = lower_central_series(abelian_algebra({0: 1, 1: 1}, d={0: {1: F(1)}}))
    ctx1 = FormLieContext(nil, 1)
    u, v = 0, 1
    x0 = {}
    theta = {u: F(3)}
    z = solve_1simplex(ctx1, x0, theta)
    expect = {(1, v, ((1,), 0)): F(3), (1, u, ((0,), 1)): F(3)}
    assert el_eq(z, expect)


def test_solve_1simplex_endpoints_randomized():
    rng = random.Random(3)
    for _ in range(15):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        ctx1 = FormLieContext(nil, 1)
        x0 = random_mc(rng, nil)
        theta = random_gauge(rng, nil)
        z = solve_1simplex(ctx1, x0, theta)
        assert el_is_zero(mc_residual(ctx1, z))
        assert el_eq(ctx1.vertex(0, z), x0)
        assert el_eq(ctx1.vertex(1, z), gauge_act(ctx, theta, x0))


def test_holonomy_constant_and_abelian():
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    y = {te: F(2), t2e: F(-1)}
    assert el_eq(holonomy(ctx, [y]), y)
    # abelian path: integral of y(t)
    nil_ab = lower_central_series(abelian_algebra({0: 1, 1: 1}))
    ctx_ab = FiniteLieContext(nil_ab)
    path = [{0: F(1)}, {0: F(4)}]     # y(t) = 1 + 4t
    assert el_eq(holonomy(ctx_ab, path), {0: F(3)})


def test_holonomy_matches_nonautonomous_flow():
    rng = random.Random(11)
    for _ in range(12):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        x = random_mc(rng, nil)
        path = [random_gauge(rng, nil), random_gauge(rng, nil)]
        theta = holonomy(ctx, path)
        assert el_eq(gauge_act(ctx, theta, x),
                     el_sum(flow_path(ctx, path, x)))


# -- lifting -------------------------------------------------------------------

def test_mc_lift_identity():
    from dgdescent.dgla import identity_map
    nil, te, t2e, tf, t2f = tf_instance()
    f = identity_map(nil.algebra)
    xbar = {tf: F(2)}
    x = mc_lift(f, nil, nil, xbar)
    assert el_eq(x, xbar)


def test_mc_lift_to_zero_target():
    from dgdescent.dgla import DgLieMap
    nil, te, t2e, tf, t2f = tf_instance()
    zero = abelian_algebra({})
    f = DgLieMap(nil.algebra, zero, {})
    x = mc_lift(f, nil, lower_central_series(zero), {})
    assert el_is_zero(mc_residual(FiniteLieContext(nil), x))


def test_mc_lift_spec_example():
    f, nil_g, nil_h = spec_lifting_fibration()
    vbar = nil_h.algebra.space.index(1, "a1_0")
    v = nil_g.algebra.space.index(1, "v")
    for a in [F(1), F(-3), F(5, 2)]:
        x = mc_lift(f, nil_g, nil_h, {vbar: a})
        assert el_eq(x, {v: a})


def test_mc_lift_randomized_fibrations():
    rng = random.Random(2024)
    count = 0
    while count < 20:
        f, nil_src, nil_tgt = random_acyclic_fibration(rng)
        from dgdescent.dgla import is_acyclic_fibration
        assert is_acyclic_fibration(f, nil_src, nil_tgt)
        xbar = random_mc(rng, nil_tgt)
        x = mc_lift(f, nil_src, nil_tgt, xbar)
        assert el_eq(f.apply(x), xbar)
        assert el_is_zero(mc_residual(FiniteLieContext(nil_src), x))
        count += 1


def test_mc_lift_tampered_fibration_fails():
    f, nil_g, nil_h = tampered_fibration()
    from dgdescent.dgla import is_acyclic_fibration
    assert not is_acyclic_fibration(f, nil_g, nil_h)
    vbar = nil_h.algebra.space.index(1, "a1_0")
    with pytest.raises(ObstructionUnsolvable):
        mc_lift(f, nil_g, nil_h, {vbar: F(1)})


# -- gauge equivalence ----------------------------------------------------------

def test_gauge_equivalent_reflexive():
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    res = gauge_equivalent(ctx, {tf: F(1)}, {tf: F(1)})
    assert res.status == "witness" and res.witness == {}


def test_gauge_equivalent_abelian_h1_criterion():
    # abelian: equivalent iff the difference is a coboundary
    nil = lower_central_series(
        abelian_algebra({0: 2, 1: 2}, d={0: {2: F(1)}}))
    ctx = FiniteLieContext(nil)
    v0, v1 = ctx.degree_keys(1)
    res = gauge_equivalent(ctx, {}, {v0: F(2)})
    assert res.status == "witness"
    assert el_eq(gauge_act(ctx, res.witness, {}), {v0: F(2)})
    res2 = gauge_equivalent(ctx, {}, {v1: F(1)})
    assert res2.status == "distinct" and res2.complete


def test_gauge_equivalent_tf_orbits():
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    # (a, a') ~ (a, a'') for a != 0, witness (a'-a'')/a
    res = gauge_equivalent(ctx, {tf: F(3), t2f: F(5)}, {tf: F(3), t2f: F(1)})
    assert res.status == "witness"
    assert el_eq(gauge_act(ctx, res.witness, {tf: F(3), t2f: F(5)}),
                 {tf: F(3), t2f: F(1)})
    # (0, a') ~ (0, a'') only when equal
    res2 = gauge_equivalent(ctx, {t2f: F(5)}, {t2f: F(1)})
    assert res2.status == "distinct"
    res3 = gauge_equivalent(ctx, {t2f: F(5)}, {t2f: F(5)})
    assert res3.status == "witness"


def test_gauge_equivalent_witnesses_verify_randomized():
    rng = random.Random(13)
    for _ in range(15):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        x = random_mc(rng, nil)
        y = random_gauge(rng, nil)
        xp = gauge_act(ctx, y, x)
        res = gauge_equivalent(ctx, x, xp)
        assert res.status == "witness"
        assert el_eq(gauge_act(ctx, res.witness, x), xp)


# -- groupoid interface -----------------------------------------------------------

def test_deligne_groupoid_interface():
    # hom-sets are gauge witnesses, composition is bch
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    w = gauge_equivalent(ctx, {tf: F(1), t2f: F(0)}, {tf: F(1), t2f: F(3)})
    assert w.status == "witness"
    # composition via bch is associative on these witnesses
    g1 = {te: F(1)}
    g2 = {te: F(2), t2e: F(1)}
    g3 = {t2e: F(-1)}
    lhs = bch(ctx, bch(ctx, g1, g2), g3)
    rhs = bch(ctx, g1, bch(ctx, g2, g3))
    assert el_eq(lhs, rhs)


def test_element_validators():
    nil, te, t2e, tf, t2f = tf_instance()
    ctx = FiniteLieContext(nil)
    assert mc_element(ctx, {tf: F(1)}) == {tf: F(1)}
    with pytest.raises(ValueError):
        mc_element(ctx, {te: F(1)})


def test_no_assert_statements_in_the_package():
    """`python -O` strips assert statements, so every check in the
    package is an explicit raise, and a self-check raises
    SelfCheckFailed rather than AssertionError."""
    src = Path(__file__).resolve().parents[1] / "src" / "dgdescent"
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert) or (
                     isinstance(node, ast.Raise) and node.exc is not None and
                     "AssertionError" in {n.id for n in ast.walk(node.exc)
                                          if isinstance(n, ast.Name)})]
    assert not offenders, "assert statement or AssertionError at " + \
        ", ".join(offenders)


# -- gauge-generated simplices of Omega_n (x) g -----------------------------

def test_polynomial_gauge_families_keep_forms_mc():
    rng = random.Random(23)
    for n in (1, 2) * 5:
        nil = random_nilpotent(rng)
        ctx = FormLieContext(nil, n)
        x = random_mc(rng, nil)
        family = _gauge_family(n, [random_gauge(rng, nil) for _ in range(n)])
        simplex = gauge_act(ctx, family, ctx.embed(x))
        assert el_is_zero(mc_residual(ctx, simplex))


def test_abelian_mc_one_simplices_are_gauge_paths():
    # abelian du = v: t dz + dt z is MC on Delta^1 for the same z in both
    # terms, and a mismatched path is not
    nil = lower_central_series(abelian_algebra({0: 1, 1: 1},
                                               d={0: {1: F(1)}}))
    ctx1 = FormLieContext(nil, 1)
    u, v = 0, 1
    z = {(1, v, ((1,), 0)): F(3), (1, u, ((0,), 1)): F(3)}
    assert el_is_zero(mc_residual(ctx1, z))
    bad = {(1, v, ((1,), 0)): F(3), (1, u, ((0,), 1)): F(1)}
    assert not el_is_zero(mc_residual(ctx1, bad))


def test_gauge_one_simplex_vertices_are_x_and_its_gauge_image():
    rng = random.Random(31)
    nil, *_ = tf_instance()
    ctx = FiniteLieContext(nil)
    ctx1 = FormLieContext(nil, 1)
    x = random_mc(rng, nil)
    y = random_gauge(rng, nil)
    simplex = gauge_act(ctx1, _gauge_family(1, [y]), ctx1.embed(x))
    assert el_eq(ctx1.vertex(0, simplex), x)
    assert el_eq(ctx1.vertex(1, simplex), gauge_act(ctx, y, x))


def test_gauge_one_simplex_ends_agree_with_solve_1simplex():
    # the family t y is the identity at vertex 0 and y at vertex 1, so
    # its edge gauge carries x to the far end of solve_1simplex(x, y)
    rng = random.Random(5)
    nil, *_ = tf_instance()
    ctx = FiniteLieContext(nil)
    ctx1 = FormLieContext(nil, 1)
    x = random_mc(rng, nil)
    y = random_gauge(rng, nil)
    family = _gauge_family(1, [y])
    g0, g1 = ctx1.vertex(0, family), ctx1.vertex(1, family)
    assert el_is_zero(g0)
    edge = bch(ctx, g1, el_scale(F(-1), g0))
    assert el_eq(edge, y)
    z = solve_1simplex(ctx1, x, y)
    assert el_eq(gauge_act(ctx, edge, x), ctx1.vertex(1, z))
    assert el_eq(ctx1.vertex(1, z), ctx1.vertex(
        1, gauge_act(ctx1, family, ctx1.embed(x))))


def test_gauge_two_simplex_faces_compose_by_bch():
    """Along each face of Delta^2 the gauge family and the simplex it
    generates restrict to the face's own, and the edge gauges
    bch(g_b, -g_a) between vertex gauges compose by bch."""
    rng = random.Random(17)
    nil, *_ = tf_instance()
    ctx = FiniteLieContext(nil)
    ctx1, ctx2 = FormLieContext(nil, 1), FormLieContext(nil, 2)
    x = random_mc(rng, nil)
    family = _gauge_family(2, [random_gauge(rng, nil),
                               random_gauge(rng, nil)])
    simplex = gauge_act(ctx2, family, ctx2.embed(x))
    gs = [ctx2.vertex(j, family) for j in range(3)]

    def edge(a, b):
        return bch(ctx, gs[b], el_scale(F(-1), gs[a]))

    for b in range(3):
        assert el_eq(ctx2.vertex(b, simplex), gauge_act(ctx, gs[b], x))
        for a in range(b):
            assert el_eq(gauge_act(ctx, edge(a, b), ctx2.vertex(a, simplex)),
                         ctx2.vertex(b, simplex))
    assert el_eq(bch(ctx, edge(1, 2), edge(0, 1)), edge(0, 2))
    for i in range(3):
        u = face_map(i, 2)
        restricted = ctx2.restrict(u, family)
        assert [ctx1.vertex(j, restricted) for j in range(2)] == \
            [g for j, g in enumerate(gs) if j != i]
        assert el_eq(ctx2.restrict(u, simplex),
                     gauge_act(ctx1, restricted, ctx1.embed(x)))


def test_constant_shift_of_a_gauge_family():
    """(h * g, x) and (h, g(x)) generate the same simplex for a
    constant gauge g."""
    rng = random.Random(41)
    nil, *_ = tf_instance()
    ctx, fctx = FiniteLieContext(nil), FormLieContext(nil, 1)
    x = random_mc(rng, nil)
    g = random_gauge(rng, nil)
    family = _gauge_family(1, [random_gauge(rng, nil)])
    shifted = bch(fctx, family, fctx.embed(g))
    assert el_eq(gauge_act(fctx, shifted, fctx.embed(x)),
                 gauge_act(fctx, family, fctx.embed(gauge_act(ctx, g, x))))


def test_constrained_mc_solve_fills_the_faces_of_a_gauge_two_simplex():
    """Faces of a gauge 2-simplex, with the interior forgotten, have an
    MC filler found from scratch by affine solving and staged
    correction."""
    rng = random.Random(47)
    nil, *_ = tf_instance()
    fctx2 = FormLieContext(nil, 2)
    x = random_mc(rng, nil)
    family = _gauge_family(2, [random_gauge(rng, nil),
                               random_gauge(rng, nil)])
    reference = gauge_act(fctx2, family, fctx2.embed(x))
    faces = [fctx2.restrict(face_map(i, 2), reference) for i in range(3)]
    D = max((sum(mono[0]) + 2 for (_, _, mono) in reference), default=2)
    candidates = [{k: F(1)} for k in fctx2.keys_up_to(D, 1)]
    constraints = [(lambda el, i=i: fctx2.restrict(face_map(i, 2), el),
                    faces[i]) for i in range(3)]
    filler = constrained_mc_solve(fctx2, candidates, constraints)
    assert el_is_zero(mc_residual(fctx2, filler))
    for i in range(3):
        assert el_eq(fctx2.restrict(face_map(i, 2), filler), faces[i])
