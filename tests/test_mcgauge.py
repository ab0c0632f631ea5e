import ast
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from dgdescent import cech, mcgauge
from dgdescent.cech import cech_cosimplicial, tensored_cover, verify_descent
from dgdescent.cochain import Cochain, GradedSpace
from dgdescent.dgla import (DgLieAlgebra, el_add, el_eq, el_is_zero,
                            el_scale, el_sum, lower_central_series,
                            tensor_lie)
from dgdescent.forms import face_map
from dgdescent.instances import (abelian_algebra, circle_cover,
                                 dual_numbers, ef_algebra, heisenberg,
                                 probe_class2, random_acyclic_fibration,
                                 random_gauge, random_mc, random_nilpotent,
                                 segment_cover, spec_lifting_fibration,
                                 t_truncated, tampered_fibration, wz_algebra)
from dgdescent.mcgauge import (DeligneGroupoid, FiniteLieContext,
                               FormLieContext, ObstructionUnsolvable,
                               _bch_table, _bernoulli_plus, bch, by_monomial,
                               constrained_mc_solve, constraint_rhs,
                               constraint_rows, flow_path, gauge_act,
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


@lru_cache(maxsize=None)
def _log_expexp_words(depth):
    """log(exp X0 exp X1) in the free associative algebra on two letters,
    truncated beyond word length `depth`; {word tuple: coefficient}.
    The exp/log series, the test reference for the BCH table, which the
    package reads off `holonomy` instead."""
    def trunc_mul(f, g):
        out = {}
        for w1, c1 in f.items():
            for w2, c2 in g.items():
                w = w1 + w2
                if len(w) > depth:
                    continue
                v = out.get(w, 0) + c1 * c2
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
        return out

    def exp_letter(letter):
        out = {(): 1}
        fact = 1
        for a in range(1, depth + 1):
            fact *= a
            out[(letter,) * a] = Fraction(1, fact)
        return out

    E = trunc_mul(exp_letter(0), exp_letter(1))
    E1 = dict(E)
    E1.pop((), None)  # E - 1
    out = {}
    power = {(): 1}
    for m in range(1, depth + 1):
        power = trunc_mul(power, E1)
        sign = Fraction((-1) ** (m - 1), m)
        for w, c in power.items():
            v = out.get(w, 0) + sign * c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    out.pop((), None)
    return out


def _dynkin_eval(ctx, words, letters):
    """The word-by-word Dynkin bracketing, the test reference for bch:
    each word w of a Lie series contributes coeff/len(w) times its
    right-nested bracket, computed afresh for every word."""
    out = {}
    for w, coeff in words.items():
        cur = letters[w[-1]]
        for letter in reversed(w[:-1]):
            cur = ctx.bracket_el(letters[letter], cur)
            if not cur:
                break
        if cur:
            out = el_add(out, el_scale(coeff * F(1, len(w)), cur))
    return out


def _reference_bch(ctx, y1, y2):
    return _dynkin_eval(ctx, _log_expexp_words(ctx.nclass()), (y2, y1))


class _AtClass:
    """An ambient read at nilpotency class c: bch truncates at c, and
    both sides of a comparison read the same words up to length c."""

    def __init__(self, ctx, c):
        self.ctx, self.c = ctx, c

    def nclass(self):
        return self.c

    def bracket_el(self, x, y):
        return self.ctx.bracket_el(x, y)


def test_bch_matches_the_word_by_word_dynkin_reference():
    rng = random.Random(23)
    for _ in range(12):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        y1, y2 = random_gauge(rng, nil), random_gauge(rng, nil)
        for c in range(1, 6):
            at = _AtClass(ctx, c)
            assert bch(at, y1, y2) == _reference_bch(at, y1, y2), c
    # a genuine class-5 algebra, (t)/t^6 (x) ef, whose gauges commute,
    # and filiform ones whose gauges bracket three and four deep
    algebras = [tensor_lie(t_truncated(6), ef_algebra()), _filiform(3),
                _filiform(4)]
    assert [nil.nilpotency_class for nil in algebras] == [5, 3, 4]
    for nil in algebras:
        ctx = FiniteLieContext(nil)
        for _ in range(5):
            y1, y2 = random_gauge(rng, nil), random_gauge(rng, nil)
            assert bch(ctx, y1, y2) == _reference_bch(ctx, y1, y2)


def test_bch_of_form_valued_gauges_matches_the_reference():
    rng = random.Random(29)
    nil, *_ = tf_instance()
    for n in (1, 2):
        ctx = FormLieContext(nil, n)
        for _ in range(6):
            y1 = _gauge_family(n, [random_gauge(rng, nil)
                                   for _ in range(n)])
            y2 = el_add(_gauge_family(n, [random_gauge(rng, nil)
                                          for _ in range(n)]),
                        ctx.embed_level(n, random_gauge(rng, nil)))
            assert bch(ctx, y1, y2) == _reference_bch(ctx, y1, y2)


def _folded_reference_table(depth):
    """The Dynkin table of the exp/log reference, folded for even
    letters as `_bch_table` documents it: (word, coefficient / len(word),
    type of the coefficient), an int where it is integral."""
    table = {}
    for w, c in _log_expexp_words(depth).items():
        c = F(c, len(w))
        if len(w) > 1 and w[-1] == w[-2]:
            continue
        if len(w) > 1 and w[-2:] == (1, 0):
            w, c = w[:-2] + (0, 1), -c
        table[w] = table.get(w, 0) + c
    entries = [(w, int(c) if c.denominator == 1 else c)
               for w, c in sorted(table.items(),
                                  key=lambda wc: (len(wc[0]), wc[0])) if c]
    return [(w, c, type(c)) for w, c in entries]


def _table_matches_the_reference(depth):
    return [(w, c, type(c)) for w, c in _bch_table(depth)] == \
        _folded_reference_table(depth)


def test_the_bch_table_read_off_the_holonomy_matches_exp_log():
    for depth in range(1, 7):
        assert _table_matches_the_reference(depth), depth


def test_the_bch_table_reference_kills_a_b_minus_holonomy(monkeypatch):
    """The reference shares no series with the package: the table that
    a holonomy with B1 = -1/2 yields differs from it.  The table cache
    is cleared on both sides of the patch, so no mutant table outlives
    this test."""
    plus = mcgauge._bernoulli_plus
    _bch_table.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(mcgauge, "_bernoulli_plus",
                      lambda k: F(-1, 2) if k == 1 else plus(k))
            assert not all(_table_matches_the_reference(depth)
                           for depth in range(1, 7))
    finally:
        _bch_table.cache_clear()
    assert _table_matches_the_reference(2)


def test_bch_is_the_holonomy_of_a_constant_path():
    """bch(y1, y2) acts by y2, then by y1: the holonomy of the constant
    path y1 started at y2."""
    rng = random.Random(31)
    nils = [_filiform(3), _filiform(4)] + \
        [random_nilpotent(rng) for _ in range(8)]
    for nil in nils:
        ctx = FiniteLieContext(nil)
        for _ in range(4):
            y1, y2 = random_gauge(rng, nil), random_gauge(rng, nil)
            assert holonomy(ctx, [y1], y2) == bch(ctx, y1, y2)


def test_a_class_two_bch_makes_one_bracket():
    nil = lower_central_series(probe_class2())
    g = nil.algebra
    calls = []

    class Counting(FiniteLieContext):
        def bracket_el(self, x, y):
            calls.append((x, y))
            return super().bracket_el(x, y)

    ctx = Counting(nil)
    a = {g.space.index(0, "a"): F(1)}
    b = {g.space.index(0, "b"): F(1)}
    assert nil.nilpotency_class == 2 and ctx.bracket_el(a, b)
    calls.clear()
    assert bch(ctx, a, b) == _reference_bch(FiniteLieContext(nil), a, b)
    assert len(calls) == 1


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


def _picard_holonomy(ctx, y_coeffs):
    """The Picard iteration on time coefficients, the test reference for
    holonomy: theta' = sum_k (B+_k / k!) ad_theta^k (y(t)) solved by
    class + 3 rounds, every bracket recomputed in every round."""
    nc = ctx.nclass()
    fact = [1]
    for k in range(1, nc + 1):
        fact.append(fact[-1] * k)
    theta = []
    for _ in range(nc + 3):
        # rhs(t) = sum_k B+_k/k! ad_theta(t)^k y(t), as time coefficients
        term = list(y_coeffs)
        rhs = [el_scale(_bernoulli_plus(0), c) for c in term]
        for k in range(1, nc):
            nxt = [dict() for _ in range(len(theta) + len(term))]
            for i, tc in enumerate(theta):
                for j, yc in enumerate(term):
                    b = ctx.bracket_el(tc, yc)
                    if b:
                        nxt[i + j] = el_add(nxt[i + j], b)
            term = nxt
            if all(not c for c in term):
                break
            coeff = _bernoulli_plus(k) * Fraction(1, fact[k])
            while len(rhs) < len(term):
                rhs.append({})
            for idx, c in enumerate(term):
                if c:
                    rhs[idx] = el_add(rhs[idx], el_scale(coeff, c))
        new = [{}] + [el_scale(Fraction(1, k + 1), rhs[k])
                      for k in range(len(rhs))]
        while new and not new[-1]:
            new.pop()
        if len(new) == len(theta) and all(
                el_eq(a, b) for a, b in zip(new, theta)):
            break
        theta = new
    return el_sum(theta)


def _filiform(c):
    """x, y1 .. yc in degree 0 with [x, yi] = y(i+1): nilpotent of class
    c, and its degree-0 part, where gauges live, of class c too."""
    space = GradedSpace({0: ["x"] + [f"y{i}" for i in range(1, c + 1)]})
    return lower_central_series(DgLieAlgebra(
        Cochain(space, {}), {(0, i): {i + 1: F(1)} for i in range(1, c)},
        name=f"filiform{c}"))


def _filiform_module():
    """filiform(3) acting on <v0 .. v3> in degree 1: x shifts v_i to
    v_(i+1) and y_i sends v0 to v_i.  The degree-0 part has class 3,
    y3 moves v0, the whole algebra has class 4, and every element of
    degree 1 is MC."""
    space = GradedSpace({0: ["x", "y1", "y2", "y3"],
                         1: [f"v{i}" for i in range(4)]})
    v = [space.index(1, f"v{i}") for i in range(4)]
    brackets = {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}}
    brackets.update({(0, v[i]): {v[i + 1]: F(1)} for i in range(3)})
    brackets.update({(i, v[0]): {v[i]: F(1)} for i in range(1, 4)})
    return lower_central_series(DgLieAlgebra(
        Cochain(space, {}), brackets, name="filiform3-module"))


def _holonomy_campaign():
    """(ambient, path) over filiform algebras of class 1-4 and
    random_nilpotent draws, with paths of 1-3 random gauges."""
    for seed in range(6):
        rng = random.Random(seed)
        nils = [_filiform(c) for c in range(1, 5)] + \
            [random_nilpotent(rng) for _ in range(4)]
        for nil in nils:
            for length in (1, 2, 3):
                yield FiniteLieContext(nil), [random_gauge(rng, nil)
                                              for _ in range(length)]


def test_holonomy_matches_the_picard_reference():
    classes = set()
    for ctx, path in _holonomy_campaign():
        classes.add(ctx.nclass())
        assert holonomy(ctx, path) == _picard_holonomy(ctx, path)
    assert classes == {1, 2, 3, 4}


def test_the_holonomy_has_no_coefficient_past_class_times_length():
    """The recursion continued to 2 c len(y) coefficients adds only
    zeros.  theta(s), the holonomy of the path s y(s t), is the
    polynomial sum_m theta_m s^m, so the two readings of it agree at
    2 c len(y) values of s > 0 only when their difference, of degree at
    most 2 c len(y) and without constant term, is zero."""
    for ctx, path in _holonomy_campaign():
        c, L = ctx.nclass(), len(path)
        for s in range(1, 2 * c * L + 1):
            scaled = [el_scale(s ** (j + 1), y) for j, y in enumerate(path)]
            assert holonomy(_AtClass(ctx, 2 * c), scaled) == \
                holonomy(ctx, scaled)


@pytest.mark.parametrize("cover, algebra", [
    (segment_cover, ef_algebra), (circle_cover, ef_algebra),
    (segment_cover, heisenberg)])
def test_every_holonomy_of_the_descent_check_matches_the_reference(
        monkeypatch, cover, algebra):
    calls = []

    def spy(ctx, y_coeffs):
        theta = holonomy(ctx, y_coeffs)
        calls.append(theta == _picard_holonomy(ctx, y_coeffs))
        return theta

    monkeypatch.setattr(cech, "holonomy", spy)
    cc = cech_cosimplicial(tensored_cover(cover(algebra()), t_truncated(3)),
                           N=2)
    report = verify_descent(cc, samples=3, seed=808, D=2)
    assert report["falsified"] == 0
    assert calls and all(calls)


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


def test_mc_lift_to_a_target_off_the_image_fails_at_stage_0():
    # a target key that no image reaches is refused before any solve
    from dgdescent.dgla import DgLieMap
    nil, *_ = tf_instance()
    h = abelian_algebra({1: 1})
    f = DgLieMap(nil.algebra, h, {})
    with pytest.raises(ObstructionUnsolvable) as info:
        mc_lift(f, nil, lower_central_series(h), {0: F(1)})
    assert (info.value.stage, info.value.label) == (0, "mc_lift")


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
    assert res2.status == "distinct"


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


def test_gauge_search_decides_every_pair():
    """240 seeded pairs, the even ones gauge-related, on 200
    random_nilpotent draws and then on `_filiform_module`, whose
    degree-0 part has class 3 and whose witnesses take three stages:
    the staged search never gives up, is symmetric in its verdict (and
    in the stage of a "distinct"), and every witness moves x to xp
    exactly."""
    rng = random.Random(25)
    module = _filiform_module()
    assert module.nilpotency_class == 4
    draws = itertools.chain((random_nilpotent(rng) for _ in range(200)),
                            [module] * 40)
    for i, nil in enumerate(draws):
        ctx = FiniteLieContext(nil)
        x = random_mc(rng, nil)
        xp = gauge_act(ctx, random_gauge(rng, nil), x) if i % 2 == 0 \
            else random_mc(rng, nil)
        res = gauge_equivalent(ctx, x, xp)
        back = gauge_equivalent(ctx, xp, x)
        for r, (a, b) in ((res, (x, xp)), (back, (xp, x))):
            assert r.status in ("witness", "distinct"), i
            if r.status == "witness":
                assert el_eq(gauge_act(ctx, r.witness, a), b), i
        assert res.status == back.status, i
        if res.status == "distinct":
            assert res.stage == back.stage, i
        if i % 2 == 0:
            assert res.status == "witness", i


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


class _RecordingRng:
    """Records every randint(a, b) and answers a + n mod (b - a + 1) at
    the n-th call, so consecutive draws differ."""

    def __init__(self):
        self.calls, self.values = [], []

    def randint(self, a, b):
        self.calls.append((a, b))
        self.values.append(a + len(self.calls) % (b - a + 1))
        return self.values[-1]


def test_each_random_draw_is_one_randint_per_vector_in_order(monkeypatch):
    """The gauge sampler, the free choices of the MC solver and the Tot
    gauge of the descent check each draw rng.randint(-b, b) once per
    vector, in order, and nothing else."""
    nil, *_ = tf_instance()
    groupoid = DeligneGroupoid(nil)
    rng = _RecordingRng()
    y = groupoid.random_gauge(rng)
    keys = groupoid.ctx.degree_keys(0)
    assert rng.calls == [(-2, 2)] * len(keys)
    assert y == {k: v for k, v in zip(keys, rng.values) if v}

    real, drawn = mcgauge.random_combination, []

    def spy(rng, vectors, bound, start=None):
        before = len(rng.calls)
        out = real(rng, vectors, bound, start)
        assert rng.calls[before:] == [(-bound, bound)] * len(vectors)
        assert out == el_sum((el_scale(c, v) for c, v in
                              zip(rng.values[before:], vectors)), start)
        drawn.append((bound, len(vectors)))
        return out

    monkeypatch.setattr(mcgauge, "random_combination", spy)
    # wz (x) (t)/t^3 corrects its draws, so the solver draws again
    wz = tensor_lie(t_truncated(3), wz_algebra())
    rng = _RecordingRng()
    x = DeligneGroupoid(wz).random_mc_element(rng)
    assert el_is_zero(mc_residual(FiniteLieContext(wz), x))
    assert len(drawn) > 1 and {b for b, _ in drawn} == {2}
    assert len(rng.calls) == sum(n for _, n in drawn)
    monkeypatch.undo()

    cc = cech.cech_cosimplicial(tensored_cover(segment_cover(ef_algebra()),
                                               t_truncated(3)), N=2)
    basis0 = cc.tot_context().tot_basis(0, 1)
    rng = _RecordingRng()
    rho = cech._random_tot_gauge(basis0, rng)
    assert rng.calls == [(-1, 1)] * len(basis0)
    assert rho == el_sum(el_scale(c, b) for c, b in zip(rng.values, basis0))


def test_the_rounds_of_one_mc_solve_share_each_stage_span(monkeypatch):
    """Every round of one constrained_mc_solve (four randomized, then
    the deterministic one) reads each stage's span of the free
    directions and their d images from one memo, so _stage_span runs
    at most once per stage per call.  Draw 14 of random_nilpotent seed
    16 runs all five rounds.  Every draw equals the one made with a
    fresh memo per round, which spans each stage in every round."""
    real_span, spans = mcgauge._stage_span, []

    def span_spy(ctx, stage, space, degree):
        spans[-1].append(stage)
        return real_span(ctx, stage, space, degree)

    real_solve = mcgauge.constrained_mc_solve

    def solve_spy(*args, **kwargs):
        spans.append([])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(mcgauge, "_stage_span", span_spy)
    monkeypatch.setattr(mcgauge, "constrained_mc_solve", solve_spy)

    def draws():
        spans.clear()
        rng = random.Random(16)
        nil = random_nilpotent(rng)
        return [random_mc(rng, nil) for _ in range(15)], list(spans)

    real_correct, rounds = mcgauge._mc_correct, []

    def fresh_memo(ctx, x, free, rng, label, memo):
        rounds.append(len(spans))
        return real_correct(ctx, x, free, rng, label, {})

    monkeypatch.setattr(mcgauge, "_mc_correct", fresh_memo)
    reference, unshared = draws()
    assert rounds.count(15) == 5
    monkeypatch.setattr(mcgauge, "_mc_correct", real_correct)
    drawn, shared = draws()
    assert drawn == reference
    assert len(shared) == 15
    assert all(len(set(stages)) == len(stages) for stages in shared)
    assert len(set(unshared[14])) < len(unshared[14])
    assert sum(map(len, shared)) < sum(map(len, unshared))


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

def _restrict(ctx, u, x):
    """ctx.restrict of an element, grouped by `by_monomial` for it."""
    return el_sum(ctx.restrict(u, groups)
                  for groups in by_monomial(x).values())


def test_polynomial_gauge_families_keep_forms_mc():
    rng = random.Random(23)
    for n in (1, 2) * 5:
        nil = random_nilpotent(rng)
        ctx = FormLieContext(nil, n)
        x = random_mc(rng, nil)
        family = _gauge_family(n, [random_gauge(rng, nil) for _ in range(n)])
        simplex = gauge_act(ctx, family, ctx.embed_level(n, x))
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
    simplex = gauge_act(ctx1, _gauge_family(1, [y]), ctx1.embed_level(1, x))
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
        1, gauge_act(ctx1, family, ctx1.embed_level(1, x))))


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
    simplex = gauge_act(ctx2, family, ctx2.embed_level(2, x))
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
        restricted = _restrict(ctx2, u, family)
        assert [ctx1.vertex(j, restricted) for j in range(2)] == \
            [g for j, g in enumerate(gs) if j != i]
        assert el_eq(_restrict(ctx2, u, simplex),
                     gauge_act(ctx1, restricted, ctx1.embed_level(1, x)))


def test_constant_shift_of_a_gauge_family():
    """(h * g, x) and (h, g(x)) generate the same simplex for a
    constant gauge g."""
    rng = random.Random(41)
    nil, *_ = tf_instance()
    ctx, fctx = FiniteLieContext(nil), FormLieContext(nil, 1)
    x = random_mc(rng, nil)
    g = random_gauge(rng, nil)
    family = _gauge_family(1, [random_gauge(rng, nil)])
    shifted = bch(fctx, family, fctx.embed_level(1, g))
    assert el_eq(gauge_act(fctx, shifted, fctx.embed_level(1, x)),
                 gauge_act(fctx, family,
                           fctx.embed_level(1, gauge_act(ctx, g, x))))


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
    reference = gauge_act(fctx2, family, fctx2.embed_level(2, x))
    faces = [_restrict(fctx2, face_map(i, 2), reference) for i in range(3)]
    D = max((sum(mono[0]) + 2 for (_, _, mono) in reference), default=2)
    keys = fctx2.keys_up_to(D, 1)
    system, row_keys = constraint_rows(
        keys, [lambda el, i=i: _restrict(fctx2, face_map(i, 2), el)
               for i in range(3)])
    rhs = constraint_rhs(row_keys, faces)
    filler = constrained_mc_solve(fctx2, keys, system, rhs)
    assert el_is_zero(mc_residual(fctx2, filler))
    for i in range(3):
        assert el_eq(_restrict(fctx2, face_map(i, 2), filler), faces[i])
