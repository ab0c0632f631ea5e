import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgdescent.cech import cech_cosimplicial, tensored_cover
from dgdescent.dgla import el_eq, el_is_zero, lower_central_series, tensor_lie
from dgdescent.instances import (abelian_algebra, circle_cover, dual_numbers,
                                 ef_algebra, scaled_cover, t_truncated,
                                 triple_cover)
from dgdescent.linalg import rref
from dgdescent.mcgauge import FiniteLieContext, mc_residual
from dgdescent.tot import (CosimplicialDgLie, DescentDatum, DescentGroupoid,
                           TotContext, constant_cosimplicial, tot_cochain,
                           tot_groupoid, tot_lie)

F = Fraction


def nilp_ef():
    return tensor_lie(t_truncated(3), ef_algebra())


def const_cc(N=2):
    nil = nilp_ef()
    return constant_cosimplicial(nil.algebra, N), nil


def test_constant_cosimplicial_validates_and_vanishes_at_zero():
    cc, _ = const_cc(2)
    assert cc.vanishing_level == 0
    assert cc.normalization_basis(1) == []
    assert len(cc.normalization_basis(0)) == cc.level(0).total_dim()


def test_tot_cochain_of_constant_is_the_level():
    cc, nil = const_cc(2)
    T, pieces = tot_cochain(cc)
    g = nil.algebra
    for n in range(4):
        assert T.space.dim(n) == g.space.dim(n)
        assert T.cohomology(n)[0] == g.cochain.cohomology(n)[0]


def test_tot_cochain_requires_enough_levels():
    cc, _ = const_cc(2)
    with pytest.raises(ValueError):
        tot_cochain(cc, N=5)


def test_tot_lie_of_constant_is_the_level():
    cc, nil = const_cc(2)
    g = nil.algebra
    for D in (0, 1, 2):
        T = tot_lie(cc, D)
        for n in range(4):
            assert T.cochain.space.dim(n) == g.space.dim(n), (D, n)
        # compatibility forces every component to be the constant
        # pullback of the level-0 part
        for n, vecs in T.basis_by_degree.items():
            for v in vecs:
                assert T.ctx.is_tot_element(v)
                lvl0 = T.projection_level0(v)
                assert lvl0


def test_tot_lie_level_zero_truncation():
    cc, nil = const_cc(0)
    T = tot_lie(cc, 3)
    g = nil.algebra
    for n in range(4):
        assert T.cochain.space.dim(n) == g.space.dim(n)


def test_tot_bracket_stays_in_tot():
    cc, nil = const_cc(2)
    T = tot_lie(cc, 2)
    vecs1 = T.basis_by_degree.get(1, [])
    assert vecs1
    for v in vecs1[:2]:
        for w in vecs1[:2]:
            b = T.bracket(v, w)
            if b:
                assert T.ctx.is_tot_element(b)


def test_tot_context_residual_matches_level():
    cc, nil = const_cc(2)
    ctx = TotContext(cc)
    fin = FiniteLieContext(nil)
    x = {nil.algebra.space.index(1, ("t", "f")): F(2)}
    emb = {}
    for p in range(3):
        emb.update(ctx.embed_level(p, x))
    assert ctx.is_tot_element(emb)
    r_tot = mc_residual(ctx, emb)
    r_lvl = mc_residual(fin, x)
    assert el_eq(ctx.level0(r_tot), r_lvl)


def test_descent_groupoid_constant_case():
    cc, nil = const_cc(2)
    G = tot_groupoid(cc)
    a = {nil.algebra.space.index(1, ("t", "f")): F(1)}
    good = DescentDatum(a, {})
    assert G.verify_object(good)
    # sigma^0(theta) = id forces theta = 0 in the constant case
    theta = {nil.algebra.space.index(0, ("t", "e")): F(1)}
    reasons = []
    assert not G.verify_object(DescentDatum(a, theta), reasons)
    assert any("codegeneracy" in r for r in reasons)
    # morphisms are morphisms of the level groupoid
    r = {nil.algebra.space.index(0, ("t", "e")): F(1)}
    from dgdescent.mcgauge import gauge_act
    b = gauge_act(G.ctx0, r, a)
    assert G.verify_morphism(good, DescentDatum(b, {}), r)


def test_descent_groupoid_needs_three_levels():
    cc, _ = const_cc(1)
    with pytest.raises(ValueError):
        tot_groupoid(cc)


def test_abelian_presentations_of_constant():
    g = abelian_algebra({0: 2, 1: 2}, d={0: {2: F(1)}})
    cc = constant_cosimplicial(g, 2)
    G = tot_groupoid(cc)
    assert G.is_abelian()
    # constant case: pi0 = H^1(g), Aut = Z^0(g)
    assert G.pi0_dimension() == g.cochain.cohomology(1)[0] == 1
    assert G.aut_dimension() == len(g.cochain.cocycles(0)) == 1


def test_verify_descent_on_constant_instance():
    from dgdescent.cech import verify_descent
    g = abelian_algebra({0: 1, 1: 1})
    cc = constant_cosimplicial(g, 2)
    rep = verify_descent(cc, D=1, stabilize_to=3)
    assert all(c["verdict"] == "verified" for c in rep["checks"])
    assert rep["falsified"] == 0


def test_abelian_object_constructor():
    g = abelian_algebra({0: 1, 1: 1})
    cc = constant_cosimplicial(g, 2)
    G = tot_groupoid(cc)
    sol = G.abelian_complex[0].cocycles(1)
    assert sol
    datum = G.abelian_object([F(1)] * len(sol))
    assert G.verify_object(datum)


def test_enlarging_truncation_level_is_stable():
    # the finiteness hypothesis makes the truncated limit honest: going
    # one level beyond the normalization vanishing level changes nothing
    from dgdescent.cech import cech_cosimplicial, tensored_cover
    from dgdescent.instances import circle_cover, dual_numbers
    cover = tensored_cover(circle_cover(), dual_numbers())
    cc2 = cech_cosimplicial(cover, N=2)
    cc3 = cech_cosimplicial(cover, N=3)
    assert cc2.vanishing_level == cc3.vanishing_level == 1
    T2, _ = tot_cochain(cc2)
    T3, _ = tot_cochain(cc3)
    for n in range(4):
        assert T2.cohomology(n)[0] == T3.cohomology(n)[0]
    for D in (1, 2):
        L2 = tot_lie(cc2, D, N=2)
        L3 = tot_lie(cc3, D, N=3)
        for n in range(4):
            assert L2.cochain.space.dim(n) == L3.cochain.space.dim(n)
            assert L2.cochain.cohomology(n)[0] == \
                L3.cochain.cohomology(n)[0]


def test_bad_cosimplicial_identities_rejected():
    # identity cofaces but a sign-flipped codegeneracy breaks
    # functoriality
    from dgdescent.dgla import DgLieMap, identity_map
    g = abelian_algebra({0: 1})
    neg = DgLieMap(g, g, {0: {0: F(-1)}})
    ident = identity_map(g)
    with pytest.raises(ValueError, match="cosimplicial identity"):
        CosimplicialDgLie([g, g], [[ident, ident]], [[neg]])


@functools.lru_cache(maxsize=None)
def _cech_context(name):
    cover, base = {"triple/eps": (triple_cover, dual_numbers),
                   "circle/t3": (circle_cover,
                                 lambda: t_truncated(3)),
                   "scaled/t3": (scaled_cover,
                                 lambda: t_truncated(3))}[name]
    return TotContext(cech_cosimplicial(tensored_cover(cover(), base()),
                                        N=2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["triple/eps", "circle/t3"]), st.integers(1, 3),
       st.integers(0, 3), st.data())
def test_exchange_rows_are_the_defects_of_unit_vectors(name, D, degree,
                                                       data):
    """Every entry of every generator's row block is the defect of the
    column's unit vector, and every nonzero defect entry is in a row."""
    ctx = _cech_context(name)
    all_keys = ctx.keys_up_to(D, degree=degree)
    picks = data.draw(st.lists(st.integers(0, max(len(all_keys) - 1, 0)),
                               max_size=12, unique=True)) \
        if all_keys else []
    keys = [all_keys[i] for i in picks]
    rows = ctx.exchange_rows(keys)
    from_rows = {}
    for (u, psrc, dk), row in rows.items():
        assert row, "a stored row is empty"
        for col, c in row.items():
            assert c != 0
            from_rows.setdefault((u, psrc, col), {})[dk] = c
    order = {}
    for u, psrc, qtgt in ctx.generators():
        for col, k in enumerate(keys):
            defect = ctx.compatibility_defect(u, psrc, qtgt, {k: F(1)})
            assert from_rows.get((u, psrc, col), {}) == defect
            for dk in defect:
                order.setdefault((u, psrc, dk), None)
    # rows come in the order in which the defects first name them
    assert list(rows) == list(order)


def test_tot_basis_vectors_are_tot_elements():
    ctx = _cech_context("circle/t3")
    basis = ctx.tot_basis(1, 2)
    assert basis
    assert all(ctx.is_tot_element(v) for v in basis)


def _defect_matrix(ctx, keys):
    """The exchange conditions on the span of keys as a dense matrix,
    built column by column from compatibility_defect of unit vectors.
    Absent entries are int 0, which rref skips as cheaply as it can."""
    rows = {}
    for col, key in enumerate(keys):
        for u, psrc, qtgt in ctx.generators():
            for dk, c in ctx.compatibility_defect(u, psrc, qtgt,
                                                  {key: F(1)}).items():
                rows.setdefault((u, psrc, dk), {})[col] = c
    return [[row.get(col, 0) for col in range(len(keys))]
            for row in rows.values()]


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("name", ["triple/eps", "circle/t3", "scaled/t3"])
def test_tot_basis_matches_the_dense_defect_reference(name, D):
    """In every total degree the basis is made of Tot elements, is 1 on
    its free keys (the non-pivot columns of the dense rref of the defect
    matrix) and 0 on the others' free keys, and has dimension keys minus
    rank."""
    ctx = _cech_context(name)
    degrees = sorted({n + k for p in range(ctx.N + 1)
                      for n in ctx.cc.level(p).space.nonzero_degrees()
                      for k in range(p + 1)})
    for degree in degrees:
        keys = ctx.keys_up_to(D, degree=degree)
        basis = ctx.tot_basis(degree, D)
        assert all(ctx.is_tot_element(v) for v in basis)
        pivots = set(rref(_defect_matrix(ctx, keys))[1])
        free = [k for col, k in enumerate(keys) if col not in pivots]
        assert len(basis) == len(keys) - len(pivots)
        assert [[v.get(k, 0) for k in free] for v in basis] == \
            [[int(i == j) for j in range(len(free))]
             for i in range(len(basis))]


def _abelian_cosimplicials():
    """Every bundled abelian instance and constant record, plus the
    segment, circle and triple covers over eps and t^3."""
    from pathlib import Path
    from dgdescent.io import load_any
    data = Path(__file__).resolve().parents[1] / "src" / "dgdescent" / "data"
    out = {}
    for f in sorted(data.glob("*.json")):
        kind, obj = load_any(str(f))
        if kind == "descent_instance":
            out[f.name] = cech_cosimplicial(tensored_cover(obj[1], obj[2]))
        elif kind == "cosimplicial_dg_lie":
            out[f.name] = obj
    from dgdescent.instances import segment_cover
    for cover in (segment_cover, circle_cover, triple_cover):
        for base in (dual_numbers, lambda: t_truncated(3)):
            cc = cech_cosimplicial(tensored_cover(cover(), base()), N=2)
            out[cc.name] = cc
    for g in (abelian_algebra({0: 1, 1: 1}),
              abelian_algebra({0: 2, 1: 2},
                              d={0: {2: F(1)}})):
        out[f"const {g.space.degrees}"] = constant_cosimplicial(g, 2)
    return {name: cc for name, cc in out.items()
            if all(g.is_abelian() for g in cc.levels[:3])}


def test_abelian_complex_agrees_with_tot_cochain_on_every_instance():
    ccs = _abelian_cosimplicials()
    assert len(ccs) >= 10
    for name, cc in ccs.items():
        G = tot_groupoid(cc)
        C, keys = G.abelian_complex
        T, _ = tot_cochain(cc)
        assert C.cohomology(1)[0] == T.cohomology(1)[0], name
        assert C.cohomology(0)[0] == len(T.cocycles(0)), name
        assert (G.pi0_dimension(), G.aut_dimension()) == \
            (C.cohomology(1)[0], C.cohomology(0)[0])
        Z = C.cocycles(1)
        assert len(keys[1]) == C.space.dim(1)
        for i in range(len(Z)):
            datum = G.abelian_object([F(i == j) for j in range(len(Z))])
            assert G.verify_object(datum), (name, i)
