import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dgdescent.dgla import (ArtinAlgebra, DgLieMap, NilpotentDgLie, el_eq,
                            el_is_zero, el_scale, identity_map,
                            lower_central_series, tensor_lie)
from dgdescent.cech import (CoverSpec, ComparisonFunctor, ExtractionFailed,
                            GluingFailed, _lift_witness_span,
                            _random_tot_gauge, _sample_descent_datum,
                            cech_cosimplicial, find_descent_isomorphism,
                            glue_descent_datum,
                            lift_tot_gauge, tensored_cover, verify_descent)
from dgdescent.forms import format_mono, monomials_up_to, monotone_maps
from dgdescent.instances import (abelian_line, circle_cover, complex_cover,
                                 dual_numbers, ef_algebra, heisenberg,
                                 probe_class2, projection_cover, scaled_cover,
                                 segment_cover, t_truncated, triple_cover)
from dgdescent.io import (ParseError, label_to_json, load_any,
                          scalar_from_str)
from dgdescent.linalg import echelon_basis
from dgdescent.mcgauge import (FiniteLieContext, SelfCheckFailed, gauge_act,
                               gauge_equivalent, mc_residual)
from dgdescent.tot import (CosimplicialDgLie, DescentDatum, TotContext,
                           TruncationError, tot_groupoid, tot_lie)

from builders import (constant_cosimplicial, extend_to_ordered, ordered_cech,
                      sample_abelian_datum)

F = Fraction
DATA = Path(__file__).resolve().parents[1] / "src" / "dgdescent" / "data"


def one_open_cover():
    return complex_cover([(0,)], name="one")


def test_one_open_is_constant():
    # one open has a single tuple per level of the ordered complex: the
    # constant cosimplicial object on Gamma(U_0); the build stores its
    # one strictly increasing tuple (0,)
    cover = tensored_cover(one_open_cover(), dual_numbers())
    cc = cech_cosimplicial(cover, N=2)
    assert cc.vanishing_level == 0
    assert cc.tuples == [[(0,)], [], []]
    assert [g.total_dim() for g in cc.levels] == [2, 0, 0]
    assert cc.ordered_tuples() == [[(0,) * (q + 1)] for q in range(3)]
    assert cc.level_dimensions() == [2, 2, 2]
    ordered = ordered_cech(cover, 2)
    for q in range(3):
        for p in range(3):
            for u in monotone_maps(p, q):
                assert ordered.structure_table(u, q) == {0: {0: 1},
                                                         1: {1: 1}}


def test_two_open_levels_and_normalization():
    cc = cech_cosimplicial(tensored_cover(segment_cover(), dual_numbers()),
                           N=2)
    # the ordered level 1 is Gamma(U0) x Gamma(U01) x Gamma(U1), tuples
    # 00, 01, 11; the build stores its conormalization, the tuple 01
    assert cc.ordered_tuples()[1] == [(0, 0), (0, 1), (1, 1)]
    assert cc.tuples[1] == [(0, 1)]
    sec_dim = 2  # eps (x) (u, v)
    assert cc.level_dimensions()[1] == 3 * sec_dim
    assert cc.level(1).total_dim() == sec_dim
    assert len(cc.normalization_basis(1)) == sec_dim
    assert cc.normalization_basis(2) == []
    assert cc.vanishing_level == 1


@pytest.mark.parametrize("cover, stored, ordered", [
    (segment_cover, [1, 0], [3, 4]),
    (circle_cover, [3, 0], [6, 9]),
], ids=["segment", "circle"])
def test_levels_store_the_strictly_increasing_tuples(cover, stored, ordered):
    """Levels 1 and 2 of segment- and circle-ef/t^3 store their strictly
    increasing tuples, of all the nondecreasing ones of the ordered
    complex; the sections are ef (x) (t, t^2), of dimension 4."""
    cc = cech_cosimplicial(tensored_cover(cover(ef_algebra()),
                                          t_truncated(3)))
    assert [len(Ts) for Ts in cc.tuples[1:]] == stored
    assert [len(Ts) for Ts in cc.ordered_tuples()[1:]] == ordered
    assert [g.total_dim() for g in cc.levels[1:]] == [4 * n for n in stored]
    assert cc.level_dimensions()[1:] == [4 * n for n in ordered]


def test_the_full_simplex_on_six_opens_stores_63_components():
    """Every nonempty subset of six opens meets: the build stores the 63
    strictly increasing tuples, of the 923 nondecreasing ones."""
    cc = cech_cosimplicial(tensored_cover(
        complex_cover([tuple(range(6))], ef_algebra(), name="simplex6"),
        t_truncated(3)))
    assert cc.N == cc.vanishing_level == 5
    assert sum(len(Ts) for Ts in cc.tuples) == 63
    assert [g.total_dim() for g in cc.levels] == [24, 60, 80, 60, 24, 4]
    assert sum(len(Ts) for Ts in cc.ordered_tuples()) == 923
    assert cc.level_dimensions() == [24, 84, 224, 504, 1008, 1848]


def test_a_cech_identity_check_visits_only_face_pairs(monkeypatch):
    """Without codegeneracies the identities checked are those of the
    composable coface pairs: on levels 0..2, coface^j after coface^i
    for i < 2 and j < 3, each composite walked once."""
    from dgdescent.forms import compose_maps, face_map
    walks = []
    walk = CosimplicialDgLie._normal_path
    monkeypatch.setattr(CosimplicialDgLie, "_normal_path",
                        lambda self, u, q: walks.append(u) or walk(self, u, q))
    cc = cech_cosimplicial(tensored_cover(triple_cover(), dual_numbers()))
    assert cc.N == 2 and cc.codegens is None
    assert sorted(walks) == sorted(compose_maps(face_map(j, 2), face_map(i, 1))
                                   for i in range(2) for j in range(3))


def test_circle_normalization():
    cc = cech_cosimplicial(tensored_cover(circle_cover(), dual_numbers()),
                           N=2)
    sec_dim = 2
    # N^1 = the three overlap components, N^2 = 0 (empty triple overlap)
    assert len(cc.normalization_basis(1)) == 3 * sec_dim
    assert cc.normalization_basis(2) == []
    assert cc.vanishing_level == 1


def test_cover_functoriality_rejected():
    L = abelian_line()
    doubler = DgLieMap(L, L, {0: {0: F(2)}, 1: {1: F(2)}})
    sections = {frozenset({0}): L, frozenset({1}): L,
                frozenset({0, 1}): L, frozenset({0, 1, 2}): L,
                frozenset({2}): L, frozenset({0, 2}): L,
                frozenset({1, 2}): L}
    restrictions = {}
    for J in sections:
        for J2 in sections:
            if J < J2:
                restrictions[(J, J2)] = identity_map(L)
    # break one composite: {0} -> {0,1} doubles but {0} -> {0,1,2} does not
    restrictions[(frozenset({0}), frozenset({0, 1}))] = doubler
    with pytest.raises(ValueError, match="functoriality"):
        CoverSpec(3, sections, restrictions)


def test_missing_subset_rejected():
    L = abelian_line()
    with pytest.raises(ValueError, match="nonempty"):
        CoverSpec(2, {frozenset({0, 1}): L}, {})


# the Deligne functor sends an artinian base to the Deligne groupoid of
# m (x) L: objects are the MC elements of tensor_lie(m, L), morphisms
# the gauges that gauge_equivalent finds


def test_deligne_functor_ground_field():
    # m = 0: one object, 0, and one morphism, the identity gauge
    nil = tensor_lie(ArtinAlgebra([], {}, name="k"), ef_algebra())
    ctx = FiniteLieContext(nil)
    assert nil.algebra.total_dim() == 0
    assert mc_residual(ctx, {}) == {}
    res = gauge_equivalent(ctx, {}, {})
    assert res.status == "witness" and res.witness == {}


def test_deligne_functor_abelian_pi0():
    # L abelian: pi0 = H^1(m (x) L) = H^1(L) (x) m
    L = abelian_line()
    for base, m_dim in ((dual_numbers(), 1), (t_truncated(3), 2)):
        nil = tensor_lie(base, L)
        assert nil.algebra.is_abelian()
        assert nil.algebra.cochain.cohomology(1)[0] == \
            L.cochain.cohomology(1)[0] * m_dim


def test_deligne_functor_ef_orbits():
    nil = tensor_lie(t_truncated(3), ef_algebra())
    ctx = FiniteLieContext(nil)
    a = nil.algebra
    tf = a.space.index(1, ("t", "f"))
    t2f = a.space.index(1, ("t2", "f"))
    res = gauge_equivalent(ctx, {tf: F(2), t2f: F(3)},
                           {tf: F(2), t2f: F(-1)})
    assert res.status == "witness"
    res2 = gauge_equivalent(ctx, {t2f: F(3)}, {t2f: F(-1)})
    assert res2.status == "distinct"


def test_deligne_functor_functorial_along_base_maps():
    # k[t]/t^3 -> k[eps]/eps^2, t -> eps, t^2 -> 0: MC maps to MC and
    # the gauge action is intertwined
    L = ef_algebra()
    nil3 = tensor_lie(t_truncated(3), L)
    nil2 = tensor_lie(dual_numbers(), L)
    g3, g2 = nil3.algebra, nil2.algebra
    table = {}
    for src in range(g3.total_dim()):
        alab, glab = g3.space.label_of(src)
        if alab == "t":
            table[src] = {g2.space.index(g3.degree_of(src),
                                         ("eps", glab)): F(1)}
    f = DgLieMap(g3, g2, table)   # validates the bracket respect
    ctx3, ctx2 = FiniteLieContext(nil3), FiniteLieContext(nil2)
    rng = random.Random(0)
    for _ in range(5):
        x = {k: F(rng.randint(-2, 2)) for k in ctx3.degree_keys(1)}
        if not el_is_zero(mc_residual(ctx3, x)):
            continue
        assert el_is_zero(mc_residual(ctx2, f.apply(x)))
        y = {k: F(rng.randint(-2, 2)) for k in ctx3.degree_keys(0)}
        lhs = f.apply(gauge_act(ctx3, y, x))
        rhs = gauge_act(ctx2, f.apply(y), f.apply(x))
        assert el_eq(lhs, rhs)


def test_deformation_instance_nilpotency():
    # every Cech level of m (x) sections is nilpotent of class below the
    # m-adic length
    base = t_truncated(3)
    cc = cech_cosimplicial(tensored_cover(segment_cover(ef_algebra()), base))
    for g in cc.levels:
        nil = lower_central_series(g)
        assert isinstance(nil, NilpotentDgLie)
        assert nil.nilpotency_class < base.maximal_ideal().nilpotency
    assert cc.vanishing_level <= 1


# -- comparison and gluing ------------------------------------------------------


def _nonabelian_cc():
    return cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)


def test_glue_trivial_datum():
    cc = _nonabelian_cc()
    x = glue_descent_datum(cc, DescentDatum({}, {}), D=1)
    assert x == {}


def test_glue_constant_datum():
    # theta = id forces the two coface images to agree, so take the same
    # MC section on both opens; the glued family is constant
    cc = _nonabelian_cc()
    rng = random.Random(7)
    sec = cc.cover.algebra({0})
    nil_sec = lower_central_series(sec)
    C0 = FiniteLieContext(nil_sec)
    from dgdescent.mcgauge import constrained_mc_solve, constraint_rows
    keys = C0.degree_keys(1)
    system, _ = constraint_rows(keys, ())
    a_sec = constrained_mc_solve(C0, keys, system, [], rng=rng)
    a = cc.from_components(0, {(0,): a_sec, (1,): a_sec})
    datum = DescentDatum(a, {})
    x = glue_descent_datum(cc, datum, D=1)
    # all components constant in the form variables
    for (p, gi, mono) in x:
        assert mono == ((0,) * p, 0)
    img = ComparisonFunctor(cc).object_map(x)
    assert el_eq(img.a, a) and img.theta == {}


def test_glue_rejects_bad_datum():
    cc = _nonabelian_cc()
    g0 = cc.cover.algebra({0})
    # level 1 stores no diagonal tuple, so a gauge there, which would
    # break sigma^0 theta = id, has nowhere to go
    assert cc.from_components(
        1, {(0, 0): {g0.space.index(0, ("t", "e")): F(1)}}) == {}
    # theta = 0 does not carry a_0 = t (x) f on U_0 to a_1 = 0 on U_1
    a = cc.from_components(0, {(0,): {g0.space.index(1, ("t", "f")): F(1)}})
    with pytest.raises(GluingFailed) as info:
        glue_descent_datum(cc, DescentDatum(a, {}), D=1)
    assert info.value.level == 0
    assert "does not carry" in info.value.reason


def test_glued_family_self_checks_raise(monkeypatch):
    # every level is solved for its conditions, so a failed check on the
    # assembled family is a bug, not a verdict
    cc = _nonabelian_cc()
    monkeypatch.setattr(TotContext, "is_tot_element", lambda self, x: False)
    with pytest.raises(SelfCheckFailed, match="not compatible"):
        glue_descent_datum(cc, DescentDatum({}, {}), D=1)


# the tensored covers whose structure tables are read against the cover
CECH_MAP_COVERS = {
    "segment/eps": lambda: tensored_cover(segment_cover(abelian_line()),
                                          dual_numbers()),
    "circle/eps": lambda: tensored_cover(circle_cover(abelian_line()),
                                         dual_numbers()),
    "triple/eps": lambda: tensored_cover(triple_cover(abelian_line()),
                                         dual_numbers()),
    "projection/eps": lambda: tensored_cover(projection_cover(),
                                             dual_numbers()),
    "scaled/t3": lambda: tensored_cover(scaled_cover(), t_truncated(3)),
}


@pytest.mark.parametrize("name", list(CECH_MAP_COVERS))
def test_every_structure_table_is_the_restriction_of_the_cover(name):
    """For every monotone u: [p] -> [q] with p, q <= N, composites
    included, the structure table of g(u) sends component T o u of
    level p to component T of level q by the cover's restriction from
    U_{T o u} to U_T, read straight off the tuples and the cover: on
    the build, whose tuples are the strictly increasing ones, for every
    injective u (it refuses the others), and on the ordered Cech
    algebra over all nondecreasing tuples for every u."""
    cover = CECH_MAP_COVERS[name]()
    cc = cech_cosimplicial(cover)
    ordered = ordered_cech(cover, cc.N)
    assert cc.tuples == [[T for T in Ts if len(set(T)) == len(T)]
                         for Ts in cc.ordered_tuples()]
    for alg, tuples in ((cc, cc.tuples), (ordered, cc.ordered_tuples())):
        components = [{T: emb for T, _, emb in alg.level(p).components}
                      for p in range(cc.N + 1)]
        assert [list(c) for c in components] == tuples
        for q in range(cc.N + 1):
            for p in range(cc.N + 1):
                for u in monotone_maps(p, q):
                    if alg is cc and len(set(u)) < len(u):
                        with pytest.raises(ValueError, match="repeats"):
                            cc.structure_table(u, q)
                        continue
                    expect = {}
                    for T in tuples[q]:
                        S = tuple(T[k] for k in u)
                        for gi, i in components[p][S].items():
                            image = cover.restrict(set(S), set(T), {gi: 1})
                            for k, c in image.items():
                                expect.setdefault(i, {})[
                                    components[q][T][k]] = c
                    table = alg.structure_table(u, q)
                    assert {i: row for i, row in table.items() if row} == \
                        expect, (u, q)


@pytest.mark.parametrize("name", list(CECH_MAP_COVERS) +
                         ["segment-ef/t3", "record"])
def test_every_normalization_basis_vector_lies_in_one_degree(name):
    """The codegeneracies keep degrees, so each reduced kernel vector
    of normalization_basis(q) lies in one degree: `tot_cochain` reads
    the degree of a vector off one of its keys."""
    if name == "record":
        _, cc = load_any(str(DATA / "cosimplicial_constant_ef_t3.json"))
    elif name == "segment-ef/t3":
        cc = cech_cosimplicial(tensored_cover(segment_cover(ef_algebra()),
                                              t_truncated(3)))
    else:
        cc = cech_cosimplicial(CECH_MAP_COVERS[name]())
    seen = 0
    for q in range(cc.N + 1):
        g = cc.level(q)
        for el in cc.normalization_basis(q):
            assert len({g.degree_of(k) for k in el}) == 1, (q, el)
            seen += 1
    assert seen


def test_comparison_rejects_non_mc():
    cc = _nonabelian_cc()
    comp = ComparisonFunctor(cc)
    ctx = TotContext(cc)
    g0 = cc.level(0)
    bad = ctx.embed_level(0, {g0.space.degree_indices(1)[0]: F(1)})
    with pytest.raises(ExtractionFailed):
        comp.object_map(bad)


def test_nonabelian_roundtrip_samples():
    cc = _nonabelian_cc()
    comp = ComparisonFunctor(cc)
    G = tot_groupoid(cc)
    rng = random.Random(11)
    done = 0
    while done < 3:
        datum = _sample_descent_datum(cc, rng)
        if datum is None:
            continue
        x = glue_descent_datum(cc, datum, D=2)
        img = comp.object_map(x)
        witness = find_descent_isomorphism(G, img, datum)
        assert witness is not None
        assert G.verify_morphism(img, datum, witness)
        done += 1


def test_triple_cover_glues_through_level_two():
    cc = cech_cosimplicial(tensored_cover(triple_cover(), dual_numbers()),
                           N=2)
    assert cc.vanishing_level == 2
    rng = random.Random(3)
    datum = sample_abelian_datum(cc, rng)
    assert datum is not None
    x = glue_descent_datum(cc, datum, D=2)
    ctx = TotContext(cc)
    assert ctx.is_tot_element(x)
    assert el_is_zero(mc_residual(ctx, x))
    img = ComparisonFunctor(cc).object_map(x)
    assert find_descent_isomorphism(tot_groupoid(cc), img, datum) is not None


def _bundled_cosimplicial(path):
    """The cosimplicial algebra that the command line checks for a
    bundled record, or None for a record that carries none."""
    from argparse import Namespace
    from dgdescent.cli import _cosimplicial_from_args
    try:
        return _cosimplicial_from_args(Namespace(file=str(path)))
    except ParseError:      # an algebra, artin or cover record
        return None


def test_verify_descent_never_samples_an_abelian_instance(monkeypatch):
    """Abelian levels are decided by linear algebra alone: the sampler
    is never called, on every abelian bundled instance and on the
    constant cosimplicial line."""
    def refuse(cc, rng):
        raise AssertionError(f"sampled {cc.name}")

    import dgdescent.cech as cech
    monkeypatch.setattr(cech, "_sample_descent_datum", refuse)
    ccs = [cc for cc in map(_bundled_cosimplicial, sorted(DATA.glob("*.json")))
           if cc is not None and cc.descent_groupoid().is_abelian()]
    assert len(ccs) >= 6
    for cc in ccs + [constant_cosimplicial(abelian_line(), 2)]:
        report = verify_descent(cc, samples=3)
        assert report["falsified"] == 0


def test_lift_tot_gauge_identity():
    cc = _nonabelian_cc()
    T = tot_lie(cc, 1)
    ctx = T.ctx
    rng = random.Random(2)
    datum = _sample_descent_datum(cc, rng)
    x = glue_descent_datum(cc, datum, D=1)
    rho = lift_tot_gauge(ctx, x, x, {}, 1)
    assert rho is not None
    assert el_eq(gauge_act(ctx, rho, x), x)


@pytest.mark.parametrize("D", [1, 2])
def test_lift_tot_gauge_refuses_a_level0_part_no_gauge_has(D):
    """Key 4 of level 0 of segment-ef/t^3 is of degree 1, so no gauge
    has level-0 part {4: 1}, and the lift is None rather than a gauge
    whose level-0 part drops that term."""
    cc = cech_cosimplicial(tensored_cover(segment_cover(ef_algebra()),
                                          t_truncated(3)), N=2)
    ctx = cc.tot_context()
    assert cc.level(0).degree_of(4) == 1
    rng = random.Random(808)
    datum = None
    while datum is None:
        datum = _sample_descent_datum(cc, rng)
    x = glue_descent_datum(cc, datum, D)
    assert lift_tot_gauge(ctx, x, x, {4: 1}, D) is None


@pytest.mark.parametrize("cover,algebra,glued", [
    (segment_cover, ef_algebra, 12), (circle_cover, ef_algebra, 2),
    (segment_cover, heisenberg, 12)])
def test_lift_tot_gauge_carries_x_along_a_sampled_tot_gauge(cover, algebra,
                                                            glued):
    """Each glued family x, acted on by a random Tot gauge rho, has a
    lift of level0(rho) that carries x to gauge_act(rho, x) and whose
    level-0 part is level0(rho): twelve draws at seed 808, D = 2."""
    cc = cech_cosimplicial(tensored_cover(cover(algebra()), t_truncated(3)),
                           N=2)
    ctx = cc.tot_context()
    T = tot_lie(cc, 2)
    rng = random.Random(808)
    lifted = moved = 0
    for _ in range(12):
        datum = _sample_descent_datum(cc, rng)
        if datum is None:
            continue
        x = glue_descent_datum(cc, datum, 2)
        rho = _random_tot_gauge(ctx.tot_basis(0, 2), rng)
        xp = gauge_act(ctx, rho, x)
        lift = lift_tot_gauge(ctx, x, xp, ctx.level0(rho), 2)
        assert lift is not None
        assert ctx.is_tot_element(lift)
        assert el_eq(gauge_act(ctx, lift, x), xp)
        assert el_eq(ctx.level0(lift), ctx.level0(rho))
        lifted += 1
        moved += not el_eq(xp, x)
    assert lifted == glued and moved


def test_lift_witness_span_is_a_lie_subalgebra():
    """The staged search needs its witness span closed under the
    bracket: on segment-heisenberg/t^3 at D = 2 the bracket of any two
    spanning vectors of the lift's span lies in that span."""
    cc = cech_cosimplicial(tensored_cover(segment_cover(heisenberg()),
                                          t_truncated(3)), N=2)
    ctx = cc.tot_context()
    span = _lift_witness_span(ctx, 2)
    assert span and all(ctx.level0(w) == {} for w in span)
    rank = len(echelon_basis(span))
    brackets = [b for u in span for v in span if (b := ctx.bracket_el(u, v))]
    assert brackets
    assert len(echelon_basis(span + brackets)) == rank


# -- verify_descent -------------------------------------------------------------


def test_nonidentity_restriction_covers():
    # projections as restrictions: the overlap only sees the degree-1
    # part, so Aut picks up one unconstrained degree-0 line per open
    from dgdescent.instances import projection_cover, scaled_cover
    cc = cech_cosimplicial(
        tensored_cover(projection_cover(), dual_numbers()), N=2)
    G = tot_groupoid(cc)
    assert G.pi0_dimension() == 1
    assert G.aut_dimension() == 2
    # nonabelian with a rescaling restriction: sampling solves the
    # restriction-constrained MC problem on the second open
    cc2 = cech_cosimplicial(
        tensored_cover(scaled_cover(), t_truncated(3)), N=2)
    rng = random.Random(19)
    datum = _sample_descent_datum(cc2, rng)
    assert datum is not None
    x = glue_descent_datum(cc2, datum, D=2)
    img = ComparisonFunctor(cc2).object_map(x)
    assert find_descent_isomorphism(tot_groupoid(cc2), img, datum) \
        is not None


@pytest.mark.parametrize("cover_fn,artin_fn", [
    (segment_cover, dual_numbers),
    (circle_cover, dual_numbers),
])
def test_verify_descent_abelian(cover_fn, artin_fn):
    cc = cech_cosimplicial(tensored_cover(cover_fn(), artin_fn()), N=2)
    rep = verify_descent(cc, D=1, stabilize_to=2)
    assert all(c["verdict"] == "verified" for c in rep["checks"])
    assert rep["falsified"] == 0


def test_stored_lower_central_series_are_not_mutated():
    cc = _nonabelian_cc()
    nils = cc.nilpotent_levels()
    before = [copy.deepcopy(nil.lcs) for nil in nils]
    rep = verify_descent(cc, samples=1, seed=5, D=2)
    assert rep["falsified"] == 0
    assert all(lower_central_series(g) is nil
               for g, nil in zip(cc.levels, nils))
    assert [nil.lcs for nil in nils] == before


def test_verify_descent_nonabelian_sampled():
    cc = _nonabelian_cc()
    rep = verify_descent(cc, samples=3, seed=5, D=2)
    assert rep["falsified"] == 0
    main = [c for c in rep["checks"]
            if c["name"] == "sampled gluing round-trips"][0]
    assert main["verdict"] == "verified"
    assert main["glued"] >= 3


def test_verify_descent_never_verifies_nothing():
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)
    rep = verify_descent(cc, samples=0, seed=1, D=1)
    summary = rep["checks"][-1]
    assert summary["glued"] == 0
    assert summary["verdict"] == "undecided"


def test_a_negative_sample_count_is_refused():
    """samples=-1 used to come back as a top-level undecided count of
    -1; samples=0 keeps its "no samples requested" verdict."""
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)
    with pytest.raises(ValueError, match="sample count"):
        verify_descent(cc, samples=-1, seed=1, D=2)
    rep = verify_descent(cc, samples=0, seed=1, D=2)
    assert rep["checks"][-1]["reason"] == "no samples requested"
    assert rep["undecided"] == 0


def test_a_negative_degree_bound_is_refused():
    """A truncation below degree 0 has no monomials, so it used to give
    the zero Tot complex and two "verified" abelian checks; every
    truncation is refused where the monomials are listed.  D = 0, the
    constant forms, stays."""
    cc = cech_cosimplicial(tensored_cover(segment_cover(), dual_numbers()),
                           N=2)
    ctx = TotContext(cc)
    with pytest.raises(ValueError, match="degree bound"):
        monomials_up_to(1, -1)
    for call in (lambda: ctx.keys_up_to(-1, 1),
                 lambda: ctx.tot_basis(0, -1),
                 lambda: ctx.tot_basis(0, -1),    # nothing was memoized
                 lambda: ctx.gluing_system(1, -1),
                 lambda: tot_lie(cc, -1),
                 lambda: verify_descent(cc, D=-1)):
        with pytest.raises(ValueError, match="degree bound"):
            call()
    assert any(p == 1 for p, _, _ in ctx.keys_up_to(0, 1))
    assert tot_lie(cc, 0).basis_by_degree


def test_falsified_projection_reports_the_gauge_as_terms(monkeypatch):
    """A Tot gauge whose projection is not a descent morphism is
    reported as data, one term per key, on the stored (strictly
    increasing) tuples only, and the terms rebuild exactly the gauge's
    extension to the ordered Cech algebra over all tuples on those
    tuples.  A projection that doubles the level-0 component breaks the
    morphism condition of every gauge that moves the datum."""
    cc = cech_cosimplicial(segment_cover(heisenberg()))
    project = ComparisonFunctor.morphism_map
    gauges = []

    def doubled(self, rho):
        gauges.append(rho)
        return el_scale(2, project(self, rho))

    monkeypatch.setattr(ComparisonFunctor, "morphism_map", doubled)
    rep = verify_descent(cc, samples=3, seed=0, D=2)
    falsified = [c for c in rep["checks"]
                 if c["name"] == "tot gauge projection"]
    assert falsified and rep["falsified"] == len(falsified)
    assert rep["checks"][-1]["verdict"] == "falsified"
    assert json.loads(json.dumps(rep)) == rep
    ordered = ordered_cech(cc.cover, cc.N)
    key_of = {json.dumps([p, label_to_json(
        ordered.level(p).space.label_of(gi)), format_mono(mono)]):
        (p, gi, mono) for p, gi, mono in TotContext(ordered).keys_up_to(2, 0)}

    def stored(key):
        tag = ordered.level(key[0]).space.label_of(key[1])[0]
        return len(set(tag)) == len(tag)

    rebuilt = []
    for check in falsified:
        assert check["verdict"] == "falsified"
        rho = {}
        for term in check["gauge"]:
            assert set(term) == {"level", "basis", "form", "coeff"}
            assert len(set(term["basis"][0])) == len(term["basis"][0])
            key = key_of[json.dumps([term["level"], term["basis"],
                                     term["form"]])]
            assert key not in rho
            rho[key] = scalar_from_str(term["coeff"])
        rebuilt.append(rho)
    # the falsified gauges are drawn ones, in the order drawn
    it = iter(gauges)
    assert all(any(rho == {k: v for k, v in extend_to_ordered(
        cc, ordered, g).items() if stored(k)} for g in it) for rho in rebuilt)


def test_unwitnessed_round_trip_is_undecided(monkeypatch):
    import dgdescent.cech as cech
    monkeypatch.setattr(cech, "find_descent_isomorphism",
                        lambda G, d1, d2: None)
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)
    rep = verify_descent(cc, samples=1, seed=1, D=1)
    summary = rep["checks"][-1]
    assert summary["glued"] == 1 and summary["undecided"] == 1
    assert summary["verdict"] == "undecided"


def test_round_trip_into_another_orbit_is_falsified(monkeypatch):
    """A comparison image whose level-0 part lies in another orbit than
    the datum's is certified not isomorphic to it: a "falsified" round
    trip with the stage of the insoluble level-0 search.  In ef (x) t/t^3
    (d = 0) the orbit of a = 0 is {0}."""
    import dgdescent.cech as cech
    real = cech.ComparisonFunctor.object_map

    def elsewhere(self, x):
        image = real(self, x)
        assert image.a
        return DescentDatum({}, image.theta)
    monkeypatch.setattr(cech.ComparisonFunctor, "object_map", elsewhere)
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)
    rep = verify_descent(cc, samples=1, seed=1, D=1)
    round_trip, summary = rep["checks"]
    assert round_trip["name"] == "round trip"
    assert round_trip["verdict"] == "falsified"
    assert round_trip["stage"] in (1, 2)
    assert summary["verdict"] == "falsified"
    assert summary["glued"] == 1 and summary["round_trips_witnessed"] == 0
    assert rep["falsified"] == 1


def test_truncation_below_the_cover_vanishing_level_is_refused():
    cover = tensored_cover(triple_cover(), dual_numbers())
    with pytest.raises(TruncationError, match="vanishing level 2"):
        cech_cosimplicial(cover, N=1)
    assert cech_cosimplicial(cover, N=2).vanishing_level == 2


def test_samples_never_glued_count_as_undecided(monkeypatch):
    # the sampler gives one datum and then runs dry: one of two requested
    # samples is glued, and the other must count as undecided at the top
    import dgdescent.cech as cech
    real = cech._sample_descent_datum
    calls = []

    def once(cc, rng):
        calls.append(1)
        return real(cc, rng) if len(calls) == 1 else None
    monkeypatch.setattr(cech, "_sample_descent_datum", once)
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)
    rep = verify_descent(cc, samples=2, seed=1, D=1)
    summary = rep["checks"][-1]
    assert summary["glued"] == 1 and summary["draws"] == 16
    assert summary["verdict"] == "undecided"
    assert summary["reason"] == "glued 1 of 2 in 16 draws"
    assert rep["undecided"] == 1 and rep["falsified"] == 0


def test_gluing_out_of_reach_of_the_degree_bound_is_undecided():
    # at degree bound 1 the gauge path of some segment-probe2 data is
    # of degree 2, out of reach at level 1; that refutes nothing, and
    # bound 2 glues them
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(probe_class2()), t_truncated(3)), N=2)
    rep = verify_descent(cc, samples=3, seed=11, D=1)
    *gluing, summary = rep["checks"]
    assert gluing and all(c == {
        "name": "gluing", "verdict": "undecided", "level": 1, "stage": 0,
        "reason": "the gauge path of theta has polynomial degree 2, above "
                  "the degree bound 1"} for c in gluing)
    # each is one of the three samples, and undecided
    assert summary["glued"] + len(gluing) == 3
    assert summary["undecided"] == len(gluing)
    assert summary["verdict"] == "undecided"
    assert f"{len(gluing)} out of reach within degree bound 1" in \
        summary["reason"]
    assert rep["undecided"] == len(gluing) and rep["falsified"] == 0
    rep = verify_descent(cc, samples=3, seed=11, D=2)
    assert [c["verdict"] for c in rep["checks"]] == ["verified"]


def test_verified_sampled_report_has_no_reason():
    cc = _nonabelian_cc()
    rep = verify_descent(cc, samples=1, seed=5, D=2)
    summary = rep["checks"][-1]
    assert summary["verdict"] == "verified" and "reason" not in summary
    assert rep["undecided"] == 0


def test_unstabilized_abelian_bounds_are_undecided(monkeypatch):
    # dimensions that move with every bound never stabilize: no verdict
    # may be read off the last bound
    import dgdescent.cech as cech
    monkeypatch.setattr(cech, "_abelian_tot_dims", lambda cc, D: (D, 0))
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(), dual_numbers()), N=2)
    rep = verify_descent(cc, D=1, stabilize_to=3)
    assert [c["verdict"] for c in rep["checks"]] == ["undecided"] * 2
    for c in rep["checks"]:
        assert c["stabilized_at"] is None
        assert c["reason"] == "no two consecutive degree bounds in 1..3 agree"
    assert rep["undecided"] == 2 and rep["falsified"] == 0


def test_stabilized_abelian_bounds_keep_their_verdict(monkeypatch):
    import dgdescent.cech as cech
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(), dual_numbers()), N=2)
    rep = verify_descent(cc, D=1)
    assert rep["checks"][0]["stabilized_at"] == 2
    assert [c["verdict"] for c in rep["checks"]] == ["verified"] * 2
    assert all("reason" not in c for c in rep["checks"])
    assert "stabilized_at" not in rep["checks"][1]
    # stabilizing only at the last bound still reads the dimensions off
    # it, but a stabilized disagreement refutes nothing: undecided,
    # never falsified
    monkeypatch.setattr(cech, "_abelian_tot_dims",
                        lambda cc, D: (min(D, 3), 0))
    rep = verify_descent(cc, D=1, stabilize_to=4)
    assert rep["checks"][0]["stabilized_at"] == 4
    assert [(c["tot_side"], c["descent_side"]) for c in rep["checks"]] == \
        [(3, 1), (0, 1)]
    assert [c["verdict"] for c in rep["checks"]] == ["undecided"] * 2
    assert all(c["reason"] == "stabilization in D proves nothing"
               for c in rep["checks"])
    assert rep["undecided"] == 2 and rep["falsified"] == 0
    # a stabilized agreement on one side and disagreement on the other
    monkeypatch.setattr(cech, "_abelian_tot_dims",
                        lambda cc, D: (1, min(D, 3)))
    rep = verify_descent(cc, D=1, stabilize_to=4)
    assert [c["verdict"] for c in rep["checks"]] == ["verified", "undecided"]
    assert "reason" not in rep["checks"][0]
    assert rep["undecided"] == 1 and rep["falsified"] == 0
