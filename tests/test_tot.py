import functools
import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgdescent.cech import cech_cosimplicial, tensored_cover
from dgdescent.cochain import canonical_table, map_table
from dgdescent.dgla import (DgLieAlgebra, el_eq, el_sub,
                            lower_central_series, tensor_lie)
from dgdescent.forms import (PolyForm, degeneracy_map, face_map,
                             monotone_maps, omega_apply)
from dgdescent.instances import (abelian_algebra, circle_cover, complex_cover,
                                 dual_numbers, ef_algebra, heisenberg,
                                 probe_class2, scaled_cover, segment_cover,
                                 t_truncated, triple_cover)
from dgdescent.linalg import echelon_basis, rref
from dgdescent.mcgauge import (FiniteLieContext, FormLieContext, by_monomial,
                               mc_residual)
from dgdescent.tot import (CosimplicialDgLie, DescentDatum, TotContext,
                           tot_cochain, tot_groupoid, tot_lie)

from builders import (abelian_object, constant_cosimplicial,
                      extend_to_ordered, ordered_cech)

F = Fraction
DATA = Path(__file__).resolve().parents[1] / "src" / "dgdescent" / "data"


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
                lvl0 = T.ctx.level0(v)
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
            b = T.ctx.bracket_el(v, w)
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
    datum = abelian_object(G, [F(1)] * len(sol))
    assert G.verify_object(datum)


def _truncation_invariants(cc):
    """What the truncation level of a Cech algebra could change: the
    conormalized Betti numbers, the truncated Thom-Sullivan cohomology
    (with its dimensions) at D = 1 and 2, and the descent report."""
    from dgdescent.cech import verify_descent
    T, _ = tot_cochain(cc)
    top = max(T.space.nonzero_degrees(), default=0)
    lie = []
    for D in (1, 2):
        L = tot_lie(cc, D).cochain
        lie.append([(L.space.dim(n), L.cohomology(n)[0])
                    for n in range(top + 1)])
    report = verify_descent(cc, samples=3)
    del report["levels"]
    return T.betti_numbers(top), lie, report


@pytest.mark.parametrize("name", sorted(
    f.name for f in DATA.glob("instance_*.json")))
def test_enlarging_truncation_level_is_stable(name):
    # the finiteness hypothesis makes the truncated limit honest: going
    # one level beyond the default, max(2, vanishing level), changes
    # nothing, which is why no command lets a user pick the level
    from dgdescent.cech import vanishing_level
    from dgdescent.io import instance_from_record, load_record
    _, cover, base = instance_from_record(load_record(DATA / name))
    cover = tensored_cover(cover, base)
    N = max(2, vanishing_level(cover))
    cc = cech_cosimplicial(cover)
    assert cc.N == N
    assert _truncation_invariants(cc) == \
        _truncation_invariants(cech_cosimplicial(cover, N=N + 1))


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
    """The TotContext of a Cech algebra, or with " over all tuples"
    appended, that of the ordered Cech algebra of its cover
    (`builders.ordered_cech`)."""
    if name.endswith(" over all tuples"):
        cc = _cech_context(name[:-len(" over all tuples")]).cc
        return TotContext(ordered_cech(cc.cover, cc.N))
    cover, base = {"triple/eps": (triple_cover, dual_numbers),
                   "circle/t3": (circle_cover,
                                 lambda: t_truncated(3)),
                   "scaled/t3": (scaled_cover,
                                 lambda: t_truncated(3)),
                   "segment-ef/t3": (lambda: segment_cover(ef_algebra()),
                                     lambda: t_truncated(3))}[name]
    return TotContext(cech_cosimplicial(tensored_cover(cover(), base()),
                                        N=2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["triple/eps", "circle/t3", "segment-ef/t3",
                        "triple/eps over all tuples"]),
       st.integers(1, 3), st.integers(0, 3), st.sampled_from([None, 1, 2]),
       st.data())
def test_exchange_rows_are_the_defects_of_unit_vectors(name, D, degree,
                                                       level, data):
    """Every entry of every generator's row block is the defect of the
    column's unit vector, and every nonzero defect entry is in a row.
    The system is drawn as `tot_basis` takes it (keys of every level,
    every generator) or as `cech._glue_level` does (level-p keys, the
    generators between levels p - 1 and p)."""
    ctx = _cech_context(name)
    all_keys = ctx.keys_up_to(D, degree)
    generators = ctx.generators()
    if level is not None:
        all_keys = [k for k in all_keys if k[0] == level]
        generators = [(u, q) for u, q in generators
                      if {len(u) - 1, q} == {level - 1, level}]
        # a Cech algebra stores the nondegenerate tuples only, and its
        # Tot conditions are the cofaces [level - 1] -> [level], none when
        # the level is zero (level 2 of segment and circle); over all
        # tuples the codegeneracies [level] -> [level - 1] join them
        faces = level + 1 if ctx.cc.level(level).total_dim() else 0
        assert len(generators) == (faces if ctx.cc.codegens is None
                                   else faces + level)
    picks = data.draw(st.lists(st.integers(0, max(len(all_keys) - 1, 0)),
                               max_size=12, unique=True)) \
        if all_keys else []
    keys = [all_keys[i] for i in picks]
    rows = ctx.exchange_rows(keys, generators)
    from_rows = {}
    for (u, dk), row in rows.items():
        assert row, "a stored row is empty"
        for col, c in row.items():
            assert c != 0
            from_rows.setdefault((u, col), {})[dk] = c
    order = {}
    for u, qtgt in generators:
        for col, k in enumerate(keys):
            defect = ctx.compatibility_defect(u, qtgt,
                                              by_monomial({k: F(1)}))
            assert from_rows.get((u, col), {}) == defect
            for dk in defect:
                order.setdefault((u, dk), None)
    # rows come in the order in which the defects first name them
    assert list(rows) == list(order)


def test_only_forms_and_tot_name_the_exchange_row_inputs():
    """The pulled-back monomials and the structure-map images are read
    only where the exchange rows are written, so face and degeneracy
    rows cannot be written a second way unnoticed."""
    import ast
    src = Path(__file__).resolve().parents[1] / "src" / "dgdescent"
    watched = {"monomial_pullback", "structure_table"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("forms.py", "tot.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in watched:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, "exchange-row inputs named at " + \
        ", ".join(offenders)


def test_a_map_that_is_not_monotone_into_the_codomain_is_refused():
    cc = constant_cosimplicial(abelian_algebra({0: 1}), 2)
    # (0, 1), (0, 2) and (-1, 0) leave [0] or [1]; (1, 0) decreases
    for u, q in (((0, 1), 0), ((0, 2), 1), ((-1, 0), 1), ((1, 0), 1)):
        with pytest.raises(ValueError, match="not a monotone map"):
            cc.structure_table(u, q)


def test_a_structure_map_path_is_walked_once_and_a_bad_map_every_time(
        monkeypatch):
    cc = constant_cosimplicial(abelian_algebra({0: 1}), 2)
    # validating the identities stores nothing; the conormalization
    # stores the codegeneracy tables it reads
    assert cc._tables and all(len(set(u)) < len(u) for u, _ in cc._tables)
    walks = []
    walk = CosimplicialDgLie._normal_path
    monkeypatch.setattr(CosimplicialDgLie, "_normal_path",
                        lambda self, u, q: walks.append(u) or walk(self, u, q))
    table = cc.structure_table((0, 2), 2)
    assert cc.structure_table((0, 2), 2) is table
    assert cc.structure_table([0, 2], 2) is table
    assert table == {0: {0: 1}} and walks == [(0, 2)]
    for _ in range(2):
        with pytest.raises(ValueError, match="not a monotone map"):
            cc.structure_table((1, 0), 1)
    assert ((1, 0), 1) not in cc._tables and len(walks) == 3


def test_tot_basis_vectors_are_tot_elements():
    ctx = _cech_context("circle/t3")
    basis = ctx.tot_basis(1, 2)
    assert basis
    assert all(ctx.is_tot_element(v) for v in basis)


def test_a_membership_check_groups_its_element_once(monkeypatch):
    from dgdescent import tot
    ctx = _cech_context("circle/t3")
    x = ctx.tot_basis(1, 2)[0]
    calls = []
    group = tot.by_monomial

    def spy(y):
        calls.append(y)
        return group(y)

    monkeypatch.setattr(tot, "by_monomial", spy)
    assert ctx.is_tot_element(x)
    assert calls == [x]
    # a defect reads the grouping it is given, and groups nothing again
    k = next(iter(x))
    y = {**x, k: x[k] + 1}
    groups = group(y)
    calls.clear()
    defects = [ctx.compatibility_defect(u, q, groups)
               for u, q in ctx.generators()]
    assert calls == [] and any(defects)


def _defect_matrix(ctx, keys):
    """The exchange conditions on the span of keys as a dense matrix,
    built column by column from compatibility_defect of unit vectors.
    Absent entries are int 0, which rref skips as cheaply as it can."""
    rows = {}
    for col, key in enumerate(keys):
        for u, qtgt in ctx.generators():
            for dk, c in ctx.compatibility_defect(
                    u, qtgt, by_monomial({key: F(1)})).items():
                rows.setdefault((u, dk), {})[col] = c
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
        keys = ctx.keys_up_to(D, degree)
        basis = ctx.tot_basis(degree, D)
        assert all(ctx.is_tot_element(v) for v in basis)
        pivots = set(rref(_defect_matrix(ctx, keys))[1])
        free = [k for col, k in enumerate(keys) if col not in pivots]
        assert len(basis) == len(keys) - len(pivots)
        assert [[v.get(k, 0) for k in free] for v in basis] == \
            [[int(i == j) for j in range(len(free))]
             for i in range(len(basis))]


def _spy_exchange_rows(monkeypatch):
    """The keys of every exchange_rows call, in call order."""
    written = []
    exchange_rows = TotContext.exchange_rows

    def spy(self, keys, generators):
        written.append(tuple(keys))
        return exchange_rows(self, keys, generators)

    monkeypatch.setattr(TotContext, "exchange_rows", spy)
    return written


def test_each_tot_basis_is_built_once_per_degree_and_bound(monkeypatch):
    """tot_lie twice at D = 2, then at D = 3, on one algebra: the
    exchange rows of each requested (degree, D) are written once, and
    the second complex holds the first one's basis lists."""
    cc = _cech_context.__wrapped__("circle/t3").cc
    requests = []
    tot_basis = TotContext.tot_basis

    def spy(self, degree, D):
        requests.append((degree, D))
        return tot_basis(self, degree, D)

    written = _spy_exchange_rows(monkeypatch)
    monkeypatch.setattr(TotContext, "tot_basis", spy)
    first, second = tot_lie(cc, 2), tot_lie(cc, 2)
    tot_lie(cc, 3)
    ctx = cc.tot_context()
    asked = set(requests)
    at2 = {(n, D) for n, D in asked if D == 2}
    assert at2 and asked - at2
    # each complex asks for the basis of each of its degrees; degree 3
    # has no key on circle/t3 (levels 0 and 1 reach total degree 2), so
    # no complex lists it, and the block out of degree 2 asks for it
    # once per D
    assert 3 not in first.basis_by_degree
    assert all(requests.count((n, D)) == (2 if D == 2 and n < 3 else 1)
               for n, D in asked)
    assert len(written) == len(asked)
    assert sorted(written) == sorted(tuple(ctx.keys_up_to(D, n))
                                     for n, D in asked)
    assert second.basis_by_degree.keys() == first.basis_by_degree.keys()
    assert all(second.basis_by_degree[n] is vecs
               for n, vecs in first.basis_by_degree.items())


def test_two_algebras_share_no_tot_basis(monkeypatch):
    """Equal algebras built twice, and a second TotContext on one of
    them, each solve their own basis."""
    ccs = [_cech_context.__wrapped__("circle/t3").cc for _ in range(2)]
    written = _spy_exchange_rows(monkeypatch)
    bases = [cc.tot_context().tot_basis(1, 2) for cc in ccs]
    bases.append(TotContext(ccs[0]).tot_basis(1, 2))
    assert len(written) == 3
    assert bases[0] == bases[1] == bases[2] and bases[0]
    assert len({id(b) for b in bases}) == 3
    assert ccs[0].tot_context().tot_basis(1, 2) is bases[0]
    assert len(written) == 3


def _spy_d_el(monkeypatch):
    """Count the calls of d on the Tot ambient."""
    applied = []
    d_el = TotContext.d_el

    def spy(self, x):
        applied.append(self)
        return d_el(self, x)

    monkeypatch.setattr(TotContext, "d_el", spy)
    return applied


def test_each_tot_differential_block_is_built_once_per_degree_and_bound(
        monkeypatch):
    """tot_lie twice at D = 2, then at D = 3, on one algebra: d is
    applied once to each basis vector of each (degree, D), so the second
    complex at D = 2 applies it to nothing and holds the first one's
    differential; D = 3 builds only its own blocks."""
    cc = _cech_context.__wrapped__("circle/t3").cc
    ctx = cc.tot_context()
    applied = _spy_d_el(monkeypatch)
    first = tot_lie(cc, 2)
    assert len(applied) == sum(map(len, first.basis_by_degree.values()))
    blocks = dict(ctx._differentials)
    assert set(blocks) == {(n, 2) for n in first.basis_by_degree}
    applied.clear()
    second = tot_lie(cc, 2)
    assert applied == []
    assert second.cochain.d == first.cochain.d
    third = tot_lie(cc, 3)
    assert len(applied) == sum(map(len, third.basis_by_degree.values()))
    assert set(ctx._differentials) - set(blocks) == \
        {(n, 3) for n in third.basis_by_degree}
    assert all(ctx._differentials[k] is block for k, block in blocks.items())


def test_two_algebras_share_no_tot_differential(monkeypatch):
    """Equal algebras built twice, and a second TotContext on one of
    them, each apply d to their own basis."""
    ccs = [_cech_context.__wrapped__("circle/t3").cc for _ in range(2)]
    ctxs = [cc.tot_context() for cc in ccs] + [TotContext(ccs[0])]
    applied = _spy_d_el(monkeypatch)
    blocks = [ctx.tot_differential(1, 2) for ctx in ctxs]
    size = len(ctxs[0].tot_basis(1, 2))
    assert size and applied == [c for c in ctxs for _ in range(size)]
    assert blocks[0] == blocks[1] == blocks[2] and blocks[0]
    assert len({id(b) for b in blocks}) == 3
    assert ccs[0].tot_context().tot_differential(1, 2) is blocks[0]
    assert len(applied) == 3 * size


def test_the_assembled_differential_is_the_whole_complex_table():
    """The differential assembled from the per-degree blocks is, byte
    for byte, the table that one map_table over the whole complex
    writes, on every abelian instance and on triple/eps, circle/t3 and
    scaled/t3, at D = 1..3."""
    ccs = dict(_abelian_cosimplicials())
    for name in ("triple/eps", "circle/t3", "scaled/t3"):
        ccs[name] = _cech_context.__wrapped__(name).cc
    for name, cc in ccs.items():
        for D in (1, 2, 3):
            T = tot_lie(cc, D)
            B, space = T.basis_by_degree, T.cochain.space
            reference = canonical_table(
                map_table(T.ctx.d_el, B, B, 1), space, space, 1)
            assert repr(T.cochain.d) == repr(reference), (name, D)


# sha256 over repr(sorted(cochain.d.items())) and then repr(cohomology(n))
# for n = 0..4, per tot_sweep item, as computed before the differential
# was assembled from per-degree blocks
TOT_SWEEP_SHA256 = {
    ("triple/eps", 1):
        "9e773abde32eb9dd99cb89b32899ab388dc0014a544b8d556d1cf7e74fc159e9",
    ("triple/eps", 2):
        "a0b54705f7a6726eddd820b74394a1ff222051d1f13b84eeaa3ab583d89a8807",
    ("triple/eps", 3):
        "afe8969bef44ad9bfdf16b75fd353cef0d923b38cf02cbe24309519ee8bc0895",
    ("triple/eps", 4):
        "fb81534836116bd3d95ac19d063d87f7ef74ebb86f686f692d01f42558466756",
    ("triple/eps", 5):
        "af1a43adbbac98d40775f19190dafe7c36fc0f436f3085c87ed3c020df34f76e",
    ("circle/t3", 1):
        "ca75043eee802bf4d1c066e78dc2521c8b143f3e0c2f16eb5f0b2681405ce7ff",
    ("circle/t3", 2):
        "29d20b6d82e23af4d611ca422fc960b1a10650cb9ad5723e415a9c60286a6a05",
    ("circle/t3", 3):
        "990f2f0c1343eb884d5a055fe5cdc9baee8f5fb76306bcea94b19b86fd385a62",
    ("circle/t3", 4):
        "8b54e67ddf36fa1ed32386bb59df72d6924209cd8b0d2c65f0de966e29cf6be2",
}


def test_the_tot_sweep_tables_and_representatives_are_byte_identical():
    """Every (instance, D) of the tot_sweep benchmark, built as it
    builds them: its differential table and its cohomology
    representatives in degrees 0..4 hash to the pinned sha256, on the
    first complex and on a second one at the same D."""
    ccs = {"triple/eps": cech_cosimplicial(
               tensored_cover(triple_cover(), dual_numbers()), N=2),
           "circle/t3": cech_cosimplicial(
               tensored_cover(circle_cover(), t_truncated(3)), N=2)}
    for (name, D), digest in TOT_SWEEP_SHA256.items():
        for _ in range(2):
            C = tot_lie(ccs[name], D).cochain
            h = hashlib.sha256(repr(sorted(C.d.items())).encode())
            for n in range(5):
                h.update(repr(C.cohomology(n)).encode())
            assert h.hexdigest() == digest, (name, D)


def _abelian_cosimplicials():
    """Every bundled abelian instance and constant record, plus the
    segment, circle and triple covers over eps and t^3."""
    from dgdescent.io import load_any
    out = {}
    for f in sorted(DATA.glob("*.json")):
        kind, obj = load_any(str(f))
        if kind == "descent_instance":
            out[f.name] = cech_cosimplicial(tensored_cover(obj[1], obj[2]))
        elif kind == "cosimplicial_dg_lie":
            out[f.name] = obj
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
            datum = abelian_object(G, [F(i == j) for j in range(len(Z))])
            assert G.verify_object(datum), (name, i)


# ---------------------------------------------------------------------------
# covers by simplicial complexes: Tot is Omega(K) (x) h


def _prism(p):
    """The maximal chains of [1] x [p], vertex (a, b) numbered
    a (p + 1) + b."""
    return [tuple(range(k + 1)) + tuple(range(p + 1 + k, 2 * p + 2))
            for k in range(p + 1)]


COMPLEXES = {
    "horn 1 of [2]": ([(0, 1), (1, 2)], [1, 0]),
    "[1] x [1]": (_prism(1), [1, 0, 0]),
    "[1] x [2]": (_prism(2), [1, 0, 0, 0]),
    "4-cycle": ([(0, 1), (1, 2), (2, 3), (0, 3)], [1, 1]),
    "boundary of [3]": (list(itertools.combinations(range(4), 3)),
                        [1, 0, 1]),
    "7-vertex torus": ([tuple(sorted({i, (i + a) % 7, (i + 3) % 7}))
                        for i in range(7) for a in (1, 2)], [1, 2, 1]),
    "boundary of [4]": (list(itertools.combinations(range(5), 4)),
                        [1, 0, 0, 1]),
}


def _simplicial_betti(facets):
    """Betti numbers of the complex over Q, from the ranks of its
    boundary matrices by the dense rref reference."""
    faces = sorted({c for f in facets for r in range(1, len(f) + 1)
                    for c in itertools.combinations(sorted(f), r)})
    by_dim = {}
    for c in faces:
        by_dim.setdefault(len(c) - 1, []).append(c)
    top = max(by_dim)

    def rank(n):
        # the boundary C_n -> C_{n-1}
        if n < 1 or n > top:
            return 0
        row = {c: i for i, c in enumerate(by_dim[n - 1])}
        A = [[0] * len(by_dim[n]) for _ in by_dim[n - 1]]
        for j, c in enumerate(by_dim[n]):
            for i in range(len(c)):
                A[row[c[:i] + c[i + 1:]]][j] = (-1) ** i
        return len(rref(A)[1])
    return [len(by_dim[n]) - rank(n) - rank(n + 1) for n in range(top + 1)]


@pytest.mark.parametrize("name", list(COMPLEXES))
def test_complex_cover_tot_is_the_cohomology_of_the_complex(name):
    """On the cover of K with sections abelian_line() (x) k[eps]/eps^2,
    whose cohomology is one class in degree 0 and one in degree 1, the
    conormalized complex and tot_lie at D = dim K both have cohomology
    H*(K) (x) (1, 1), with the Betti numbers of K computed by brute
    force."""
    facets, betti = COMPLEXES[name]
    assert _simplicial_betti(facets) == betti
    dim = len(betti) - 1
    padded = [0] + betti + [0, 0]
    expected = [padded[n] + padded[n + 1] for n in range(dim + 3)]
    cc = cech_cosimplicial(tensored_cover(complex_cover(facets, name=name),
                                          dual_numbers()))
    T, _ = tot_cochain(cc)
    assert [T.cohomology(n)[0] for n in range(dim + 3)] == expected
    C = tot_lie(cc, dim).cochain
    assert [C.cohomology(n)[0] for n in range(dim + 3)] == expected


# ---------------------------------------------------------------------------
# the build on the strictly increasing tuples against the ordered one


def _oracle_instances():
    """The Betti-oracle complexes over eps and every bundled instance."""
    from dgdescent.io import load_any
    out = {name: (lambda facets=facets, name=name: cech_cosimplicial(
        tensored_cover(complex_cover(facets, name=name), dual_numbers())))
        for name, (facets, _) in COMPLEXES.items()}
    for f in sorted(DATA.glob("instance_*.json")):
        out[f.name] = lambda f=f: cech_cosimplicial(
            tensored_cover(*load_any(str(f))[1][1:]))
    return out


ORACLE_INSTANCES = _oracle_instances()


@pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
def test_the_nondegenerate_basis_extends_to_the_all_tuples_basis(name):
    """In degrees 0-2 at D = 1..3 the Tot basis of the Cech algebra on
    the strictly increasing tuples has the dimension of the Tot basis of
    the ordered Cech algebra over all tuples (`builders.ordered_cech`),
    each of its vectors extends to a Tot element of the ordered algebra,
    and the extended vectors span its basis."""
    cc = ORACLE_INSTANCES[name]()
    ordered = ordered_cech(cc.cover, cc.N)
    ctx, oracle = cc.tot_context(), TotContext(ordered)
    assert cc.codegens is None and ordered.codegens is not None
    for D in (1, 2, 3):
        for degree in (0, 1, 2):
            basis = ctx.tot_basis(degree, D)
            whole = oracle.tot_basis(degree, D)
            assert len(basis) == len(whole), (D, degree)
            extended = [extend_to_ordered(cc, ordered, v) for v in basis]
            assert all(oracle.is_tot_element(v) for v in extended)
            assert echelon_basis(extended) == echelon_basis(whole)


def _glue_over_all_tuples(cc, ordered, datum, D):
    """The family that `cech.glue_descent_datum` would glue from datum
    on the ordered Cech algebra over all tuples: level 0 a, level 1 the
    whole gauge path of theta (written over all level-1 tuples, 0 on
    the diagonal ones), level p >= 2 solved on every level-p key from
    the faces and codegeneracies into and out of it."""
    from dgdescent.cech import _glue_level
    from dgdescent.dgla import el_sum
    from dgdescent.mcgauge import solve_1simplex
    oracle = ordered.tot_context()
    # level 0 has the same tuples in both algebras
    theta = {gi: c for (p, gi, _), c in extend_to_ordered(
        cc, ordered, cc.tot_context().embed_level(1, datum.theta)).items()
        if p == 1}
    omegas = [oracle.embed_level(0, datum.a),
              solve_1simplex(oracle, ordered.coface(0, 1).apply(datum.a),
                             theta)]
    for p in range(2, cc.N + 1):
        omegas.append(_glue_level(oracle, omegas, p, D))
    return el_sum(omegas)


@pytest.mark.parametrize("cover", [segment_cover, circle_cover])
def test_the_glued_family_extends_to_the_all_tuples_glued_family(cover):
    """On segment- and circle-ef/t^3 the family glued on the strictly
    increasing tuples extends, term for term, to the family glued on
    the ordered Cech algebra over all tuples, whose level 2 holds the
    copies that the build does not store."""
    from dgdescent.cech import _sample_descent_datum, glue_descent_datum
    cc = cech_cosimplicial(tensored_cover(cover(ef_algebra()),
                                          t_truncated(3)))
    ordered = ordered_cech(cc.cover, cc.N)
    rng = random.Random(808)
    glued = draws = 0
    while glued < 3 and draws < 40:
        draws += 1
        datum = _sample_descent_datum(cc, rng)
        if datum is None:
            continue
        x = glue_descent_datum(cc, datum, 2)
        whole = _glue_over_all_tuples(cc, ordered, datum, 2)
        assert extend_to_ordered(cc, ordered, x) == whole
        assert not any(p == 2 for p, _, _ in x)
        assert any(p == 2 for p, _, _ in whole)
        glued += 1
    assert glued == 3


@pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
def test_glued_families_extend_to_the_all_tuples_ones_on_every_instance(
        name):
    """On the Betti-oracle complexes and every bundled instance, three
    drawn data glue at D = max(2, N), and each glued family extends,
    term for term, to the one glued over all tuples, levels 2..N
    solved on both sides where the nerve reaches them."""
    from builders import sample_abelian_datum
    from dgdescent.cech import _sample_descent_datum, glue_descent_datum
    cc = ORACLE_INSTANCES[name]()
    ordered = ordered_cech(cc.cover, cc.N)
    draw = (sample_abelian_datum if cc.descent_groupoid().is_abelian()
            else _sample_descent_datum)
    D = max(2, cc.N)
    rng = random.Random(5)
    glued = 0
    for _ in range(10):
        datum = draw(cc, rng)
        if datum is None:
            continue
        x = glue_descent_datum(cc, datum, D)
        assert extend_to_ordered(cc, ordered, x) == \
            _glue_over_all_tuples(cc, ordered, datum, D)
        glued += 1
        if glued == 3:
            break
    assert glued == 3


# the counts and system shapes at D = 2 that a slide back to all tuples
# would change: (degree-0 keys, degree-1 keys, degree-1 keys over all
# tuples, {p: rows x columns of gluing_system(p, 2)})
# ---------------------------------------------------------------------------
# a map into a zero level cuts out nothing


def _every_elementary_map(cc):
    """Every coface [p-1] -> [p] into levels 1..N and, on an algebra
    with codegeneracies, every codegeneracy [p+1] -> [p], as (u, q), in
    the order in which `TotContext.generators` lists those it keeps."""
    maps = [(face_map(i, p), p) for p in range(1, cc.N + 1)
            for i in range(p + 1)]
    if cc.codegens is not None:
        maps += [(degeneracy_map(i, p), p) for p in range(cc.N)
                 for i in range(p + 1)]
    return maps


def _zero_level_instances():
    """The Betti-oracle complexes, the bundled instances and covers,
    and the algebras of `_cech_context`."""
    from dgdescent.io import load_any
    out = dict(ORACLE_INSTANCES)
    for f in sorted(DATA.glob("cover_*.json")):
        out[f.name] = lambda f=f: cech_cosimplicial(load_any(str(f))[1])
    for name in ("triple/eps", "circle/t3", "scaled/t3", "segment-ef/t3",
                 "triple/eps over all tuples"):
        out[name] = lambda name=name: _cech_context(name).cc
    return out


ZERO_LEVEL_INSTANCES = _zero_level_instances()


@pytest.mark.parametrize("name", list(ZERO_LEVEL_INSTANCES))
def test_every_map_left_out_of_the_generators_has_no_defect(name):
    """generators keeps the elementary maps into the nonzero levels, in
    order, and leaves out every map into a zero level; each map left out
    has a zero compatibility_defect on random elements over the keys of
    degrees 0-2 at D = 2."""
    cc = ZERO_LEVEL_INSTANCES[name]()
    ctx = cc.tot_context()
    every = _every_elementary_map(cc)
    kept = ctx.generators()
    dropped = [m for m in every if m not in kept]
    assert kept == [m for m in every if m in kept]
    assert {q for _, q in dropped} == {
        q for q in range(1, cc.N + 1) if not cc.level(q).total_dim()}
    keys = [k for n in range(3) for k in ctx.keys_up_to(2, n)]
    rng = random.Random(name)
    for _ in range(3):
        x = {k: F(rng.choice([-3, -1, 1, 2])) for k in
             rng.sample(keys, min(len(keys), 12))}
        groups = by_monomial(x)
        for u, q in dropped:
            assert ctx.compatibility_defect(u, q, groups) == {}


SHAPES = {
    "segment": (10, 14, 130, {1: (4, 10), 2: (0, 0)}),
    "circle": (24, 36, 282, {1: (12, 30), 2: (0, 0)}),
    "triple": (36, 60, 306, {1: (12, 30), 2: (30, 24)}),
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_key_counts_and_gluing_shapes_are_those_of_the_nondegenerate_tuples(
        name):
    cover = {"segment": segment_cover, "circle": circle_cover,
             "triple": triple_cover}[name]
    cc = cech_cosimplicial(tensored_cover(cover(ef_algebra()),
                                          t_truncated(3)))
    ctx = cc.tot_context()
    keys0, keys1, all_keys1, shapes = SHAPES[name]
    assert len(ctx.keys_up_to(2, 0)) == keys0
    assert len(ctx.keys_up_to(2, 1)) == keys1
    assert len(TotContext(ordered_cech(cc.cover, cc.N)).keys_up_to(2, 1)) \
        == all_keys1
    got = {}
    for p in range(1, cc.N + 1):
        keys, _, _, factor = ctx.gluing_system(p, 2)
        got[p] = (len(factor.rows), len(keys))
    assert got == shapes


def _stored_index(cc, ordered):
    """{(level, basis index of the Cech algebra): basis index of the
    ordered algebra}: the component of a stored tuple sits in both."""
    out = {}
    for p, g in enumerate(cc.levels):
        target = {T: emb for T, _, emb in ordered.level(p).components}
        for T, _, emb in g.components:
            for k, gi in emb.items():
                out[p, gi] = target[T][k]
    return out


@pytest.mark.parametrize("name", ["segment", "circle", "triple", "simplex5"])
def test_keys_are_enumerated_from_the_cells(name):
    """The keys of the Cech algebra are those of its cells, the strictly
    increasing tuples: relabelled into the ordered Cech algebra they are
    its keys on those tuples, in the same order, so dropping the
    degenerate factors relabels keys, rows and bases monotonely."""
    cover = {"segment": segment_cover, "circle": circle_cover,
             "triple": triple_cover,
             "simplex5": lambda L: complex_cover([tuple(range(5))], L,
                                                 name="simplex5")}[name]
    cc = cech_cosimplicial(tensored_cover(cover(ef_algebra()),
                                          dual_numbers()))
    ordered = ordered_cech(cc.cover, cc.N)
    ctx, oracle = cc.tot_context(), TotContext(ordered)
    index = _stored_index(cc, ordered)
    stored = {(p, gj) for (p, _), gj in index.items()}
    assert len(index) == len(stored) < sum(ordered.level_dimensions())
    total = 0
    for D in range(4):
        for degree in range(3):
            keys = ctx.keys_up_to(D, degree)
            assert [(p, index[p, gi], m) for p, gi, m in keys] == \
                [k for k in oracle.keys_up_to(D, degree) if k[:2] in stored]
            total += len(keys)
    assert total

# ---------------------------------------------------------------------------
# lower central series of the Cech product levels


def _bracketed_series(g):
    """The lower central series of g by the bracket loop: g's tables in
    a plain algebra, which has no factors to put it together from."""
    return lower_central_series(DgLieAlgebra(g.cochain, g.table,
                                             validate=False))


def _series_lists(nil):
    return [(i, n, [list(el.items()) for el in els])
            for i, stage in sorted(nil.lcs.items())
            for n, els in sorted(stage.items())]


def _t3_instance(cover, algebra):
    return lambda: cech_cosimplicial(tensored_cover(cover(algebra()),
                                                    t_truncated(3)))


SERIES_INSTANCES = dict(
    ORACLE_INSTANCES,
    **{"segment-ef/t3": _t3_instance(segment_cover, ef_algebra),
       "circle-ef/t3": _t3_instance(circle_cover, ef_algebra),
       "triple-ef/t3": _t3_instance(triple_cover, ef_algebra),
       "segment-probe2/t3": _t3_instance(segment_cover, probe_class2),
       "segment-heisenberg/t3": _t3_instance(segment_cover, heisenberg)})


@pytest.mark.parametrize("name", list(SERIES_INSTANCES))
def test_the_series_of_a_cech_level_is_the_bracketed_series(name):
    """Every Cech level is the product of the section algebras of its
    tuples, and its series, put together from theirs, is the one the
    bracket loop computes: stage by stage, degree by degree, in the same
    order.  A level with no tuple is the zero algebra."""
    cc = SERIES_INSTANCES[name]()
    for g, tuples in zip(cc.levels, cc.tuples):
        assert [T for T, _, _ in g.components] == tuples
        nil, ref = lower_central_series(g), _bracketed_series(g)
        assert nil.nilpotency_class == ref.nilpotency_class
        assert _series_lists(nil) == _series_lists(ref)


# ---------------------------------------------------------------------------
# pullbacks by monomial against pullbacks by basis index


def _restrict_by_basis_index(u, x):
    """The pullback along u of an element of level q, one `omega_apply`
    per (level, basis index) of all the monomials of that index: the
    test reference for `FormLieContext.restrict`, which pulls each
    (level, monomial) back once."""
    p = len(u) - 1
    by_g = {}
    for (q, gi, mono), v in x.items():
        by_g.setdefault((q, gi), {})[mono] = v
    out = {}
    for (q, gi), terms in by_g.items():
        for m, c in omega_apply(u, PolyForm(q, terms)).terms.items():
            out[(p, gi, m)] = c
    return out


def _elementary_apply(cc, u, q, x):
    """g(u)(x) for u: [p] -> [q], the elementary maps applied one by one
    along the word that takes the smallest indices first: u is
    face_i . u' for the smallest i off its image, else u' . degen_j for
    the smallest repeated position j, else the identity.  The normal
    form that `CosimplicialDgLie.structure_table` walks puts them in
    another order; the cosimplicial identities make the two agree."""
    p = len(u) - 1
    missing = [i for i in range(q + 1) if i not in u]
    if missing:
        i = missing[0]
        inner = tuple(v if v < i else v - 1 for v in u)
        return cc.coface(q - 1, i).apply(_elementary_apply(cc, inner, q - 1,
                                                           x))
    repeats = [j for j in range(p) if u[j] == u[j + 1]]
    if repeats:
        j = repeats[0]
        return _elementary_apply(cc, u[:j + 1] + u[j + 2:], q,
                                 cc.codegeneracy(p - 1, j).apply(x))
    return dict(x)


def test_the_structure_tables_of_a_record_are_its_elementary_maps():
    """On the cosimplicial record, the structure table of every
    monotone u: [p] -> [q] between its levels is the image of each
    basis element under its elementary maps applied one by one."""
    from dgdescent.io import load_any
    _, cc = load_any(str(DATA / "cosimplicial_constant_ef_t3.json"))
    for p in range(cc.N + 1):
        for q in range(cc.N + 1):
            for u in monotone_maps(p, q):
                table = cc.structure_table(u, q)
                assert list(table) == list(range(cc.level(p).total_dim()))
                for gi, row in table.items():
                    assert row == _elementary_apply(cc, u, q, {gi: 1}), u


def _defect_by_basis_index(ctx, u, q, x):
    """compatibility_defect from `_restrict_by_basis_index` and the
    image of every key's basis element on its own."""
    p = len(u) - 1
    pulled = _restrict_by_basis_index(
        u, {k: v for k, v in x.items() if k[0] == q})
    pushed = {}
    for (level, gi, mono), v in x.items():
        if level == p:
            for gj, c in _elementary_apply(ctx.cc, u, q, {gi: 1}).items():
                key = (p, gj, mono)
                pushed[key] = pushed.get(key, 0) + c * v
    return el_sub(pulled, pushed)


@functools.cache
def _form_keys(q):
    ctx = FormLieContext(nilp_ef(), q)
    return ctx, [k for n in range(3) for k in ctx.keys_up_to(3, n)]


@st.composite
def _form_elements(draw):
    """(FormLieContext of level q, element over its keys, a monotone
    map u: [p] -> [q], q)."""
    q = draw(st.integers(0, 2))
    ctx, keys = _form_keys(q)
    chosen = draw(st.lists(st.sampled_from(keys), max_size=12))
    x = {k: F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
         for k in chosen}
    x = {k: v for k, v in x.items() if v}
    p = draw(st.integers(0, 3))
    u = draw(st.sampled_from(monotone_maps(p, q)))
    return ctx, x, u, q


@settings(max_examples=60, deadline=None)
@given(_form_elements())
def test_restrict_by_monomial_is_restrict_by_basis_index(case):
    ctx, x, u, q = case
    assert ctx.restrict(u, by_monomial(x).get(q, {})) == \
        _restrict_by_basis_index(u, x)


@functools.cache
def _tot_keys(name):
    ctx = _cech_context(name)
    return ctx, [k for n in range(3) for k in ctx.keys_up_to(2, n)]


@st.composite
def _tot_elements(draw):
    """(TotContext, element over its keys, a monotone map u: [p] -> [q]
    between levels 0..N, injective on an algebra without
    codegeneracies)."""
    ctx, keys = _tot_keys(draw(st.sampled_from(
        ["circle/t3", "circle/t3 over all tuples", "triple/eps"])))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=16))
    x = {k: F(draw(st.integers(-3, 3))) for k in chosen}
    x = {k: v for k, v in x.items() if v}
    q = draw(st.integers(0, ctx.N))
    maps = [u for p in range(ctx.N + 1) for u in monotone_maps(p, q)
            if ctx.cc.codegens is not None or len(set(u)) == len(u)]
    return ctx, x, draw(st.sampled_from(maps)), q


@settings(max_examples=60, deadline=None)
@given(_tot_elements())
def test_defect_by_monomial_is_defect_by_basis_index(case):
    ctx, x, u, q = case
    assert ctx.compatibility_defect(u, q, by_monomial(x)) == \
        _defect_by_basis_index(ctx, u, q, x)


# ---------------------------------------------------------------------------
# operation counts of the membership check


def test_a_membership_check_pulls_each_level_and_monomial_back_once(
        monkeypatch):
    """On a glued circle-ef/t^3 sample, is_tot_element pulls back, per
    generator u: [p] -> [q] (the two cofaces into level 1; level 2 is
    zero, so the three into it are no generators), each distinct
    (level q, monomial) of the family once, not each (level q, basis
    index)."""
    from dgdescent import mcgauge
    from dgdescent.cech import _sample_descent_datum, glue_descent_datum
    cc = cech_cosimplicial(tensored_cover(circle_cover(ef_algebra()),
                                          t_truncated(3)))
    ctx = cc.tot_context()
    rng = random.Random(808)
    datum = None
    while datum is None:
        datum = _sample_descent_datum(cc, rng)
    x = glue_descent_datum(cc, datum, 2)
    calls = []
    apply = mcgauge.omega_apply
    monkeypatch.setattr(mcgauge, "omega_apply",
                        lambda u, omega: calls.append(u) or apply(u, omega))
    assert ctx.is_tot_element(x)
    maps = ctx.generators()
    assert maps == [((1,), 1), ((0,), 1)]
    monomials = sum(len({mono for p, _, mono in x if p == q})
                    for _, q in maps)
    indices = sum(len({gi for p, gi, _ in x if p == q}) for _, q in maps)
    assert (len(calls), monomials, indices) == (4, 4, 14)
