import ast
from fractions import Fraction
from pathlib import Path

import pytest

from dgdescent.cochain import Cochain, GradedSpace
from dgdescent.dgla import (ArtinAlgebra, DgCommAlgebra, DgLieAlgebra,
                            DgLieMap, MaximalIdeal, NilpotentDgLie,
                            NotNilpotent, direct_product, el_eq,
                            identity_map, is_acyclic_fibration,
                            lower_central_series, tensor_lie)
from dgdescent.io import table_from_blocks

F = Fraction

SRC = Path(__file__).resolve().parents[1] / "src" / "dgdescent"
DATA = SRC / "data"


def ef_algebra():
    """e in degree 0, f in degree 1, [e,f] = f, d = 0."""
    space = GradedSpace({0: ["e"], 1: ["f"]})
    cochain = Cochain(space, {})
    e = space.index(0, "e")
    f = space.index(1, "f")
    return DgLieAlgebra(cochain, {(e, f): {f: F(1)}}, name="ef")


def dual_numbers():
    # k[eps]/eps^2
    return ArtinAlgebra(["eps"], {})


def t_cubed():
    # k[t]/t^3, ideal basis t, t2 with t*t = t2
    return ArtinAlgebra(["t", "t2"], {(0, 0): {1: F(1)}}, name="k[t]/t^3")


def abelian(degree_dims, d=None):
    degrees = {n: [f"a{n}_{i}" for i in range(k)]
               for n, k in degree_dims.items()}
    space = GradedSpace(degrees)
    return DgLieAlgebra(Cochain(space, table_from_blocks(space, space,
                                                         d or {}, 1)), {})


def test_ef_algebra_validates():
    g = ef_algebra()
    assert not g.is_abelian()
    e = g.space.index(0, "e")
    f = g.space.index(1, "f")
    assert g.bracket_basis(e, f) == {f: F(1)}
    # antisymmetry fills in [f,e] = -(-1)^{1*0}[e,f] = -f
    assert g.bracket_basis(f, e) == {f: F(-1)}


def test_bad_jacobi_rejected():
    # [x,y] = x and [y,z] = y with [x,z] = 0 fails Jacobi on (x,y,z)
    space = GradedSpace({0: ["x", "y", "z"]})
    cochain = Cochain(space, {})
    with pytest.raises(ValueError, match="Jacobi"):
        DgLieAlgebra(cochain, {(0, 1): {0: F(1)}, (1, 2): {1: F(1)}})


def test_leibniz_rejected():
    # d f = g with [e,f] = f but [e,g] = 0 violates Leibniz
    space = GradedSpace({0: ["e"], 1: ["f"], 2: ["g"]})
    d = {1: [[F(1)]]}
    cochain = Cochain(space, table_from_blocks(space, space, d, 1))
    with pytest.raises(ValueError, match="Leibniz"):
        DgLieAlgebra(cochain, {(0, 1): {1: F(1)}})


def test_tensor_with_square_zero_ideal_is_abelian():
    g = ef_algebra()
    nil = tensor_lie(dual_numbers(), g)
    assert isinstance(nil, NilpotentDgLie)
    assert nil.algebra.is_abelian()
    assert nil.nilpotency_class == 1


def test_tensor_with_t_cubed():
    g = ef_algebra()
    nil = tensor_lie(t_cubed(), g)
    a = nil.algebra
    te = a.space.index(0, ("t", "e"))
    tf = a.space.index(1, ("t", "f"))
    t2f = a.space.index(1, ("t2", "f"))
    # [t@e, t@f] = t^2 @ f
    assert a.bracket_basis(te, tf) == {t2f: F(1)}
    assert nil.nilpotency_class == 2
    # F^2 = span(t^2 @ f, t^2 @ e)-brackets: only t2@f shows up
    vecs = nil.stage_elements(2, 1)
    assert len(vecs) == 1 and el_eq(vecs[0], {t2f: F(1)})
    assert all(not nil.stage_elements(3, n) for n in (0, 1))


def test_tensor_with_ground_field_is_isomorphic():
    g = ef_algebra()
    ground_field = DgCommAlgebra(Cochain(GradedSpace({0: ["1"]}), {}),
                                 {(0, 0): {0: F(1)}}, 0)
    gg = tensor_lie(ground_field, g)
    assert gg.total_dim() == g.total_dim()
    e = gg.space.index(0, ("1", "e"))
    f = gg.space.index(1, ("1", "f"))
    assert gg.bracket_basis(e, f) == {f: F(1)}


def test_lcs_abelian_class_one():
    nil = lower_central_series(abelian({0: 2, 1: 2}))
    assert isinstance(nil, NilpotentDgLie)
    assert nil.nilpotency_class == 1


def test_lcs_not_nilpotent():
    g = ef_algebra()
    res = lower_central_series(g)
    assert isinstance(res, NotNilpotent)
    assert not res
    # the stabilized subspace is span(f)
    f = g.space.index(1, "f")
    assert 1 in res.subspace and len(res.subspace[1]) == 1


def test_lcs_is_stored_on_the_algebra():
    nil = tensor_lie(t_cubed(), ef_algebra())
    a = nil.algebra
    # tensor_lie computed the series once; later calls return that object
    assert lower_central_series(a) is nil
    assert lower_central_series(a) is lower_central_series(a)


def test_lcs_memo_matches_a_freshly_built_algebra():
    a = tensor_lie(t_cubed(), ef_algebra()).algebra
    stored = lower_central_series(a)
    b = DgLieAlgebra(a.cochain, a.table)
    fresh = lower_central_series(b)
    assert fresh is not stored
    assert fresh.nilpotency_class == stored.nilpotency_class
    assert fresh.lcs == stored.lcs
    assert lower_central_series(a) is stored


def _bracketed_series(g):
    """The lower central series of g by the bracket loop: g's tables in
    a plain algebra, which has no factors to put it together from."""
    return lower_central_series(DgLieAlgebra(g.cochain, g.table,
                                             validate=False))


def test_lcs_of_a_product_is_put_together_from_the_factors():
    nils = [tensor_lie(t_cubed(), ef_algebra()),
            lower_central_series(abelian({0: 1, 1: 2})),
            tensor_lie(dual_numbers(), ef_algebra())]
    g = direct_product([nil.algebra for nil in nils], tags="abc")
    nil = lower_central_series(g)
    ref = _bracketed_series(g)
    assert nil.nilpotency_class == ref.nilpotency_class == 2
    # stage by stage, degree by degree, in the same order
    assert [(i, n, [list(el.items()) for el in els])
            for i, stage in sorted(nil.lcs.items())
            for n, els in sorted(stage.items())] == \
        [(i, n, [list(el.items()) for el in els])
         for i, stage in sorted(ref.lcs.items())
         for n, els in sorted(stage.items())]
    assert lower_central_series(g) is nil


def test_lcs_of_a_product_with_a_non_nilpotent_factor_brackets_it_out():
    g = direct_product([tensor_lie(t_cubed(), ef_algebra()).algebra,
                        ef_algebra()])
    res = lower_central_series(g)
    ref = _bracketed_series(g)
    assert isinstance(res, NotNilpotent) and isinstance(ref, NotNilpotent)
    assert res.stage == ref.stage and res.subspace == ref.subspace


def test_lcs_not_nilpotent_is_stored_too():
    g = ef_algebra()
    first = lower_central_series(g)
    assert isinstance(first, NotNilpotent)
    assert lower_central_series(g) is first


def test_lcs_respects_ideal_powers():
    # m^s = 0 forces class < s for any tensor
    for artin, s in [(dual_numbers(), 2), (t_cubed(), 3)]:
        nil = tensor_lie(artin, ef_algebra())
        assert nil.nilpotency_class < s
        # and d(F^i) stays in F^i: checked by _sub_cochain construction
        from dgdescent.dgla import _sub_cochain
        for i in range(1, nil.nilpotency_class + 1):
            _sub_cochain(nil, i)


def test_lcs_of_tensor_included_in_tensor_of_lcs():
    # span(F^i(m@g)) inside m @ F^i(g), by basis inclusion
    g = ef_algebra()
    nil = tensor_lie(t_cubed(), g)
    a = nil.algebra
    # F^2(g) stabilizes at span(f); m @ span(f) has basis t@f, t2@f
    tf = a.space.index(1, ("t", "f"))
    t2f = a.space.index(1, ("t2", "f"))
    allowed = {tf, t2f}
    for deg in [0, 1]:
        for el in nil.stage_elements(2, deg):
            assert set(el) <= allowed


def test_artin_table_validation():
    with pytest.raises(ValueError, match="nilpotent"):
        # t*t = t is idempotent, not nilpotent
        MaximalIdeal(["t"], {(0, 0): {0: F(1)}})
    # t*t = t2, every other product zero
    a = ArtinAlgebra(["t", "t2"], {(0, 0): {1: F(1)}, (0, 1): {}, (1, 1): {}})
    assert a.maximal_ideal().nilpotency == 3


def test_acyclic_fibration_identity():
    nil = tensor_lie(t_cubed(), ef_algebra())
    f = identity_map(nil.algebra)
    assert is_acyclic_fibration(f, nil, nil)


def test_acyclic_fibration_onto_zero():
    # abelian with d an isomorphism: acyclic in every stage
    g = abelian({0: 1, 1: 1}, d={0: [[F(1)]]})
    zero = abelian({})
    f = DgLieMap(g, zero, {})
    assert is_acyclic_fibration(f)


def test_non_surjective_inclusion_is_not_af():
    g = abelian({0: 1})
    zero = abelian({})
    f = DgLieMap(zero, g, {})
    assert not is_acyclic_fibration(f)


def test_projection_killing_cohomology_is_not_af():
    # g = <v deg1, w deg2; dv = w>, h = <vbar deg 1; d=0>, v -> vbar
    g = abelian({1: 1, 2: 1}, d={1: [[F(1)]]})
    h = abelian({1: 1})
    f = DgLieMap(g, h, {0: {0: F(1)}})
    # H^1(g) = 0 but H^1(h) = Q
    assert not is_acyclic_fibration(f)


def test_spec_lifting_fibration_is_af():
    # g = <v, v' deg 1, w deg 2; dv' = w>, h = <vbar>, f: v -> vbar
    space = GradedSpace({1: ["v", "vp"], 2: ["w"]})
    d = {1: [[F(0), F(1)]]}
    g = DgLieAlgebra(Cochain(space, table_from_blocks(space, space, d, 1)),
                     {})
    h = abelian({1: 1})
    f = DgLieMap(g, h, {0: {0: F(1)}})
    assert is_acyclic_fibration(f)


def test_map_tables_keep_degrees_and_commute_with_d():
    g = abelian({0: 1, 1: 1}, d={0: [[F(1)]]})   # du = v
    h = abelian({0: 1, 1: 1})                    # d = 0
    for table in ({0: {1: F(1)}}, {5: {0: F(1)}}, {0: {-1: F(1)}}):
        with pytest.raises(ValueError, match="keep the degree"):
            DgLieMap(h, h, table)
    # u -> u, v -> v: d(f(u)) = 0 but f(du) = v
    with pytest.raises(ValueError, match="commute with d in degree 0"):
        DgLieMap(g, h, {0: {0: F(1)}, 1: {1: F(1)}})
    f = DgLieMap(g, g, {0: {0: F(2)}, 1: {1: F(2)}, 7: {}})
    assert f.table == {0: {0: F(2)}, 1: {1: F(2)}}
    assert f.is_surjective()
    assert not DgLieMap(g, g, {}).is_surjective()


def test_direct_product():
    g = ef_algebra()
    p = direct_product([g, g], tags=["L", "R"])
    assert p.total_dim() == 4
    eL = p.space.index(0, ("L", "e"))
    fL = p.space.index(1, ("L", "f"))
    fR = p.space.index(1, ("R", "f"))
    assert p.bracket_basis(eL, fL) == {fL: F(1)}
    assert p.bracket_basis(eL, fR) == {}
    p.validate()


def test_ideal_with_conflicting_orders_rejected():
    # t*s and s*t given in both orders with different values
    with pytest.raises(ValueError, match="commutativity"):
        MaximalIdeal(["t", "s", "ts"],
                     {(0, 1): {2: F(1)}, (1, 0): {2: F(2)}})


def test_comm_algebra_breaking_graded_commutativity_rejected():
    # x, y odd: y*x must be -x*y, here it is +x*y
    space = GradedSpace({0: ["1"], 1: ["x", "y"], 2: ["xy"]})
    products = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (0, 2): {2: F(1)},
                (0, 3): {3: F(1)}, (1, 2): {3: F(1)}, (2, 1): {3: F(1)}}
    with pytest.raises(ValueError, match="commutativity"):
        DgCommAlgebra(Cochain(space, {}), products, 0)
    # with the sign right, the same table is accepted
    products[(2, 1)] = {3: F(-1)}
    DgCommAlgebra(Cochain(space, {}), products, 0)


@pytest.mark.parametrize("flipped", [F(1), F(-2)])
def test_lie_brackets_breaking_antisymmetry_rejected(flipped):
    # degree 0: [y,x] must be -[x,y]; +[x,y] and -2[x,y] both conflict
    space = GradedSpace({0: ["x", "y", "z"]})
    with pytest.raises(ValueError, match="conflicting|antisymmetry"):
        DgLieAlgebra(Cochain(space, {}),
                     {(0, 1): {2: F(1)}, (1, 0): {2: flipped}})


def test_a_nonzero_square_that_must_vanish_is_refused_unvalidated():
    # the diagonal is its own flip: an even [x,x] and an odd x.x equal
    # their own negatives, so a nonzero one is refused at construction
    space = GradedSpace({0: ["x", "y"]})
    with pytest.raises(ValueError, match="antisymmetry"):
        DgLieAlgebra(Cochain(space, {}), {(0, 0): {1: F(1)}},
                     validate=False)
    space = GradedSpace({0: ["1"], 1: ["x"], 2: ["xx"]})
    products = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (0, 2): {2: F(1)},
                (1, 1): {2: F(1)}}
    with pytest.raises(ValueError, match="commutativity"):
        DgCommAlgebra(Cochain(space, {}), products, 0, validate=False)
    # an odd [x,x] and an even x.x are not constrained by the flip
    space = GradedSpace({1: ["x"], 2: ["y"]})
    g = DgLieAlgebra(Cochain(space, {}), {(0, 0): {1: F(1)}},
                     validate=False)
    assert g.bracket_basis(0, 0) == {1: 1}
    assert MaximalIdeal(["t", "t2"], {(0, 0): {1: 1}}).table == \
        {(0, 0): {1: 1}}


def _assert_graded_symmetric(name, table, degrees, sign):
    """The all-pairs loop the constructors no longer run: [e_j, e_i] is
    sign(|i|, |j|) [e_i, e_j] on every basis pair, the diagonal included.
    degrees lists the degree of each basis index."""
    for i, di in enumerate(degrees):
        for j, dj in enumerate(degrees):
            flip = {k: sign(di, dj) * v
                    for k, v in table.get((i, j), {}).items()}
            assert el_eq(table.get((j, i), {}), flip), (name, i, j)


def _symmetric_structures():
    """(name, table, degrees, sign) of every bundled and generated
    structure table: the records and the instances, random nilpotent
    draws, tensors with an artinian and a dg base, a direct product,
    and the Cech levels of the bundled descent instances."""
    import random
    from dgdescent import instances
    from dgdescent.cech import cech_cosimplicial, tensored_cover
    from dgdescent.io import load_any
    lies, ideals = [], []
    for f in sorted(DATA.glob("*.json")):
        kind, obj = load_any(f)
        if kind == "dg_lie_algebra":
            lies.append((f.name, obj))
        elif kind == "artin_algebra":
            ideals.append((f.name, obj.maximal_ideal()))
        elif kind == "cover":
            lies += [(f"{f.name} {sorted(J)}", g)
                     for J, g in obj.sections.items()]
        elif kind == "descent_instance":
            _, cover, base = obj
            ideals.append((f.name, base.maximal_ideal()))
            cc = cech_cosimplicial(tensored_cover(cover, base))
            lies += [(f"{f.name} level {q}", g)
                     for q, g in enumerate(cc.levels)]
        elif kind == "cosimplicial_dg_lie":
            lies += [(f"{f.name} level {q}", g)
                     for q, g in enumerate(obj.levels)]
    for name in ("ef_algebra", "wz_algebra", "heisenberg", "probe_class2",
                 "abelian_line"):
        lies.append((name, getattr(instances, name)()))
    lies += [(f"cone {m}", instances.cone_algebra(m)) for m in (0, 1)]
    rng = random.Random(18)
    lies += [(f"random draw {n}", instances.random_nilpotent(rng).algebra)
             for n in range(15)]
    ideals += [(f"artin {n}", make().maximal_ideal())
               for n, make in enumerate(instances.ARTIN_LIBRARY)]
    dg_base = instances.contractible_artin_dg()
    for name in ("ef_algebra", "wz_algebra", "probe_class2"):
        g = getattr(instances, name)()
        lies.append((f"t3 (x) {name}",
                     tensor_lie(instances.t_truncated(3), g).algebra))
        lies.append((f"dg base (x) {name}", tensor_lie(dg_base, g)))
    lies.append(("product", direct_product(
        [instances.ef_algebra(), instances.wz_algebra(),
         instances.cone_algebra(1)])))
    out = [(name, g.table, [g.degree_of(i) for i in range(g.total_dim())],
             lambda a, b: -(-1) ** (a * b)) for name, g in lies]
    out += [(name, m.table, [0] * len(m.labels), lambda a, b: 1)
            for name, m in ideals]
    out.append(("dg base", dg_base.table,
                [dg_base.degree_of(i) for i in
                 range(dg_base.space.total_dim())],
                lambda a, b: (-1) ** (a * b)))
    return out


def test_every_structure_table_is_graded_symmetric():
    structures = _symmetric_structures()
    # most of them have a product: the loop is not vacuous
    assert sum(1 for _, table, _, _ in structures if table) > 30
    for name, table, degrees, sign in structures:
        _assert_graded_symmetric(name, table, degrees, sign)


def _dense_lcs_reference(g, stage, degree):
    """F^stage in one degree by dense elimination (rref) of degree
    vectors, independent of the sparse stage bases."""
    from dgdescent.linalg import rref
    spans = {n: [[F(r == c) for c in range(g.space.dim(n))]
                 for r in range(g.space.dim(n))]
             for n in g.space.nonzero_degrees()}
    for _ in range(stage - 1):
        vecs = {}
        for n, rows in spans.items():
            idx = g.space.degree_indices(n)
            for row in rows:
                x = {k: c for k, c in zip(idx, row) if c}
                for b in range(g.total_dim()):
                    w = g.bracket({b: F(1)}, x)
                    if w:
                        m = g.degree_of(next(iter(w)))
                        vecs.setdefault(m, []).append(
                            [w.get(k, F(0))
                             for k in g.space.degree_indices(m)])
        spans = {}
        for n, rows in vecs.items():
            R, pivots = rref(rows)
            if pivots:
                spans[n] = R[:len(pivots)]
    idx = g.space.degree_indices(degree)
    return [{k: c for k, c in zip(idx, row) if c}
            for row in spans.get(degree, [])]


@pytest.mark.parametrize("lie", ["ef_algebra", "wz_algebra", "heisenberg",
                                 "probe_class2"])
@pytest.mark.parametrize("base", ["t3", "eps"])
def test_stage_elements_match_a_dense_reference_and_are_fresh(lie, base):
    from dgdescent import instances
    A = instances.t_truncated(3) if base == "t3" else \
        instances.dual_numbers()
    nil = tensor_lie(A, getattr(instances, lie)())
    g = nil.algebra
    for i in range(1, nil.nilpotency_class + 2):
        for n in g.space.nonzero_degrees():
            els = nil.stage_elements(i, n)
            assert [list(e.items()) for e in els] == \
                [list(e.items()) for e in _dense_lcs_reference(g, i, n)]
    # what stage_elements hands out is the caller's to change
    before = {i: {n: [dict(e) for e in els] for n, els in stage.items()}
              for i, stage in nil.lcs.items()}
    for i in range(1, nil.nilpotency_class + 1):
        for n in g.space.nonzero_degrees():
            for e in nil.stage_elements(i, n):
                e.clear()
                e[0] = F(7)
    assert nil.lcs == before


TABLES = ("table", "d_table", "map_table")


def test_structure_tables_are_read_only_by_the_kernel():
    """Outside dgla no module reads a structure table: every element is
    pushed through the tables by the one kernel (`linear_apply`,
    `bilinear_apply` and their keyed cases).  The record writers that
    print the tables live in the tests."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "dgla.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr in TABLES]
    assert not offenders, "structure table read at " + ", ".join(offenders)


def _calls_of(name):
    """(module file, enclosing class.function, line) of every call of a
    function or method called name under src/."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)]
        scopes += [(fn.name, fn) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef)]
        owner = {id(n): scope for scope, fn in scopes for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if called == name:
                    calls.append((path.name, owner.get(id(node)),
                                  node.lineno))
    return calls


def test_the_tot_context_is_the_one_form_ambient_of_an_algebra():
    """No module builds a FormLieContext: the Tot context of a
    cosimplicial algebra, a FormLieContext over all its levels, is the
    one form ambient the package solves and checks in."""
    assert _calls_of("FormLieContext") == []


def test_structure_maps_are_composed_only_into_their_tables():
    """A composite structure map is walked only to fill its memoized
    table (`CosimplicialDgLie.structure_table`) and to validate the
    cosimplicial identities, so every other reader goes through the
    table."""
    assert {(f, scope) for f, scope, _ in _calls_of("_normal_path")} == {
        ("tot.py", "CosimplicialDgLie.structure_table"),
        ("tot.py", "CosimplicialDgLie._validate_identities")}


def test_cochain_maps_stay_behind_the_map_tables():
    """A linear map between algebras is its DgLieMap table: CochainMap is
    named only in cochain and in dgla.is_acyclic_fibration, which compares
    the stages of the lower central series, and no module reads a .cmap."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = tree if path.name == "cochain.py" else next(
            (fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and path.name == "dgla.py"
             and fn.name == "is_acyclic_fibration"), None)
        allowed = {id(n) for n in ast.walk(scope)} if scope else set()
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if (name == "CochainMap" and id(node) not in allowed) or \
                    (isinstance(node, ast.Attribute) and node.attr == "cmap"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "dense map named at " + ", ".join(offenders)
