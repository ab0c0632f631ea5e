"""Gluing constraints as exchange rows, the constrained MC solver, and
the degree-0 gauge basis of the nonabelian descent check."""

import ast
import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dgdescent import cech, linalg, mcgauge, tot
from dgdescent.cech import (GluingFailed, _glue_level, _sample_descent_datum,
                            cech_cosimplicial, glue_descent_datum,
                            tensored_cover, verify_descent)
from dgdescent.dgla import el_eq, tensor_lie
from dgdescent.forms import face_map
from dgdescent.instances import (circle_cover, complex_cover, dual_numbers,
                                 ef_algebra, segment_cover, t_truncated,
                                 triple_cover)
from dgdescent.linalg import sparse_columns, sparse_factor
from dgdescent.mcgauge import (FiniteLieContext, ObstructionUnsolvable,
                               SelfCheckFailed, constrained_mc_solve,
                               mc_residual, solve_1simplex)
from dgdescent.tot import TotContext, tot_lie

from builders import coboundary_datum

ONE = Fraction(1)
COVERS = {"segment": segment_cover, "circle": circle_cover,
          "triple": triple_cover}
BASES = {"eps": dual_numbers, "t3": lambda: t_truncated(3)}


@functools.lru_cache(maxsize=None)
def nonabelian_cech(cover, base):
    return cech_cosimplicial(
        tensored_cover(COVERS[cover](ef_algebra()), BASES[base]()), N=2)


def test_constructed_coboundary_data_glue_on_the_triple_cover():
    """Five coboundary data on triple-ef/t^3 glue through the
    nondegenerate level-2 tuple (0, 1, 2), and object_map returns each
    datum itself."""
    cc = nonabelian_cech("triple", "t3")
    comparison = cech.ComparisonFunctor(cc)
    rng = random.Random(1)
    for _ in range(5):
        datum = coboundary_datum(cc, rng)
        x = glue_descent_datum(cc, datum, 2)
        assert any(p == 2 for p, _, _ in x)
        image = comparison.object_map(x)
        assert image.a == datum.a and image.theta == datum.theta


@pytest.mark.parametrize("cover", ["segment", "circle", "triple"])
def test_gluing_computes_nothing_in_a_zero_level_2(monkeypatch, cover):
    """Gluing a datum on segment-ef/t^3 or circle-ef/t^3, whose level 2
    stores no tuple, computes no defect into level 2, no BCH product in
    it and no MC solve above level 1; on triple-ef/t^3, which stores
    (0, 1, 2), it computes each of them."""
    cc = nonabelian_cech(cover, "t3")
    rng = random.Random(5)
    datum = coboundary_datum(cc, rng) if cover == "triple" else None
    while datum is None:
        datum = _sample_descent_datum(cc, rng)
    ctx2 = cc.descent_groupoid().ctx2
    defects, products, solves = [], [], []
    defect, product = TotContext.compatibility_defect, tot.bch
    solve = cech.constrained_mc_solve
    monkeypatch.setattr(TotContext, "compatibility_defect",
                        lambda self, u, q, groups: defects.append(q) or
                        defect(self, u, q, groups))
    monkeypatch.setattr(tot, "bch", lambda ctx, *ys: products.append(
        ctx is ctx2) or product(ctx, *ys))
    monkeypatch.setattr(cech, "constrained_mc_solve",
                        lambda *args, **kw: solves.append(kw["label"]) or
                        solve(*args, **kw))
    glue_descent_datum(cc, datum, 2)
    assert 1 in defects and set(defects) <= {1, 2}
    expected = cover == "triple"
    assert (2 in defects, any(products), solves) == \
        (expected, expected, ["level 2"] if expected else [])


# the cones over the segment and circle nerves: an apex open that meets
# every other fills each edge with a triangle; the cone over the segment
# is the triple cover
CONES = {"segment": [(0, 1, 2)], "circle": [(0, 1, 3), (0, 2, 3), (1, 2, 3)]}


def cone_cech(cover):
    return cech_cosimplicial(tensored_cover(
        complex_cover(CONES[cover], ef_algebra(), name=f"cone({cover})"),
        t_truncated(3)))


@pytest.mark.parametrize("face", [0, 1, 2])
@pytest.mark.parametrize("cover", ["segment", "circle"])
def test_a_sign_flipped_face_block_never_glues(monkeypatch, cover, face):
    """Face `face`'s exchange rows negated inside _glue_level: the
    level-2 member then misses that face condition, so the system has
    no solution or the assembled family fails its self-check.  Level 2
    has nondegenerate tuples only on a cover with triple overlaps, so
    this runs on the cone over the segment or circle cover (ef/t^3),
    with a coboundary datum.  The algebra that glued once owns its
    factored system, so the patched run glues on a fresh one of the
    same cover."""
    cc = cone_cech(cover)
    rng = random.Random(1)
    datum = coboundary_datum(cc, rng)
    glue_descent_datum(cc, datum, 2)    # the system as built glues
    flipped_u = face_map(face, 2)
    exchange_rows = TotContext.exchange_rows

    def flipped(self, keys, generators):
        return {(u, dk): ({col: -c for col, c in row.items()}
                          if u == flipped_u else row)
                for (u, dk), row in exchange_rows(self, keys,
                                                  generators).items()}

    monkeypatch.setattr(TotContext, "exchange_rows", flipped)
    fresh = cone_cech(cover)
    with pytest.raises((GluingFailed, SelfCheckFailed)):
        glue_descent_datum(fresh, datum, 2)


def test_verify_descent_draws_gauges_from_the_degree0_basis(monkeypatch):
    cc = nonabelian_cech("segment", "t3")
    seen = []
    draw = cech._random_tot_gauge

    def spy(basis0, rng):
        seen.append(basis0)
        return draw(basis0, rng)

    def no_tot_lie(*args, **kwargs):
        raise AssertionError("the nonabelian check built a Tot complex")

    monkeypatch.setattr(cech, "_random_tot_gauge", spy)
    monkeypatch.setattr(cech, "tot_lie", no_tot_lie)
    report = verify_descent(cc, samples=2, seed=3, D=2)
    monkeypatch.undo()
    assert report["falsified"] == 0 and len(seen) == 2
    reference = tot_lie(cc, 2).basis_by_degree[0]
    assert reference
    for basis0 in seen:
        assert basis0 == reference


def test_each_gluing_system_is_built_once_per_algebra(monkeypatch):
    """Three samples glue on one TotContext and one DescentGroupoid of
    the algebra, and its level-2 exchange rows are written once.
    segment-ef/t^3 has no nondegenerate level-2 tuple, so the level-2
    rows are counted on triple-ef/t^3, where three coboundary data
    glue."""
    cc = nonabelian_cech.__wrapped__("segment", "t3")
    contexts, groupoids, level2_rows = [], [], []
    init, groupoid_init = TotContext.__init__, tot.DescentGroupoid.__init__
    exchange_rows = TotContext.exchange_rows

    def count_init(self, *args):
        contexts.append(self)
        init(self, *args)

    def count_groupoid(self, *args):
        groupoids.append(self)
        groupoid_init(self, *args)

    def spy(self, keys, generators):
        if {p for p, _, _ in keys} == {2}:
            level2_rows.append(keys)
        return exchange_rows(self, keys, generators)

    monkeypatch.setattr(TotContext, "__init__", count_init)
    monkeypatch.setattr(tot.DescentGroupoid, "__init__", count_groupoid)
    monkeypatch.setattr(TotContext, "exchange_rows", spy)
    report = verify_descent(cc, samples=3, seed=0, D=2)
    assert report["falsified"] == 0
    assert report["checks"][-1]["glued"] == 3
    assert len(contexts) == 1 and contexts[0] is cc.tot_context()
    assert len(groupoids) == 1 and groupoids[0] is cc.descent_groupoid()
    assert level2_rows == []
    triple = nonabelian_cech.__wrapped__("triple", "t3")
    rng = random.Random(1)
    for _ in range(3):
        glue_descent_datum(triple, coboundary_datum(triple, rng), 2)
    assert len(contexts) == 2 and contexts[1] is triple.tot_context()
    assert len(groupoids) == 2 and groupoids[1] is triple.descent_groupoid()
    assert len(level2_rows) == 1


def test_the_gauge_basis_is_solved_once_per_algebra(monkeypatch):
    """Two checks on one algebra draw their Tot gauges from one degree-0
    basis: its exchange rows are written once."""
    cc = nonabelian_cech.__wrapped__("segment", "t3")
    keys0 = cc.tot_context().keys_up_to(2, 0)
    written = []
    exchange_rows = TotContext.exchange_rows

    def spy(self, keys, generators):
        written.append(keys)
        return exchange_rows(self, keys, generators)

    monkeypatch.setattr(TotContext, "exchange_rows", spy)
    for seed in (0, 1):
        report = verify_descent(cc, samples=2, seed=seed, D=2)
        assert report["falsified"] == 0
    assert written.count(keys0) == 1


@pytest.mark.parametrize("cover", ["segment", "circle"])
def test_the_sampler_factors_each_open_system_once(cover, monkeypatch):
    """Across repeated descent checks on one algebra, the sampler factors
    each open's restriction system at most once per (open, overlaps);
    every later draw writes only its right-hand side."""
    cc = nonabelian_cech.__wrapped__(cover, "t3")
    factored = []
    draws = []
    rows, sample = mcgauge.constraint_rows, cech._sample_descent_datum

    def rows_spy(keys, maps):
        factored.append((tuple(keys), len(maps)))
        return rows(keys, maps)

    def sample_spy(cc, rng):
        draws.append(1)
        return sample(cc, rng)

    monkeypatch.setattr(cech, "constraint_rows", rows_spy)
    monkeypatch.setattr(cech, "_sample_descent_datum", sample_spy)
    for seed in (808, 4242, 808):
        report = verify_descent(cc, samples=2, seed=seed, D=2)
        assert report["falsified"] == 0
    opens = len(cc.tuples[0])
    assert len(factored) == len(set(factored)) == len(cc.open_systems) \
        == opens
    assert sorted(j for j, _ in cc.open_systems) == list(range(opens))
    assert len(draws) >= 6


def test_a_target_key_that_no_image_reaches_rejects_the_draw():
    """constraint_rhs refuses a target that is nonzero off the images,
    where no solution can land; a target inside the images is met by
    an exact MC solution."""
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1)
    half = keys[:len(keys) // 2]

    def project(x):
        return {k: v for k, v in x.items() if k in half}

    factor, row_keys = mcgauge.constraint_rows(keys, [project])
    assert row_keys == [sorted(half)]
    outside = {keys[-1]: ONE}
    assert mcgauge.constraint_rhs(row_keys, [outside]) is None
    assert mcgauge.constraint_rhs(row_keys, [{keys[-1]: 0}]) == \
        [0] * len(half)
    for seed in range(4):
        rng = random.Random(seed)
        target = {k: Fraction(rng.randint(-2, 2)) for k in half[:3]}
        rhs = mcgauge.constraint_rhs(row_keys, [target])
        x = constrained_mc_solve(ctx, keys, factor, rhs,
                                 rng=random.Random(seed))
        assert not mc_residual(ctx, x)
        assert el_eq(project(x), target)


@pytest.mark.parametrize("cover,algebra", [("segment", ef_algebra),
                                           ("circle", None)])
def test_no_caller_changes_a_memoized_tot_basis(cover, algebra):
    """After a descent check, Tot complexes and lifts on one algebra,
    every basis it memoized equals, term for term and in order, with the
    same scalar types, the basis that a fresh TotContext solves."""
    cc = cech_cosimplicial(tensored_cover(
        COVERS[cover](algebra() if algebra else None), BASES["t3"]()), N=2)
    requests = []
    tot_basis = TotContext.tot_basis

    def spy(self, degree, D):
        requests.append((degree, D))
        return tot_basis(self, degree, D)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TotContext, "tot_basis", spy)
        verify_descent(cc, samples=3, seed=808, D=2)
        for D in (1, 2):
            tot_lie(cc, D)
        ctx = cc.tot_context()
        rng = random.Random(808)
        for _ in range(3):
            datum = _sample_descent_datum(cc, rng)
            if datum is None:
                continue
            x = glue_descent_datum(cc, datum, 2)
            rho = cech._random_tot_gauge(ctx.tot_basis(0, 2), rng)
            xp = mcgauge.gauge_act(ctx, rho, x)
            assert cech.lift_tot_gauge(ctx, x, xp, ctx.level0(rho),
                                       2) is not None
    assert (0, 2) in requests

    def terms(basis):
        return [[(k, type(c), c) for k, c in v.items()] for v in basis]

    for degree, D in sorted(set(requests)):
        assert terms(ctx.tot_basis(degree, D)) == \
            terms(TotContext(cc).tot_basis(degree, D))


def test_cech_builds_tot_contexts_only_through_the_algebra():
    """cech reaches the TotContext and the descent groupoid of an
    algebra through its accessors, which build each once; a
    TotContext(...) or tot_groupoid(...) call in cech would bring back
    a rebuild per sample or per draw."""
    path = Path(cech.__file__)
    tree = ast.parse(path.read_text(), str(path))
    called = [node.func.id if isinstance(node.func, ast.Name)
              else node.func.attr
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))]
    offenders = [name for name in called
                 if name in ("TotContext", "tot_groupoid", "DescentGroupoid")]
    assert not offenders, f"cech builds {offenders} itself"
    assert "tot_context" in called and "descent_groupoid" in called


def test_a_rejected_draw_computes_no_certificate(monkeypatch):
    """A sampler draw rejected for inconsistent constraints reads no
    certificate, so it never replays the factor's operations for one."""
    cc = nonabelian_cech("circle", "t3")
    certificates, inconsistent = [], []
    certificate, solve = linalg.SparseFactor._certificate, \
        linalg.SparseFactor.solve

    def spy_certificate(self, stop):
        certificates.append(stop)
        return certificate(self, stop)

    def spy_solve(self, rhs):
        res = solve(self, rhs)
        inconsistent.append(isinstance(res, linalg.NoSolution))
        return res

    monkeypatch.setattr(linalg.SparseFactor, "_certificate", spy_certificate)
    monkeypatch.setattr(linalg.SparseFactor, "solve", spy_solve)
    rng = random.Random(808)
    rejected = 0
    for _ in range(40):
        before = inconsistent.count(True)
        if _sample_descent_datum(cc, rng) is None and \
                inconsistent.count(True) > before:
            rejected += 1
    assert rejected > 0
    assert not certificates


def test_unreachable_gluing_target_fails_at_stage_0():
    # a level-1 member of degree 5 in t is no Tot element at degree
    # bound 2, so no level 2 continues it
    cc = nonabelian_cech("segment", "t3")
    ctx = TotContext(cc)
    rng = random.Random(1)
    datum = None
    while datum is None:
        datum = _sample_descent_datum(cc, rng)
    path = solve_1simplex(ctx, cc.coface(0, 1).apply(datum.a), datum.theta)
    gi = cc.level(1).space.degree_indices(1)[0]
    path[(1, gi, ((5,), 0))] = ONE
    omegas = [ctx.embed_level(0, datum.a), path]
    with pytest.raises(GluingFailed) as info:
        _glue_level(ctx, omegas, 2, 2)
    assert info.value.level == 2
    assert "unsolvable within degree bound 2" in info.value.reason
    assert isinstance(info.value.__cause__, ObstructionUnsolvable)
    assert info.value.__cause__.stage == 0


def _ef_t3():
    return tensor_lie(t_truncated(3).maximal_ideal(), ef_algebra())


def test_a_row_that_no_key_reaches_stays_in_the_system():
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1)
    system = sparse_factor([{}], len(keys))
    with pytest.raises(ObstructionUnsolvable) as info:
        constrained_mc_solve(ctx, keys, system, [ONE])
    assert info.value.stage == 0
    # the same row with rhs 0 constrains nothing
    x = constrained_mc_solve(ctx, keys, system, [Fraction(0)])
    assert not mc_residual(ctx, x)


def test_constraint_rows_write_the_rows_of_each_map():
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1)
    units = [{k: 1} for k in keys]

    def first_two(x):
        return {k: 2 * v for k, v in x.items() if k in keys[:2]}

    system, row_keys = mcgauge.constraint_rows(keys, [dict, first_two])
    assert system.ncols == len(keys)
    assert row_keys == [sorted(keys), sorted(keys[:2])]
    assert [dict(row) for row in system.rows] == \
        sparse_columns(units, row_keys[0]) + \
        sparse_columns([first_two(u) for u in units], row_keys[1])
    targets = [{keys[0]: ONE}, {keys[0]: 2 * ONE}]
    rhs = mcgauge.constraint_rhs(row_keys, targets)
    assert rhs == [t.get(k, 0) for t, ks in zip(targets, row_keys)
                   for k in ks]
    x = constrained_mc_solve(ctx, keys, system, rhs, rng=random.Random(4))
    assert not mc_residual(ctx, x)
    assert x == {keys[0]: 1}


def test_constraint_drift_raises_a_named_error(monkeypatch):
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1)
    # a correction that moves the constrained coordinate: the re-check
    # must raise, and not through an assert that `python -O` removes
    system, row_keys = mcgauge.constraint_rows(keys, [dict])
    rhs = mcgauge.constraint_rhs(row_keys, [{keys[0]: ONE}])
    # and so must one that leaves the span of the keys
    for drift in (lambda x: {}, lambda x: dict(x, outside=ONE)):
        monkeypatch.setattr(mcgauge, "_mc_correct",
                            lambda ctx, x, free, rng, label, spans,
                            drift=drift: drift(x))
        with pytest.raises(SelfCheckFailed, match="constraints drifted"):
            constrained_mc_solve(ctx, keys, system, rhs, label="drift")


def test_a_factor_over_other_columns_is_refused():
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1)
    with pytest.raises(ValueError, match="columns for"):
        constrained_mc_solve(ctx, keys, sparse_factor([], len(keys) + 1),
                             [])


def test_repeated_keys_are_refused():
    # a solution's coordinates are read off by key position, so a
    # repeated key is refused before anything is solved
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1) + ctx.degree_keys(1)[:1]
    system, row_keys = mcgauge.constraint_rows(keys, [dict])
    rhs = mcgauge.constraint_rhs(row_keys, [{keys[0]: ONE}])
    with pytest.raises(ValueError, match="keys must be distinct"):
        constrained_mc_solve(ctx, keys, system, rhs)
