"""Gluing constraints as exchange rows, the rows-level constrained
solver, and the degree-0 gauge basis of the nonabelian descent check."""

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
from dgdescent.dgla import tensor_lie
from dgdescent.forms import face_map
from dgdescent.instances import (circle_cover, dual_numbers, ef_algebra,
                                 segment_cover, t_truncated, triple_cover)
from dgdescent.linalg import sparse_columns, sparse_factor
from dgdescent.mcgauge import (FiniteLieContext, ObstructionUnsolvable,
                               SelfCheckFailed, constrained_mc_solve,
                               constrained_mc_solve_rows, mc_residual,
                               solve_1simplex)
from dgdescent.tot import TotContext, tot_lie

ONE = Fraction(1)
COVERS = {"segment": segment_cover, "circle": circle_cover,
          "triple": triple_cover}
BASES = {"eps": dual_numbers, "t3": lambda: t_truncated(3)}


@functools.lru_cache(maxsize=None)
def nonabelian_cech(cover, base):
    return cech_cosimplicial(
        tensored_cover(COVERS[cover](ef_algebra()), BASES[base]()), N=2)


@pytest.mark.parametrize("face", [0, 1, 2])
@pytest.mark.parametrize("cover", ["segment", "circle"])
def test_a_sign_flipped_face_block_never_glues(monkeypatch, cover, face):
    """Face `face`'s exchange rows negated inside _glue_level: the
    level-2 member then misses that face condition, so the system has
    no solution or the assembled family fails its self-check.  The
    algebra that glued once owns its factored system, so the patched
    run glues on a fresh one of the same cover."""
    cc = nonabelian_cech(cover, "t3")
    rng = random.Random(808)
    datum = None
    while datum is None or not datum.theta:
        datum = _sample_descent_datum(cc, rng)
    glue_descent_datum(cc, datum, 2)    # the system as built glues
    flipped_u = face_map(face, 2)
    exchange_rows = TotContext.exchange_rows

    def flipped(self, keys, generators):
        return {(u, dk): ({col: -c for col, c in row.items()}
                          if u == flipped_u else row)
                for (u, dk), row in exchange_rows(self, keys,
                                                  generators).items()}

    monkeypatch.setattr(TotContext, "exchange_rows", flipped)
    fresh = nonabelian_cech.__wrapped__(cover, "t3")
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
    the algebra, and its level-2 exchange rows are written once."""
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
    assert len(level2_rows) == 1


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
    # a level-1 member of degree 5 in t pushes face targets that no
    # level-2 candidate of degree <= 2 reaches: empty rows, rhs != 0
    cc = nonabelian_cech("segment", "t3")
    ctx = TotContext(cc)
    rng = random.Random(1)
    datum = None
    while datum is None:
        datum = _sample_descent_datum(cc, rng)
    path = solve_1simplex(ctx.forms[1], cc.coface(0, 1).apply(datum.a),
                          datum.theta)
    gi = next(gi for _, gi, _ in ctx.forms[1].keys_up_to(0, 1))
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


def test_rows_level_keeps_a_row_that_no_candidate_reaches():
    ctx = FiniteLieContext(_ef_t3())
    units = ctx.basis_of_degree(1)
    system = sparse_factor([{}], len(units))
    with pytest.raises(ObstructionUnsolvable) as info:
        constrained_mc_solve_rows(ctx, units, system, [ONE])
    assert info.value.stage == 0
    # the same row with rhs 0 constrains nothing
    x = constrained_mc_solve_rows(ctx, units, system, [Fraction(0)])
    assert not mc_residual(ctx, x)


def test_pair_form_is_an_adapter_over_the_rows_level(monkeypatch):
    ctx = FiniteLieContext(_ef_t3())
    units = ctx.basis_of_degree(1)
    target = {next(iter(units[0])): ONE}
    calls = []
    rows_level = mcgauge.constrained_mc_solve_rows

    def spy(*args, **kwargs):
        calls.append(args)
        return rows_level(*args, **kwargs)

    monkeypatch.setattr(mcgauge, "constrained_mc_solve_rows", spy)
    x = constrained_mc_solve(ctx, units, [(dict, target)],
                             rng=random.Random(4))
    assert len(calls) == 1
    _, cands, system, rhs = calls[0]
    assert cands is units
    keys = sorted({k for u in units for k in u})
    assert [dict(row) for row in system.rows] == sparse_columns(units, keys)
    assert rhs == [target.get(k, 0) for k in keys]
    assert not mc_residual(ctx, x)
    assert all(x.get(k, 0) == v for k, v in target.items())


def test_constraint_drift_raises_a_named_error(monkeypatch):
    ctx = FiniteLieContext(_ef_t3())
    units = ctx.basis_of_degree(1)
    key = next(iter(units[0]))
    # coordinates that miss the constrained one: the re-check must
    # raise, and not through an assert that `python -O` removes
    monkeypatch.setattr(mcgauge, "_coordinates",
                        lambda candidates, x: {})
    with pytest.raises(SelfCheckFailed, match="constraints drifted"):
        constrained_mc_solve(ctx, units, [(dict, {key: ONE})],
                             label="drift")


def test_a_factor_over_other_columns_is_refused():
    ctx = FiniteLieContext(_ef_t3())
    units = ctx.basis_of_degree(1)
    with pytest.raises(ValueError, match="columns for"):
        constrained_mc_solve_rows(ctx, units,
                                  sparse_factor([], len(units) + 1), [])


def test_candidates_that_are_not_unit_vectors_are_refused():
    # every caller passes distinct unit vectors, so the coordinates of
    # a solution are read off by lookup; scaled or repeated candidates
    # are refused before anything is solved
    ctx = FiniteLieContext(_ef_t3())
    keys = ctx.degree_keys(1)
    target = {keys[0]: ONE}
    for candidates in ([{k: Fraction(2)} for k in keys],
                       [{k: ONE} for k in keys + keys[:1]]):
        with pytest.raises(ValueError, match="distinct unit vectors"):
            constrained_mc_solve(ctx, candidates, [(dict, target)])
