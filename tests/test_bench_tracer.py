"""The benchmark's span tracer must keep fitting the package.

perfbench/spans.py wraps named entry points of dgdescent; a refactor
that renames a traced function or moves a traced method into a base
class breaks traced benchmark runs.  These tests catch that in tier 1.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("dgdescent_bench_spans",
                                                  SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target_owner(modname, path):
    """(namespace owner, attribute) of one TARGETS entry."""
    mod = importlib.import_module(f"dgdescent.{modname}")
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(mod, cls_name), attr
    return mod, path


def _bindings(spans):
    """Every package module binding and every traced class entry."""
    out = {(name, attr): val
           for name, mod in sys.modules.items()
           if mod is not None and name.split(".")[0] == "dgdescent"
           for attr, val in vars(mod).items()}
    for modname, path, *_ in spans.TARGETS:
        owner, attr = _target_owner(modname, path)
        if isinstance(owner, type):
            out[(owner, attr)] = vars(owner).get(attr)
    return out


def test_every_target_resolves(spans):
    for modname, path, *_ in spans.TARGETS:
        owner, attr = _target_owner(modname, path)
        # install patches the owner's own namespace entry, so a method
        # inherited from a base class does not count
        assert attr in vars(owner), f"{modname}.{path} is not defined " \
                                    f"on {owner.__name__} itself"
        assert callable(vars(owner)[attr]), f"{modname}.{path}"


def test_install_uninstall_round_trip(spans):
    from dgdescent import cech, instances, tot
    tracer = spans.Tracer()
    before = _bindings(spans)
    inst = spans.install(tracer)
    try:
        assert vars(tot.TotContext)["compatibility_defect"] is not \
            before[(tot.TotContext, "compatibility_defect")]
        cc = cech.cech_cosimplicial(cech.tensored_cover(
            instances.segment_cover(), instances.dual_numbers()), N=2)
        T = tot.tot_lie(cc, 1)
        # tot_basis builds its exchange rows from memoized tables, so the
        # defect and pullback entry points are reached through the
        # independent membership check
        x = next(v for vecs in T.basis_by_degree.values() for v in vecs
                 if any(p > 0 for p, _, _ in v))
        assert tot.TotContext(cc).is_tot_element(x)
    finally:
        inst.uninstall()
    assert tracer.counts["tot.tot_lie.calls"] == 1
    assert tracer.counts["tot.basis.calls"] > 0
    assert tracer.counts["tot.defect.calls"] > 0
    assert tracer.counts["forms.pullback.calls"] > 0
    after = _bindings(spans)
    assert [k for k in before if after.get(k) is not before[k]] == []


def test_a_deferred_certificate_counts_as_no_solution(spans):
    from dgdescent import linalg
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        res = linalg.sparse_solve_affine([{}], [1], 0)
    finally:
        inst.uninstall()
    assert isinstance(res, linalg.NoSolution)
    assert res.certificate == {0: 1}
    assert tracer.counts.get("linalg.nosolution", 0) == 1


def test_a_traced_glue_counts_its_constrained_solve(spans):
    import random

    from dgdescent import cech, instances
    cc = cech.cech_cosimplicial(cech.tensored_cover(
        instances.segment_cover(instances.ef_algebra()),
        instances.t_truncated(3)), N=2)
    rng = random.Random(0)
    datum = None
    while datum is None:
        datum = cech._sample_descent_datum(cc, rng)
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        cech.glue_descent_datum(cc, datum, 2)
    finally:
        inst.uninstall()
    assert tracer.counts["cech.glue.calls"] == 1
    assert tracer.counts.get("mcgauge.mc_solve.calls", 0) >= 1
