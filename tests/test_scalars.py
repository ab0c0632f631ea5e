"""The scalar contract: exact values, int where integral.

Every scalar of the package is an int or a Fraction, never a float.
int / int is a float in Python, so a true division must take a Fraction
operand.  Structure tables are lowered to int where integral once, at
construction, and the eliminator returns values in that form, so
integral systems are solved in int arithmetic.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

from dgdescent.cech import (ComparisonFunctor, _sample_descent_datum,
                            cech_cosimplicial, glue_descent_datum,
                            tensored_cover)
from dgdescent.cochain import Cochain, GradedSpace
from dgdescent.dgla import DgLieAlgebra, DgLieMap, el_scale, tensor_lie
from dgdescent.forms import monomial_d, monomial_pullback, monomials_up_to
from dgdescent.instances import (circle_cover, dual_numbers, ef_algebra,
                                 segment_cover, t_truncated, triple_cover)
from dgdescent.mcgauge import DeligneGroupoid, gauge_act
from dgdescent.tot import tot_lie

SRC = Path(__file__).resolve().parents[1] / "src" / "dgdescent"
F = Fraction


def _is_fraction_call(node):
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Name) and func.id == "Fraction" or
        isinstance(func, ast.Attribute) and func.attr == "Fraction")


def test_every_true_division_has_a_fraction_operand():
    """No `a / b` in the package unless a or b is a Fraction(...) call:
    with int scalars a bare division would silently give a float."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, ast.Div):
                operands = (node.target, node.value)
            else:
                continue
            if not any(_is_fraction_call(o) for o in operands):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "true division without a Fraction operand at " \
        + ", ".join(offenders)


def _scalars(obj):
    """The coefficients in nested elements, tables and lists: the values
    of dicts, the members of lists and the second entries of the
    (key, coefficient) tuples of the memoized forms tables."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _scalars(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _scalars(v)
    elif isinstance(obj, tuple):
        for _, c in obj:
            yield c
    else:
        yield obj


def _exact(values):
    """Every value an int or a Fraction: no float, no bool."""
    return all(type(x) in (int, Fraction) for x in values)


def _lowered(values):
    """Every value an int exactly when it is integral."""
    return all(type(x) is int or
               (type(x) is Fraction and x.denominator > 1)
               for x in values)


def test_tables_are_lowered_at_construction():
    C = Cochain(GradedSpace({0: ["a"], 1: ["c"]}), {0: {1: F(-2)}})
    assert C.d == {0: {1: -2}} and _lowered(_scalars(C.d))
    # [a, b] = 2z with z central; f moves a by z/2
    space = GradedSpace({0: ["a", "b", "z"]})
    g = DgLieAlgebra(Cochain(space, {}), {(0, 1): {2: F(2)},
                                          (0, 2): {1: F(0)}})
    f = DgLieMap(g, g, {0: {0: F(1), 2: F(1, 2)}, 1: {1: F(1)},
                        2: {2: F(1)}})
    assert g.table == {(0, 1): {2: 2}, (1, 0): {2: -2}}
    assert f.table == {0: {0: 1, 2: F(1, 2)}, 1: {1: 1}, 2: {2: 1}}
    for table in (g.table, f.table):
        assert _lowered(_scalars(table))
    nil = tensor_lie(t_truncated(3), ef_algebra())
    assert _lowered(_scalars(nil.algebra.table))
    assert _lowered(_scalars(nil.algebra.d_table))
    for mono in monomials_up_to(2, 2):
        assert _lowered(_scalars(monomial_d(mono)))
        assert _lowered(_scalars(monomial_pullback((0, 2, 2), 2, mono)))
        assert _lowered(_scalars(monomial_pullback((1, 1), 2, mono)))


def test_scaling_by_a_quotient_lowers_integral_products():
    """The 1/(k+1) of the gauge flow and the 1/2 of the MC residual
    give integral products on even entries: those come back as int."""
    scaled = el_scale(F(1, 2), {0: 2, 1: 3, 2: F(2, 3), 3: F(-4)})
    assert scaled == {0: 1, 1: F(3, 2), 2: F(1, 3), 3: -2}
    assert _lowered(scaled.values())
    assert _lowered(el_scale(F(3), {0: F(1, 3), 1: 2}).values())


def test_no_float_anywhere():
    """The bases and differentials of the totalizations that the
    tot_sweep benchmark builds, a glued family, its datum and the
    datum's comparison image, and sampled MC elements and gauges hold
    only exact scalars; what the eliminator returned is lowered."""
    for cover, base, Ds in ((triple_cover(), dual_numbers(), (1, 2, 3)),
                            (circle_cover(), t_truncated(3), (1, 2))):
        cc = cech_cosimplicial(tensored_cover(cover, base), N=2)
        for D in Ds:
            T = tot_lie(cc, D)
            assert _lowered(_scalars(T.basis_by_degree))
            assert _lowered(_scalars(T.cochain.d))
            for q in range(cc.N + 1):
                assert _lowered(_scalars(cc.normalization_basis(q)))
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(ef_algebra()), t_truncated(3)), N=2)
    rng = random.Random(808)
    datum = None
    while datum is None:
        datum = _sample_descent_datum(cc, rng)
    x = glue_descent_datum(cc, datum, 2)
    image = ComparisonFunctor(cc).object_map(x)
    assert x and _exact(_scalars([x, datum.a, datum.theta, image.a,
                                  image.theta]))
    nil = tensor_lie(t_truncated(3), ef_algebra())
    groupoid = DeligneGroupoid(nil)
    for _ in range(5):
        mc = groupoid.random_mc_element(rng)
        moved = gauge_act(groupoid.ctx, groupoid.random_gauge(rng), mc)
        assert _exact(_scalars([mc, moved]))
