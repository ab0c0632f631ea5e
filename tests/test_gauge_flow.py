"""The gauge flow and the Omega_n (x) g kernels against their references.

`flow_path` solves the flow by the exact coefficient recursion, and
`FormLieContext.d_el`/`bracket_el` push form-valued elements through the
structure tables in one pass (`dgla.keyed_linear_apply`,
`keyed_bilinear_apply`).  The references below are the earlier
implementations, kept only here: Picard iteration on the time
coefficients, kernels that split both operands by monomial and go
through the plain algebra's d and bracket once per monomial (pair), and
the keyed bracket that visits every pair of keys instead of the rows of
the bracket table.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgdescent.cochain import Cochain, GradedSpace
from dgdescent.dgla import (DgLieAlgebra, NilpotentDgLie, el_add, el_eq,
                            el_scale, el_sum, keyed_bilinear_apply,
                            lower_central_series, tensor_lie)
from dgdescent.forms import (mono_form_degree, mono_is_odd, mono_mul,
                             monomial_d, monomial_product, monomials_up_to)
from dgdescent.instances import (ef_algebra, heisenberg, probe_class2,
                                 segment_cover, t_truncated, wz_algebra)
from dgdescent.mcgauge import (DeligneGroupoid, FiniteLieContext,
                               FormLieContext, flow_path, gauge_act,
                               mc_residual)

F = Fraction
ONE = F(1)


# -- references ---------------------------------------------------------------

def picard_flow_path(ctx, y_coeffs, x0):
    """Picard iteration on time coefficients; by nilpotency the fixed
    point is reached after at most class+1 rounds."""
    dy = [ctx.d_el(c) for c in y_coeffs]
    coeffs = [dict(x0)]
    for _ in range(ctx.nclass() + 3):
        deg = len(coeffs) + len(y_coeffs)
        integrand = [dict() for _ in range(deg)]
        for k, c in enumerate(dy):
            integrand[k] = el_add(integrand[k], c)
        for i, xc in enumerate(coeffs):
            for j, yc in enumerate(y_coeffs):
                b = ctx.bracket_el(xc, yc)
                if b:
                    integrand[i + j] = el_add(integrand[i + j], b)
        new = [dict(x0)] + [el_scale(F(1, k + 1), integrand[k])
                            for k in range(len(integrand))]
        while new and not new[-1]:
            new.pop()
        if len(new) == len(coeffs) and all(
                el_eq(a, b) for a, b in zip(new, coeffs)):
            return coeffs
        coeffs = new
    raise ArithmeticError("gauge flow did not stabilize; "
                          "ambient is not nilpotent")


def by_mono(x):
    """{(level, monomial): plain algebra element} of x."""
    parts = {}
    for (p, gi, mono), v in x.items():
        parts.setdefault((p, mono), {})[gi] = v
    return parts


def per_monomial_d_el(ctx, x):
    """d on Omega_p (x) g^p, one monomial at a time."""
    parts = []
    for (p, mono), el in by_mono(x).items():
        for m2, c in monomial_d(mono):
            parts.append({(p, gi, m2): c * v for gi, v in el.items()})
        sign = -ONE if mono_form_degree(mono) % 2 else ONE
        parts.append({(p, gj, mono): sign * c
                      for gj, c in ctx.algebras[p].d_element(el).items()})
    return el_sum(parts)


def per_monomial_bracket_el(ctx, x, y):
    """The bracket on Omega_p (x) g^p, one pair of monomials of one
    level at a time."""
    ys = by_mono(y)
    parts = []
    for (p, m1), el1 in by_mono(x).items():
        g = ctx.algebras[p]
        twisted = {gi: -v if g.degree_of(gi) % 2 else v
                   for gi, v in el1.items()}
        for (q, m2), el2 in ys.items():
            if q != p:
                continue
            prod = mono_mul(m1, m2)
            if prod is None:
                continue
            m, sign = prod
            br = g.bracket(twisted if mono_form_degree(m2) % 2 else el1, el2)
            if br:
                parts.append({(p, gk, m): sign * c for gk, c in br.items()})
    return el_sum(parts)


def all_pairs_keyed_bilinear_apply(table, x, y, w_product, w_odd,
                                   odd_indices):
    """The keyed bracket over every pair of keys of x and y of one
    level, looking each index pair up in the bilinear table
    {(i, j): {k: coeff}}."""
    ys = [(q, j, w2, b, w_odd(w2)) for (q, j, w2), b in y.items()]
    out = {}
    for (p, i, w1), a in x.items():
        i_odd = i in odd_indices
        for q, j, w2, b, w2_odd in ys:
            entry = table.get((i, j))
            if q != p or not entry:
                continue
            prod = w_product(w1, w2)
            if prod is None:
                continue
            w, negative = prod
            ab = a * b
            if negative != (i_odd and w2_odd):
                ab = -ab
            for k, c in entry.items():
                out[(p, k, w)] = out.get((p, k, w), 0) + ab * c
    return {k: v for k, v in out.items() if v}


class ReferenceForms:
    """A FormLieContext or TotContext whose d and bracket are the
    references."""

    def __init__(self, ctx):
        self.ctx = ctx

    def nclass(self):
        return self.ctx.nclass()

    def d_el(self, x):
        return per_monomial_d_el(self.ctx, x)

    def bracket_el(self, x, y):
        return per_monomial_bracket_el(self.ctx, x, y)


# -- ambients -------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _nil(name):
    if name == "ef/t3":
        return tensor_lie(t_truncated(3), ef_algebra())
    if name == "wz/t3":
        return tensor_lie(t_truncated(3), wz_algebra())
    if name == "wz":
        return lower_central_series(wz_algebra())
    if name == "probe2":
        return lower_central_series(probe_class2())
    return lower_central_series(heisenberg())


ALGEBRAS = ["ef/t3", "wz/t3", "wz", "probe2", "heisenberg"]


def _all_keys(ctx, D):
    """Every key of Omega_p (x) g^p, over the levels p of the ambient,
    whose monomial has polynomial degree at most D."""
    return [(p, gi, mono) for p, g in sorted(ctx.algebras.items())
            for mono in monomials_up_to(p, D) for gi in range(g.total_dim())]


@functools.lru_cache(maxsize=None)
def _ambient(kind, name):
    """(context, reference context, keys of each degree)."""
    if kind == "tot":
        from dgdescent.cech import cech_cosimplicial, tensored_cover
        from dgdescent.tot import TotContext
        cc = cech_cosimplicial(tensored_cover(segment_cover(ef_algebra()),
                                              t_truncated(3)), N=2)
        ctx = TotContext(cc)
        ref = ReferenceForms(ctx)
        keys = _all_keys(ctx, 2)
    elif kind == "finite":
        ctx = FiniteLieContext(_nil(name))
        ref = ctx
        keys = list(range(ctx.g.total_dim()))
    else:
        ctx = FormLieContext(_nil(name), int(kind[-1]))
        ref = ReferenceForms(ctx)
        keys = _all_keys(ctx, 2)
    by_degree = {}
    for k in keys:
        by_degree.setdefault(ctx.key_degree(k), []).append(k)
    return ctx, ref, keys, by_degree


ambients = st.one_of(
    st.tuples(st.sampled_from(["finite", "forms1", "forms2"]),
              st.sampled_from(ALGEBRAS)),
    st.just(("tot", "segment-ef/t3")))
scalars = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@st.composite
def elements(draw, keys):
    """Elements on a random share of the keys, so that most pairs of
    them have nonzero brackets."""
    return {k: draw(scalars) for k in keys if draw(st.booleans())}


# -- one-pass kernels ---------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(ambients, st.data())
def test_form_kernels_match_per_monomial_references(amb, data):
    ctx, ref, keys, _ = _ambient(*amb)
    x = data.draw(elements(keys))
    y = data.draw(elements(keys))
    assert ctx.d_el(x) == ref.d_el(x)
    assert ctx.bracket_el(x, y) == ref.bracket_el(x, y)
    assert mc_residual(ctx, x) == el_add(
        ref.d_el(x), el_scale(F(1, 2), ref.bracket_el(x, x)))


def _two_term():
    """x, y, z, w in degree 0 with [x, y] = z + 2w central: unlike the
    bundled algebras, a bracket whose entry has two terms."""
    space = GradedSpace({0: ["x", "y", "z", "w"]})
    return DgLieAlgebra(Cochain(space, {}), {(0, 1): {2: 1, 3: 2}},
                        name="two-term")


@functools.lru_cache(maxsize=None)
def _tensored(name):
    g = {"ef": ef_algebra, "heisenberg": heisenberg,
         "probe2": probe_class2, "two-term": _two_term}[name]()
    return tensor_lie(t_truncated(3), g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ef", "heisenberg", "probe2", "two-term"]),
       st.sampled_from([1, 2]), st.data())
def test_bracket_rows_match_all_pairs(name, n, data):
    """keyed_bilinear_apply, which walks the rows of the bracket table,
    gives the all-pairs bracket on random keyed elements of g (x) t^3
    over Omega_1 and Omega_2."""
    ctx = FormLieContext(_tensored(name), n)
    keys = _all_keys(ctx, 2)
    x = data.draw(elements(keys))
    y = data.draw(elements(keys))
    g = ctx.algebras[n]
    expected = all_pairs_keyed_bilinear_apply(
        g.table, x, y, monomial_product, mono_is_odd, g.odd_indices)
    assert keyed_bilinear_apply({n: g}, x, y, monomial_product,
                                mono_is_odd) == expected
    assert ctx.bracket_el(x, y) == expected


def test_bracket_rows_list_the_table():
    """bracket_rows is the bracket table by first index, second indices
    in increasing order, computed once per algebra."""
    g = _tensored("probe2").algebra
    rows = g.bracket_rows
    assert {(i, j): dict(entry) for i, row in rows.items()
            for j, entry in row} == g.table
    assert all([j for j, _ in row] == sorted(j for j, _ in row)
               for row in rows.values())
    assert g.bracket_rows is rows


@pytest.mark.parametrize("n", [1, 2])
def test_odd_lie_elements_pass_odd_forms_with_a_sign(n):
    """[1 (x) w, dt_1 (x) w] = (-1)^{|w||dt_1|} dt_1 (x) [w, w] = -dt_1 (x) z:
    the Koszul sign of an odd Lie factor moving past an odd form."""
    ctx = FormLieContext(_nil("wz"), n)
    g = ctx.algebras[n]
    w = g.space.index(1, "w")
    z = g.space.index(2, "z")
    one = ((0,) * n, 0)
    dt1 = ((0,) * n, 1)
    x, y = {(n, w, one): ONE}, {(n, w, dt1): ONE}
    assert ctx.bracket_el(x, y) == {(n, z, dt1): -ONE}
    assert ctx.bracket_el(y, x) == {(n, z, dt1): ONE}
    assert ctx.bracket_el(y, x) == per_monomial_bracket_el(ctx, y, x)
    # an even form on the right leaves the sign alone
    t1 = (tuple(1 if i == 0 else 0 for i in range(n)), 0)
    assert ctx.bracket_el(x, {(n, w, t1): ONE}) == {(n, z, t1): ONE}


def test_internal_d_carries_the_form_degree_sign():
    """d(dt_1 (x) a) = -dt_1 (x) da and d(t_1 (x) a) = dt_1 (x) a + t_1 (x) da."""
    ctx = FormLieContext(_nil("probe2"), 1)
    g = ctx.algebras[1]
    a = g.space.index(0, "a")
    alpha = g.space.index(1, "alpha")
    t1, dt1 = ((1,), 0), ((0,), 1)
    assert ctx.d_el({(1, a, dt1): ONE}) == {(1, alpha, dt1): -ONE}
    assert ctx.d_el({(1, a, t1): ONE}) == {(1, a, dt1): ONE,
                                           (1, alpha, t1): ONE}


# -- the flow -----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(ambients, st.integers(1, 3), st.data())
def test_flow_recursion_matches_picard(amb, length, data):
    """Constant (length 1) and polynomial gauge paths from any
    starting element."""
    ctx, ref, keys, by_degree = _ambient(*amb)
    y = [data.draw(elements(by_degree.get(0, [])))
         for _ in range(length)]
    x0 = data.draw(elements(keys))
    assert flow_path(ctx, y, x0) == picard_flow_path(ref, y, x0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRAS), st.data())
def test_gauge_action_matches_picard_on_mc_elements(name, data):
    nil = _nil(name)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    groupoid = DeligneGroupoid(nil)
    x = groupoid.random_mc_element(rng)
    y = groupoid.random_gauge(rng)
    ctx = groupoid.ctx
    expected = el_sum(picard_flow_path(ctx, [y], x))
    assert gauge_act(ctx, y, x) == expected
    assert el_sum(flow_path(ctx, [y, {}], x)) == expected


def test_flow_keeps_trailing_zeros_out():
    ctx = FiniteLieContext(_nil("ef/t3"))
    assert flow_path(ctx, [], {}) == picard_flow_path(ctx, [], {}) == []
    assert flow_path(ctx, [{}], {}) == []
    x = {ctx.degree_keys(1)[0]: ONE}
    assert flow_path(ctx, [], x) == [x]
    assert flow_path(ctx, [{}, {}], x) == picard_flow_path(ctx, [{}, {}], x)


def test_flow_refuses_a_non_nilpotent_ambient():
    """e, f with [e, f] = f, declared to be of class 1: the flow of
    exp(t e) on f is f e^{-t}, which no polynomial reaches."""
    g = ef_algebra()
    ctx = FiniteLieContext(NilpotentDgLie(g, {1: g.space.unit_bases()}, 1))
    e = g.space.index(0, "e")
    f = g.space.index(1, "f")
    with pytest.raises(ArithmeticError, match="not nilpotent"):
        flow_path(ctx, [{e: ONE}], {f: ONE})
    with pytest.raises(ArithmeticError, match="not nilpotent"):
        picard_flow_path(ctx, [{e: ONE}], {f: ONE})
