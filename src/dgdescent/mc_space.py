"""The simplicial Maurer-Cartan space of a nilpotent algebra.

Its n-simplices are the MC elements of the forms on the n-simplex
tensored with the algebra.  The simplex sets are varieties, never
enumerated: an n-level is handed out as a polynomial system with a
verifier, and concrete simplices come from gauge families acting on a
base point.  The comparison map to the nerve of the Deligne groupoid
evaluates a gauge family at the vertices and strings the vertex gauges
into a composable chain.
"""

from fractions import Fraction

from .dgla import el_is_zero
from .forms import mono_form_degree
from .mcgauge import (FiniteLieContext, FormLieContext, SelfCheckFailed,
                      bch, gauge_act, gauge_inverse, mc_residual)

ONE = Fraction(1)


class MCSimplexSystem:
    """The MC equation on degree-1 coefficients, with a verifier.

    candidate_keys spans the degree-1 part of the forms-tensor-algebra
    ambient within the polynomial bound; the residual of an assignment
    is linear (the differential) plus quadratic (half the bracket), and
    a candidate is a simplex exactly when the residual vanishes.
    """

    def __init__(self, nil, n, bound):
        self.nil = nil
        self.n = n
        self.bound = bound
        self.ctx = FormLieContext(nil, n) if n > 0 else \
            FiniteLieContext(nil)
        if n > 0:
            self.candidate_keys = self.ctx.keys_up_to(bound, degree=1)
        else:
            self.candidate_keys = self.ctx.degree_keys(1)

    def residual(self, x):
        return mc_residual(self.ctx, x)

    def is_solution(self, x):
        return el_is_zero(self.residual(x))

    def linear_part(self):
        """Images of the candidate basis under d."""
        return [self.ctx.d_el({k: ONE}) for k in self.candidate_keys]

    def quadratic_part(self, i, j):
        """The bracket of the i-th and j-th candidate basis vectors."""
        ki, kj = self.candidate_keys[i], self.candidate_keys[j]
        return self.ctx.bracket_el({ki: ONE}, {kj: ONE})


def mc_simplex_system(nil, n, bound):
    """The system cutting out the n-simplices at the polynomial bound;
    n = 0 is the plain MC set of the algebra."""
    return MCSimplexSystem(nil, n, bound)


def mc_simplex_from_gauge(nil, n, family, x):
    """The n-simplex obtained by letting a polynomial gauge family act
    on a base MC element.

    family: a degree-0 element of the forms ambient (0-forms tensor the
    degree-0 part); x an MC element of the algebra.  The flow runs in
    the forms ambient, so the result is MC there by construction.
    """
    ctx = FormLieContext(nil, n)
    for key in family:
        gi, mono = key
        if mono_form_degree(mono) != 0 or nil.algebra.degree_of(gi) != 0:
            raise ValueError("gauge families live in 0-forms tensor "
                             "degree 0")
    base = ctx.embed(x)
    out = gauge_act(ctx, family, base)
    if not el_is_zero(mc_residual(ctx, out)):
        raise SelfCheckFailed("gauge flow lost the MC equation")
    return out


def vertex_gauges(nil, n, family):
    """The vertex evaluations of a polynomial gauge family."""
    ctx = FormLieContext(nil, n)
    return [ctx.vertex(i, family) for i in range(n + 1)]


def nerve_simplex_from_gauge(nil, n, family, x):
    """The image simplex in the nerve of the Deligne groupoid.

    The nerve n-simplex is (object, chain of morphisms): the object is
    the vertex-0 gauge applied to x, the i-th morphism the composite
    "act by the vertex-(i-1) gauge inverse, then the vertex-i gauge".
    """
    ctx = FiniteLieContext(nil)
    gs = vertex_gauges(nil, n, family)
    obj = gauge_act(ctx, gs[0], x)
    morphisms = []
    for i in range(1, n + 1):
        morphisms.append(bch(ctx, gs[i], gauge_inverse(gs[i - 1])))
    return obj, morphisms


def nerve_face(nil, simplex, i):
    """Face maps of the nerve: compose adjacent morphisms, drop at the
    ends."""
    ctx = FiniteLieContext(nil)
    obj, ms = simplex
    n = len(ms)
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    if i == 0:
        new_obj = gauge_act(ctx, ms[0], obj)
        return new_obj, ms[1:]
    if i == n:
        return obj, ms[:-1]
    merged = bch(ctx, ms[i], ms[i - 1])
    return obj, ms[:i - 1] + [merged] + ms[i + 1:]


def nerve_is_simplex(nil, simplex):
    """Each morphism must carry its source object to its target."""
    ctx = FiniteLieContext(nil)
    obj, ms = simplex
    if not el_is_zero(mc_residual(ctx, obj)):
        return False
    cur = obj
    for m in ms:
        cur = gauge_act(ctx, m, cur)
        if not el_is_zero(mc_residual(ctx, cur)):
            return False
    return True
