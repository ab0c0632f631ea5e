"""Instance library: bundled algebras, artinian bases, random generators.

These power the randomized test campaigns and the CLI's sample commands.
Random nilpotent algebras are drawn by tensoring a small library of
hand-verified dg Lie algebras with random artinian ideals (constructions
that provably preserve the axioms), plus a few directly nilpotent
specimens; every draw still goes through full validation in the axiom
tests.
"""

import itertools
from fractions import Fraction

from .cochain import Cochain, GradedSpace
from .dgla import (ArtinAlgebra, CoverSpec, DgCommAlgebra, DgLieAlgebra,
                   DgLieMap, direct_product, identity_map,
                   lower_central_series, NilpotentDgLie, tensor_lie)

F = Fraction


# ---------------------------------------------------------------------------
# base dg Lie algebras


def ef_algebra():
    """e (deg 0), f (deg 1), [e,f] = f, d = 0.  Not nilpotent by itself."""
    space = GradedSpace({0: ["e"], 1: ["f"]})
    cochain = Cochain(space, {})
    return DgLieAlgebra(
        cochain, {(space.index(0, "e"), space.index(1, "f")):
                  {space.index(1, "f"): F(1)}}, name="ef")


def wz_algebra():
    """w (deg 1), z (deg 2), [w,w] = z, d = 0."""
    space = GradedSpace({1: ["w"], 2: ["z"]})
    cochain = Cochain(space, {})
    return DgLieAlgebra(
        cochain, {(space.index(1, "w"), space.index(1, "w")):
                  {space.index(2, "z"): F(1)}}, name="wz")


def heisenberg():
    """x, y, z in degree 0 with [x,y] = z central: nilpotent of class 2."""
    space = GradedSpace({0: ["x", "y", "z"]})
    cochain = Cochain(space, {})
    return DgLieAlgebra(
        cochain, {(space.index(0, "x"), space.index(0, "y")):
                  {space.index(0, "z"): F(1)}}, name="heis")


def probe_class2():
    """deg 0: a,b,c; deg 1: alpha,beta; da = alpha, dc = beta,
    [a,b] = c, [alpha,b] = beta.  Nilpotent of class 2 with d and
    brackets interacting; pins the bch convention."""
    space = GradedSpace({0: ["a", "b", "c"], 1: ["alpha", "beta"]})
    a, b, c = (space.index(0, lbl) for lbl in ("a", "b", "c"))
    alpha, beta = (space.index(1, lbl) for lbl in ("alpha", "beta"))
    cochain = Cochain(space, {a: {alpha: F(1)}, c: {beta: F(1)}})
    return DgLieAlgebra(cochain, {
        (a, b): {c: F(1)},
        (alpha, b): {beta: F(1)},
    }, name="probe2")


def abelian_algebra(degree_dims, d=None, name="abelian"):
    """Zero bracket; d is the table of the differential over the basis
    a{n}_{i}, numbered through the degrees in increasing order."""
    degrees = {n: [f"a{n}_{i}" for i in range(k)]
               for n, k in degree_dims.items() if k}
    return DgLieAlgebra(Cochain(GradedSpace(degrees), d or {}), {},
                        name=name)


def abelian_line():
    """u (deg 0), v (deg 1), d = 0; H^0 = H^1 = Q.  The default abelian
    section algebra for the cover instances."""
    return abelian_algebra({0: 1, 1: 1}, name="line")


def cone_algebra(m=0):
    """Contractible abelian: u (deg m), v (deg m+1), du = v."""
    degrees = {m: [f"cu{m}"], m + 1: [f"cv{m}"]}
    return DgLieAlgebra(Cochain(GradedSpace(degrees), {0: {1: F(1)}}), {},
                        name=f"cone{m}")


BASE_LIBRARY = [ef_algebra, wz_algebra, heisenberg, probe_class2,
                lambda: abelian_algebra({0: 1, 1: 1}),
                lambda: abelian_algebra({0: 1, 1: 1, 2: 1},
                                        d={1: {2: F(1)}})]


# ---------------------------------------------------------------------------
# artinian bases


def dual_numbers():
    """k[eps]/eps^2."""
    return ArtinAlgebra(["eps"], {}, name="k[eps]/eps^2")


def t_truncated(m):
    """k[t]/t^m, ideal basis t, ..., t^{m-1}."""
    labels = [f"t{i}" if i > 1 else "t" for i in range(1, m)]
    products = {}
    for i in range(1, m):
        for j in range(i, m):
            if i + j < m:
                products[(i - 1, j - 1)] = {i + j - 1: F(1)}
    return ArtinAlgebra(labels, products, name=f"k[t]/t^{m}")


def two_var_square_zero():
    """k[x,y]/(x^2, y^2): ideal basis x, y, xy."""
    products = {(0, 1): {2: F(1)}}
    return ArtinAlgebra(["x", "y", "xy"], products, name="k[x,y]/(x2,y2)")


def fat_point():
    """k[x,y]/(x^2, xy, y^2)."""
    return ArtinAlgebra(["x", "y"], {}, name="k[x,y]/m^2")


ARTIN_LIBRARY = [dual_numbers, lambda: t_truncated(3),
                 lambda: t_truncated(4), two_var_square_zero, fat_point]


def contractible_artin_dg():
    """A = k (+) (eps deg 0, delta deg 1) with d(eps) = delta and
    eps m = 0: a unital dg commutative algebra with H(A) = k."""
    space = GradedSpace({0: ["1", "eps"], 1: ["delta"]})
    one = space.index(0, "1")
    eps = space.index(0, "eps")
    delta = space.index(1, "delta")
    cochain = Cochain(space, {eps: {delta: F(1)}})
    products = {
        (one, one): {one: F(1)},
        (one, eps): {eps: F(1)},
        (one, delta): {delta: F(1)},
        (eps, eps): {},
        (eps, delta): {},
        (delta, delta): {},
    }
    return DgCommAlgebra(cochain, products, one)


# ---------------------------------------------------------------------------
# random draws


def random_artin(rng):
    return rng.choice(ARTIN_LIBRARY)()


def random_base(rng):
    return rng.choice(BASE_LIBRARY)()


def random_nilpotent(rng, max_dim=12, max_class=4):
    """A random nilpotent dg Lie algebra within the given budget."""
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:
            g = rng.choice([heisenberg, probe_class2])()
            nil = lower_central_series(g)
        elif kind == 1:
            nil = tensor_lie(random_artin(rng), random_base(rng))
        else:
            base = direct_product(
                [random_base(rng), cone_algebra(rng.randrange(2))])
            nil = tensor_lie(random_artin(rng), base)
        if isinstance(nil, DgLieAlgebra):
            nil = lower_central_series(nil)
        if isinstance(nil, NilpotentDgLie) and \
                nil.algebra.total_dim() <= max_dim and \
                nil.nilpotency_class <= max_class:
            return nil
    raise RuntimeError("no instance inside the requested budget")


def random_gauge(rng, nil):
    from .mcgauge import DeligneGroupoid
    return DeligneGroupoid(nil).random_gauge(rng)


def random_mc(rng, nil):
    from .mcgauge import DeligneGroupoid
    return DeligneGroupoid(nil).random_mc_element(rng)


def projection_cover(name="segment-projection"):
    """Two opens with two-dimensional abelian sections and a smaller
    overlap algebra: the restrictions are genuine projections."""
    big = abelian_algebra({0: 1, 1: 1}, name="line")
    small = abelian_algebra({1: 1}, name="point1")
    proj = {(frozenset({i}), frozenset({0, 1})):
            DgLieMap(big, small, {1: {0: F(1)}}, validate=False)
            for i in range(2)}
    sections = {frozenset({0}): big, frozenset({1}): big,
                frozenset({0, 1}): small}
    return CoverSpec(2, sections, proj, name=name)


def scaled_cover(name="segment-scaled"):
    """Nonabelian two-open cover whose second restriction rescales f:
    e -> e, f -> 2f is a dg Lie endomorphism of the ef algebra."""
    L = ef_algebra()
    scale = DgLieMap(L, L, {0: {0: F(1)}, 1: {1: F(2)}})
    sections = {frozenset({0}): L, frozenset({1}): L,
                frozenset({0, 1}): L}
    restrictions = {(frozenset({0}), frozenset({0, 1})): identity_map(L),
                    (frozenset({1}), frozenset({0, 1})): scale}
    return CoverSpec(2, sections, restrictions, name=name)


# ---------------------------------------------------------------------------
# acyclic fibrations (and tampered ones) for the lifting campaigns


def _projection_map(product, keep_index, target):
    """Project a direct product onto one factor, as a DgLieMap."""
    tag, factor, emb = product.components[keep_index]
    return DgLieMap(product, target,
                    {pidx: {gi: F(1)} for gi, pidx in emb.items()},
                    validate=False)


def cone_extension_fibration(nil, m=0):
    """g x cone --> g: surjective and acyclic on every F^i."""
    g = nil.algebra
    product = direct_product([g, cone_algebra(m)], tags=["g", "c"])
    f = _projection_map(product, 0, g)
    nil_src = lower_central_series(product)
    return f, nil_src, nil


def contractible_tensor_fibration(nil):
    """(k (+) eps,delta) (x) g --> g at eps = delta = 0."""
    g = nil.algebra
    A = contractible_artin_dg()
    ag = tensor_lie(A, g, validate=False)
    # 1 @ y -> y, eps @ y and delta @ y -> 0
    unit = A.space.index(0, "1")
    f = DgLieMap(ag, g, {k: {gi: F(1)} for (ai, gi), k in
                         ag.tensor_index.items() if ai == unit},
                 validate=False)
    nil_src = lower_central_series(ag)
    return f, nil_src, nil


def random_acyclic_fibration(rng, max_dim=12, max_class=4):
    nil = random_nilpotent(rng, max_dim=max_dim, max_class=max_class)
    builders = [lambda: cone_extension_fibration(nil, rng.randrange(2)),
                lambda: contractible_tensor_fibration(nil)]
    return rng.choice(builders)()


# ---------------------------------------------------------------------------
# covers whose nerve is a simplicial complex: identity restrictions onto
# one shared section algebra


def complex_cover(facets, L=None, name=None):
    """The cover whose nerve is the simplicial complex with the given
    maximal simplices (tuples of vertices 0, 1, ...): one open per
    vertex, the section algebra L (default abelian_line()) on every face
    and identity restrictions, sections and restrictions inserted by
    face size, then vertex order."""
    L = L or abelian_line()
    faces = sorted({frozenset(c) for facet in facets
                    for r in range(1, len(facet) + 1)
                    for c in itertools.combinations(facet, r)},
                   key=lambda J: (len(J), sorted(J)))
    restrictions = {(J, J2): identity_map(L)
                    for J in faces for J2 in faces if J < J2}
    return CoverSpec(1 + max(set().union(*faces), default=-1),
                     dict.fromkeys(faces, L), restrictions, name=name)


def segment_cover(L=None, name="segment"):
    """Two opens with one overlap; every section algebra is L and all
    restrictions are the identity."""
    return complex_cover([(0, 1)], L, name)


def circle_cover(L=None, name="circle"):
    """Three opens with pairwise overlaps and an empty triple overlap:
    the nerve is a circle."""
    return complex_cover([(0, 1), (0, 2), (1, 2)], L, name)


def triple_cover(L=None, name="triple"):
    """Three opens with every intersection nonempty: the nerve is a full
    2-simplex, so gluing has to build a genuine level-2 component."""
    return complex_cover([(0, 1, 2)], L, name)


def tampered_fibration():
    """Surjective but not a quasi-isomorphism: the target MC element
    a vbar (a != 0) has no MC preimage."""
    g = abelian_algebra({1: 1, 2: 1}, d={0: {1: F(1)}}, name="vw")
    h = abelian_algebra({1: 1}, name="vbar")
    f = DgLieMap(g, h, {0: {0: F(1)}})
    return f, lower_central_series(g), lower_central_series(h)


def spec_lifting_fibration():
    """g = <v, v' deg 1, w deg 2; dv' = w> --> h = <vbar>, v |-> vbar."""
    space = GradedSpace({1: ["v", "vp"], 2: ["w"]})
    g = DgLieAlgebra(Cochain(space, {1: {2: F(1)}}), {}, name="vvw")
    h = abelian_algebra({1: 1}, name="vbar")
    f = DgLieMap(g, h, {0: {0: F(1)}})
    return f, lower_central_series(g), lower_central_series(h)
