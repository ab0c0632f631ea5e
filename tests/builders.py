"""Builders that only the tests use: the constant cosimplicial algebra,
the ordered Cech algebra over every nondecreasing tuple with the
extension of families to it, abelian descent data, drawn or given by
their coordinates, and nonabelian coboundary data that glue by
construction.

`dgdescent.cech.verify_descent` decides abelian instances by linear
algebra and samples nothing, so the package draws only nonabelian data;
the abelian ones here feed the gluing tests.
"""

import itertools

from dgdescent.cech import _structure_map
from dgdescent.dgla import (direct_product, el_scale, identity_map,
                            lower_central_series)
from dgdescent.forms import degeneracy_map, face_map, monomial_pullback
from dgdescent.linalg import lower
from dgdescent.mcgauge import (DeligneGroupoid, FiniteLieContext, bch,
                               by_monomial, gauge_act)
from dgdescent.tot import CosimplicialDgLie, DescentDatum


def constant_cosimplicial(g, N):
    levels = [g] * (N + 1)
    cofaces = [[identity_map(g) for _ in range(q + 2)] for q in range(N)]
    codegens = [[identity_map(g) for _ in range(q + 1)] for q in range(N)]
    return CosimplicialDgLie(levels, cofaces, codegens,
                             name=f"const({g.name})")


def ordered_cech(cover, N):
    """Levels 0..N of the ordered Cech cosimplicial algebra of a cover:
    level q the product over every nondecreasing tuple of q+1 opens
    with a nonempty intersection, with every coface and codegeneracy
    written by `cech._structure_map`, as a plain CosimplicialDgLie.
    The reference that the build on the strictly increasing tuples
    (`cech.cech_cosimplicial`) is compared with."""
    used = sorted(set().union(*cover.sections))
    tuples = [[T for T in itertools.combinations_with_replacement(used, q + 1)
               if cover.algebra(set(T)) is not None] for q in range(N + 1)]
    levels = [direct_product([cover.algebra(set(T)) for T in Ts], tags=Ts)
              for Ts in tuples]
    cofaces = [[_structure_map(cover, levels, face_map(i, q + 1), q + 1)
                for i in range(q + 2)] for q in range(N)]
    codegens = [[_structure_map(cover, levels, degeneracy_map(i, q), q)
                 for i in range(q + 1)] for q in range(N)]
    return CosimplicialDgLie(levels, cofaces, codegens,
                             vanishing_level=cover.num_opens - 1,
                             name=f"ordered({cover.name or cover.num_opens})")


def extend_to_ordered(cc, ordered, x):
    """A family x over the keys of the Cech algebra cc, written over
    the keys of `ordered_cech` of its cover: a tuple T of the ordered
    algebra is T' o s for the strictly increasing T' of its distinct
    indices and a surjection s: [q] -> [p], U_T = U_T', and its
    component is the pullback along s (`forms.monomial_pullback`) of
    the T'-component of x; s is the identity on a stored tuple."""
    stored = [{T: emb for T, _, emb in g.components} for g in cc.levels]
    groups = by_monomial(x)
    out = {}
    for q, level in enumerate(ordered.levels):
        for T, _, emb in level.components:
            base = tuple(dict.fromkeys(T))
            p = len(base) - 1
            s = tuple(base.index(i) for i in T)
            index = {gi: emb[k] for k, gi in stored[p][base].items()}
            for mono, el in groups.get(p, {}).items():
                for gi, c in el.items():
                    if gi in index:
                        for m, v in monomial_pullback(s, p, mono):
                            key = (q, index[gi], m)
                            out[key] = out.get(key, 0) + c * v
    return {k: lower(v) for k, v in out.items() if v}


def abelian_object(G, coords):
    """The datum of the abelian descent groupoid G with the given
    coordinates over cocycles(1)."""
    C, keys = G.abelian_complex
    Z = C.cocycles(1)
    parts = {"a": {}, "theta": {}}
    for i, (tag, k) in zip(C.space.degree_indices(1), keys[1]):
        v = sum(c * z.get(i, 0) for c, z in zip(coords, Z))
        if v:
            parts[tag][k] = v
    return DescentDatum(parts["a"], parts["theta"])


def sample_abelian_datum(cc, rng):
    """A descent datum of an abelian cosimplicial algebra with uniformly
    small coordinates over the 1-cocycles of the abelian descent
    complex, or None when it fails verification."""
    G = cc.descent_groupoid()
    Z = G.abelian_complex[0].cocycles(1)
    if not Z:
        return DescentDatum({}, {})
    coords = [rng.randint(-3, 3) for _ in Z]
    datum = abelian_object(G, coords)
    return datum if G.verify_object(datum) else None


def coboundary_datum(cc, rng):
    """A descent datum that glues by construction, on a cover whose
    opens all carry one section algebra with identity restrictions
    (`instances.complex_cover`): a random MC element a0 and random
    gauges g_i give a_i = g_i . a0 and theta_ij = bch(g_j, -g_i), which
    carries a_i to a_j and meets the cocycle condition on every triple
    overlap.  The sampler draws its thetas freely, so on a cover with a
    triple overlap it glues almost nothing."""
    cover = cc.cover
    opens = [i for (i,) in cc.tuples[0]]
    nil = lower_central_series(cover.algebra({opens[0]}))
    a0 = DeligneGroupoid(nil).random_mc_element(rng)
    g = {i: DeligneGroupoid(nil).random_gauge(rng) for i in opens}
    a = {(i,): gauge_act(FiniteLieContext(nil), g[i], a0) for i in opens}
    theta = {}
    for i, j in itertools.combinations(opens, 2):
        J = {i, j}
        overlap = FiniteLieContext(lower_central_series(cover.algebra(J)))
        theta[(i, j)] = bch(overlap, cover.restrict({j}, J, g[j]),
                            el_scale(-1, cover.restrict({i}, J, g[i])))
    return DescentDatum(cc.from_components(0, a),
                        cc.from_components(1, theta))
