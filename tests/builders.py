"""Builders that only the tests use: the constant cosimplicial algebra
and abelian descent data, drawn or given by their coordinates.

`dgdescent.cech.verify_descent` decides abelian instances by linear
algebra and samples nothing, so the package draws only nonabelian data;
the abelian ones here feed the gluing tests.
"""

from dgdescent.dgla import identity_map
from dgdescent.tot import CosimplicialDgLie, DescentDatum


def constant_cosimplicial(g, N):
    levels = [g] * (N + 1)
    cofaces = [[identity_map(g) for _ in range(q + 2)] for q in range(N)]
    codegens = [[identity_map(g) for _ in range(q + 1)] for q in range(N)]
    return CosimplicialDgLie(levels, cofaces, codegens,
                             name=f"const({g.name})")


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
