"""Record writers: the inverses of the readers in `dgdescent.io`.

The package only reads records; the tests write them, to check that a
record read and written again is the record they started from, and to
put instances built in Python on the command line.  Labels and scalars
are written by the same `label_to_json` and `scalar_to_str` that the
reports use.
"""

from dgdescent.cech import CoverSpec
from dgdescent.io import label_to_json, scalar_to_str


def algebra_to_record(g):
    basis = []
    for gi in range(g.total_dim()):
        basis.append({"label": label_to_json(g.space.label_of(gi)),
                      "degree": g.degree_of(gi)})
    differential = []
    for gi in sorted(g.d_table):
        for gj, c in sorted(g.d_table[gi].items()):
            differential.append({"from": label_to_json(g.space.label_of(gi)),
                                 "to": label_to_json(g.space.label_of(gj)),
                                 "coeff": scalar_to_str(c)})
    brackets = []
    for (i, j) in sorted(g.table):
        if i > j:
            continue   # the flip is determined by antisymmetry
        val = g.table[(i, j)]
        brackets.append({
            "left": label_to_json(g.space.label_of(i)),
            "right": label_to_json(g.space.label_of(j)),
            "value": [{"basis": label_to_json(g.space.label_of(k)),
                       "coeff": scalar_to_str(c)}
                      for k, c in sorted(val.items())]})
    return {"type": "dg_lie_algebra", "name": g.name,
            "basis": basis, "differential": differential,
            "brackets": brackets}


def artin_to_record(a):
    ideal = a.maximal_ideal()
    products = []
    # the completed table: a product given only as (j, i), j > i, is
    # written as its (i, j) partner
    for (i, j) in sorted(ideal.table):
        if i > j:
            continue
        val = ideal.table[(i, j)]
        products.append({
            "left": ideal.labels[i], "right": ideal.labels[j],
            "value": [{"basis": ideal.labels[k],
                       "coeff": scalar_to_str(c)}
                      for k, c in sorted(val.items())]})
    return {"type": "artin_algebra", "name": a.name,
            "ideal_basis": list(ideal.labels), "products": products}


def cover_to_record(cover):
    if not isinstance(cover, CoverSpec):
        raise TypeError("cover_to_record expects a CoverSpec")
    named = {}
    names = {}
    for J, g in sorted(cover.sections.items(), key=lambda kv: sorted(kv[0])):
        if id(g) not in names:
            nm = g.name or f"sec{len(named)}"
            while nm in named:
                nm += "'"
            names[id(g)] = nm
            named[nm] = g
    intersections = []
    for J, g in sorted(cover.sections.items(), key=lambda kv: sorted(kv[0])):
        intersections.append({"indices": sorted(J),
                              "algebra": names[id(g)]})
    restrictions = []
    for (J, J2), f in sorted(cover.restrictions.items(),
                             key=lambda kv: (sorted(kv[0][0]),
                                             sorted(kv[0][1]))):
        entry = {"from": sorted(J), "to": sorted(J2)}
        space = f.source.space
        if f.source is f.target and \
                f.table == {i: {i: 1} for i in range(space.total_dim())}:
            entry["matrix"] = "identity"
        else:
            # every source degree, zero blocks too
            blocks = _map_to_matrices(f)
            entry["matrix"] = {str(n): blocks.get(str(n)) or
                               [["0"] * space.dim(n)] * f.target.space.dim(n)
                               for n in space.nonzero_degrees()}
        restrictions.append(entry)
    return {"type": "cover", "name": cover.name,
            "opens": cover.num_opens,
            "sections": {nm: algebra_to_record(g)
                         for nm, g in named.items()},
            "intersections": intersections,
            "restrictions": restrictions}


def _map_to_matrices(f):
    """The nonzero dense blocks of f, as record rows: block n has one
    row per target and one column per source basis element of degree
    n."""
    src, tgt = f.source.space, f.target.space
    blocks = {}
    for n in src.nonzero_degrees():
        row_of = {k: r for r, k in enumerate(tgt.degree_indices(n))}
        M = [["0"] * src.dim(n) for _ in row_of]
        for col, i in enumerate(src.degree_indices(n)):
            for k, c in f.apply({i: 1}).items():
                M[row_of[k]][col] = scalar_to_str(c)
                blocks[str(n)] = M
    return blocks


def cosimplicial_to_record(cc):
    return {
        "type": "cosimplicial_dg_lie",
        "name": cc.name,
        "levels": [algebra_to_record(g) for g in cc.levels],
        "cofaces": [[_map_to_matrices(f) for f in maps]
                    for maps in cc.cofaces],
        "codegeneracies": [[_map_to_matrices(f) for f in maps]
                           for maps in cc.codegens],
    }


def instance_to_record(name, cover, base):
    return {"type": "descent_instance", "name": name,
            "cover": cover_to_record(cover),
            "base": artin_to_record(base)}
