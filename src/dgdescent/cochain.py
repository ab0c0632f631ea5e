"""Graded spaces, cochain complexes over Q, cohomology, quasi-isomorphisms.

Complexes are non-negatively graded and finite dimensional.  A complex
stores its differential as one sparse table {i: {k: coeff}} over the
global basis indices of its space, the form of every linear map of the
package (`DgLieAlgebra.d_table`, `DgLieMap.table`).  That d raises the
degree by one and that d . d = 0 is checked at construction, through
the one linear kernel `linalg.linear_apply`; everything downstream
assumes it.  Cocycles, coboundaries and cohomology representatives are
sparse vectors over the same indices.

`map_table` writes a map given on sparse vectors as such a table over
reduced bases; `canonical_table` and `check_chain_map` are the checks
on tables that `CochainMap` and `dgla.DgLieMap` share.
"""

from .linalg import (ONE, echelon_basis, linear_apply, sparse_eliminate,
                     sparse_kernel)


class GradedSpace:
    """Finite family of based vector spaces indexed by degree >= 0."""

    def __init__(self, degrees):
        """degrees: mapping degree -> list of basis labels."""
        self.degrees = {}
        for n, labels in sorted(degrees.items()):
            if n < 0:
                raise ValueError(f"negative degree {n}")
            labels = list(labels)
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate basis labels in degree {n}")
            if labels:
                self.degrees[n] = labels
        # global index: list of (degree, label); index lookup both ways
        self.basis = [(n, lab) for n in sorted(self.degrees)
                      for lab in self.degrees[n]]
        self._index = {bl: i for i, bl in enumerate(self.basis)}
        self._offset = {}
        off = 0
        for n in sorted(self.degrees):
            self._offset[n] = off
            off += len(self.degrees[n])

    def dim(self, n):
        return len(self.degrees.get(n, ()))

    def labels(self, n):
        return self.degrees.get(n, [])

    def total_dim(self):
        return len(self.basis)

    def nonzero_degrees(self):
        return sorted(self.degrees)

    def index(self, degree, label):
        return self._index[(degree, label)]

    def degree_of(self, gidx):
        return self.basis[gidx][0]

    def label_of(self, gidx):
        return self.basis[gidx][1]

    def degree_indices(self, n):
        if n not in self.degrees:
            return []
        off = self._offset[n]
        return list(range(off, off + len(self.degrees[n])))

    def unit_bases(self):
        """{n: [{g: 1} for every basis index g of degree n]}."""
        return {n: [{g: ONE} for g in self.degree_indices(n)]
                for n in self.degrees}


def map_table(fn, source, target, shift=0):
    """The table of a linear map given on sparse vectors.

    source and target map each degree to a list of sparse vectors, and
    fn takes a sparse vector to a sparse vector: source degree n into
    the span of target degree n + shift.  The vectors of each side are
    numbered through the degrees in increasing order, as the basis of a
    GradedSpace with those dimensions is, and the table is
    {source number: {target number: coeff}}.  Every target list must
    be reduced: vector i is 1 on a key where every other vector of its
    degree is 0 (RREF rows, kernel bases that are 1 on their free
    columns, and unit bases all are), so coordinates are read off on
    those keys.  Each image is checked by exact reconstruction: an
    image outside the target span, or a target that is not reduced,
    raises ValueError.
    """
    first = {}
    count = 0
    for n in sorted(target):
        first[n] = count
        count += len(target[n])
    table = {}
    src = 0
    for n in sorted(source):
        tvecs = target.get(n + shift, [])
        row_of = _unit_keys(tvecs, n + shift)
        off = first.get(n + shift, 0)
        for col, v in enumerate(source[n]):
            rest = {k: x for k, x in fn(v).items() if x}
            coords = [(row_of[k], x) for k, x in rest.items() if k in row_of]
            # only the nonzero coordinates' vectors are subtracted: a
            # sum over every target vector would cost the whole basis
            # per image
            for r, c in coords:
                for k, x in tvecs[r].items():
                    y = rest.get(k, 0) - c * x
                    if y:
                        rest[k] = y
                    else:
                        rest.pop(k, None)
            if rest:
                raise ValueError(f"the image of source vector {col} of "
                                 f"degree {n} leaves the span of the "
                                 f"target in degree {n + shift}")
            if coords:
                table[src + col] = {off + r: c for r, c in sorted(coords)}
        src += len(source[n])
    return table


def _unit_keys(vecs, n):
    """{key: i}: for each vector i a key where it is 1 and every other
    vector is 0; ValueError if some vector has none."""
    count = {}
    for v in vecs:
        for k, x in v.items():
            if x:
                count[k] = count.get(k, 0) + 1
    row_of = {}
    for i, v in enumerate(vecs):
        k = next((k for k, x in v.items() if x == 1 and count[k] == 1), None)
        if k is None:
            raise ValueError(f"target vector {i} of degree {n} is 1 on no "
                             f"key where the others vanish: the target "
                             f"is not reduced")
        row_of[k] = i
    return row_of


def canonical_table(table, source, target, shift=0, what="map"):
    """table without zero coefficients or empty entries, sources and
    targets in index order; ValueError unless every entry takes a basis
    element of the space source, of degree n, into degree n + shift of
    the space target."""
    change = f"raise by {shift}" if shift else "keep"
    out = {}
    for i in sorted(table):
        entry = {k: c for k, c in sorted(table[i].items()) if c}
        if not entry:
            continue
        if not 0 <= i < source.total_dim() or not all(
                0 <= k < target.total_dim() and
                target.degree_of(k) == source.degree_of(i) + shift
                for k in entry):
            raise ValueError(f"{what} entry {i} -> {sorted(entry)} does "
                             f"not {change} the degree of basis element {i}")
        out[i] = entry
    return out


class Cochain:
    """A finite-dimensional complex: GradedSpace plus differential."""

    def __init__(self, space, d):
        """d: the table {i: {k: coeff}} of the differential, i of some
        degree n and every k of degree n + 1."""
        self.space = space
        self.d = canonical_table(d, space, space, 1, "d")
        for i, image in self.d.items():
            if linear_apply(self.d, image):
                n = space.degree_of(i)
                raise ValueError(f"d^2 != 0 between degrees {n} and {n + 2}")

    def _kernel(self, n):
        """The cocycles of degree n, each 1 on its own free index and 0
        on the others', and those free indices."""
        indices = self.space.degree_indices(n)
        off = indices[0] if indices else 0
        rows = {}
        for i in indices:
            for k, c in self.d.get(i, {}).items():
                rows.setdefault(k, {})[i - off] = c
        Z, free = sparse_kernel(list(rows.values()), len(indices),
                                with_free=True)
        return ([{j + off: c for j, c in z.items()} for z in Z],
                [f + off for f in free])

    def cocycles(self, n):
        return self._kernel(n)[0]

    def coboundaries(self, n):
        return echelon_basis([self.d[i] for i in
                              self.space.degree_indices(n - 1)
                              if i in self.d])

    def cohomology(self, n):
        """Dimension and representative cocycles of H^n.

        Representatives are cocycles that stay independent modulo
        coboundaries (dim = dim ker d^n - rank d^{n-1}).  The cocycle
        basis is 1 on its free indices and 0 on the others', so the
        coordinates of a coboundary over it are its entries there; one
        elimination of those coordinate rows gives rank B, and the
        cocycles off its pivot columns complete B to a basis of Z.
        """
        Z, free = self._kernel(n)
        position = {f: j for j, f in enumerate(free)}
        coords = [{position[k]: c for k, c in self.d[i].items()
                   if k in position}
                  for i in self.space.degree_indices(n - 1) if i in self.d]
        pivots = set(sparse_eliminate(coords)[1])
        reps = [z for j, z in enumerate(Z) if j not in pivots]
        return len(reps), reps

    def betti_numbers(self, up_to=None):
        """dim H^n for n <= up_to, 0 above the top degree without solving."""
        top = max(self.space.nonzero_degrees(), default=-1)
        if up_to is None:
            up_to = top
        bettis = [self.cohomology(n)[0] for n in range(min(up_to, top) + 1)]
        return bettis + [0] * (up_to - top)

    def euler_characteristic(self):
        return sum((-1) ** n * self.space.dim(n)
                   for n in self.space.nonzero_degrees())


def check_chain_map(table, source, target):
    """ValueError unless the degree-preserving table, from the complex
    source to the complex target, commutes with d on every basis
    element."""
    for i in range(source.space.total_dim()):
        if linear_apply(target.d, table.get(i, {})) != \
                linear_apply(table, source.d.get(i, {})):
            raise ValueError(f"map does not commute with d in degree "
                             f"{source.space.degree_of(i)}")


class CochainMap:
    """A degree-preserving map of complexes, stored as its table
    {source index: {target index: coeff}}, commuting with d."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = canonical_table(images, source.space, target.space)
        check_chain_map(self.images, source, target)

    def apply(self, v):
        return linear_apply(self.images, v)


def is_quasi_iso(f):
    """True iff f induces isomorphisms on cohomology in every degree.

    Checked by ranks of the induced maps: H^n(f) is injective iff the
    images of the source representatives stay independent modulo the
    target coboundaries, and surjective iff they span H^n of the target.
    """
    degs = set(f.source.space.nonzero_degrees()) | \
        set(f.target.space.nonzero_degrees())
    for n in sorted(degs):
        hs, reps = f.source.cohomology(n)
        ht, _ = f.target.cohomology(n)
        if hs != ht:
            return False
        if hs == 0:
            continue
        # an echelon basis is independent: its length is its rank
        B = f.target.coboundaries(n)
        images = [f.apply(z) for z in reps]
        if len(echelon_basis(B + images)) - len(B) != hs:
            return False
    return True


def cone(f):
    """Mapping cone of f, shifted up one degree to stay non-negative.

    The honest cone has cone^n = T^n (+) S^{n+1} and reaches degree -1;
    here degree m holds T^{m-1} (+) S^m with d(t, s) = (dt + f s, -ds).
    The shift does not change acyclicity: the cone is acyclic iff f is
    a quasi-isomorphism.  Used as the independent cross-check route for
    is_quasi_iso.
    """
    S, T = f.source.space, f.target.space
    labels = {}
    for side, space, shift in (("t", T, 1), ("s", S, 0)):
        for n in space.nonzero_degrees():
            labels.setdefault(n + shift, []).extend(
                (side, lab) for lab in space.labels(n))
    space = GradedSpace(labels)
    t_of = {k: space.index(T.degree_of(k) + 1, ("t", T.label_of(k)))
            for k in range(T.total_dim())}
    s_of = {k: space.index(S.degree_of(k), ("s", S.label_of(k)))
            for k in range(S.total_dim())}
    d = {t_of[k]: {t_of[j]: c for j, c in entry.items()}
         for k, entry in f.target.d.items()}
    for k in range(S.total_dim()):
        image = {t_of[j]: c for j, c in f.images.get(k, {}).items()}
        image.update((s_of[j], -c) for j, c in f.source.d.get(k, {}).items())
        d[s_of[k]] = image
    return Cochain(space, d)


def is_acyclic(C):
    top = max(C.space.nonzero_degrees(), default=-1)
    return all(C.cohomology(n)[0] == 0 for n in range(top + 1))
