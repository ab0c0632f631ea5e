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

from .linalg import (echelon_basis, linear_apply, lower, sparse_free_columns,
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

    def degree_range(self, n):
        """The global indices of degree n, a range (empty when the
        degree is)."""
        off = self._offset.get(n, 0)
        return range(off, off + self.dim(n))

    def degree_indices(self, n):
        return list(self.degree_range(n))

    def unit_bases(self):
        """{n: [{g: 1} for every basis index g of degree n]}."""
        return {n: [{g: 1} for g in self.degree_indices(n)]
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
    vector is 0, the first such key of the vector; ValueError if some
    vector has none."""
    # a kernel basis lists each vector's own free key first, and an
    # RREF row its pivot: try each vector's first key before counting
    # every key's vectors
    owner = {}
    for i, v in enumerate(vecs):
        k = next(iter(v), None)
        if k is not None and v[k] == 1:
            owner[k] = None if k in owner else i
    for i, v in enumerate(vecs):
        for k in v.keys() & owner.keys():
            if owner[k] != i:
                owner[k] = None
    row_of = {k: i for k, i in owner.items() if i is not None}
    if len(row_of) == len(vecs):
        return row_of
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
    targets in index order, and integral coefficients lowered to int
    (`linalg.lower`); ValueError unless every entry takes a basis
    element of the space source, of degree n, into degree n + shift of
    the space target."""
    change = f"raise by {shift}" if shift else "keep"
    out = {}
    # the index ranges of the degree of the current source index and of
    # its target degree, looked up once per source degree
    here = there = range(0)
    for i in sorted(table):
        entry = {k: lower(c) for k, c in sorted(table[i].items()) if c}
        if not entry:
            continue
        if i not in here and 0 <= i < source.total_dim():
            n = source.degree_of(i)
            here, there = source.degree_range(n), \
                target.degree_range(n + shift)
        # the keys are sorted, so the first and the last bound them
        if i not in here or next(iter(entry)) not in there or \
                next(reversed(entry)) not in there:
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
        Z = sparse_kernel(list(rows.values()), len(indices))
        return ([{j + off: c for j, c in z.items()} for z in Z],
                [max(z) + off for z in Z])

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
        coordinates of a coboundary over it are its entries there.  The
        cocycles off the pivot columns of those coordinate rows' reduced
        row echelon form complete B to a basis of Z, and they are the
        cocycles on the rows' free columns (`linalg.sparse_free_columns`),
        in order: on a Cech Tot complex the rows have one or two terms,
        and the presolve decides them without an elimination.
        """
        Z, free = self._kernel(n)
        position = {f: j for j, f in enumerate(free)}
        coords = [{position[k]: c for k, c in self.d[i].items()
                   if k in position}
                  for i in self.space.degree_indices(n - 1) if i in self.d]
        reps = [Z[j] for j in sparse_free_columns(coords, len(Z))]
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


