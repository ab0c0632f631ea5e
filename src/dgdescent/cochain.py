"""Graded spaces, cochain complexes over Q, cohomology, quasi-isomorphisms.

Complexes are non-negatively graded and finite dimensional.  A complex
stores one matrix per degree, d[n] : C^n -> C^{n+1}, columns indexed by
the basis of C^n.  d . d = 0 is checked at construction; everything
downstream assumes it.

This module also owns the conversion between linear maps and those
per-degree blocks, in both directions: `map_blocks` writes a map given
on sparse vectors as blocks over reduced bases, and `table_from_blocks`
turns blocks back into a sparse table {i: {k: coeff}}.
"""

from .linalg import (ONE, ZERO, kernel_basis, mat_mul, mat_vec,
                     sparse_eliminate, sparse_from_dense, sparse_kernel,
                     span_basis, transpose, zero_matrix)

# Degrees are capped to keep accidental runaway gradings out; the cap is
# an artifact-level choice, overridable per space.
DEFAULT_TOP_DEGREE = 8


class GradedSpace:
    """Finite family of based vector spaces indexed by degree >= 0."""

    def __init__(self, degrees, top_degree=DEFAULT_TOP_DEGREE):
        """degrees: mapping degree -> list of basis labels."""
        self.degrees = {}
        for n, labels in sorted(degrees.items()):
            if n < 0:
                raise ValueError(f"negative degree {n}")
            if n > top_degree:
                raise ValueError(f"degree {n} exceeds top degree {top_degree}")
            labels = list(labels)
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate basis labels in degree {n}")
            if labels:
                self.degrees[n] = labels
        self.top_degree = top_degree
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


def map_blocks(fn, source, target, shift=0):
    """The per-degree blocks of a linear map given on sparse vectors.

    source and target map each degree to a list of sparse vectors, and
    fn takes a sparse vector to a sparse vector: source degree n into
    the span of target degree n + shift.  Every target list must be
    reduced: vector i is 1 on a key where every other vector of its
    degree is 0 (RREF rows, kernel bases that are 1 on their free
    columns, and unit bases all are), so coordinates are read off on
    those keys.  Each column is checked by exact reconstruction: an
    image outside the target span, or a target that is not reduced,
    raises ValueError.  Returns {n: block} for the nonzero blocks only.
    """
    blocks = {}
    for n, vecs in source.items():
        tvecs = target.get(n + shift, [])
        row_of = _unit_keys(tvecs, n + shift)
        M = [[ZERO] * len(vecs) for _ in tvecs]
        nonzero = False
        for col, v in enumerate(vecs):
            rest = {k: x for k, x in fn(v).items() if x}
            coords = [(row_of[k], x) for k, x in rest.items() if k in row_of]
            # only the nonzero coordinates' vectors are subtracted: a
            # sum over every target vector would cost the whole basis
            # per column
            for r, c in coords:
                M[r][col] = c
                for k, x in tvecs[r].items():
                    y = rest.get(k, ZERO) - c * x
                    if y:
                        rest[k] = y
                    else:
                        rest.pop(k, None)
            if rest:
                raise ValueError(f"the image of source vector {col} of "
                                 f"degree {n} leaves the span of the "
                                 f"target in degree {n + shift}")
            nonzero = nonzero or bool(coords)
        if nonzero:
            blocks[n] = M
    return blocks


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


def table_from_blocks(source, target, blocks, shift=0):
    """{source gidx: {target gidx: coeff}} from the dense blocks
    {n: block}, block n: source degree n -> target degree n + shift;
    a missing block is zero."""
    table = {}
    for n, M in sorted(blocks.items()):
        targets = target.degree_indices(n + shift)
        for col, src in enumerate(source.degree_indices(n)):
            entry = {targets[r]: row[col] for r, row in enumerate(M)
                     if row[col]}
            if entry:
                table[src] = entry
    return table


class Cochain:
    """A finite-dimensional complex: GradedSpace plus differentials."""

    def __init__(self, space, d):
        """d: mapping degree n -> matrix of d^n : C^n -> C^{n+1}."""
        self.space = space
        self.d = {}
        for n, M in d.items():
            rows, cols = len(M), (len(M[0]) if M else 0)
            if rows != space.dim(n + 1) or \
                    (rows > 0 and cols != space.dim(n)):
                raise ValueError(
                    f"d^{n} has shape {rows}x{cols}, expected "
                    f"{space.dim(n + 1)}x{space.dim(n)}")
            if any(x != 0 for row in M for x in row):
                self.d[n] = [row[:] for row in M]
        for n in list(self.d):
            nxt = self.d_matrix(n + 1)
            dd = mat_mul(nxt, self.d[n])
            if any(x != 0 for row in dd for x in row):
                raise ValueError(f"d^2 != 0 between degrees {n} and {n + 2}")

    def d_matrix(self, n):
        if n in self.d:
            return self.d[n]
        return zero_matrix(self.space.dim(n + 1), self.space.dim(n))

    def cocycles(self, n):
        return kernel_basis(self.d.get(n, []), self.space.dim(n))

    def coboundaries(self, n):
        if n == 0:
            return []
        prev = self.d_matrix(n - 1)
        return span_basis(transpose(prev))

    def cohomology(self, n):
        """Dimension and representative cocycles of H^n.

        Representatives are cocycles that stay independent modulo
        coboundaries (dim = dim ker d^n - rank d^{n-1}).  The cocycle
        basis is 1 on its free columns and 0 on the others', so the
        coordinates of a coboundary over it are its entries there; one
        elimination of those coordinate rows gives rank B, and the
        cocycles off its pivot columns complete B to a basis of Z.
        """
        dim = self.space.dim(n)
        Z, free = sparse_kernel(sparse_from_dense(self.d.get(n, [])), dim,
                                with_free=True)
        coords = [{i: b[f] for i, f in enumerate(free) if b[f]}
                  for b in transpose(self.d.get(n - 1, []))]
        pivots = set(sparse_eliminate(coords)[1])
        reps = [[z.get(j, ZERO) for j in range(dim)]
                for i, z in enumerate(Z) if i not in pivots]
        return len(reps), reps

    def betti_numbers(self, up_to=None):
        top = max(self.space.nonzero_degrees(), default=-1)
        if up_to is None:
            up_to = top
        return [self.cohomology(n)[0] for n in range(up_to + 1)]

    def euler_characteristic(self):
        return sum((-1) ** n * self.space.dim(n)
                   for n in self.space.nonzero_degrees())


class CochainMap:
    """Degreewise matrices commuting with the differentials."""

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = {}
        degs = set(source.space.nonzero_degrees()) | set(blocks)
        for n in degs:
            M = blocks.get(n)
            if M is None:
                M = zero_matrix(target.space.dim(n), source.space.dim(n))
            rows, cols = len(M), (len(M[0]) if M else 0)
            if rows != target.space.dim(n) or \
                    (rows > 0 and cols != source.space.dim(n)):
                raise ValueError(f"block {n} has the wrong shape")
            self.blocks[n] = [row[:] for row in M]
        for n in sorted(self.blocks):
            lhs = mat_mul(target.d_matrix(n), self.block(n))
            rhs = mat_mul(self.block(n + 1), source.d_matrix(n))
            # zero-row matrices drop their column count, so compare
            # entrywise with zero padding
            rows = target.space.dim(n + 1)
            cols = source.space.dim(n)
            for i in range(rows):
                for j in range(cols):
                    a = lhs[i][j] if i < len(lhs) and j < len(lhs[i]) else ZERO
                    b = rhs[i][j] if i < len(rhs) and j < len(rhs[i]) else ZERO
                    if a != b:
                        raise ValueError(
                            f"map does not commute with d in degree {n}")

    def block(self, n):
        if n in self.blocks:
            return self.blocks[n]
        return zero_matrix(self.target.space.dim(n), self.source.space.dim(n))

    def apply(self, n, v):
        return mat_vec(self.block(n), v)


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
        B = f.target.coboundaries(n)
        images = [f.apply(n, z) for z in reps]
        rk_b = len(span_basis(B)) if B else 0
        rk = len(span_basis(B + images)) - rk_b
        if rk != hs:
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
    S, T = f.source, f.target
    degs = sorted(set(d + 1 for d in T.space.nonzero_degrees()) |
                  set(S.space.nonzero_degrees()))
    labels = {}
    for m in degs:
        labs = [("t", lab) for lab in T.space.labels(m - 1)] + \
               [("s", lab) for lab in S.space.labels(m)]
        if labs:
            labels[m] = labs
    top = max(degs, default=0) + 2
    space = GradedSpace(labels, top_degree=max(top, DEFAULT_TOP_DEGREE))
    d = {}
    for m in space.nonzero_degrees():
        tn, sn1 = T.space.dim(m - 1), S.space.dim(m)
        tn1, sn2 = T.space.dim(m), S.space.dim(m + 1)
        M = zero_matrix(tn1 + sn2, tn + sn1)
        dT = T.d_matrix(m - 1)
        for i in range(tn1):
            for j in range(tn):
                M[i][j] = dT[i][j]
        fb = f.block(m)
        for i in range(tn1):
            for j in range(sn1):
                M[i][tn + j] = fb[i][j]
        dS = S.d_matrix(m)
        for i in range(sn2):
            for j in range(sn1):
                M[tn1 + i][tn + j] = -dS[i][j]
        d[m] = M
    return Cochain(space, d)


def is_acyclic(C):
    top = max(C.space.nonzero_degrees(), default=-1)
    return all(C.cohomology(n)[0] == 0 for n in range(top + 1))


def complex_from_dims(dims, mats, top_degree=DEFAULT_TOP_DEGREE):
    """Convenience: anonymous basis labels c{n}_{i}."""
    degrees = {n: [f"c{n}_{i}" for i in range(k)]
               for n, k in dims.items() if k}
    return Cochain(GradedSpace(degrees, top_degree=top_degree), mats)
