"""Exact linear algebra over the rationals.

Everything in this package reduces to solving linear systems over Q,
and every solve runs through one sparse exact eliminator,
`sparse_eliminate`, on rows stored as dicts col -> Fraction (zero
values never stored).  The systems of this package are mostly
integral, so inside it integer-valued entries and right-hand sides
stay int (a -1 pivot negates, an int pivot divides exactly where it
can), a column -> pivot-row index names the rows that each new pivot
back-substitutes into, and every value it returns is a Fraction.
A subspace is the list of its `echelon_basis` vectors (dicts over any
sortable keys), a system is a list of sparse rows, and a linear map is
a sparse table {i: {k: coeff}} that `linear_apply` pushes vectors
through.  The dense functions (lists of lists of Fraction) are thin
adapters that no other module of the package names: dense Gauss-Jordan
elimination, `rref`, and `coords_in_span`, which eliminates the basis
once per vector, are kept as the independent references that the
tests compare the sparse path against.  No floats anywhere.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    """Coerce ints, strings like "3/4", and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational out of {x!r}")


class NoSolution:
    """Witness of inconsistency of A x = b.

    certificate is a row vector y with y A = 0 and y . b != 0: a dense
    list from solve_affine, a sparse dict row -> coefficient from
    sparse_solve_affine.
    """

    def __init__(self, certificate=None):
        self.certificate = certificate

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NoSolution(certificate={self.certificate!r})"


# ---------------------------------------------------------------------------
# dense matrices


def zero_vector(n):
    return [ZERO] * n


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(A, track=False):
    """Reduced row echelon form by dense Gauss-Jordan elimination.

    The test reference for the sparse eliminator; no solver calls it.
    Returns (R, pivots) or, with track=True, (R, pivots, T) where T is
    the invertible transform with R = T A.
    """
    R = [row[:] for row in A]
    m = len(R)
    n = len(R[0]) if R else 0
    T = identity(m) if track else None
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        if track:
            T[r], T[p] = T[p], T[r]
        inv = ONE / R[r][c]
        if inv != 1:
            R[r] = [x * inv if x else x for x in R[r]]
            if track:
                T[r] = [x * inv if x else x for x in T[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y if y else x for x, y in zip(R[i], R[r])]
                if track:
                    T[i] = [x - f * y if y else x for x, y in zip(T[i], T[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if track:
        return R, pivots, T
    return R, pivots


# dense adapters over the sparse eliminator


def _densify(v, n):
    out = [ZERO] * n
    for j, x in v.items():
        out[j] = x
    return out


def kernel_basis(A, ncols=None):
    """Basis of {x : A x = 0}; ncols needed when A has no rows."""
    if ncols is None:
        if not A:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(A[0])
    return [_densify(v, ncols) for v in sparse_kernel(sparse_from_dense(A),
                                                      ncols)]


def solve_affine(A, b):
    """Solve A x = b exactly.

    Returns (x0, kernel) with A x0 = b and kernel a basis of the
    homogeneous solutions, or a NoSolution carrying a certificate row.
    x0 is zero on the free columns and kernel vector i is the unit
    vector of the i-th free column minus the pivot-column entries, so
    both match what the reduced row echelon form gives.
    """
    m = len(A)
    if len(b) != m:
        raise ValueError(f"dimension mismatch: {m} rows vs rhs of length {len(b)}")
    n = len(A[0]) if A else 0
    res = _solve(sparse_from_dense(A), b, n)
    if isinstance(res, NoSolution):
        return NoSolution(certificate=_densify(res.certificate, m))
    x0, kernel = res
    return _densify(x0, n), [_densify(v, n) for v in kernel]


def span_basis(vectors):
    """Echelonized basis of the span of the given dense vectors."""
    n = len(vectors[0]) if vectors else 0
    return [_densify(v, n) for v in echelon_basis(sparse_from_dense(vectors))]


def coords_in_span(basis, v):
    """Coefficients of v over basis, or None if v is outside the span."""
    if not basis:
        return None if any(a != 0 for a in v) else []
    if len(basis[0]) != len(v):
        raise ValueError(f"dimension mismatch: basis vectors of length "
                         f"{len(basis[0])} vs vector of length {len(v)}")
    _, pivot_cols, pivot_rhs, bad = sparse_eliminate(
        sparse_columns(sparse_from_dense(basis), range(len(v))), v)
    if bad is not None:
        return None
    coords = zero_vector(len(basis))
    for p, x in zip(pivot_cols, pivot_rhs):
        coords[p] = x
    return coords


def span_contains(basis, v):
    return coords_in_span(basis, v) is not None


def intersect_spans(B1, B2):
    """Echelonized basis of span(B1) & span(B2)."""
    n = len(B1[0]) if B1 else 0
    return [_densify(v, n) for v in span_intersection(sparse_from_dense(B1),
                                                      sparse_from_dense(B2))]


# ---------------------------------------------------------------------------
# sparse rows: dict col -> Fraction (zero values never stored)


def linear_apply(table, x):
    """x pushed through a linear table {i: {k: coeff}}."""
    out = {}
    for i, a in x.items():
        entry = table.get(i)
        if not entry:
            continue
        for k, c in entry.items():
            v = out.get(k, ZERO) + a * c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def sparse_from_dense(A):
    return [{j: x for j, x in enumerate(row) if x != 0} for row in A]


def sparse_columns(vectors, keys):
    """Sparse rows, one per key, of the matrix whose column j is the
    sparse vector vectors[j] (a dict key -> coefficient over keys)."""
    row_of = {k: i for i, k in enumerate(keys)}
    rows = [{} for _ in row_of]
    for j, vec in enumerate(vectors):
        for k, x in vec.items():
            if x:
                rows[row_of[k]][j] = x
    return rows


def _lower(x):
    # an integer-valued rational as an int: int arithmetic is several
    # times cheaper than Fraction arithmetic, and the values are equal
    return x.numerator if x.denominator == 1 else x


# small ints, the most common results, as shared (immutable) Fractions
_SMALL = {n: Fraction(n) for n in range(-64, 65)}


def _fraction(x):
    return x if type(x) is Fraction else _SMALL.get(x) or Fraction(x)


def _div(x, p):
    # x / p for an int pivot p: an int where p divides x
    if type(x) is int and not x % p:
        return x // p
    return _lower(Fraction(x, p))


def _axpy(row, f, pivot_row):
    # row -= f * pivot_row, in place
    for j, x in pivot_row.items():
        v = row.get(j, 0) - f * x
        if v:
            row[j] = v
        else:
            del row[j]


def _back_substitute(prow, k, f, row, pj, holders):
    # prow -= f * row, in place, for the new pivot row `row` (1 on pj),
    # keeping holders (column -> pivot rows nonzero there) up to date
    del prow[pj]
    for j, x in row.items():
        if j == pj:
            continue
        old = prow.get(j)
        if old is None:
            prow[j] = -f * x
            holders.setdefault(j, set()).add(k)
            continue
        v = old - f * x
        if v:
            prow[j] = v
        else:
            del prow[j]
            holders[j].discard(k)


def sparse_eliminate(rows, rhs=None, track=False):
    """Gauss-Jordan elimination on sparse rows.

    Returns (pivot_rows, pivot_cols, pivot_rhs, inconsistent).  Each
    pivot row has coefficient 1 on its pivot column and 0 on every
    other pivot column.  A new pivot is the least column of a row
    already reduced against the earlier pivots, so it is the leading
    column of a vector of the row space; a subspace has exactly as many
    leading columns as its dimension, so the pivots are the leftmost
    independent columns whatever order the rows are taken in, and the
    pivot rows sorted by pivot column are the reduced row echelon form.

    inconsistent is None unless rhs is given and a row reduces to
    0 = c != 0.  Then it is the index of that original row or, with
    track=True, the certificate: a sparse dict y (original row ->
    coefficient) with y A = 0 and y . rhs = c.  Tracking extends row i
    by a tag column past every real column, so each reduced row carries
    the combination of original rows that it is; the tag columns are
    stripped from the pivot rows returned.

    Two things keep the elimination cheap without changing its result.
    Integer-valued entries are held as int while eliminating, and an
    int pivot p normalizes its row by x // p where p divides x (every
    value returned is a Fraction again).  And a column -> pivot-row
    index names the pivot rows that a new pivot row back-substitutes
    into, so no pass scans every pivot row.
    """
    rvals = [_lower(x) for x in rhs] if rhs is not None else [0] * len(rows)
    tag = 1 + max((max(r) for r in rows if r), default=-1)
    work = [{j: x.numerator if x.denominator == 1 else x
             for j, x in r.items()} for r in rows]
    if track:
        for i, row in enumerate(work):
            row[tag + i] = 1
    pivot_of_col = {}
    holders = {}
    pivot_rows = []
    pivot_cols = []
    pivot_rhs = []
    bad = None
    # process rows in order of sparsity for less fill-in
    for i in sorted(range(len(work)), key=lambda i: len(work[i])):
        row, rv = work[i], rvals[i]
        # pivot rows vanish on every other pivot column, so one pass
        # over the pivot columns present reduces the row
        for j in [j for j in row if j in pivot_of_col]:
            k = pivot_of_col[j]
            f = row[j]
            _axpy(row, f, pivot_rows[k])
            rv = rv - f * pivot_rhs[k]
        pj = min(row, default=tag)
        if pj >= tag:
            # no real column left: the row is a combination of the others
            if rv:
                bad = {j - tag: _fraction(x) for j, x in row.items()} \
                    if track else i
                break
            continue
        p = row[pj]
        if p == -1:
            row = {j: -x for j, x in row.items()}
            rv = -rv
        elif p != 1:
            if type(p) is int:
                row = {j: _div(x, p) for j, x in row.items()}
                rv = _div(rv, p)
            else:
                inv = ONE / p
                row = {j: _lower(x * inv) for j, x in row.items()}
                rv = _lower(rv * inv)
        # back-substitute into the earlier pivot rows nonzero on pj
        for k in holders.pop(pj, ()):
            f = pivot_rows[k][pj]
            _back_substitute(pivot_rows[k], k, f, row, pj, holders)
            pivot_rhs[k] = pivot_rhs[k] - f * rv
        k = len(pivot_rows)
        for j in row:
            if j != pj:
                holders.setdefault(j, set()).add(k)
        pivot_of_col[pj] = k
        pivot_rows.append(row)
        pivot_cols.append(pj)
        pivot_rhs.append(rv)
    pivot_rows = [{j: x if type(x) is Fraction else _SMALL.get(x) or
                   Fraction(x) for j, x in row.items() if j < tag}
                  for row in pivot_rows]
    pivot_rhs = [_fraction(x) for x in pivot_rhs] if rhs is not None \
        else [ZERO] * len(pivot_rows)
    return pivot_rows, pivot_cols, pivot_rhs, bad


def echelon_basis(vectors):
    """The reduced row echelon basis of the span of sparse vectors over
    sortable keys: ordered by pivot key, each vector 1 on its pivot key
    and 0 on the others', keys listed in increasing order.  Equal spans
    give equal bases."""
    keys = sorted({k for v in vectors for k in v})
    col = {k: j for j, k in enumerate(keys)}
    pivot_rows, pivot_cols, _, _ = sparse_eliminate(
        [{col[k]: c for k, c in v.items() if c} for v in vectors])
    return [{keys[j]: row[j] for j in sorted(row)}
            for _, row in sorted(zip(pivot_cols, pivot_rows),
                                 key=lambda pr: pr[0])]


def span_intersection(vectors1, vectors2):
    """The echelon_basis of span(vectors1) & span(vectors2), for sparse
    vectors over sortable keys."""
    keys = sorted({k for v in vectors1 + vectors2 for k in v})
    if not keys or not vectors1 or not vectors2:
        return []
    # combinations (a, b) with sum a_i v1_i - sum b_j v2_j = 0
    n1 = len(vectors1)
    cols = sparse_columns(vectors1 + [{k: -x for k, x in v.items()}
                                      for v in vectors2], keys)
    inter = []
    for comb in sparse_kernel(cols, n1 + len(vectors2)):
        w = {}
        for i in sorted(i for i in comb if i < n1):
            for k, x in vectors1[i].items():
                w[k] = w.get(k, 0) + comb[i] * x
        inter.append(w)
    return echelon_basis(inter)


def _kernel(pivot_rows, pivot_cols, ncols):
    """Kernel basis from fully reduced pivot rows, one vector per free
    column f: 1 on f, minus row i's f-entry on pivot column i."""
    pivset = set(pivot_cols)
    basis = {f: {f: ONE} for f in range(ncols) if f not in pivset}
    for prow, pcol in zip(pivot_rows, pivot_cols):
        for j, c in prow.items():
            v = basis.get(j)
            if v is not None:
                v[pcol] = -c
    return basis


def sparse_kernel(rows, ncols, with_free=False):
    """Kernel basis (list of sparse vectors) of a sparse homogeneous system.

    Basis vector i has coefficient 1 on its free column and 0 on every
    other free column, so coordinates over the basis are lookups; pass
    with_free=True to get the free columns alongside.
    """
    pivot_rows, pivot_cols, _, _ = sparse_eliminate(rows)
    basis = _kernel(pivot_rows, pivot_cols, ncols)
    if with_free:
        return list(basis.values()), list(basis)
    return list(basis.values())


def _solve(rows, rhs, ncols):
    # the body shared by solve_affine and sparse_solve_affine
    pivot_rows, pivot_cols, pivot_rhs, bad = sparse_eliminate(rows, rhs)
    if bad is not None:
        return NoSolution(sparse_eliminate(rows, rhs, track=True)[3])
    x0 = {p: x for p, x in zip(pivot_cols, pivot_rhs) if x}
    return x0, list(_kernel(pivot_rows, pivot_cols, ncols).values())


def sparse_solve_affine(rows, rhs, ncols):
    """Sparse analogue of solve_affine: x0 and the kernel vectors are
    sparse dicts, and a NoSolution carries its certificate as a sparse
    dict original row -> coefficient."""
    return _solve(rows, rhs, ncols)
