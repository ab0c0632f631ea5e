"""Exact linear algebra over the rationals.

Everything in this package reduces to solving linear systems over Q,
and every solve runs through one sparse exact eliminator,
`sparse_eliminate`, on rows stored as dicts col -> scalar (zero values
never stored).  A scalar of the package is an int where it is integral
and a Fraction where it is not: int arithmetic is several times cheaper
than Fraction arithmetic, the two compare and hash equal, and `lower`
turns an integral Fraction into its int.  The systems of this package
are mostly integral, so the eliminator works in ints (a -1 pivot
negates, an int pivot divides exactly where it can), a column ->
pivot-row index names the rows that each new pivot back-substitutes
into, and every value it returns keeps that contract.
A solve is a factorization plus a replay: `sparse_factor` eliminates
a system once and records the row operations, and its `solve` replays
them on each right-hand side, so a system met with many right-hand
sides is eliminated once (`sparse_solve_affine` is one factorization
and one replay).  The eliminator itself sees no right-hand side: the
certificate of an inconsistent one is read off the factor, by
replaying the recorded operations on the rows' unit vectors.  A
kernel is presolved: `sparse_kernel` substitutes the one- and two-term
rows away and eliminates only what is left, and `sparse_free_columns`
stops after that presolve with the free columns alone, the non-pivot
columns of the reduced row echelon form: `Cochain.cohomology` picks
its representatives by them, and a system of one- and two-term rows
is decided by the union-find alone.
A subspace is the list of its `echelon_basis` vectors (dicts over any
sortable keys), a system is a list of sparse rows, and a linear map is
a sparse table {i: {k: coeff}} that `linear_apply` pushes vectors
through.  The dense functions (lists of lists of scalars) are thin
adapters that no other module of the package names: dense Gauss-Jordan
elimination, `rref`, and `coords_in_span`, which factors the basis
once per vector, are kept as the independent references that the
tests compare the sparse path against.  No floats anywhere.
"""

import functools
from fractions import Fraction


def lower(x):
    """x as an int when it is an integral Fraction, x itself otherwise."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class NoSolution:
    """Witness of inconsistency of A x = b.

    certificate is a row vector y with y A = 0 and y . b != 0: a dense
    list from solve_affine, a sparse dict row -> coefficient from
    sparse_solve_affine.  Both are read off the factor of A: the row
    operations that eliminated A, replayed on the unit vectors of its
    rows, give the combination of rows that reduced to 0 = y . b.  Given
    a function that finds the certificate, it runs on the first read.
    """

    def __init__(self, certificate=None):
        self._certificate = certificate

    @property
    def certificate(self):
        if callable(self._certificate):
            self._certificate = self._certificate()
        return self._certificate

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NoSolution(certificate={self.certificate!r})"


# ---------------------------------------------------------------------------
# dense matrices


def rref(A):
    """Reduced row echelon form by dense Gauss-Jordan elimination.

    The test reference for the sparse eliminator; no solver calls it.
    It works in Fractions throughout, independently of the eliminator's
    ints.  Returns (R, pivots).
    """
    R = [[Fraction(x) for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = Fraction(1) / R[r][c]
        if inv != 1:
            R[r] = [x * inv if x else x for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y if y else x for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


# dense adapters over the sparse eliminator


def _densify(v, n):
    out = [0] * n
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
    res = sparse_factor(sparse_from_dense(A), n).solve(b)
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
    res = sparse_factor(sparse_columns(sparse_from_dense(basis),
                                       range(len(v))), len(basis)).solve(v)
    if isinstance(res, NoSolution):
        return None
    return _densify(res[0], len(basis))


def intersect_spans(B1, B2):
    """Echelonized basis of span(B1) & span(B2)."""
    n = len(B1[0]) if B1 else 0
    return [_densify(v, n) for v in span_intersection(sparse_from_dense(B1),
                                                      sparse_from_dense(B2))]


# ---------------------------------------------------------------------------
# sparse rows: dict col -> scalar (zero values never stored)


def linear_apply(table, x):
    """x pushed through a linear table {i: {k: coeff}}."""
    out = {}
    for i, a in x.items():
        entry = table.get(i)
        if not entry:
            continue
        for k, c in entry.items():
            v = out.get(k, 0) + a * c
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


_INT = frozenset((int,))


def _all_int(values):
    return set(map(type, values)) <= _INT


def _div(x, p):
    # x / p for an int pivot p: an int where p divides x
    if type(x) is int and not x % p:
        return x // p
    return lower(Fraction(x, p))


def _over(x, p):
    # x / p for a pivot p, an int or a Fraction
    if type(p) is int:
        return _div(x, p)
    return lower(x * Fraction(p.denominator, p.numerator))


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


def sparse_eliminate(rows, ops=None):
    """Gauss-Jordan elimination on sparse rows.

    Returns (pivot_rows, pivot_cols).  Each pivot row has coefficient 1
    on its pivot column and 0 on every other pivot column.  A new pivot
    is the least column of a row already reduced against the earlier
    pivots, so it is the leading column of a vector of the row space; a
    subspace has exactly as many leading columns as its dimension, so
    the pivots are the leftmost independent columns whatever order the
    rows are taken in, and the pivot rows sorted by pivot column are the
    reduced row echelon form.

    Two things keep the elimination cheap without changing its result.
    Entries stay int where they are integral (an integral Fraction is
    lowered on the way in), and an int pivot p normalizes its row by
    x // p where p divides x, so an integral system is eliminated in
    ints alone.  Only once a Fraction has entered the elimination are
    the pivot rows lowered again, so every value returned is an int
    exactly when it is integral.  And a column -> pivot-row index
    names the pivot rows that a new pivot row back-substitutes into, so
    no pass scans every pivot row.

    ops, when a list, receives the row operations applied, one entry
    (i, reductions, pivot, back) per original row i in the order the
    rows are taken: reductions lists k1, f1, k2, f2, ... for row -= f *
    pivot row k, pivot is the value the reduced row was divided by
    (None when it reduced to zero), back lists k1, f1, ... for pivot
    row k -= f * row.  `SparseFactor` replays them, on a right-hand
    side to solve and on the rows' unit vectors for a certificate.
    """
    # whether a Fraction has entered: until then every value is an int
    fractional = False
    work = []
    for r in rows:
        if _all_int(r.values()):
            work.append(dict(r))
        else:
            r = {j: lower(x) for j, x in r.items()}
            fractional = fractional or not _all_int(r.values())
            work.append(r)
    pivot_of_col = {}
    holders = {}
    pivot_rows = []
    pivot_cols = []
    # process rows in order of sparsity for less fill-in
    for i in sorted(range(len(work)), key=lambda i: len(work[i])):
        row = work[i]
        reductions = [] if ops is not None else None
        # pivot rows vanish on every other pivot column, so one pass
        # over the pivot columns present reduces the row
        for j in [j for j in row if j in pivot_of_col]:
            k = pivot_of_col[j]
            f = row[j]
            _axpy(row, f, pivot_rows[k])
            if reductions is not None:
                reductions += (k, f)
        if not row:
            # the row is a combination of the others
            if ops is not None:
                ops.append((i, tuple(reductions), None, ()))
            continue
        pj = min(row)
        p = row[pj]
        if p == -1:
            row = {j: -x for j, x in row.items()}
        elif p != 1:
            if type(p) is int:
                row = {j: _div(x, p) for j, x in row.items()}
                if not fractional:
                    fractional = not _all_int(row.values())
            else:
                row = {j: _over(x, p) for j, x in row.items()}
        # back-substitute into the earlier pivot rows nonzero on pj
        back = [] if ops is not None else None
        for k in holders.pop(pj, ()):
            f = pivot_rows[k][pj]
            _back_substitute(pivot_rows[k], k, f, row, pj, holders)
            if back is not None:
                back += (k, f)
        if ops is not None:
            ops.append((i, tuple(reductions), p, tuple(back)))
        k = len(pivot_rows)
        for j in row:
            if j != pj:
                holders.setdefault(j, set()).add(k)
        pivot_of_col[pj] = k
        pivot_rows.append(row)
        pivot_cols.append(pj)
    if fractional:
        # Fraction arithmetic can end on an integral value
        pivot_rows = [{j: lower(x) for j, x in row.items()}
                      for row in pivot_rows]
    return pivot_rows, pivot_cols


def echelon_basis(vectors):
    """The reduced row echelon basis of the span of sparse vectors over
    sortable keys: ordered by pivot key, each vector 1 on its pivot key
    and 0 on the others', keys listed in increasing order.  Equal spans
    give equal bases."""
    keys = sorted({k for v in vectors for k in v})
    col = {k: j for j, k in enumerate(keys)}
    pivot_rows, pivot_cols = sparse_eliminate(
        [{col[k]: c for k, c in v.items() if c} for v in vectors])
    return [{keys[j]: row[j] for j in sorted(row)}
            for _, row in sorted(zip(pivot_cols, pivot_rows),
                                 key=lambda pr: pr[0])]


def span_intersection(vectors1, vectors2):
    """The echelon_basis of span(vectors1) & span(vectors2), for sparse
    vectors over sortable keys.

    Zassenhaus: one echelon basis of the pairs (v, v), v in vectors1,
    and (w, 0), w in vectors2, keyed (0, k) and (1, k).  The row space
    is the (v + w, v) with v in span(vectors1) and w in span(vectors2),
    and it vanishes on the first copy exactly when v = -w lies in both
    spans; the basis vectors whose pivot lies in the second copy, read
    on that copy, are the reduced echelon basis of those v."""
    pairs = [{**{(0, k): x for k, x in v.items()},
              **{(1, k): x for k, x in v.items()}} for v in vectors1]
    pairs += [{(0, k): x for k, x in w.items()} for w in vectors2]
    return [{k: x for (_, k), x in b.items()}
            for b in echelon_basis(pairs) if next(iter(b))[0] == 1]


def _kernel(pivot_rows, pivot_cols, ncols):
    """Kernel basis from fully reduced pivot rows, one vector per free
    column f: 1 on f, minus row i's f-entry on pivot column i."""
    pivset = set(pivot_cols)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivset}
    for prow, pcol in zip(pivot_rows, pivot_cols):
        for j, c in prow.items():
            v = basis.get(j)
            if v is not None:
                v[pcol] = -c
    return basis


def _find(parent, ratio, j):
    # (root, ratio to the root) of column j, compressing its path
    path = []
    while parent[j] != j:
        path.append(j)
        j = parent[j]
    r = 1
    for i in reversed(path):
        r = ratio[i] * r
        if type(r) is not int:
            r = lower(r)
        parent[i], ratio[i] = j, r
    return j, r


def _rewrite(row, parent, ratio, zero):
    # row over the roots of its columns' live classes, zero terms dropped
    out = {}
    for j, a in row.items():
        p = parent[j]
        if p != j:
            if parent[p] != p:
                p = _find(parent, ratio, j)[0]
            a = a * ratio[j]
        if zero[p]:
            continue
        if p in out:
            a += out[p]
            if not a:
                del out[p]
                continue
        out[p] = a
    return out


def _presolve(rows, ncols):
    """The scaled union-find presolve of `sparse_kernel` and
    `sparse_free_columns`: (parent, ratio, zero, pivot_rows, pivot_cols,
    free), where column j is x_j = ratio[j] x_parent[j] unless its class
    is zeroed, the pivot rows and columns are those of the remaining
    system over the roots, and free lists the free columns in
    increasing order."""
    parent = list(range(ncols))
    ratio = [1] * ncols
    zero = [False] * ncols
    rest = []
    for row in sorted(rows, key=len):
        row = _rewrite(row, parent, ratio, zero)
        if len(row) > 2:
            rest.append(row)
        elif len(row) == 2:
            # a x_lo + b x_hi = 0 merges lo's class into hi's
            (lo, a), (hi, b) = row.items()
            if lo > hi:
                (lo, a), (hi, b) = (hi, b), (lo, a)
            parent[lo] = hi
            ratio[lo] = _over(-b, a)
        elif row:
            zero[next(iter(row))] = True
    rest = [r for r in (_rewrite(row, parent, ratio, zero) for row in rest)
            if r]
    pivot_rows, pivot_cols = sparse_eliminate(rest)
    pivots = set(pivot_cols)
    free = [j for j in range(ncols)
            if parent[j] == j and not zero[j] and j not in pivots]
    return parent, ratio, zero, pivot_rows, pivot_cols, free


def sparse_free_columns(rows, ncols):
    """The free columns, in increasing order, of a sparse homogeneous
    system over the columns 0..ncols-1: the columns that are not pivots
    of its reduced row echelon form with leftmost pivots, so the
    complement of `sparse_eliminate(rows)[1]`, and the largest keys of
    the `sparse_kernel` vectors.

    Read off the presolve of `sparse_kernel` without expanding a kernel:
    a free column is a root of a live class (a column merged into a
    class lies left of its root, so it is a pivot) that is not a pivot
    of the remaining system.  A system of one- and two-term rows hands
    `sparse_eliminate` no row at all.
    """
    return _presolve(rows, ncols)[-1]


def sparse_kernel(rows, ncols):
    """Kernel basis (list of sparse vectors) of a sparse homogeneous
    system over the columns 0..ncols-1.

    Basis vector i has coefficient 1 on its free column and 0 on every
    other free column, and no column right of its own free one, so
    coordinates over the basis are lookups; it is the basis that the
    reduced row echelon form with leftmost pivots gives, and the vectors
    come in the order of their free columns (`sparse_free_columns`).  A
    vector's free column is its largest key.

    One- and two-term rows are presolved by substitution before any
    elimination.  A scaled union-find keeps every column j as
    x_j = c x_root of its class, or in a zeroed class, which has no
    root.  The rows are taken in order of length, each rewritten over
    the roots: a row that rewrites to one term zeroes its class, one
    that rewrites to two terms merges their classes, and one that
    rewrites to nothing is dropped.  The rest, rewritten over the final
    roots, go to one `sparse_eliminate` call.  The root of a class is
    its largest column, so a kernel vector of the remaining system,
    expanded back over the classes, has its largest column where it had
    it, at a root; the leftmost-pivot kernel basis of the remaining
    system, 1 on its free root and 0 on the other free roots, therefore
    expands to vectors that are 1 on their own free column, 0 on every
    other free column, and 0 right of their own: the unique reduced
    basis of the kernel, with no second echelon pass.  Its free columns
    are the free roots, which `sparse_free_columns` returns alone.
    """
    parent, ratio, zero, pivot_rows, pivot_cols, free = _presolve(rows,
                                                                  ncols)
    # the remaining system's kernel by root: the (free root, entry)
    # pairs of each live root on the kernel vectors
    entries = {f: ((f, 1),) for f in free}
    for prow, pcol in zip(pivot_rows, pivot_cols):
        entries[pcol] = [(f, -c) for f, c in prow.items() if f != pcol]
    basis = {f: {f: 1} for f in free}
    # roots and their children are read without a call to _find
    for j, p in enumerate(parent):
        if p == j:
            if zero[j] or j in basis:
                continue
            r = 1
        elif parent[p] == p:
            if zero[p]:
                continue
            r = ratio[j]
        else:
            p, r = _find(parent, ratio, j)
            if zero[p]:
                continue
        for f, c in entries[p]:
            v = c * r
            basis[f][j] = v if type(v) is int else lower(v)
    return list(basis.values())


class SparseFactor:
    """A sparse system A eliminated once, solved per right-hand side.

    rows are the rows of A as tuples of (column, coefficient) pairs, a
    compact copy of the sparse rows given, since a factor may be kept as
    long as the algebra whose system it solves; ncols is A's number of
    columns.  `sparse_factor` builds it from its one `sparse_eliminate`
    call, which leaves the pivot columns, the kernel and the row
    operations applied (ops).  `solve` replays those operations on a
    right-hand side, and the certificate of an inconsistent one is read
    off the same operations, so no right-hand side eliminates A again.
    """

    def __init__(self, rows, ncols, pivot_cols, kernel, ops):
        self.rows = tuple(tuple(row.items()) for row in rows)
        self.ncols = ncols
        self._pivot_cols = pivot_cols
        self._kernel = kernel
        self._ops = ops

    def solve(self, rhs):
        """(x0, kernel) with A x0 = rhs, or a NoSolution: x0 is zero on
        the free columns and lists the pivots in the order the
        elimination found them, kernel vector i is 1 on the i-th free
        column and 0 on the others.  The replay stops at the first row
        that reduces to 0 = c != 0; the certificate of the NoSolution is
        the combination of original rows that row reduced to, read off
        the recorded operations replayed on the rows' unit vectors when
        the certificate is first read."""
        if len(rhs) != len(self.rows):
            raise ValueError(f"dimension mismatch: {len(self.rows)} rows "
                             f"vs rhs of length {len(rhs)}")
        rvals = [lower(x) for x in rhs]
        pivot_rhs = []
        for i, reductions, p, back in self._ops:
            rv = rvals[i]
            if reductions:
                pairs = iter(reductions)
                for k, f in zip(pairs, pairs):
                    rv = rv - f * pivot_rhs[k]
            if p is None:
                if rv:
                    return NoSolution(
                        functools.partial(self._certificate, i))
                continue
            if p == -1:
                rv = -rv
            elif p != 1:
                rv = _over(rv, p)
            if back:
                pairs = iter(back)
                for k, f in zip(pairs, pairs):
                    pivot_rhs[k] = pivot_rhs[k] - f * rv
            pivot_rhs.append(rv)
        x0 = {c: lower(x) for c, x in zip(self._pivot_cols, pivot_rhs) if x}
        return x0, [dict(v) for v in self._kernel]

    def _certificate(self, stop):
        """The combination of original rows that row `stop` reduced to,
        as a sparse dict row -> coefficient: the recorded operations
        replayed on the unit vectors of the rows, up to row stop."""
        combos = []
        for i, reductions, p, back in self._ops:
            y = {i: 1}
            pairs = iter(reductions)
            for k, f in zip(pairs, pairs):
                _axpy(y, f, combos[k])
            if i == stop:
                return {j: lower(x) for j, x in y.items()}
            if p is None:
                continue
            if p != 1:
                y = {j: _over(x, p) for j, x in y.items()}
            pairs = iter(back)
            for k, f in zip(pairs, pairs):
                _axpy(combos[k], f, y)
            combos.append(y)


def sparse_factor(rows, ncols):
    """The SparseFactor of the sparse rows over ncols columns."""
    ops = []
    pivot_rows, pivot_cols = sparse_eliminate(rows, ops=ops)
    kernel = list(_kernel(pivot_rows, pivot_cols, ncols).values())
    return SparseFactor(rows, ncols, pivot_cols, kernel, ops)


def sparse_solve_affine(rows, rhs, ncols):
    """Sparse analogue of solve_affine: x0 and the kernel vectors are
    sparse dicts, and a NoSolution carries its certificate as a sparse
    dict original row -> coefficient.  One factorization, one replay."""
    return sparse_factor(rows, ncols).solve(rhs)
