import ast
import copy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dgdescent import linalg
from dgdescent.linalg import (NoSolution, coords_in_span, echelon_basis,
                              intersect_spans, kernel_basis,
                              lower, rref, solve_affine, span_basis,
                              span_intersection, sparse_columns,
                              sparse_eliminate, sparse_factor,
                              sparse_free_columns, sparse_from_dense,
                              sparse_kernel, sparse_solve_affine)

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src" / "dgdescent"


# dense helpers of the tests only; rank reads the dense rref reference,
# so rank-nullity checks the sparse eliminator against it


def mat_vec(A, v):
    if A and len(A[0]) != len(v):
        raise ValueError(f"dimension mismatch: {len(A[0])} columns vs "
                         f"vector of length {len(v)}")
    return [sum((row[j] * v[j] for j in range(len(v))), F(0)) for row in A]


def transpose(A):
    if not A:
        return []
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


def rank(A):
    return len(rref(A)[1])


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def M(rows):
    return [[F(x) for x in row] for row in rows]


def V(xs):
    return [F(x) for x in xs]


def test_solve_identity():
    x0, ker = solve_affine(identity(2), V([1, 2]))
    assert x0 == V([1, 2])
    assert ker == []


def test_solve_inconsistent_with_certificate():
    res = solve_affine(M([[0]]), V([1]))
    assert isinstance(res, NoSolution)
    y = res.certificate
    assert mat_vec(transpose(M([[0]])), y) == V([0])
    assert sum(a * b for a, b in zip(y, V([1]))) != 0


def test_solve_underdetermined():
    # two equations, three unknowns, one-dimensional kernel
    A = M([[1, 1, 0], [0, 1, 1]])
    b = V([1, 1])
    x0, ker = solve_affine(A, b)
    assert mat_vec(A, x0) == b
    assert len(ker) == 1
    assert mat_vec(A, ker[0]) == V([0, 0])


def test_certificate_for_taller_system():
    A = M([[1, 0], [0, 1], [1, 1]])
    b = V([1, 1, 3])
    res = solve_affine(A, b)
    assert isinstance(res, NoSolution)
    y = res.certificate
    assert mat_vec(transpose(A), y) == V([0, 0])
    assert sum(a * c for a, c in zip(y, b)) != 0


def test_kernel_and_rank():
    A = M([[1, 2, 3], [2, 4, 6]])
    assert rank(A) == 1
    ker = kernel_basis(A)
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(A, v) == V([0, 0])


def test_span_membership_and_intersection():
    b1 = [V([1, 0, 0]), V([0, 1, 0])]
    b2 = [V([0, 1, 0]), V([0, 0, 1])]
    inter = intersect_spans(b1, b2)
    assert len(inter) == 1
    assert coords_in_span(inter, V([0, 5, 0])) is not None
    assert coords_in_span(b1, V([2, 3, 0])) == V([2, 3])
    assert coords_in_span(b1, V([0, 0, 1])) is None


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def matrix_and_vector(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    A = [[F(draw(small_entries)) for _ in range(n)] for _ in range(m)]
    x = [F(draw(small_entries)) for _ in range(n)]
    return A, x


@given(matrix_and_vector())
@settings(max_examples=60, deadline=None)
def test_solutions_verify_by_substitution(Ax):
    # build b from a known solution so the system is consistent,
    # then check the solver's outputs by direct substitution
    A, x = Ax
    b = mat_vec(A, x)
    res = solve_affine(A, b)
    assert not isinstance(res, NoSolution)
    x0, ker = res
    assert mat_vec(A, x0) == b
    for k in ker:
        assert mat_vec(A, k) == [F(0)] * len(A)
    # kernel dimension from the rank-nullity count
    assert len(ker) == len(A[0]) - rank(A)


def dense_reference(A, b):
    """x0 (zero on free columns), kernel basis and row-space basis read
    off the dense reduced row echelon form of [A | b]."""
    n = len(A[0])
    R, pivots = rref([row + [bv] for row, bv in zip(A, b)])
    assert n not in pivots
    x0 = [F(0)] * n
    for i, p in enumerate(pivots):
        x0[p] = R[i][n]
    kernel = []
    for f in (j for j in range(n) if j not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        kernel.append(v)
    R, pivots = rref(A)
    return x0, kernel, [R[i] for i in range(len(pivots))]


def densify(v, n):
    return [v.get(j, F(0)) for j in range(n)]


@given(matrix_and_vector())
@settings(max_examples=40, deadline=None)
def test_sparse_matches_dense(Ax):
    A, x = Ax
    n = len(A[0])
    b = mat_vec(A, x)
    dense = solve_affine(A, b)
    sparse = sparse_solve_affine(sparse_from_dense(A), b, n)
    assert not isinstance(sparse, NoSolution)
    x0, ker = sparse
    xv = [x0.get(j, F(0)) for j in range(len(A[0]))]
    assert mat_vec(A, xv) == b
    assert len(ker) == len(dense[1])
    dker = sparse_kernel(sparse_from_dense(A), len(A[0]))
    assert len(dker) == len(dense[1])
    # equal, not just the same count, to what the dense rref gives
    ref_x0, ref_kernel, ref_rows = dense_reference(A, b)
    assert dense == (ref_x0, ref_kernel)
    assert xv == ref_x0
    assert [densify(v, n) for v in ker] == ref_kernel
    assert [densify(v, n) for v in dker] == ref_kernel
    assert kernel_basis(A) == ref_kernel
    assert span_basis(A) == ref_rows
    assert rank(A) == len(ref_rows)


@st.composite
def inconsistent_system(draw):
    """A x = b with b outside the column space: one row of A is a
    combination of the others, so A has a nonzero left-kernel vector
    y, and b = A x + y has y . b = y . y != 0."""
    A, x = draw(matrix_and_vector())
    coeffs = [F(draw(small_entries)) for _ in A]
    A = A + [[sum((c * row[j] for c, row in zip(coeffs, A)), F(0))
              for j in range(len(A[0]))]]
    y = [-c for c in coeffs] + [F(1)]
    b = [bi + yi for bi, yi in zip(mat_vec(A, x), y)]
    return A, b


def assert_certificate(A, b, y):
    assert len(y) == len(A)
    assert mat_vec(transpose(A), y) == [F(0)] * len(A[0])
    assert sum((yi * bi for yi, bi in zip(y, b)), F(0)) != 0


@given(inconsistent_system())
@settings(max_examples=40, deadline=None)
def test_inconsistent_systems_certified(Ab):
    A, b = Ab
    res = solve_affine(A, b)
    assert isinstance(res, NoSolution)
    assert_certificate(A, b, res.certificate)
    res = sparse_solve_affine(sparse_from_dense(A), b, len(A[0]))
    assert isinstance(res, NoSolution)
    assert all(c != 0 for c in res.certificate.values())
    assert_certificate(A, b, densify(res.certificate, len(A)))


mixed_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3),
                                 F(5, 4)])


@st.composite
def mixed_system(draw):
    """A x = b with integer and non-integer rational entries, consistent
    or not; the sparse rows hold some integers as int."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    raw = [[draw(mixed_entries) for _ in range(n)] for _ in range(m)]
    b = [F(draw(mixed_entries)) for _ in range(m)]
    rows = [{j: x if draw(st.booleans()) else F(x)
             for j, x in enumerate(row) if x} for row in raw]
    return [[F(x) for x in row] for row in raw], b, rows


@given(mixed_system())
@settings(max_examples=80, deadline=None)
def test_sparse_paths_match_rref_on_mixed_rationals(system):
    A, b, rows = system
    n = len(A[0])
    R, pivots = rref(A)
    pivot_rows, pivot_cols = sparse_eliminate(rows)
    ordered = sorted(zip(pivot_cols, pivot_rows), key=lambda pr: pr[0])
    assert [p for p, _ in ordered] == pivots
    assert [densify(row, n) for _, row in ordered] == R[:len(pivots)]
    res = sparse_solve_affine(rows, b, n)
    if n in rref([row + [bv] for row, bv in zip(A, b)])[1]:
        assert isinstance(res, NoSolution)
        assert_certificate(A, b, densify(res.certificate, len(A)))
        return
    x0, kernel = res
    ref_x0, ref_kernel, _ = dense_reference(A, b)
    assert densify(x0, n) == ref_x0
    assert [densify(v, n) for v in kernel] == ref_kernel


def rref_solution(A, b, ncols):
    """(x0, kernel) read off the dense rref of [A | b], or None when b
    is outside the column space."""
    R, pivots = rref([row + [bv] for row, bv in zip(A, b)])
    if ncols in pivots:
        return None
    x0 = [F(0)] * ncols
    for i, p in enumerate(pivots):
        x0[p] = R[i][ncols]
    kernel = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        kernel.append(v)
    return x0, kernel


def one_elimination(A, rows, b, ncols):
    """(x0, kernel) as sparse dicts, or None when b is outside the
    column space: the values of rref_solution, lowered, keyed as the
    solver keys them after one plain sparse_eliminate call on the rows,
    x0 over the pivots in the order found, kernel vector f 1 on free
    column f, then its entries on the pivots in that order."""
    ref = rref_solution(A, b, ncols)
    if ref is None:
        return None
    order = sparse_eliminate(rows)[1]
    x0, kernel = ref
    free = [j for j in range(ncols) if j not in order]
    return ({p: lower(x0[p]) for p in order if x0[p]},
            [{f: 1, **{p: lower(v[p]) for p in order if v[p]}}
             for f, v in zip(free, kernel)])


def typed(result):
    """A solve result with every scalar's type alongside, in order."""
    if isinstance(result, NoSolution):
        return [(i, c, type(c)) for i, c in result.certificate.items()]
    x0, kernel = result
    return ([(j, c, type(c)) for j, c in x0.items()],
            [[(j, c, type(c)) for j, c in v.items()] for v in kernel])


@st.composite
def system_and_rhs(draw):
    """Sparse rows of int and Fraction entries over 0..6 columns, 0..6
    of them plus, sometimes, a combination of the others (so some
    right-hand sides are inconsistent), with right-hand sides A x and
    arbitrary ones."""
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=6))
    A = [[F(draw(mixed_entries)) for _ in range(n)] for _ in range(m)]
    if A and draw(st.booleans()):
        coeffs = [F(draw(mixed_entries)) for _ in A]
        A.append([sum((c * row[j] for c, row in zip(coeffs, A)), F(0))
                  for j in range(n)])
    rows = [{j: lower(x) if draw(st.booleans()) else x
             for j, x in enumerate(row) if x} for row in A]
    rhss = [mat_vec(A, [F(draw(mixed_entries)) for _ in range(n)])
            for _ in range(draw(st.integers(min_value=1, max_value=2)))]
    rhss += [[draw(mixed_entries) for _ in A]
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return A, rows, n, rhss


@given(system_and_rhs())
@settings(max_examples=120, deadline=None)
def test_factored_solves_match_one_elimination_and_rref(system):
    A, rows, n, rhss = system
    given_rows = copy.deepcopy(rows)
    factor = sparse_factor(rows, n)
    first = []
    for b in rhss:
        res = factor.solve(b)
        first.append(typed(res))
        ref = one_elimination(A, rows, b, n)
        if ref is None:
            assert isinstance(res, NoSolution)
            assert all(c != 0 for c in res.certificate.values())
            assert _all_lowered(res.certificate.values())
            assert_certificate(A, b, densify(res.certificate, len(A)))
        else:
            # the rref solution, in the eliminator's pivot order and
            # with int / Fraction types as lower gives them
            assert first[-1] == typed(ref)
            x0, kernel = res
            assert mat_vec(A, densify(x0, n)) == [F(x) for x in b]
            # a caller that changes what it got changes nothing stored
            for v in kernel:
                v.clear()
    # solving again gives the same: the factor is not mutated
    assert [typed(factor.solve(b)) for b in rhss] == first
    assert rows == given_rows
    assert [dict(row) for row in factor.rows] == rows


def test_factor_of_no_rows_and_of_no_columns():
    # no equations: one solution, the kernel is everything
    factor = sparse_factor([], 3)
    for _ in range(2):
        assert factor.solve([]) == ({}, [{0: 1}, {1: 1}, {2: 1}])
    # equations in no unknowns: consistent exactly when b = 0
    factor = sparse_factor([{}, {}], 0)
    assert factor.solve([0, 0]) == ({}, [])
    res = factor.solve([0, F(3)])
    assert isinstance(res, NoSolution) and res.certificate == {1: 1}
    assert factor.solve([0, 0]) == ({}, [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.solve([0])


def test_a_factored_system_is_eliminated_once(monkeypatch):
    rows = [{0: 2, 1: 1}, {1: 3, 2: -1}, {0: 2, 1: 4, 2: -1}]
    calls = []
    eliminate = linalg.sparse_eliminate

    def spy(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "sparse_eliminate", spy)
    factor = linalg.sparse_factor(rows, 3)
    for b in ([1, 2, 3], [0, 1, 1], [2, 0, 2]):
        assert not isinstance(factor.solve(b), NoSolution)
    assert len(calls) == 1
    # an inconsistent right-hand side eliminates nothing either: its
    # certificate is read off the factor, when first read
    res = factor.solve([1, 0, 0])
    assert isinstance(res, NoSolution)
    certificate = res.certificate
    assert len(calls) == 1 and res.certificate is certificate
    assert_certificate(M([[2, 1, 0], [0, 3, -1], [2, 4, -1]]), V([1, 0, 0]),
                       densify(certificate, 3))


int_pivots = st.sampled_from([-1, 2, -2, 3])
int_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -5, 6])


@st.composite
def integral_system(draw):
    """A x = b with integer entries, consistent or not: staggered rows
    whose leading entry is -1, 2, -2 or 3 and whose later entries that
    leading entry may or may not divide, plus integer combinations of
    them, shuffled; the sparse rows hold the entries as int or Fraction."""
    n = draw(st.integers(min_value=1, max_value=6))
    leads = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                          unique=True))
    raw = []
    for lead in sorted(leads):
        raw.append([0] * lead + [draw(int_pivots)] +
                   [draw(int_entries) for _ in range(lead + 1, n)])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.sampled_from(raw)), draw(st.sampled_from(raw))
        ca, cb = draw(int_pivots), draw(int_pivots)
        raw.append([ca * x + cb * y for x, y in zip(a, b)])
    raw = draw(st.permutations(raw))
    b = [F(draw(int_entries)) for _ in raw]
    rows = [{j: x if draw(st.booleans()) else F(x)
             for j, x in enumerate(row) if x} for row in raw]
    return [[F(x) for x in row] for row in raw], b, rows


@given(integral_system())
@settings(max_examples=80, deadline=None)
def test_integer_pivots_match_rref(system):
    """Pivots of -1, +-2 and 3 are normalized in integers where they
    divide the entries and as Fractions where they do not; the pivot
    rows, kernel, particular solution and certificates still equal or
    satisfy what dense rref gives, and every value is an int exactly
    when it is integral."""
    A, b, rows = system
    n = len(A[0])
    R, pivots = rref(A)
    pivot_rows, pivot_cols = sparse_eliminate(rows)
    ordered = sorted(zip(pivot_cols, pivot_rows), key=lambda pr: pr[0])
    assert [p for p, _ in ordered] == pivots
    assert [densify(row, n) for _, row in ordered] == R[:len(pivots)]
    assert _all_lowered(x for row in pivot_rows for x in row.values())
    kernel = sparse_kernel(rows, n)
    ref_kernel = dense_reference(A, [F(0)] * len(A))[1]
    assert [densify(v, n) for v in kernel] == ref_kernel
    assert _all_lowered(x for v in kernel for x in v.values())
    res = sparse_solve_affine(rows, b, n)
    if n in rref([row + [bv] for row, bv in zip(A, b)])[1]:
        assert isinstance(res, NoSolution)
        assert all(c != 0 for c in res.certificate.values())
        assert _all_lowered(res.certificate.values())
        assert_certificate(A, b, densify(res.certificate, len(A)))
        return
    x0, kernel = res
    ref_x0, ref_kernel, _ = dense_reference(A, b)
    assert densify(x0, n) == ref_x0
    assert [densify(v, n) for v in kernel] == ref_kernel
    assert typed(res) == typed(one_elimination(A, rows, b, n))


presolve_coeffs = st.sampled_from([1, -1, 2, -2, 3, F(1, 2), F(-2, 3),
                                   F(3, 4)])


@st.composite
def presolve_system(draw):
    """Sparse rows over 1..8 columns, mostly of one and two terms: chains
    of two-term rows closed into cycles by a row whose ratio agrees with
    the chain's or is drawn freely (a cycle whose ratios disagree forces
    its class to 0), singletons, scaled copies and sums of earlier rows
    (which shrink or cancel once rewritten over the classes), and a few
    longer rows.  Integral entries come as int or as Fraction."""
    n = draw(st.integers(1, 8))
    col = st.integers(0, n - 1)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["one", "two", "two", "cycle", "cycle",
                                     "copy", "sum", "long"]))
        if kind == "one":
            rows.append({draw(col): draw(presolve_coeffs)})
        elif kind in ("two", "cycle", "long") and n > 1:
            size = {"two": 2, "cycle": n, "long": min(n, 5)}[kind]
            path = draw(st.lists(col, min_size=2, max_size=size,
                                 unique=True))
            if kind == "long":
                rows.append({j: draw(presolve_coeffs) for j in path})
                continue
            # x_path[0] = ratio * x_path[-1] along the chain
            ratio = F(1)
            for a, b in zip(path, path[1:]):
                ca, cb = draw(presolve_coeffs), draw(presolve_coeffs)
                rows.append({a: ca, b: cb})
                ratio *= -F(cb) / ca
            if kind == "cycle":
                c = draw(presolve_coeffs)
                rows.append({path[0]: c, path[-1]: -c * ratio}
                            if draw(st.booleans()) else
                            {path[0]: c, path[-1]: draw(presolve_coeffs)})
        elif kind in ("copy", "sum") and rows:
            row = draw(st.sampled_from(rows))
            c = draw(presolve_coeffs)
            out = {j: c * x for j, x in row.items()}
            if kind == "sum":
                for j, x in draw(st.sampled_from(rows)).items():
                    out[j] = out.get(j, 0) + x
            rows.append({j: x for j, x in out.items() if x})
    rows = [{j: lower(x) if draw(st.booleans()) else F(x)
             for j, x in row.items()} for row in draw(st.permutations(rows))]
    return rows, n


def direct_kernel(rows, ncols):
    """(kernel, free columns) as sparse_kernel gave them before its
    presolve: one sparse_eliminate call on every row, kernel vector f
    1 on free column f, then minus each pivot row's f-entry in
    pivot-row order."""
    pivot_rows, pivot_cols = sparse_eliminate(rows)
    kernel = []
    for f in (j for j in range(ncols) if j not in pivot_cols):
        v = {f: 1}
        for prow, pcol in zip(pivot_rows, pivot_cols):
            if f in prow:
                v[pcol] = -prow[f]
        kernel.append(v)
    return kernel, [next(iter(v)) for v in kernel]


def typed_vectors(vectors):
    return [{j: (c, type(c)) for j, c in v.items()} for v in vectors]


@given(presolve_system())
@settings(max_examples=300, deadline=None)
def test_presolved_kernel_matches_rref(system):
    """The presolved kernel is the reduced basis that dense rref gives:
    same vectors in the same order, 1 on its own free column and 0 on
    the others' and right of its own, the same free columns, each value
    an int exactly when it is integral; and, as dicts, exactly what one
    elimination of every row gives."""
    rows, n = system
    given_rows = copy.deepcopy(rows)
    kernel = sparse_kernel(rows, n)
    free = [max(v) for v in kernel]
    assert rows == given_rows
    A = [[F(row.get(j, 0)) for j in range(n)] for row in rows]
    pivots = rref(A)[1] if A else []
    ref_kernel = rref_solution(A, [0] * len(A), n)[1]
    assert [densify(v, n) for v in kernel] == ref_kernel
    assert free == [j for j in range(n) if j not in pivots]
    assert sparse_kernel(rows, n) == kernel
    assert all(0 not in v.values() for v in kernel)
    assert _all_lowered(x for v in kernel for x in v.values())
    ref, ref_free = direct_kernel(rows, n)
    assert typed_vectors(kernel) == typed_vectors(ref) and free == ref_free


@st.composite
def free_column_system(draw):
    """A presolve_system with stars of two-term rows around one column
    and empty rows mixed in; columns that no row names stay zero
    columns of the system."""
    rows, n = draw(presolve_system())
    rows = list(rows)
    if n > 1 and draw(st.booleans()):
        centre = draw(st.integers(0, n - 1))
        for leaf in draw(st.lists(st.integers(0, n - 1), max_size=n,
                                  unique=True)):
            if leaf != centre:
                rows.append({centre: draw(presolve_coeffs),
                             leaf: draw(presolve_coeffs)})
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), {})
    rows = [{j: lower(x) if draw(st.booleans()) else F(x)
             for j, x in row.items()} for row in rows]
    return rows, n


@given(free_column_system())
@settings(max_examples=300, deadline=None)
@example(([], 3))
@example(([{}, {}], 2))
@example(([{0: 1, j: -1} for j in range(1, 5)], 6))
@example(([{j: 1, j + 1: F(-1, 2)} for j in range(4)], 5))
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: 2}], 3))
def test_free_columns_are_the_non_pivot_columns(system):
    """sparse_free_columns is the complement of the pivots that dense
    rref finds, and the largest keys of the sparse_kernel vectors, in
    order; the rows given are not changed."""
    rows, n = system
    given_rows = copy.deepcopy(rows)
    free = sparse_free_columns(rows, n)
    assert rows == given_rows
    A = [[F(row.get(j, 0)) for j in range(n)] for row in rows]
    pivots = rref(A)[1] if A else []
    assert free == [j for j in range(n) if j not in pivots]
    assert free == [max(v) for v in sparse_kernel(rows, n)]


def test_two_term_free_columns_eliminate_nothing(monkeypatch):
    """A system of one- and two-term rows is decided by the presolve:
    the eliminator is called once, on no row."""
    calls = []
    eliminate = linalg.sparse_eliminate

    def spy(rows, ops=None):
        calls.append(len(rows))
        return eliminate(rows, ops)

    monkeypatch.setattr(linalg, "sparse_eliminate", spy)
    rows = [{0: 1, 3: -1}, {1: 2, 3: 1}, {2: 1}, {4: 1, 5: F(1, 2)},
            {0: 3, 1: 1}]
    assert sparse_free_columns(rows, 7) == [5, 6]
    assert calls == [0]


def test_tot_sweep_kernels_match_one_elimination():
    """Every exchange system of the tot_sweep benchmark, triple/eps at
    D <= 5 and circle/t^3 at D <= 4 in every total degree: the presolved
    kernel equals, as dicts and in order, values and types included,
    the kernel that one elimination of all the rows gives, and
    tot_basis is that kernel over the keys."""
    from dgdescent.cech import cech_cosimplicial, tensored_cover
    from dgdescent.instances import (circle_cover, dual_numbers,
                                     t_truncated, triple_cover)
    systems = 0
    for cover, base, top in ((triple_cover(), dual_numbers(), 5),
                             (circle_cover(), t_truncated(3), 4)):
        cc = cech_cosimplicial(tensored_cover(cover, base), N=2)
        ctx = cc.tot_context()
        degrees = {n + k for p in range(cc.N + 1)
                   for n in cc.level(p).space.nonzero_degrees()
                   for k in range(p + 1)}
        for D in range(1, top + 1):
            for degree in sorted(degrees):
                keys = ctx.keys_up_to(D, degree)
                rows = list(ctx.exchange_rows(keys,
                                              ctx.generators()).values())
                kernel = sparse_kernel(rows, len(keys))
                free = [max(v) for v in kernel]
                ref, ref_free = direct_kernel(rows, len(keys))
                assert typed_vectors(kernel) == typed_vectors(ref)
                assert free == ref_free
                assert ctx.tot_basis(degree, D) == \
                    [{keys[j]: c for j, c in v.items()} for v in ref]
                systems += 1
    # the degrees of the stored levels: level 2 of the circle stores no
    # tuple, so its degree 3 is no degree of Tot there
    assert systems == 32


def span_intersection_by_kernel(vectors1, vectors2):
    """The intersection by the kernel of [vectors1 | -vectors2]: each
    kernel vector (a, b) gives sum a_i v1_i, and echelon_basis reduces
    those; the reference for the one elimination of span_intersection."""
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


span_coeffs = st.sampled_from([0, 1, -1, 2, -3, F(2), F(1, 2), F(-2, 3)])


@st.composite
def span_pairs(draw):
    """Two lists of sparse vectors over up to five tuple keys, either
    possibly empty, with zero vectors and explicit zero entries; part of
    the second list is drawn from combinations of the first, so the
    spans often meet."""
    keys = [(i, "x") for i in range(draw(st.integers(1, 5)))]
    vector = st.dictionaries(st.sampled_from(keys), span_coeffs, max_size=4)
    v1 = draw(st.lists(vector, max_size=4))
    v2 = draw(st.lists(vector, max_size=3))
    for _ in range(draw(st.integers(0, 2)) if v1 else 0):
        w = {}
        for v in v1:
            c = draw(span_coeffs)
            for k, x in v.items():
                w[k] = w.get(k, 0) + c * x
        v2.insert(draw(st.integers(0, len(v2))), w)
    return v1, v2


@given(span_pairs())
@example(([], []))
@example(([{0: 1}], []))
@example(([], [{0: 1}]))
@example(([{}, {0: 0}], [{0: 1}]))
@example(([{0: 2, 1: 4}], [{0: 1, 1: 2}, {}]))
@settings(max_examples=300, deadline=None)
def test_span_intersection_matches_the_kernel_construction(pair):
    """One elimination of the pairs (v, v) and (w, 0) gives the basis
    that the kernel of [vectors1 | -vectors2] gives: the same vectors
    in the same order, keys in the same order, values and their int or
    Fraction types included."""
    v1, v2 = pair
    got = span_intersection(v1, v2)
    ref = span_intersection_by_kernel(v1, v2)
    assert typed_vectors(got) == typed_vectors(ref)
    assert [list(v) for v in got] == [list(v) for v in ref]


def _all_lowered(values):
    """Every value an int exactly when it is integral, otherwise a
    Fraction with a denominator above 1; never a float or a bool."""
    return all(type(x) is int or
               (type(x) is Fraction and x.denominator > 1)
               for x in values)


def test_every_returned_value_is_lowered():
    # integral values come back as int and the others as Fraction,
    # certificates included, whether the entries came in as int, as
    # integral Fraction or as Fraction
    rows = [{0: 2, 1: F(4)}, {0: F(1), 2: -1}, {1: F(1, 2), 2: 3}, {3: 1}]
    pivot_rows, _ = sparse_eliminate(rows)
    assert _all_lowered(x for row in pivot_rows for x in row.values())
    x0, _ = sparse_solve_affine(rows, [1, F(2), 3, 0], 5)
    assert _all_lowered(x0.values())
    x0, kernel = sparse_solve_affine(rows, [1, 2, 3, 4], 5)
    assert _all_lowered(x0.values())
    assert _all_lowered(x for v in kernel for x in v.values())
    assert _all_lowered(x for v in sparse_kernel(rows, 5)
                        for x in v.values())
    res = sparse_solve_affine(rows + [{0: 2, 1: 4}], [1, 2, 3, 4, 5], 5)
    assert isinstance(res, NoSolution)
    assert _all_lowered(res.certificate.values())
    # a -1 pivot (negated), a 2 pivot that divides one entry and not
    # another, and a -1/2 pivot; and the echelon basis over tuple keys
    rows = [{0: -1, 2: 1}, {1: 2, 2: 3, 3: 4}, {0: 1, 1: 1, 3: F(2)}]
    pivot_rows, pivot_cols = sparse_eliminate(rows)
    assert pivot_cols == [0, 1, 2]
    assert _all_lowered(x for row in pivot_rows for x in row.values())
    x0, _ = sparse_solve_affine(rows, [1, 3, 2], 4)
    assert list(x0) == [0, 1, 2] and _all_lowered(x0.values())
    assert _all_lowered(x for v in sparse_kernel(rows, 4)
                        for x in v.values())
    basis = echelon_basis([{("a", 0): -1, ("b", 0): 1},
                           {("a", 1): 2, ("b", 0): 3, ("c", 0): 4}])
    assert _all_lowered(x for v in basis for x in v.values())
    # Fraction arithmetic that ends on integers comes back as int
    rows = [{0: F(1, 2), 1: F(3, 2)}, {0: F(1, 3), 2: F(2, 3)}]
    pivot_rows, pivot_cols = sparse_eliminate(rows)
    assert sorted(zip(pivot_cols, pivot_rows)) == \
        [(0, {0: 1, 2: 2}), (1, {1: 1, 2: F(-2, 3)})]
    assert _all_lowered(x for row in pivot_rows for x in row.values())
    x0, _ = sparse_solve_affine(rows, [F(5, 2), F(1, 3)], 3)
    assert typed((x0, [])) == ([(0, 1, int), (1, F(4, 3), F)], [])
    res = sparse_solve_affine(rows + [{1: F(3, 2), 2: -1}],
                              [F(5, 2), F(1, 3), F(1, 2)], 3)
    assert isinstance(res, NoSolution)
    assert _all_lowered(res.certificate.values())


def test_certificate_is_replayed_up_to_the_failing_row():
    # row 0 is divided by its pivot 2, row 1 by 3 and back-substituted
    # into row 0, and row 2 then reduces to 0 = 1: its certificate needs
    # both steps, and the longer row 3, taken after it, takes no part
    A = M([[2, 2, 0], [0, 3, 3], [1, 0, -1], [1, 1, 1]])
    b = V([0, 0, 1, 5])
    res = sparse_solve_affine(sparse_from_dense(A), b, 3)
    assert isinstance(res, NoSolution)
    assert typed(res) == [(2, 1, int), (0, F(-1, 2), F), (1, F(1, 3), F)]
    assert_certificate(A, b, densify(res.certificate, 4))
    assert solve_affine(A, b).certificate == [F(-1, 2), F(1, 3), 1, 0]


def test_sparse_inconsistent():
    res = sparse_solve_affine([{0: F(0)} if False else {}], V([1]), 1)
    assert isinstance(res, NoSolution)
    assert res.certificate == {0: F(1)}


def test_span_basis_echelonizes():
    basis = span_basis([V([2, 4]), V([1, 2]), V([0, 1])])
    assert len(basis) == 2


tuple_keys = st.tuples(st.integers(0, 2), st.sampled_from("ab"),
                       st.integers(-1, 1))


@given(st.lists(st.dictionaries(tuple_keys, mixed_entries, max_size=5),
                max_size=6))
@settings(max_examples=80, deadline=None)
def test_echelon_basis_matches_rref_over_tuple_keys(vectors):
    """Sparse vectors over tuple keys: the basis equals the nonzero rref
    rows over the sorted keys, in pivot order, each row listing its
    keys in increasing order (zero coefficients count as absent)."""
    keys = sorted({k for v in vectors for k in v})
    dense = [[F(v.get(k, 0)) for k in keys] for v in vectors]
    R, pivots = rref(dense) if dense else ([], [])
    expected = [[(k, x) for k, x in zip(keys, row) if x]
                for row in R[:len(pivots)]]
    assert [list(v.items()) for v in echelon_basis(vectors)] == expected


def test_echelon_basis_of_nothing_and_of_zeros():
    assert echelon_basis([]) == []
    assert echelon_basis([{}, {}]) == []
    assert echelon_basis([{(0, "a"): F(0)}, {(1, "b"): 0}]) == []
    assert echelon_basis([{(1, "b"): 2, (0, "a"): F(0)}, {}]) == \
        [{(1, "b"): F(1)}]


def test_zero_rows():
    # no equations: every vector solves, the kernel is everything
    assert solve_affine([], []) == ([], [])
    x0, ker = sparse_solve_affine([], [], 3)
    assert x0 == {} and ker == [{0: F(1)}, {1: F(1)}, {2: F(1)}]
    assert kernel_basis([], 2) == identity(2)
    assert rank([]) == 0
    assert span_basis([]) == []
    assert intersect_spans([], [V([1, 0])]) == []
    assert coords_in_span([], V([0, 0])) == []
    assert coords_in_span([], V([0, 1])) is None


def test_zero_columns():
    # equations in no unknowns: consistent exactly when b = 0
    assert solve_affine([[], []], V([0, 0])) == ([], [])
    res = solve_affine([[], []], V([0, 3]))
    assert isinstance(res, NoSolution)
    assert res.certificate == V([0, 1])
    assert sparse_solve_affine([{}, {}], V([0, 0]), 0) == ({}, [])
    res = sparse_solve_affine([{}, {}], V([2, 0]), 0)
    assert isinstance(res, NoSolution) and res.certificate == {0: F(1)}
    assert rank([[], []]) == 0
    assert kernel_basis([[], []]) == []
    assert span_basis([[], []]) == []


def _references(target, modules):
    """module:line of every name, attribute or import of target."""
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == target:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_dense_rref_stays_a_test_reference():
    """No module of the package names rref except to define it (linalg
    itself does not call it either): every solve path runs through the
    one sparse eliminator, and dense elimination is the tests' reference."""
    offenders = _references("rref", sorted(SRC.glob("*.py")))
    assert not offenders, "dense rref referenced at " + ", ".join(offenders)


def test_dense_adapters_stay_in_linalg_and_cochain():
    """Subspaces, linear systems and complexes are sparse outside linalg,
    cochain included: no other module names a dense adapter of the
    eliminator or a dense matrix helper."""
    offenders = [hit for name in ("kernel_basis", "span_basis",
                                  "solve_affine", "rank", "intersect_spans",
                                  "mat_vec", "transpose", "sparse_from_dense")
                 for hit in _references(name, [
                     path for path in sorted(SRC.glob("*.py"))
                     if path.name != "linalg.py"])]
    assert not offenders, "dense adapter referenced at " + \
        ", ".join(offenders)


def test_only_io_converts_blocks_to_tables():
    """Dense blocks exist only at the record boundary: io reads the
    restriction and cosimplicial-map matrices into tables with
    table_from_blocks and prints tables as rows.  No other module names
    table_from_blocks, and no module names the dense block writer or
    products that complexes were once stored through."""
    modules = sorted(SRC.glob("*.py"))
    offenders = _references("table_from_blocks", [
        path for path in modules if path.name != "io.py"])
    offenders += [hit for name in ("map_blocks", "d_matrix", "mat_mul",
                                   "zero_matrix")
                  for hit in _references(name, modules)]
    assert not offenders, "dense blocks converted at " + \
        ", ".join(offenders)


def test_coords_in_span_stays_a_test_reference():
    """Outside linalg no module names coords_in_span: maps become tables
    through cochain.map_table, which reads coordinates off a reduced
    basis instead of eliminating it once per image."""
    offenders = _references("coords_in_span", [
        path for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"])
    assert not offenders, "coords_in_span referenced at " + \
        ", ".join(offenders)
