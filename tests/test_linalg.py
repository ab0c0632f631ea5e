import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgdescent.linalg import (NoSolution, coords_in_span, echelon_basis,
                              frac, identity,
                              intersect_spans, kernel_basis,
                              rref, solve_affine, span_basis, span_contains,
                              sparse_eliminate, sparse_from_dense,
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
    assert span_contains(inter, V([0, 5, 0]))
    assert coords_in_span(b1, V([2, 3, 0])) == V([2, 3])
    assert coords_in_span(b1, V([0, 0, 1])) is None


def test_frac_parsing():
    assert frac("3/4") == F(3, 4)
    assert frac(-2) == F(-2)
    with pytest.raises(TypeError):
        frac(0.5)


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
    # tracking the row combinations changes nothing on a consistent system
    rows = sparse_from_dense(A)
    assert sparse_eliminate(rows, b, track=True) == sparse_eliminate(rows, b)


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
    pivot_rows, pivot_cols, _, bad = sparse_eliminate(rows)
    assert bad is None
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
    satisfy what dense rref gives, as Fractions."""
    A, b, rows = system
    n = len(A[0])
    R, pivots = rref(A)
    pivot_rows, pivot_cols, _, bad = sparse_eliminate(rows)
    assert bad is None
    ordered = sorted(zip(pivot_cols, pivot_rows), key=lambda pr: pr[0])
    assert [p for p, _ in ordered] == pivots
    assert [densify(row, n) for _, row in ordered] == R[:len(pivots)]
    assert _all_fractions(x for row in pivot_rows for x in row.values())
    kernel = sparse_kernel(rows, n)
    ref_kernel = dense_reference(A, [F(0)] * len(A))[1]
    assert [densify(v, n) for v in kernel] == ref_kernel
    assert _all_fractions(x for v in kernel for x in v.values())
    res = sparse_solve_affine(rows, b, n)
    if n in rref([row + [bv] for row, bv in zip(A, b)])[1]:
        assert isinstance(res, NoSolution)
        assert _all_fractions(res.certificate.values())
        assert_certificate(A, b, densify(res.certificate, len(A)))
        cert = sparse_eliminate(rows, b, track=True)[3]
        assert cert == res.certificate
        return
    x0, kernel = res
    ref_x0, ref_kernel, _ = dense_reference(A, b)
    assert densify(x0, n) == ref_x0
    assert [densify(v, n) for v in kernel] == ref_kernel
    assert _all_fractions(x0.values())
    assert _all_fractions(sparse_eliminate(rows, b)[2])


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


def test_every_returned_value_is_a_fraction():
    # integer-valued entries are eliminated as int but returned as
    # Fraction, certificates included
    rows = [{0: 2, 1: F(4)}, {0: F(1), 2: -1}, {1: F(1, 2), 2: 3}, {3: 1}]
    pivot_rows, _, pivot_rhs, _ = sparse_eliminate(rows, [1, F(2), 3, 0])
    assert _all_fractions(x for row in pivot_rows for x in row.values())
    assert _all_fractions(pivot_rhs)
    pivot_rows, _, pivot_rhs, _ = sparse_eliminate(rows)
    assert _all_fractions(x for row in pivot_rows for x in row.values())
    assert _all_fractions(pivot_rhs)
    x0, kernel = sparse_solve_affine(rows, [1, 2, 3, 4], 5)
    assert _all_fractions(x0.values())
    assert _all_fractions(x for v in kernel for x in v.values())
    assert _all_fractions(x for v in sparse_kernel(rows, 5)
                          for x in v.values())
    res = sparse_solve_affine(rows + [{0: 2, 1: 4}], [1, 2, 3, 4, 5], 5)
    assert isinstance(res, NoSolution)
    assert _all_fractions(res.certificate.values())
    # a -1 pivot (negated), a 2 pivot that divides one entry and not
    # another, and a -1/2 pivot; and the echelon basis over tuple keys
    rows = [{0: -1, 2: 1}, {1: 2, 2: 3, 3: 4}, {0: 1, 1: 1, 3: F(2)}]
    pivot_rows, pivot_cols, pivot_rhs, _ = sparse_eliminate(rows, [1, 3, 2])
    assert pivot_cols == [0, 1, 2]
    assert _all_fractions(x for row in pivot_rows for x in row.values())
    assert _all_fractions(pivot_rhs)
    assert _all_fractions(x for v in sparse_kernel(rows, 4)
                          for x in v.values())
    basis = echelon_basis([{("a", 0): -1, ("b", 0): 1},
                           {("a", 1): 2, ("b", 0): 3, ("c", 0): 4}])
    assert _all_fractions(x for v in basis for x in v.values())


def test_early_tracked_return_strips_tag_columns():
    # the third row repeats the first with another right-hand side, so
    # the elimination stops there with two pivot rows already built
    A = M([[1, 1, 0], [0, 1, 1], [1, 1, 0]])
    b = V([1, 1, 2])
    pivot_rows, pivot_cols, _, cert = sparse_eliminate(
        sparse_from_dense(A), b, track=True)
    assert pivot_cols == [0, 1]
    assert all(j < 3 for row in pivot_rows for j in row)
    assert_certificate(A, b, densify(cert, 3))


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
                                  "mat_vec", "transpose", "sparse_from_dense",
                                  "zero_vector")
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
