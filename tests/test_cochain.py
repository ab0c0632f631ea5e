from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgdescent.cochain import (Cochain, CochainMap, GradedSpace, cone,
                               is_acyclic, is_quasi_iso, map_table)
from dgdescent.dgla import el_sum
from dgdescent.io import table_from_blocks
from dgdescent.linalg import (coords_in_span, echelon_basis, kernel_basis,
                              linear_apply, rref, span_basis)

F = Fraction


def M(rows):
    return [[F(x) for x in row] for row in rows]


def cochain(space, blocks):
    """The complex on space whose d^n is the dense block blocks[n]."""
    return Cochain(space, table_from_blocks(space, space, blocks, 1))


def complex_from_dims(dims, blocks):
    """The same, on anonymous basis labels c{n}_{i}."""
    degrees = {n: [f"c{n}_{i}" for i in range(k)]
               for n, k in dims.items() if k}
    return cochain(GradedSpace(degrees), blocks)


def chain_map(C, D, blocks):
    return CochainMap(C, D, table_from_blocks(C.space, D.space, blocks))


def two_term_identity():
    # 0 -> Q --id--> Q -> 0
    return complex_from_dims({0: 1, 1: 1}, {0: M([[1]])})


def test_dd_zero_enforced():
    with pytest.raises(ValueError):
        complex_from_dims({0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})
    # d must raise the degree by one
    space = GradedSpace({0: ["a", "b"], 1: ["c"]})
    for d in ({0: {1: F(1)}}, {0: {3: F(1)}}, {5: {2: F(1)}}):
        with pytest.raises(ValueError, match="raise by 1 the degree"):
            Cochain(space, d)


def test_cochain_rejects_d_squared_nonzero():
    # C^0 -> C^1 -> C^2 with d^1 d^0 = [[0, 1]]: the check names the degrees
    space = GradedSpace({0: ["a", "b"], 1: ["c", "e"], 2: ["f"]})
    d0 = M([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 0 and 2"):
        cochain(space, {0: d0, 1: M([[0, 1]])})
    # the same shapes with d^1 d^0 = 0, also through a cancellation
    cochain(space, {0: d0, 1: M([[1, 0]])})
    cochain(space, {0: M([[1, 0], [1, 0]]), 1: M([[1, -1]])})


def test_acyclic_two_term():
    C = two_term_identity()
    assert C.cohomology(0)[0] == 0
    assert C.cohomology(1)[0] == 0


def test_zero_differential_gives_everything():
    C = complex_from_dims({0: 2, 1: 3}, {})
    assert C.cohomology(0)[0] == 2
    assert C.cohomology(1)[0] == 3


def test_rank_count_example():
    # 0 -> Q^2 --[1,0]--> Q -> 0
    C = complex_from_dims({0: 2, 1: 1}, {0: M([[1, 0]])})
    assert C.cohomology(0)[0] == 1
    assert C.cohomology(1)[0] == 0


def test_euler_characteristic_identity():
    # chi from dimensions equals chi from cohomology on assorted complexes
    cases = [
        two_term_identity(),
        complex_from_dims({0: 2, 1: 3}, {}),
        complex_from_dims({0: 2, 1: 1}, {0: M([[1, 0]])}),
        complex_from_dims({0: 1, 1: 2, 2: 1},
                          {0: M([[1], [0]]), 1: M([[0, 1]])}),
    ]
    for C in cases:
        top = max(C.space.nonzero_degrees())
        chi_h = sum((-1) ** n * C.cohomology(n)[0] for n in range(top + 1))
        assert C.euler_characteristic() == chi_h


def test_representatives_are_cocycles_mod_coboundaries():
    C = complex_from_dims({0: 1, 1: 2, 2: 1},
                          {0: M([[1], [0]]), 1: M([[0, 1]])})
    dim, reps = C.cohomology(1)
    assert dim == 0 and reps == []
    dim0, reps0 = C.cohomology(0)
    assert dim0 == 0


def test_quasi_iso_identity():
    C = two_term_identity()
    f = chain_map(C, C, {0: M([[1]]), 1: M([[1]])})
    assert is_quasi_iso(f)


def test_quasi_iso_acyclic_to_zero():
    C = two_term_identity()
    Z = complex_from_dims({}, {})
    f = chain_map(C, Z, {})
    assert is_quasi_iso(f)


def test_zero_endomap_not_quasi_iso():
    C = complex_from_dims({0: 1}, {})
    f = chain_map(C, C, {0: M([[0]])})
    assert not is_quasi_iso(f)


def test_chain_map_validation():
    # d is the identity upstairs and zero downstairs, so f = (1, 1)
    # cannot commute with the differentials
    C = two_term_identity()
    D = complex_from_dims({0: 1, 1: 1}, {})
    with pytest.raises(ValueError):
        chain_map(C, D, {0: M([[1]]), 1: M([[1]])})


def test_cohomology_representatives_are_independent_modulo_coboundaries():
    # d^0 hits e1 + e2; H^1 has dimension 2, spanned modulo B by any
    # two of e1, e2, e3 that avoid the pair {e1, e2} alone
    C = complex_from_dims({0: 1, 1: 3}, {0: M([[1], [1], [0]])})
    dim, reps = C.cohomology(1)
    assert dim == 2 and len(reps) == 2
    B = C.coboundaries(1)
    assert len(echelon_basis(B + reps)) == len(B) + dim
    assert C.cohomology(0) == (0, [])


# ---------------------------------------------------------------------------
# map_table against a per-column coords_in_span reference

entries = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)])
KEYS = 4


def _sparse(vec):
    return {k: F(x) for k, x in enumerate(vec) if x}


@st.composite
def reduced_lists(draw, degrees):
    """{n: reduced list of sparse vectors over keys 0..KEYS-1}: RREF rows
    or a kernel basis, empty in some degrees."""
    out = {}
    for n in degrees:
        rows = draw(st.lists(st.lists(entries, min_size=KEYS,
                                      max_size=KEYS), max_size=3))
        rows = [[F(x) for x in row] for row in rows]
        if draw(st.booleans()):
            vecs = span_basis(rows)
        else:
            vecs = kernel_basis(rows, KEYS)
        out[n] = [_sparse(v) for v in vecs]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1]), st.data())
def test_map_table_matches_coords_in_span(shift, data):
    target = data.draw(reduced_lists(range(shift, 3 + shift)))
    source = {n: [{(n, j): F(data.draw(entries)) for j in range(2)}
                  for _ in range(data.draw(st.integers(0, 3)))]
              for n in range(3)}
    # (n, j) goes to a combination of the target vectors of n + shift
    images = {(n, j): [F(data.draw(entries)) for _ in target[n + shift]]
              for n in range(3) for j in range(2)}

    def fn(v):
        out = {}
        for (n, j), x in v.items():
            for c, t in zip(images[(n, j)], target[n + shift]):
                for k, y in t.items():
                    out[k] = out.get(k, F(0)) + x * c * y
        return out

    expected = {}
    for n, vecs in source.items():
        tvecs = [[t.get(k, F(0)) for k in range(KEYS)]
                 for t in target[n + shift]]
        cols = []
        for v in vecs:
            img = fn(v)
            cols.append(coords_in_span(tvecs, [img.get(k, F(0))
                                               for k in range(KEYS)]))
        block = [[col[r] for col in cols] for r in range(len(tvecs))]
        if any(x for row in block for x in row):
            expected[n] = block
    spaces = [GradedSpace({n: range(len(vecs)) for n, vecs in side.items()})
              for side in (source, target)]
    assert map_table(fn, source, target, shift) == \
        table_from_blocks(*spaces, expected, shift)


def test_map_table_refuses_images_outside_the_span():
    target = {0: [{0: F(1)}]}
    with pytest.raises(ValueError, match="leaves the span"):
        map_table(lambda v: {0: F(1), 1: F(1)}, {0: [{0: F(1)}]}, target)
    # a degree with no target vectors spans only zero
    with pytest.raises(ValueError, match="leaves the span"):
        map_table(lambda v: {0: F(1)}, {0: [{0: F(1)}]}, {}, 1)
    assert map_table(lambda v: {}, {0: [{0: F(1)}]}, {}, 1) == {}


def test_map_table_refuses_a_target_that_is_not_reduced():
    source = {0: [{0: F(1)}]}
    for target in ([{0: F(1), 1: F(1)}, {1: F(1)}],   # no private key
                   [{0: F(2)}]):                      # not 1 there
        with pytest.raises(ValueError, match="not reduced"):
            map_table(lambda v: {}, source, {0: target})


def test_unit_bases():
    space = GradedSpace({0: ["a", "b"], 2: ["c"]})
    assert space.unit_bases() == {0: [{0: F(1)}, {1: F(1)}], 2: [{2: F(1)}]}


# ---------------------------------------------------------------------------
# the table complex against dense rref on random three-term complexes


def _dense_kernel(A, ncols):
    """Kernel basis of the dense A by the rref reference."""
    R, pivots = rref(A) if A else ([], [])
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(R, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


def _rank(A):
    return len(rref(A)[1]) if A else 0


@st.composite
def three_term_complexes(draw):
    """(dims, blocks) of C^0 -> C^1 -> C^2 with d^1 d^0 = 0 by
    construction: the columns of d^0 combine a kernel basis of d^1."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    d1 = [[F(draw(entries)) for _ in range(b)] for _ in range(c)]
    K = _dense_kernel(d1, b)
    coeffs = [[F(draw(entries)) for _ in K] for _ in range(a)]
    d0 = [[sum((x * v[r] for x, v in zip(coeffs[col], K)), F(0))
           for col in range(a)] for r in range(b)]
    return {0: a, 1: b, 2: c}, {0: d0, 1: d1}


@settings(max_examples=40, deadline=None)
@given(three_term_complexes())
def test_betti_numbers_eliminate_only_up_to_the_top_degree(cx):
    """Above its top nonzero degree a complex has no cohomology, so
    betti_numbers fills those degrees with 0 and runs one cohomology
    per degree up to the top only, whatever the bound."""
    C = complex_from_dims(*cx)
    top = max(C.space.nonzero_degrees(), default=-1)
    for bound in range(-1, top + 4):
        assert C.betti_numbers(bound) == \
            [C.cohomology(n)[0] for n in range(bound + 1)]
    calls = []
    cohomology = C.cohomology
    C.cohomology = lambda n: calls.append(n) or cohomology(n)
    bettis = C.betti_numbers(1000)
    assert len(bettis) == 1001 and not any(bettis[top + 1:])
    assert calls == list(range(top + 1))


@settings(max_examples=80, deadline=None)
@given(three_term_complexes())
def test_table_cohomology_matches_dense_rref(cx):
    dims, blocks = cx
    C = complex_from_dims(dims, blocks)
    r0, r1 = _rank(blocks[0]), _rank(blocks[1])
    assert C.betti_numbers(2) == [dims[0] - r0, dims[1] - r1 - r0,
                                  dims[2] - r1]
    assert [len(C.cocycles(n)) for n in range(3)] == \
        [dims[0] - r0, dims[1] - r1, dims[2]]
    assert [len(C.coboundaries(n)) for n in range(3)] == [0, r0, r1]
    for n in range(3):
        assert not any(linear_apply(C.d, z)
                       for z in C.cocycles(n) + C.cohomology(n)[1])


@settings(max_examples=60, deadline=None)
@given(three_term_complexes(), st.sampled_from([0, 0, 1, -2]), st.data())
def test_cone_oracle_agrees_with_rank_route(cx, scalar, data):
    """quasi-iso <=> acyclic cone, across a small zoo of maps and a
    random f = scalar + dh + hd for a random h of degree -1: f is
    homotopic to scalar times the identity, so a quasi-isomorphism iff
    scalar != 0 or the complex is acyclic."""
    C = two_term_identity()
    Z = complex_from_dims({}, {})
    D = complex_from_dims({0: 1}, {})
    cases = [
        chain_map(C, C, {0: M([[1]]), 1: M([[1]])}),
        chain_map(C, Z, {}),
        chain_map(D, D, {0: M([[0]])}),
        chain_map(D, D, {0: M([[3]])}),
    ]
    for f in cases:
        assert is_quasi_iso(f) == is_acyclic(cone(f))
    dims, blocks = cx
    C = complex_from_dims(dims, blocks)
    h = table_from_blocks(C.space, C.space, {
        n: [[F(data.draw(entries)) for _ in range(dims[n])]
            for _ in range(dims[n - 1])] for n in (1, 2)}, -1)
    f = CochainMap(C, C, {
        i: el_sum((linear_apply(C.d, h.get(i, {})),
                   linear_apply(h, C.d.get(i, {}))), {i: F(scalar)})
        for i in range(C.space.total_dim())})
    expected = scalar != 0 or is_acyclic(C)
    assert is_quasi_iso(f) == is_acyclic(cone(f)) == expected
