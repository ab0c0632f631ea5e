from fractions import Fraction

import pytest

from dgdescent.cochain import (Cochain, CochainMap, GradedSpace, cone,
                               complex_from_dims, is_acyclic, is_quasi_iso)

F = Fraction


def M(rows):
    return [[F(x) for x in row] for row in rows]


def two_term_identity():
    # 0 -> Q --id--> Q -> 0
    return complex_from_dims({0: 1, 1: 1}, {0: M([[1]])})


def test_dd_zero_enforced():
    with pytest.raises(ValueError):
        complex_from_dims({0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})


def test_cochain_rejects_d_squared_nonzero():
    # C^0 -> C^1 -> C^2 with d^1 d^0 = [[0, 1]]: the check names the degrees
    space = GradedSpace({0: ["a", "b"], 1: ["c", "e"], 2: ["f"]})
    d0 = M([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 0 and 2"):
        Cochain(space, {0: d0, 1: M([[0, 1]])})
    # the same shapes with d^1 d^0 = 0, also through a cancellation
    Cochain(space, {0: d0, 1: M([[1, 0]])})
    Cochain(space, {0: M([[1, 0], [1, 0]]), 1: M([[1, -1]])})


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
    f = CochainMap(C, C, {0: M([[1]]), 1: M([[1]])})
    assert is_quasi_iso(f)


def test_quasi_iso_acyclic_to_zero():
    C = two_term_identity()
    Z = complex_from_dims({}, {})
    f = CochainMap(C, Z, {})
    assert is_quasi_iso(f)


def test_zero_endomap_not_quasi_iso():
    C = complex_from_dims({0: 1}, {})
    f = CochainMap(C, C, {0: M([[0]])})
    assert not is_quasi_iso(f)


def test_chain_map_validation():
    # d is the identity upstairs and zero downstairs, so f = (1, 1)
    # cannot commute with the differentials
    C = two_term_identity()
    D = complex_from_dims({0: 1, 1: 1}, {})
    with pytest.raises(ValueError):
        CochainMap(C, D, {0: M([[1]]), 1: M([[1]])})


def test_cone_oracle_agrees_with_rank_route():
    # quasi-iso <=> acyclic cone, across a small zoo of maps
    C = two_term_identity()
    Z = complex_from_dims({}, {})
    D = complex_from_dims({0: 1}, {})
    cases = [
        CochainMap(C, C, {0: M([[1]]), 1: M([[1]])}),
        CochainMap(C, Z, {}),
        CochainMap(D, D, {0: M([[0]])}),
        CochainMap(D, D, {0: M([[3]])}),
    ]
    for f in cases:
        assert is_quasi_iso(f) == is_acyclic(cone(f))


def test_degree_cap():
    with pytest.raises(ValueError):
        GradedSpace({9: ["x"]})
    GradedSpace({9: ["x"]}, top_degree=9)
