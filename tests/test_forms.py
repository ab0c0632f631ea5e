import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgdescent.forms import (PolyForm, compose_maps, degeneracy_map,
                             face_map, identity_monotone, mono_form_degree,
                             monomials_up_to, monotone_maps, omega_apply,
                             truncated_form_cochain)

F = Fraction


def test_dt_squares_to_zero_and_anticommutes():
    dt1 = PolyForm.dt(2, 1)
    dt2 = PolyForm.dt(2, 2)
    assert not dt1 * dt1
    assert dt1 * dt2 == -(dt2 * dt1)


def test_t_commute():
    t1 = PolyForm.t(2, 1)
    t2 = PolyForm.t(2, 2)
    assert t1 * t2 == t2 * t1


def test_d_leibniz_simple():
    t1, t2 = PolyForm.t(2, 1), PolyForm.t(2, 2)
    dt1, dt2 = PolyForm.dt(2, 1), PolyForm.dt(2, 2)
    assert (t1 * t2).d() == t2 * dt1 + t1 * dt2
    assert not dt1.d()
    assert (t1 * t1).d() == 2 * (t1 * dt1)


def test_dd_zero_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 3)
        omega = _random_form(rng, n, 3)
        assert not omega.d().d()


def _random_form(rng, n, D):
    monos = monomials_up_to(n, D)
    out = PolyForm.zero(n)
    for _ in range(rng.randint(1, 5)):
        m = rng.choice(monos)
        out = out + PolyForm(n, {m: F(rng.randint(-3, 3))})
    return out


def test_vertex_evaluation_is_the_face_formula():
    # on the 1-simplex, the vertex-0 map sends t_1 to 0
    omega = PolyForm.t(1, 1) * PolyForm.t(1, 1) + PolyForm.constant(1, 5)
    at0 = omega_apply((0,), omega)
    at1 = omega_apply((1,), omega)
    assert at0 == PolyForm.constant(0, 5)
    assert at1 == PolyForm.constant(0, 6)


def test_degeneracy_keeps_constants():
    c = PolyForm.constant(0, F(3, 2))
    up = omega_apply(degeneracy_map(0, 0), c)
    assert up == PolyForm.constant(1, F(3, 2))


def test_pullback_of_t_along_named_maps():
    # sigma^0: [1] -> [0] has no free target coordinate; partial^0: [0] -> [1]
    # sends t_1 to the value at vertex 1, i.e. 1
    t1 = PolyForm.t(1, 1)
    v1 = omega_apply((1,), t1)
    assert v1 == PolyForm.one(0)
    v0 = omega_apply((0,), t1)
    assert not v0


def reference_omega_apply(u, omega):
    """Pullback by substituting into the whole form, monomial after
    monomial, with no memo: the test reference for omega_apply."""
    p = len(u) - 1
    q = omega.n
    src_t = [PolyForm.t0(p)] + [PolyForm.t(p, j) for j in range(1, p + 1)]
    src_dt = [PolyForm.dt0(p)] + [PolyForm.dt(p, j) for j in range(1, p + 1)]
    sub_t = []
    sub_dt = []
    for i in range(1, q + 1):
        st_ = PolyForm.zero(p)
        sdt = PolyForm.zero(p)
        for j, uj in enumerate(u):
            if uj == i:
                st_ = st_ + src_t[j]
                sdt = sdt + src_dt[j]
        sub_t.append(st_)
        sub_dt.append(sdt)
    out = PolyForm.zero(p)
    for (exps, mask), c in omega.terms.items():
        term = PolyForm.constant(p, c)
        for i in range(q):
            for _ in range(exps[i]):
                term = term * sub_t[i]
            if not term:
                break
        if not term:
            continue
        for i in range(q):
            if (mask >> i) & 1:
                term = term * sub_dt[i]
        out = out + term
    return out


@st.composite
def small_forms(draw):
    q = draw(st.integers(0, 3))
    terms = draw(st.dictionaries(
        st.sampled_from(monomials_up_to(q, 3)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=5))
    return PolyForm(q, terms)


@settings(max_examples=40, deadline=None)
@given(small_forms())
def test_omega_apply_matches_whole_form_substitution(omega):
    for p in range(4):
        for u in monotone_maps(p, omega.n):
            got = omega_apply(u, omega)
            ref = reference_omega_apply(u, omega)
            assert got == ref
            # the terms come out in the same order as well
            assert list(got.terms) == list(ref.terms)


def test_invalid_maps_still_rejected_after_the_memo_is_warm():
    omega = PolyForm.t(2, 1) * PolyForm.dt(2, 2) + PolyForm.t(2, 2)
    for u in monotone_maps(1, 2):
        omega_apply(u, omega)
    for bad in [(2, 0), (1, 0), (0, 3), (3,)]:
        with pytest.raises(ValueError, match="not a monotone map"):
            omega_apply(bad, omega)


def test_mutating_a_pullback_does_not_change_later_ones():
    omega = PolyForm.t(1, 1) * PolyForm.t(1, 1) + PolyForm.dt(1, 1)
    u = degeneracy_map(0, 1)
    first = omega_apply(u, omega)
    expected = dict(first.terms)
    for m in list(first.terms):
        first.terms[m] = F(99)
    first.terms[((0, 0), 0)] = F(7)
    assert omega_apply(u, omega).terms == expected
    single = omega_apply(u, PolyForm.dt(1, 1))
    single.terms.clear()
    assert omega_apply(u, omega).terms == expected
    assert omega_apply(u, PolyForm.dt(1, 1)) == \
        reference_omega_apply(u, PolyForm.dt(1, 1))


def test_omega_apply_commutes_with_d():
    rng = random.Random(3)
    for _ in range(25):
        q = rng.randint(0, 3)
        p = rng.randint(0, 3)
        u = rng.choice(monotone_maps(p, q))
        omega = _random_form(rng, q, 3)
        lhs = omega_apply(u, omega).d()
        rhs = omega_apply(u, omega.d())
        assert lhs == rhs


def test_omega_apply_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        q = rng.randint(0, 3)
        p = rng.randint(0, 3)
        u = rng.choice(monotone_maps(p, q))
        a = _random_form(rng, q, 2)
        b = _random_form(rng, q, 2)
        assert omega_apply(u, a * b) == omega_apply(u, a) * omega_apply(u, b)


def test_functoriality_on_random_pairs():
    rng = random.Random(5)
    for _ in range(25):
        q = rng.randint(0, 3)
        p = rng.randint(0, 3)
        r = rng.randint(0, 3)
        u = rng.choice(monotone_maps(p, q))
        v = rng.choice(monotone_maps(r, p))
        omega = _random_form(rng, q, 3)
        lhs = omega_apply(compose_maps(u, v), omega)
        rhs = omega_apply(v, omega_apply(u, omega))
        assert lhs == rhs


def test_simplicial_identities_via_pullbacks():
    # d_j d_i = d_i d_{j-1} upstairs means the pullbacks compose the other
    # way around; check all the generating identities on forms
    rng = random.Random(13)
    n = 2
    omega = _random_form(rng, n + 1, 3)
    for i in range(n + 2):
        for j in range(i + 1, n + 2):
            # face_map(j) . face_map(i) = face_map(i) . face_map(j-1)
            lhs = compose_maps(face_map(j, n + 1), face_map(i, n))
            rhs = compose_maps(face_map(i, n + 1), face_map(j - 1, n))
            assert lhs == rhs
            assert omega_apply(lhs, omega) == omega_apply(rhs, omega)
    # sigma^j after partial^i is the identity when i = j or i = j+1
    omega1 = _random_form(rng, 1, 3)
    for n in range(3):
        for j in range(n + 1):
            for i in (j, j + 1):
                u = compose_maps(degeneracy_map(j, n), face_map(i, n + 1))
                assert u == identity_monotone(n)
    # pulling back along sigma then partial is the identity on forms
    roundtrip = omega_apply(
        face_map(0, 2), omega_apply(degeneracy_map(0, 1), omega1))
    assert roundtrip == omega1


def _poly_degree(omega):
    """Every t and every dt of a monomial counts once."""
    return max((sum(exps) + bin(mask).count("1")
                for exps, mask in omega.terms), default=0)


def test_truncation_is_a_subcomplex():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 3)
        D = rng.randint(1, 4)
        omega = _random_form(rng, n, D)
        assert _poly_degree(omega.d()) <= max(D, 0)
        u = rng.choice(monotone_maps(rng.randint(0, 3), n))
        assert _poly_degree(omega_apply(u, omega)) <= D


def test_poincare_lemma_truncated():
    # H^0 = Q and H^{>0} = 0 for the truncated complexes at desk scale
    for n in range(4):
        for D in range(1, 5):
            C, _ = truncated_form_cochain(n, D)
            bettis = C.betti_numbers(n)
            assert bettis[0] == 1
            assert all(b == 0 for b in bettis[1:])


def test_monomials_count():
    # on the 2-simplex, degree <= 2: t-monomials 1,t1,t2,t1^2,t1t2,t2^2 (6),
    # dt1,dt2 with t-degree <=1 (6), dt1dt2 (1)
    monos = monomials_up_to(2, 2)
    assert len(monos) == 13
    assert len([m for m in monos if mono_form_degree(m) == 1]) == 6


@st.composite
def monomials(draw):
    n = draw(st.integers(0, 4))
    exps = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return n, (exps, draw(st.integers(0, (1 << n) - 1)))


@settings(max_examples=80, deadline=None)
@given(monomials())
def test_monomial_d_is_polyform_d_term_for_term(nm):
    from dgdescent.forms import monomial_d
    n, mono = nm
    got = monomial_d(mono)
    ref = PolyForm(n, {mono: F(1)}).d().terms
    assert isinstance(got, tuple)
    # same terms, in the order PolyForm.d adds them
    assert got == tuple(ref.items())
    assert monomial_d(mono) is got
