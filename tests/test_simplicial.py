from dgdescent.forms import (compose_maps, degeneracy_map, face_map,
                             identity_monotone, monotone_factorize,
                             monotone_maps)
from dgdescent.simplicial import (MSetFunctor, arrow_objects,
                                  constant_functor, family_key,
                                  generating_arrows, limit_bruteforce,
                                  limit_recursive)


def test_monotone_factorization_recomposes():
    for p in range(4):
        for q in range(4):
            for u in monotone_maps(p, q):
                faces, degens = monotone_factorize(u, q)
                cur = identity_monotone(p)
                m = p
                for j in reversed(degens):
                    cur = compose_maps(degeneracy_map(j, m - 1), cur)
                    m -= 1
                for i in reversed(faces):
                    cur = compose_maps(face_map(i, m + 1), cur)
                    m += 1
                assert cur == u, (u, faces, degens)


def test_arrow_objects_counts():
    # N=0: only id_0; N=1: 5 monotone maps between [0],[1]
    assert len(arrow_objects(0)) == 1
    assert len(arrow_objects(1)) == 1 + 2 + 1 + 3
    gens0 = generating_arrows(0)
    assert gens0 == []


def test_generator_composites_match_enumeration():
    # the generators' targets are composites of monotone maps; check the
    # whole composition table against direct enumeration at N = 2
    N = 2
    objs = set(arrow_objects(N))
    for kind, i, src, tgt in generating_arrows(N):
        assert src in objs and tgt in objs
        q, u = src
        qq, uu = tgt
        if kind == "d":
            assert qq == q and uu == compose_maps(u, face_map(i, len(u) - 1))
        elif kind == "s":
            assert qq == q and uu == compose_maps(
                u, degeneracy_map(i, len(u) - 1))
        elif kind == "coface":
            assert qq == q + 1 and uu == compose_maps(face_map(i, q + 1), u)
        else:
            assert qq == q - 1 and uu == compose_maps(
                degeneracy_map(i, q - 1), u)


def _cosimplicial_cyclic_functor(N, sizes):
    """A small nonconstant functor: the object u: [p] -> [q] carries
    Z/sizes[q]; source-side generators act trivially, target-side act by
    the sum/projection pattern of a cosimplicial cyclic set."""
    values = {}
    for (q, u) in arrow_objects(N):
        values[(q, u)] = list(range(sizes[q]))

    def action(kind, i, src, el):
        q, u = src
        if kind in ("d", "s"):
            return el
        if kind == "coface":
            return el % sizes[q + 1]
        return el % sizes[q - 1]
    return MSetFunctor(N, values, action)


def test_limit_constant_functor_is_the_set():
    # the arrow category is connected, so the limit of a constant
    # functor is the value itself; brute force stays feasible at N <= 1
    for N in (0, 1):
        X = constant_functor(N, ["a", "b", "c"])
        rec = limit_recursive(X, N)
        assert len(rec) == 3
        bf = limit_bruteforce(X, N)
        assert sorted(map(family_key, rec)) == sorted(map(family_key, bf))
    X2 = constant_functor(2, ["a", "b"])
    assert len(limit_recursive(X2, 2)) == 2


def test_limit_level_zero_is_the_identity_value():
    X = constant_functor(0, [1, 2])
    rec = limit_recursive(X, 0)
    assert len(rec) == 2


def test_limit_recursion_matches_bruteforce_nonconstant():
    X = _cosimplicial_cyclic_functor(1, [2, 2])
    rec = limit_recursive(X, 1)
    bf = limit_bruteforce(X, 1)
    assert sorted(map(family_key, rec)) == sorted(map(family_key, bf))


def test_limit_recursion_matches_bruteforce_mixed_sizes():
    X = _cosimplicial_cyclic_functor(1, [3, 2])
    rec = limit_recursive(X, 1)
    bf = limit_bruteforce(X, 1)
    assert sorted(map(family_key, rec)) == sorted(map(family_key, bf))


def arrow_commutes(src, tgt, alpha, beta):
    """Whether (alpha, beta) is a morphism src -> tgt of the arrow
    category: beta . src . alpha == tgt as monotone maps."""
    q, u = src
    qq, uu = tgt
    if len(beta) != q + 1 or (beta and max(beta) > qq):
        return False
    if len(alpha) != len(uu):
        return False
    composed = compose_maps(beta, compose_maps(u, alpha))
    return composed == uu


def test_arrow_commuting_square():
    # the generating arrows all commute; a mismatched pair does not
    for kind, i, src, tgt in generating_arrows(2):
        q, u = src
        p = len(u) - 1
        if kind == "d":
            alpha, beta = face_map(i, p), identity_monotone(q)
        elif kind == "s":
            alpha, beta = degeneracy_map(i, p), identity_monotone(q)
        elif kind == "coface":
            alpha, beta = identity_monotone(p), face_map(i, q + 1)
        else:
            alpha, beta = identity_monotone(p), degeneracy_map(i, q - 1)
        assert arrow_commutes(src, tgt, alpha, beta)
    src = (1, (0, 1))
    assert not arrow_commutes(src, (1, (0, 0)), identity_monotone(1),
                              identity_monotone(1))
