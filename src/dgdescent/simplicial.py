"""Limits of finite-set-valued functors over the category of simplex
arrows.

The "arrow category" has the monotone maps u: [p] -> [q] as objects; a
morphism from u to u' is a pair (alpha, beta) of monotone maps with
beta . u . alpha = u'.  Generators are named after their nontrivial
side: d_i/s_i precompose the source with a coface/codegeneracy,
coface^i/codeg^i postcompose the target.  Objects are carried as
(q, u-tuple) since the codomain is not recoverable from the tuple.

Inverse limits of finite-set-valued functors over the truncation at
level N are computed two ways: by brute force over compatible families,
and by the matching-space recursion X(n) = X(id_n) x_{mu_n(X)} X(n-1),
which compares matching tuples; their agreement is an acceptance
criterion.  No command imports this
module: it is an oracle that only the tests run.
"""

import itertools

from .dgla import SelfCheckFailed
from .forms import (compose_maps, degeneracy_map, face_map,
                    identity_monotone, monotone_factorize, monotone_maps)


# ---------------------------------------------------------------------------
# the arrow category of the simplex category, truncated at level N


def arrow_objects(N):
    """All monotone maps [p] -> [q] with p, q <= N, as (q, u) pairs."""
    out = []
    for p in range(N + 1):
        for q in range(N + 1):
            for u in monotone_maps(p, q):
                out.append((q, u))
    return out


def generating_arrows(N):
    """Generators of the truncated arrow category as
    (kind, i, src, tgt) with kind in {d, s, coface, codeg}."""
    out = []
    for (q, u) in arrow_objects(N):
        p = len(u) - 1
        if p >= 1:
            for i in range(p + 1):
                out.append(("d", i, (q, u),
                            (q, compose_maps(u, face_map(i, p)))))
        if p + 1 <= N:
            for i in range(p + 1):
                out.append(("s", i, (q, u),
                            (q, compose_maps(u, degeneracy_map(i, p)))))
        if q + 1 <= N:
            for i in range(q + 2):
                out.append(("coface", i, (q, u),
                            (q + 1, compose_maps(face_map(i, q + 1), u))))
        if q >= 1:
            for i in range(q):
                out.append(("codeg", i, (q, u),
                            (q - 1, compose_maps(degeneracy_map(i, q - 1),
                                                 u))))
    return out


class MSetFunctor:
    """Finite-set-valued functor on the truncated arrow category.

    values: {(q, u): list of elements}; action(kind, i, src_obj, el)
    gives the generating arrows.  Arbitrary one-sided arrows act through
    the elementary factorization.
    """

    def __init__(self, N, values, action):
        self.N = N
        self.values = values
        self.action = action

    def value(self, obj):
        return self.values[obj]

    def apply_generator(self, kind, i, src, el):
        return self.action(kind, i, src, el)

    def apply_source_map(self, obj, el, alpha):
        """The arrow (alpha, id): value at obj pushed to obj . alpha."""
        q, u = obj
        p = len(u) - 1
        faces, degens = monotone_factorize(alpha, p)
        cur, cur_obj = el, obj
        for i in faces:
            q0, u0 = cur_obj
            cur = self.apply_generator("d", i, cur_obj, cur)
            cur_obj = (q0, compose_maps(u0, face_map(i, len(u0) - 1)))
        for j in degens:
            q0, u0 = cur_obj
            cur = self.apply_generator("s", j, cur_obj, cur)
            cur_obj = (q0, compose_maps(u0, degeneracy_map(j, len(u0) - 1)))
        return cur, cur_obj

    def apply_target_map(self, obj, el, beta, beta_codomain):
        """The arrow (id, beta): value at obj pushed to beta . obj."""
        faces, degens = monotone_factorize(beta, beta_codomain)
        cur, cur_obj = el, obj
        for j in reversed(degens):
            q0, u0 = cur_obj
            cur = self.apply_generator("codeg", j, cur_obj, cur)
            cur_obj = (q0 - 1, compose_maps(degeneracy_map(j, q0 - 1), u0))
        for i in reversed(faces):
            q0, u0 = cur_obj
            cur = self.apply_generator("coface", i, cur_obj, cur)
            cur_obj = (q0 + 1, compose_maps(face_map(i, q0 + 1), u0))
        return cur, cur_obj


def constant_functor(N, values):
    """The constant functor: every object gets the same set, every
    arrow the identity."""
    vals = {obj: list(values) for obj in arrow_objects(N)}
    return MSetFunctor(N, vals, lambda kind, i, src, el: el)


def matching_tuple_from_identity(X, n, z):
    """(d_0 z, ..., d_n z, codeg^0 z, ..., codeg^{n-1} z)."""
    idn = (n, identity_monotone(n))
    xs = tuple(X.apply_generator("d", i, idn, z) for i in range(n + 1))
    ys = tuple(X.apply_generator("codeg", i, idn, z) for i in range(n))
    return xs, ys


def matching_tuple_from_below(X, n, fam):
    """The image of a level-(n-1) family in mu_n: cofaces land in the
    X(face) coordinates, s_i in the X(degeneracy) coordinates."""
    idn1 = (n - 1, identity_monotone(n - 1))
    z = fam[idn1]
    xs = tuple(X.apply_generator("coface", i, idn1, z)
               for i in range(n + 1))
    ys = tuple(X.apply_generator("s", i, idn1, z) for i in range(n))
    return xs, ys


def limit_bruteforce(X, N, budget=2 * 10 ** 6):
    """All families compatible with every generating arrow."""
    objs = arrow_objects(N)
    gens = generating_arrows(N)
    choices = [X.value(o) for o in objs]
    total = 1
    for c in choices:
        total *= max(len(c), 1)
        if total > budget:
            raise ValueError("brute-force limit too large")
    out = []
    for combo in itertools.product(*choices):
        fam = dict(zip(objs, combo))
        if all(X.apply_generator(kind, i, src, fam[src]) == fam[tgt]
               for (kind, i, src, tgt) in gens):
            out.append(fam)
    return out


def limit_recursive(X, N):
    """The limit through X(n) = X(id_n) x_{mu_n(X)} X(n-1).

    Each step keeps full families: every object touching level n
    factors through id_n, so its value is pushed out of the id_n
    component along one one-sided arrow.
    """
    id0 = (0, identity_monotone(0))
    families = [{id0: z} for z in X.value(id0)]
    for n in range(1, N + 1):
        idn = (n, identity_monotone(n))
        new = []
        for fam in families:
            target = matching_tuple_from_below(X, n, fam)
            for z in X.value(idn):
                if matching_tuple_from_identity(X, n, z) == target:
                    fam2 = dict(fam)
                    fam2[idn] = z
                    new.append(fam2)
        families = new
        for fam in families:
            z = fam[idn]
            for (q, u) in arrow_objects(n):
                if (q, u) in fam:
                    continue
                p = len(u) - 1
                if q == n:
                    # alpha = u: [p] -> [n] on the source side
                    val, obj = X.apply_source_map(idn, z, u)
                elif p == n:
                    # beta = u: [n] -> [q] on the target side
                    val, obj = X.apply_target_map(idn, z, u, q)
                else:
                    raise SelfCheckFailed(
                        "object missed by the previous level")
                if obj != (q, u):
                    raise SelfCheckFailed(
                        f"object {(q, u)} reached as {obj}")
                fam[(q, u)] = val
    return families


def family_key(fam):
    """Canonical hashable form of a family, for set comparison."""
    return tuple(sorted((obj, repr(val)) for obj, val in fam.items()))


