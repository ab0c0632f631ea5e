"""Finite simplicial sets and limits over the category of simplex arrows.

Simplices are kept in Eilenberg-Zilber normal form (word, name): name a
nondegenerate simplex, word a strictly decreasing tuple (j1 > ... > jk)
standing for s_{j1} s_{j2} ... s_{jk} applied to it.  Face and
degeneracy operators act through the simplicial identities.

The "arrow category" has the monotone maps u: [p] -> [q] as objects; a
morphism from u to u' is a pair (alpha, beta) of monotone maps with
beta . u . alpha = u'.  Generators are named after their nontrivial
side: d_i/s_i precompose the source with a coface/codegeneracy,
coface^i/codeg^i postcompose the target.  Objects are carried as
(q, u-tuple) since the codomain is not recoverable from the tuple.

Inverse limits of finite-set-valued functors over the truncation at
level N are computed two ways: by brute force over compatible families,
and by the matching-space recursion X(n) = X(id_n) x_{mu_n(X)} X(n-1);
their agreement is an acceptance criterion.
"""

import itertools

from .forms import (compose_maps, degeneracy_map, face_map,
                    identity_monotone, monotone_factorize, monotone_maps)


# ---------------------------------------------------------------------------
# normal forms for degenerate simplices


def word_insert(word, i):
    """Normal form of s_i applied after the degeneracy word."""
    if not word or i > word[0]:
        return (i,) + word
    # s_i s_j = s_{j+1} s_i for i <= j
    return (word[0] + 1,) + word_insert(word[1:], i)


def degeneracy_monotone(word, total_dim):
    """The monotone surjection realized by a degeneracy word.

    For the simplex s_{j1}...s_{jk}(y) of dimension total_dim, the
    compatible-family value is the pullback of the value on y along
    this map [total_dim] -> [total_dim - k].
    """
    u = identity_monotone(total_dim)
    m = total_dim
    for j in word:
        u = compose_maps(degeneracy_map(j, m - 1), u)
        m -= 1
    return u


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension plus their face table."""

    def __init__(self, cells, faces, name=None):
        """cells: {dim: [names]}; faces: {(name, i): (word, name)}."""
        self.cells = {n: list(v) for n, v in cells.items() if v}
        self.face_table = dict(faces)
        self.name = name
        self._dim_of = {}
        for n, names in self.cells.items():
            for nm in names:
                if nm in self._dim_of:
                    raise ValueError(f"duplicate simplex name {nm!r}")
                self._dim_of[nm] = n
        for n, names in self.cells.items():
            if n == 0:
                continue
            for nm in names:
                for i in range(n + 1):
                    if (nm, i) not in self.face_table:
                        raise ValueError(f"missing face ({nm!r}, {i})")
        self.validate()

    def dim_of_name(self, name):
        return self._dim_of[name]

    def dim_of(self, simplex):
        word, name = simplex
        return len(word) + self._dim_of[name]

    def dimension(self):
        return max(self.cells, default=-1)

    def nondegenerate(self, n=None):
        if n is None:
            return [(m, nm) for m in sorted(self.cells)
                    for nm in self.cells[m]]
        return self.cells.get(n, [])

    def face(self, simplex, i):
        word, name = simplex
        if not word:
            m = self._dim_of[name]
            if m == 0:
                raise ValueError("vertices have no faces")
            if not 0 <= i <= m:
                raise ValueError(f"face index {i} out of range")
            return self.face_table[(name, i)]
        j = word[0]
        rest = (word[1:], name)
        if i < j:
            w, nm = self.face(rest, i)
            return (word_insert(w, j - 1), nm)
        if i in (j, j + 1):
            return rest
        w, nm = self.face(rest, i - 1)
        return (word_insert(w, j), nm)

    def degeneracy(self, simplex, i):
        word, name = simplex
        if not 0 <= i <= self.dim_of(simplex):
            raise ValueError(f"degeneracy index {i} out of range")
        return (word_insert(word, i), name)

    def simplices(self, n):
        """All n-simplices: nondegenerate plus normal-form degeneracies."""
        out = [((), nm) for nm in self.cells.get(n, [])]
        for m in sorted(self.cells):
            if m >= n:
                continue
            for nm in self.cells[m]:
                for comb in itertools.combinations(range(n), n - m):
                    out.append((tuple(sorted(comb, reverse=True)), nm))
        return out

    def validate(self):
        for n, names in self.cells.items():
            if n < 2:
                continue
            for nm in names:
                sx = ((), nm)
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        lhs = self.face(self.face(sx, j), i)
                        rhs = self.face(self.face(sx, i), j - 1)
                        if lhs != rhs:
                            raise ValueError(
                                f"simplicial identity d_{i} d_{j} fails "
                                f"on {nm!r}")
        return True


def standard_simplex(n):
    """Delta^n: nondegenerate simplices are increasing vertex tuples."""
    cells = {}
    faces = {}
    for m in range(n + 1):
        cells[m] = list(itertools.combinations(range(n + 1), m + 1))
    for m in range(1, n + 1):
        for nm in cells[m]:
            for i in range(m + 1):
                faces[(nm, i)] = ((), nm[:i] + nm[i + 1:])
    return FiniteSimplicialSet(cells, faces, name=f"Delta^{n}")


def boundary_simplex(n):
    """The boundary of Delta^n."""
    full = standard_simplex(n)
    cells = {m: v for m, v in full.cells.items() if m < n}
    faces = {(nm, i): f for (nm, i), f in full.face_table.items()
             if len(nm) - 1 < n}
    return FiniteSimplicialSet(cells, faces, name=f"bdry Delta^{n}")


def disjoint_points(k):
    return FiniteSimplicialSet({0: [f"p{i}" for i in range(k)]}, {},
                               name=f"{k} points")


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


def matching_space(X, n):
    """Enumerate mu_n(X) through the conditions (d), (sigma), (d sigma).

    Returns the list of ((x_0..x_n), (y^0..y^{n-1})); n = 0 gives the
    single empty tuple (terminal object).
    """
    if n == 0:
        return [((), ())]
    face_objs = [(n, face_map(i, n)) for i in range(n + 1)]
    deg_objs = [(n - 1, degeneracy_map(i, n - 1)) for i in range(n)]
    out = []
    for xs in itertools.product(*[X.value(o) for o in face_objs]):
        ok = True
        for j in range(n + 1):
            for i in range(j):
                # (d): d_i x_j = d_{j-1} x_i
                lhs = X.apply_generator("d", i, face_objs[j], xs[j])
                rhs = X.apply_generator("d", j - 1, face_objs[i], xs[i])
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for ys in itertools.product(*[X.value(o) for o in deg_objs]):
            good = True
            for i in range(n):
                for j in range(i, n - 1):
                    # (sigma): sigma^j y^i = sigma^i y^{j+1}
                    lhs = X.apply_generator("codeg", j, deg_objs[i], ys[i])
                    rhs = X.apply_generator("codeg", i, deg_objs[j + 1],
                                            ys[j + 1])
                    if lhs != rhs:
                        good = False
                        break
                if not good:
                    break
            if good:
                for i in range(n + 1):
                    for j in range(n):
                        # (d sigma): sigma^j x_i = d_i y^j
                        lhs = X.apply_generator("codeg", j, face_objs[i],
                                                xs[i])
                        rhs = X.apply_generator("d", i, deg_objs[j], ys[j])
                        if lhs != rhs:
                            good = False
                            break
                    if not good:
                        break
            if good:
                out.append((tuple(xs), tuple(ys)))
    return out


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
                    raise AssertionError(
                        "object missed by the previous level")
                if obj != (q, u):
                    raise AssertionError(
                        f"object {(q, u)} reached as {obj}")
                fam[(q, u)] = val
    return families


def family_key(fam):
    """Canonical hashable form of a family, for set comparison."""
    return tuple(sorted((obj, repr(val)) for obj, val in fam.items()))


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


# ---------------------------------------------------------------------------
# simplicial-set-valued functors, handled one simplicial level at a time


class MSimplicialFunctor:
    """A functor into simplicial sets, presented levelwise.

    levels[m] is the set-valued functor of m-simplices; face/degen give
    the simplicial operators X(a)_m -> X(a)_{m -+ 1}, natural in the
    object a.  Naturality makes every levelwise limit construction act
    componentwise on families.
    """

    def __init__(self, N, levels, face, degen):
        self.N = N
        self.levels = dict(levels)
        self.face = face
        self.degen = degen

    def limit(self):
        """Per-dimension families of the inverse limit, with the induced
        face/degeneracy action (componentwise)."""
        fams = {m: limit_recursive(X, self.N)
                for m, X in sorted(self.levels.items())}
        return LimitSimplicialSet(self, fams)


class LimitSimplicialSet:
    """The levelwise limit of an MSimplicialFunctor, with its simplicial
    operators acting componentwise on compatible families."""

    def __init__(self, functor, families):
        self.functor = functor
        self.families = families

    def simplices(self, m):
        return self.families.get(m, [])

    def face(self, m, i, fam):
        out = {obj: self.functor.face(m, i, obj, el)
               for obj, el in fam.items()}
        if family_key(out) not in {family_key(f)
                                   for f in self.families.get(m - 1, [])}:
            raise ValueError(
                "face left the limit; the operators were not natural")
        return out

    def degeneracy(self, m, i, fam):
        out = {obj: self.functor.degen(m, i, obj, el)
               for obj, el in fam.items()}
        if family_key(out) not in {family_key(f)
                                   for f in self.families.get(m + 1, [])}:
            raise ValueError(
                "degeneracy left the limit; the operators were not natural")
        return out


def constant_msimplicial(N, sset, max_dim):
    """The constant functor at a finite simplicial set, levelwise."""
    levels = {}
    for m in range(max_dim + 1):
        values = {obj: sset.simplices(m) for obj in arrow_objects(N)}
        levels[m] = MSetFunctor(N, values,
                                lambda kind, i, src, el: el)
    return MSimplicialFunctor(
        N, levels,
        face=lambda m, i, obj, el: sset.face(el, i),
        degen=lambda m, i, obj, el: sset.degeneracy(el, i))
