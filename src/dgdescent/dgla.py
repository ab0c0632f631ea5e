"""Differential graded Lie and commutative algebras by structure constants.

Sign conventions used everywhere in this package:

    [x,y] = -(-1)^{|x||y|} [y,x]
    [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
    d[x,y] = [dx,y] + (-1)^{|x|} [x,dy]
    [a@x, b@y] = (-1)^{|x||b|} (ab) @ [x,y]
    d(a@x) = (da)@x + (-1)^{|a|} a@(dx)

Elements are sparse dicts {global basis index: scalar}, a scalar an
int where it is integral and a Fraction where it is not (see `linalg`);
structure tables are lowered to that form once, at construction.  Every
bracket and product table is built by `_product_table`, so graded
(anti)symmetry and the grading hold by construction, for every algebra.
The remaining axioms (Leibniz, Jacobi or associativity, the unit) are
validated eagerly at construction on every basis pair/triple; internal
constructions that preserve them may opt out (they stay covered by
randomized validation in the test suite).

A cover (`CoverSpec`) is dg Lie data too: section algebras over the
nonempty intersections and restriction `DgLieMap`s between them.
"""

import functools
import itertools

from .cochain import (Cochain, GradedSpace, canonical_table, check_chain_map,
                      map_table)
from .linalg import echelon_basis, linear_apply, lower


class SelfCheckFailed(Exception):
    """An exact check on the output of a construction failed.  The
    construction makes the checked equation hold, so a failure is a
    fault of the code, never a verdict on the input.  It is raised
    explicitly, so `python -O` does not remove the check."""


# below `io` and `tot`, so that `tot` raises it without importing `io`
class TruncationError(ValueError):
    """A cosimplicial algebra truncated below the levels a construction
    needs, or a degree bound above what it can use."""


# ---------------------------------------------------------------------------
# sparse element helpers


def el_sum(elements, start=None):
    """start + the sum of an iterable of elements, added in order."""
    out = dict(start or {})
    for e in elements:
        for k, v in e.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def el_add(x, y):
    return el_sum((y,), x)


def el_sub(x, y):
    # one subtraction per entry, not a negation and an addition
    out = dict(x)
    for k, v in y.items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def el_scale(c, x):
    if not c:
        return {}
    if type(c) is int:
        return {k: c * v for k, v in x.items()}
    # a genuine quotient can still give integral products
    return {k: lower(c * v) for k, v in x.items()}


def el_combination(coeffs, elements):
    """The sum of coeffs[j] * elements[j] over a sparse coefficient dict,
    added in index order."""
    return el_sum(el_scale(coeffs[j], elements[j]) for j in sorted(coeffs))


def el_is_zero(x):
    return all(not v for v in x.values())


def el_eq(x, y):
    return el_is_zero(el_sub(x, y))


# ---------------------------------------------------------------------------
# the structure-table kernel: with `linalg.linear_apply`, the only loops
# that push sparse elements through structure constants


def bilinear_apply(table, x, y):
    """(x, y) pushed through a bilinear table {(i, j): {k: coeff}}."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            entry = table.get((i, j))
            if not entry:
                continue
            ab = a * b
            if not ab:
                continue
            for k, c in entry.items():
                v = out.get(k, 0) + ab * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


# The keyed case: elements of the sum over levels p of W_p (x) L_p, over
# keys (p, i, w), the tensor w (x) e_i of a key w of a graded factor W_p
# with a basis index i of L_p.  The levels' algebras come as {p: L_p},
# and the factors enter through pure functions of their keys, so a
# form-valued element of several levels is pushed through each level's
# tables in one pass, without splitting it by level or by w first.


def _accumulate(out, key, t):
    v = out.get(key)
    out[key] = t if v is None else v + t


def keyed_linear_apply(algebras, x, w_d, w_odd):
    """x pushed through d(w (x) e_i) = dw (x) e_i + (-1)^{|w|} w (x) d(e_i)
    in one pass per key: w_d(w) gives the (w', c) terms of dw, w_odd(w)
    whether |w| is odd, and the differential of e_i is read off the
    d_table of algebras[p]."""
    out = {}
    for (p, i, w), a in x.items():
        for w2, c in w_d(w):
            _accumulate(out, (p, i, w2), a * c)
        entry = algebras[p].d_table.get(i)
        if entry:
            if w_odd(w):
                a = -a
            for k, c in entry.items():
                _accumulate(out, (p, k, w), a * c)
    return {k: v for k, v in out.items() if v}


def keyed_bilinear_apply(algebras, x, y, w_product, w_odd):
    """(x, y) pushed through [w1 (x) e_i, w2 (x) e_j] =
    (-1)^{|e_i||w2|} w1 w2 (x) [e_i, e_j] within each level p, visiting
    only the pairs of keys whose indices have a bracket.

    Each key of x walks the bracket table of algebras[p] by first index
    (`DgLieAlgebra.bracket_rows`); y is grouped by (p, j) once, so a key
    meets only the keys of y of its level whose index its row names.
    w_product(w1, w2) is None when w1 w2 = 0, else (w, negative) with
    w1 w2 = -w when negative and w otherwise; w_odd(w) tells whether |w|
    is odd.
    """
    ys = {}
    for (p, j, w2), b in y.items():
        ys.setdefault((p, j), []).append((w2, b, w_odd(w2)))
    out = {}
    for (p, i, w1), a in x.items():
        g = algebras[p]
        row = g.bracket_rows.get(i)
        if not row:
            continue
        i_odd = i in g.odd_indices
        for j, entry in row:
            y_j = ys.get((p, j))
            if y_j is None:
                continue
            for w2, b, w2_odd in y_j:
                prod = w_product(w1, w2)
                if prod is None:
                    continue
                w, negative = prod
                ab = a * b
                if negative != (i_odd and w2_odd):
                    ab = -ab
                for k, c in entry:
                    _accumulate(out, (p, k, w), ab * c)
    return {k: v for k, v in out.items() if v}


def _product_table(products, degree_of, sign, what, law):
    """The structure table of a graded (anti)symmetric product.

    products: {(i, j): {k: coeff}}, either order of a pair or both.
    Coefficients are lowered, every entry must land in degree
    |i| + |j|, and (j, i) is written as sign(|i|, |j|) times (i, j).
    A given entry that disagrees with the flip of its partner is
    refused; the diagonal is its own partner, so a nonzero (i, i) with
    sign(|i|, |i|) = -1 is refused too.  An explicit empty entry counts
    as zero.
    """
    table = {}
    for (i, j), val in products.items():
        val = {k: lower(v) for k, v in val.items() if v}
        di, dj = degree_of(i), degree_of(j)
        for k in val:
            if degree_of(k) != di + dj:
                raise ValueError(f"{what} ({i},{j}) hits degree "
                                 f"{degree_of(k)}, expected {di + dj}")
        s = sign(di, dj)
        flip = {k: s * v for k, v in val.items()}
        if table.get((i, j), val) != val:
            raise ValueError(f"{what} ({i},{j}) breaks {law}")
        table[(i, j)] = val
        if table.setdefault((j, i), flip) != flip:
            raise ValueError(f"{what} ({j},{i}) breaks {law}")
    return {ij: v for ij, v in table.items() if v}


def _check_leibniz(alg, product):
    """d(xy) = (dx)y + (-1)^{|x|} x(dy) on every basis pair of alg, the
    product given as a function of two elements."""
    n = alg.space.total_dim()
    for i in range(n):
        xi = {i: 1}
        dxi = alg.d_element(xi)
        sign = (-1) ** alg.degree_of(i)
        for j in range(n):
            xj = {j: 1}
            left = alg.d_element(alg.table.get((i, j), {}))
            right = el_add(product(dxi, xj),
                           el_scale(sign, product(xi, alg.d_element(xj))))
            if not el_eq(left, right):
                raise ValueError(f"Leibniz fails on pair ({i},{j})")


def _check_associativity(multiply, n):
    """(xy)z = x(yz) on every basis triple of an n-dimensional algebra,
    the product given as a function of two elements."""
    for i in range(n):
        for j in range(n):
            xy = multiply({i: 1}, {j: 1})
            for k in range(n):
                if not el_eq(multiply(xy, {k: 1}),
                             multiply({i: 1}, multiply({j: 1}, {k: 1}))):
                    raise ValueError(
                        f"associativity fails on ({i},{j},{k})")


class DgLieAlgebra:
    """Finite-dimensional non-negatively graded dg Lie algebra."""

    _lcs = None     # the lower central series, once computed

    def __init__(self, cochain, brackets, validate=True, name=None):
        """brackets: {(i, j): {k: coeff}} on global basis indices.

        Missing pairs are zero; the (j, i) entry is filled in from graded
        antisymmetry when only one order is given.
        """
        self.cochain = cochain
        self.space = cochain.space
        self.name = name
        self.table = _product_table(
            brackets, self.space.degree_of, lambda a, b: -(-1) ** (a * b),
            "bracket", "graded antisymmetry")
        self.d_table = cochain.d
        if validate:
            self.validate()

    # -- basic structure ----------------------------------------------------

    def degree_of(self, gidx):
        return self.space.degree_of(gidx)

    def total_dim(self):
        return self.space.total_dim()

    def bracket_basis(self, i, j):
        return self.table.get((i, j), {})

    def bracket(self, x, y):
        return bilinear_apply(self.table, x, y)

    def d_element(self, x):
        return linear_apply(self.d_table, x)

    @functools.cached_property
    def bracket_rows(self):
        """The bracket table by first index, {i: [(j, (k, coeff) pairs
        of [e_i, e_j]), ...]} with the j in increasing order: the view
        `keyed_bilinear_apply` walks.  Computed once per algebra."""
        rows = {}
        for (i, j), entry in sorted(self.table.items()):
            rows.setdefault(i, []).append((j, tuple(entry.items())))
        return rows

    @functools.cached_property
    def odd_indices(self):
        return frozenset(i for i in range(self.total_dim())
                         if self.degree_of(i) % 2)

    def basis_element(self, gidx):
        return {gidx: 1}

    def is_abelian(self):
        return not self.table

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check Leibniz and Jacobi on all basis tuples; graded
        antisymmetry holds by construction."""
        _check_leibniz(self, self.bracket)
        n = self.total_dim()
        for i in range(n):
            di = self.degree_of(i)
            xi = self.basis_element(i)
            for j in range(n):
                dj = self.degree_of(j)
                xj = self.basis_element(j)
                for k in range(n):
                    xk = self.basis_element(k)
                    lhs = self.bracket(xi, self.bracket(xj, xk))
                    rhs = el_add(
                        self.bracket(self.bracket(xi, xj), xk),
                        el_scale((-1) ** (di * dj),
                                 self.bracket(xj, self.bracket(xi, xk))))
                    if not el_eq(lhs, rhs):
                        raise ValueError(
                            f"Jacobi fails on triple ({i},{j},{k})")
        return True


class DgLieMap:
    """Map of dg Lie algebras, stored as its table {source index:
    {target index: coeff}}: a chain map respecting brackets.

    Every basis element keeps its degree and d f = f d is checked on
    every basis element; the bracket only when validate is set.
    """

    def __init__(self, source, target, table, validate=True):
        self.source = source
        self.target = target
        self.table = canonical_table(table, source.space, target.space)
        check_chain_map(self.table, source.cochain, target.cochain)
        if validate:
            n = source.total_dim()
            for i in range(n):
                for j in range(n):
                    lhs = self.apply(source.bracket_basis(i, j))
                    rhs = target.bracket(self.apply(source.basis_element(i)),
                                         self.apply(source.basis_element(j)))
                    if not el_eq(lhs, rhs):
                        raise ValueError(
                            f"map breaks the bracket on pair ({i},{j})")

    def apply(self, x):
        return linear_apply(self.table, x)

    def is_surjective(self):
        """Whether the images of the basis span the target."""
        return len(echelon_basis(list(self.table.values()))) == \
            self.target.total_dim()


def identity_map(g):
    return DgLieMap(g, g, {i: {i: 1} for i in range(g.total_dim())},
                    validate=False)


# ---------------------------------------------------------------------------
# covers


class RestrictionError(ValueError):
    """A restriction of a CoverSpec that goes the wrong way, does not
    match the stored algebras, is missing or breaks functoriality."""


class CoverSpec:
    """Combinatorial cover: section algebras over nonempty intersections.

    sections: {frozenset J: DgLieAlgebra} for nonempty U_J (J a nonempty
    subset of range(num_opens)); absent J means U_J is empty, and at
    least one U_J is nonempty.
    restrictions: {(J, J2): DgLieMap}, one for every pair J < J2 of
    nonempty intersections; identities are implicit, composites are
    validated.
    """

    def __init__(self, num_opens, sections, restrictions, name=None):
        self.num_opens = num_opens
        self.sections = {frozenset(J): g for J, g in sections.items()}
        self.restrictions = {(frozenset(J), frozenset(J2)): f
                             for (J, J2), f in restrictions.items()}
        self.name = name
        if not self.sections:
            raise ValueError("a cover needs at least one nonempty open")
        # bounds, not set(range(num_opens)): the declared count of
        # opens must not decide how much memory the check takes
        for J in self.sections:
            if not J or not all(isinstance(i, int) and 0 <= i < num_opens
                                for i in J):
                raise ValueError(f"bad index set {set(J)}")
        # monotonicity of nonemptiness: subsets of nonempty are nonempty
        for J in self.sections:
            for sub in _nonempty_subsets(J):
                if sub not in self.sections:
                    raise ValueError(
                        f"intersection over {set(sub)} must be nonempty "
                        f"since the one over {set(J)} is")
        # every declared restriction connects stored algebras
        for (J, J2), f in self.restrictions.items():
            if J == J2 or not J <= J2:
                raise RestrictionError("restrictions go from fewer opens "
                                       "to more")
            if f.source is not self.sections[J] or \
                    f.target is not self.sections.get(J2):
                raise RestrictionError(f"restriction ({set(J)}, {set(J2)}) "
                                       f"does not match the stored algebras")
        # and every pair of stored algebras has one
        for J2 in self.sections:
            for J in _nonempty_subsets(J2):
                if (J, J2) not in self.restrictions:
                    raise RestrictionError(
                        f"missing restriction {set(J)} -> {set(J2)}")
        self._check_functoriality()

    def algebra(self, J):
        return self.sections.get(frozenset(J))

    def restrict(self, J, J2, x):
        J, J2 = frozenset(J), frozenset(J2)
        if J == J2:
            return dict(x)
        if J2 not in self.sections:
            return {}
        return self.restrictions[(J, J2)].apply(x)

    def _check_functoriality(self):
        for J in self.sections:
            for J2 in self.sections:
                if not (J < J2):
                    continue
                for J1 in self.sections:
                    if not (J < J1 and J1 < J2):
                        continue
                    g = self.sections[J]
                    for b in range(g.total_dim()):
                        x = g.basis_element(b)
                        via = self.restrict(J1, J2, self.restrict(J, J1, x))
                        direct = self.restrict(J, J2, x)
                        if not el_eq(via, direct):
                            raise RestrictionError(
                                f"restrictions fail functoriality on "
                                f"{set(J)} -> {set(J1)} -> {set(J2)}")


def _nonempty_subsets(J):
    J = sorted(J)
    for r in range(1, len(J)):
        for c in itertools.combinations(J, r):
            yield frozenset(c)


# ---------------------------------------------------------------------------
# commutative side: dg commutative algebras and artinian local algebras


class DgCommAlgebra:
    """Graded commutative dg algebra with unit, by structure constants."""

    def __init__(self, cochain, products, unit_index, validate=True):
        self.cochain = cochain
        self.space = cochain.space
        self.table = _product_table(
            products, self.space.degree_of, lambda a, b: (-1) ** (a * b),
            "product", "graded commutativity")
        self.unit_index = unit_index
        self.d_table = cochain.d
        if validate:
            self.validate()

    def degree_of(self, gidx):
        return self.space.degree_of(gidx)

    def multiply(self, x, y):
        return bilinear_apply(self.table, x, y)

    def d_element(self, x):
        return linear_apply(self.d_table, x)

    def basis_element(self, gidx):
        return {gidx: 1}

    def validate(self):
        """Check the unit, Leibniz and associativity on all basis tuples;
        graded commutativity holds by construction."""
        n = self.space.total_dim()
        one = self.basis_element(self.unit_index)
        if self.degree_of(self.unit_index) != 0:
            raise ValueError("unit must sit in degree 0")
        for i in range(n):
            xi = self.basis_element(i)
            if not el_eq(self.multiply(one, xi), xi) or \
                    not el_eq(self.multiply(xi, one), xi):
                raise ValueError(f"unit axiom fails on {i}")
        _check_leibniz(self, self.multiply)
        _check_associativity(self.multiply, n)
        return True


class MaximalIdeal:
    """Non-unital nilpotent commutative algebra, all in degree 0."""

    def __init__(self, labels, products):
        """products: {(i, j): {k: coeff}} on ideal basis indices."""
        self.labels = list(labels)
        self.table = _product_table(products, lambda i: 0, lambda a, b: 1,
                                    "ideal product", "commutativity")
        _check_associativity(self.multiply, len(self.labels))
        self.nilpotency = self._nilpotency_degree()

    def multiply(self, x, y):
        return bilinear_apply(self.table, x, y)

    def _nilpotency_degree(self):
        """Smallest s with m^s = 0; raises if the powers never die."""
        n = len(self.labels)
        power = [{i: 1} for i in range(n)]
        s = 1
        while power:
            power = echelon_basis([self.multiply({i: 1}, x)
                                   for x in power for i in range(n)])
            s += 1
            if s > n + 1:
                raise ValueError("ideal is not nilpotent")
        return s


class ArtinAlgebra:
    """Commutative local artinian algebra A = k.1 (+) m with m nilpotent.

    The input is the maximal ideal m: its basis labels and its products
    {(i, j): {k: coeff}} on ideal indices; the unit is implicit.  m is
    validated as a commutative, associative and nilpotent algebra.
    """

    def __init__(self, ideal_labels, ideal_products, name=None):
        self.name = name
        self.ideal = MaximalIdeal(ideal_labels, ideal_products)

    def maximal_ideal(self):
        return self.ideal


# ---------------------------------------------------------------------------
# tensor products


def _tensor_space(a_basis, g, a_degrees):
    degrees = {}
    for ai, alab in enumerate(a_basis):
        for gi in range(g.total_dim()):
            n = a_degrees[ai] + g.degree_of(gi)
            degrees.setdefault(n, []).append((alab, g.space.label_of(gi)))
    return GradedSpace(degrees)


def tensor_lie(A, g, validate=True):
    """Tensor a commutative algebra (or artinian ideal) with a dg Lie algebra.

    For a MaximalIdeal / ArtinAlgebra input the result is nilpotent and is
    returned as a NilpotentDgLie (certified by computing the lower central
    series); for a DgCommAlgebra input a plain DgLieAlgebra is returned.
    """
    if isinstance(A, ArtinAlgebra):
        A = A.maximal_ideal()
    if isinstance(A, MaximalIdeal):
        a_basis = list(A.labels)
        a_degrees = [0] * len(a_basis)
        a_d = None
        certify = True
    elif isinstance(A, DgCommAlgebra):
        a_basis = [A.space.label_of(i) for i in range(A.space.total_dim())]
        a_degrees = [A.degree_of(i) for i in range(A.space.total_dim())]
        a_d = A
        certify = False
    else:
        raise TypeError("tensor_lie expects a DgCommAlgebra, ArtinAlgebra "
                        "or MaximalIdeal")

    space = _tensor_space(a_basis, g, a_degrees)
    index = {}
    for ai, alab in enumerate(a_basis):
        for gi in range(g.total_dim()):
            n = a_degrees[ai] + g.degree_of(gi)
            index[(ai, gi)] = space.index(n, (alab, g.space.label_of(gi)))

    # differential: d(a@x) = (da)@x + (-1)^{|a|} a@(dx), written off the
    # factors' tables
    d = {}
    for (ai, gi), src in index.items():
        parts = []
        if a_d is not None:
            parts.append({index[(aj, gi)]: v
                          for aj, v in a_d.d_table.get(ai, {}).items()})
        sign = (-1) ** a_degrees[ai]
        parts.append({index[(ai, gj)]: sign * v
                      for gj, v in g.d_table.get(gi, {}).items()})
        d[src] = el_sum(parts)
    cochain = Cochain(space, d)

    # bracket: [a@x, b@y] = (-1)^{|x||b|} (ab) @ [x,y], one entry per pair
    # of entries of the factors' tables
    brackets = {}
    for (gi, gj), gbr in g.table.items():
        for (ai, bj), ab in A.table.items():
            sign = (-1) ** (g.degree_of(gi) * a_degrees[bj])
            entry = {}
            for ck, cv in ab.items():
                for gk, gv in gbr.items():
                    t = index[(ck, gk)]
                    v = entry.get(t, 0) + sign * cv * gv
                    if v:
                        entry[t] = v
                    else:
                        entry.pop(t, None)
            if entry:
                brackets[(index[(ai, gi)], index[(bj, gj)])] = entry
    out = DgLieAlgebra(cochain, brackets, validate=validate,
                       name=f"tensor({getattr(A, 'name', 'A')},{g.name})")
    out.tensor_index = index
    if certify:
        nil = lower_central_series(out)
        if isinstance(nil, NotNilpotent):
            raise SelfCheckFailed("tensor with a nilpotent ideal must be "
                                  "nilpotent")
        if nil.nilpotency_class >= A.nilpotency:
            raise SelfCheckFailed("the class of m (x) g must be below the "
                                  "nilpotency degree of m")
        return nil
    return out


# ---------------------------------------------------------------------------
# lower central series and nilpotency


class NotNilpotent:
    """Stabilized nonzero term of the lower central series."""

    def __init__(self, stage, subspace):
        self.stage = stage
        self.subspace = subspace

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NotNilpotent(stage={self.stage})"


class NilpotentDgLie:
    """A dg Lie algebra together with its lower central series.

    lcs[i] for i >= 1 holds, per degree, the `echelon_basis` of F^i as
    sparse elements of the algebra; F^{c+1} = 0 where c is the class.
    """

    def __init__(self, algebra, lcs, nilpotency_class):
        self.algebra = algebra
        self.lcs = lcs
        self.nilpotency_class = nilpotency_class

    def stage_elements(self, i, degree):
        """The basis of F^i in the given degree, as fresh elements."""
        if i <= 0:
            raise ValueError("stages are numbered from 1")
        if i > self.nilpotency_class:
            return []
        return [dict(e) for e in self.lcs[i].get(degree, [])]


def lower_central_series(g):
    """F^1 = g, F^{i+1} = [g, F^i]; returns NilpotentDgLie or NotNilpotent.

    The result is stored on g, and later calls return that same object:
    an algebra is not changed after its construction, and no caller
    changes the stored series.  Each stage either lowers the dimension
    or stops the series, so it ends within total_dim() + 1 stages.

    The series of a `direct_product` is the product of its factors'
    series (`_product_series`) when every factor is nilpotent; otherwise
    the stages are bracketed out here.
    """
    if g._lcs is not None:
        return g._lcs
    lcs = {1: g.space.unit_bases()}
    if g.total_dim() == 0:
        g._lcs = NilpotentDgLie(g, lcs, 0)
        return g._lcs
    if getattr(g, "components", None):
        nil = _product_series(g)
        if nil is not None:
            g._lcs = nil
            return nil
    i = 1
    while True:
        current = lcs[i]
        brackets = {}
        for x in (x for els in current.values() for x in els):
            for b in range(g.total_dim()):
                w = g.bracket(g.basis_element(b), x)
                if w:
                    brackets.setdefault(g.degree_of(next(iter(w))),
                                        []).append(w)
        nxt = {n: echelon_basis(ws) for n, ws in brackets.items()}
        nxt = {n: vs for n, vs in nxt.items() if vs}
        dim_now = sum(len(v) for v in current.values())
        dim_next = sum(len(v) for v in nxt.values())
        if dim_next == 0:
            g._lcs = NilpotentDgLie(g, lcs, i)
            return g._lcs
        if dim_next == dim_now:
            g._lcs = NotNilpotent(i + 1, nxt)
            return g._lcs
        lcs[i + 1] = nxt
        i += 1


def _product_series(g):
    """The lower central series of a direct product, put together from
    the factors' stored series, or None when a factor is not nilpotent.

    [g, F^i] is computed componentwise, so stage i of the product is the
    sum of the factors' stages i, each carried through its embedding.
    The embeddings keep the order of the indices, so the factors'
    reduced echelon bases stay reduced and keep their keys in
    increasing order; merged by pivot they are the product's
    `echelon_basis`, the same lists the bracket loop would give."""
    nils = []
    for _, factor, emb in g.components:
        nil = lower_central_series(factor)
        if isinstance(nil, NotNilpotent):
            return None
        nils.append((nil, emb))
    nclass = max(nil.nilpotency_class for nil, _ in nils)
    lcs = {1: g.space.unit_bases()}
    for i in range(2, nclass + 1):
        stage = {}
        for nil, emb in nils:
            if i <= nil.nilpotency_class:
                for n, els in nil.lcs[i].items():
                    stage.setdefault(n, []).extend(
                        {emb[k]: c for k, c in el.items()} for el in els)
        lcs[i] = {n: sorted(els, key=lambda el: next(iter(el)))
                  for n, els in sorted(stage.items()) if els}
    return NilpotentDgLie(g, lcs, nclass)


def _sub_cochain(nil, stage):
    """The complex F^stage with its induced differential, and its basis:
    per degree, the stage's echelonized basis as elements."""
    g = nil.algebra
    basis = {}
    for n in g.space.nonzero_degrees():
        els = nil.stage_elements(stage, n)
        if els:
            basis[n] = els
    degrees = {n: [f"s{stage}d{n}_{i}" for i in range(len(els))]
               for n, els in basis.items()}
    return Cochain(GradedSpace(degrees),
                   map_table(g.d_element, basis, basis, 1)), basis


def is_acyclic_fibration(f, nil_source=None, nil_target=None):
    """Surjective, and a quasi-isomorphism on every F^i."""
    if nil_source is None:
        nil_source = lower_central_series(f.source)
    if nil_target is None:
        nil_target = lower_central_series(f.target)
    if isinstance(nil_source, NotNilpotent) or \
            isinstance(nil_target, NotNilpotent):
        raise ValueError("acyclic fibrations are defined between nilpotent "
                         "algebras")
    if not f.is_surjective():
        return False
    from .cochain import CochainMap, is_quasi_iso
    top_stage = max(nil_source.nilpotency_class, nil_target.nilpotency_class)
    for i in range(1, top_stage + 1):
        src_c, src_basis = _sub_cochain(nil_source, i)
        tgt_c, tgt_basis = _sub_cochain(nil_target, i)
        fmap = CochainMap(src_c, tgt_c,
                          map_table(f.apply, src_basis, tgt_basis))
        if not is_quasi_iso(fmap):
            return False
    return True


# ---------------------------------------------------------------------------
# direct products (used for Cech levels)


def direct_product(factors, tags=None):
    """Product dg Lie algebra with componentwise structure.

    Basis labels are (tag, original label); the returned algebra carries
    a .components list of (tag, factor, {factor gidx: product gidx}).
    """
    if tags is None:
        tags = list(range(len(factors)))
    degrees = {}
    for tag, g in zip(tags, factors):
        for gi in range(g.total_dim()):
            n = g.degree_of(gi)
            degrees.setdefault(n, []).append((tag, g.space.label_of(gi)))
    space = GradedSpace(degrees)
    components = []
    for tag, g in zip(tags, factors):
        emb = {}
        for gi in range(g.total_dim()):
            n = g.degree_of(gi)
            emb[gi] = space.index(n, (tag, g.space.label_of(gi)))
        components.append((tag, g, emb))
    # the differential and the brackets relabel the factors' tables
    d = {}
    brackets = {}
    for tag, g, emb in components:
        for i, val in g.d_table.items():
            d[emb[i]] = {emb[k]: v for k, v in val.items()}
        for (i, j), val in g.table.items():
            brackets[(emb[i], emb[j])] = {emb[k]: v for k, v in val.items()}
    out = DgLieAlgebra(Cochain(space, d), brackets, validate=False,
                       name="x".join(str(t) for t in tags))
    out.components = components
    return out
