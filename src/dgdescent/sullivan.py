"""Polynomial forms on finite simplicial sets; extension from boundaries.

A form on a finite simplicial set is a compatible family: one PolyForm
per nondegenerate simplex, with the value on any degenerate simplex
defined as the pullback of its core along the degeneracy surjection,
and face restrictions matching everywhere.  Compatibility is a linear
condition on coefficients, so the degree-D truncation is a plain
kernel computation and comes back as a finite-dimensional complex.
"""

from fractions import Fraction

from .cochain import Cochain, GradedSpace, map_table
from .forms import (PolyForm, face_map, mono_form_degree, monomial_pullback,
                    monomials_up_to, restrict_to_face)
from .linalg import NoSolution, ZERO, sparse_kernel, sparse_solve_affine
from .simplicial import degeneracy_monotone


class BoundExhausted(Exception):
    """No extension found within the configured degree bound.

    The restriction map onto boundary forms is surjective, so hitting
    this means either the input family was incompatible or the ceiling
    was set below the degree the data genuinely needs.
    """


class SimplicialForms:
    """Compatible form families on a finite simplicial set, degree <= D.

    Elements are dicts {(cell name, monomial): Fraction}.  The basis is
    organized by form degree; the complex and the simplexwise product
    are exposed on top of it.
    """

    def __init__(self, sset, D):
        self.sset = sset
        self.D = D
        self.keys_by_degree = {}
        for m, name in sset.nondegenerate():
            for mono in monomials_up_to(m, D):
                k = mono_form_degree(mono)
                self.keys_by_degree.setdefault(k, []).append((name, mono))
        self.basis_by_degree = {}
        for k, keys in sorted(self.keys_by_degree.items()):
            self.basis_by_degree[k] = self._solve_degree(keys)
        degrees = {k: [f"w{k}_{i}" for i in range(len(v))]
                   for k, v in self.basis_by_degree.items() if v}
        self.cochain = Cochain(GradedSpace(degrees), map_table(
            self.differential, self.basis_by_degree, self.basis_by_degree, 1))

    # -- compatibility ---------------------------------------------------------

    def _solve_degree(self, keys):
        """Basis of the compatible families on the span of keys: every
        face restriction of every cell equals the (possibly degenerate)
        family value on that face.  One sparse row per (cell, face,
        monomial of the face): the column of a key of the cell holds
        its restricted monomial, the column of a key of the face's core
        minus its pullback along the degeneracy (`monomial_pullback`).
        Basis vector i is 1 on its free key and 0 on the others'."""
        sset = self.sset
        cols = {}
        for col, (name, mono) in enumerate(keys):
            cols.setdefault(name, []).append((col, mono))
        rows = {}
        for m, name in sset.nondegenerate():
            if m == 0:
                continue
            for i in range(m + 1):
                word, core = sset.face(((), name), i)
                u = degeneracy_monotone(word, m - 1)
                for col, mono in cols.get(name, ()):
                    for m2, c in monomial_pullback(face_map(i, m), m, mono):
                        rows.setdefault((name, i, m2), {})[col] = c
                for col, mono in cols.get(core, ()):
                    for m2, c in monomial_pullback(
                            u, sset.dim_of_name(core), mono):
                        rows.setdefault((name, i, m2), {})[col] = -c
        return [{keys[j]: v[j] for j in sorted(v)}
                for v in sparse_kernel(list(rows.values()), len(keys))]

    # -- element operations ------------------------------------------------------

    def differential(self, fam):
        out = {}
        for (name, mono), c in fam.items():
            m = self.sset.dim_of_name(name)
            df = PolyForm(m, {mono: c}).d()
            for m2, c2 in df.terms.items():
                kk = (name, m2)
                v = out.get(kk, ZERO) + c2
                if v:
                    out[kk] = v
                else:
                    out.pop(kk, None)
        return out

    def multiply(self, fam1, fam2):
        """Simplexwise product; lands in degree bound 2D."""
        by_name = {}
        for (name, mono), c in fam2.items():
            by_name.setdefault(name, {})[mono] = c
        out = {}
        for (name, mono), c in fam1.items():
            other = by_name.get(name)
            if not other:
                continue
            m = self.sset.dim_of_name(name)
            prod = PolyForm(m, {mono: c}) * PolyForm(m, other)
            for m2, c2 in prod.terms.items():
                kk = (name, m2)
                v = out.get(kk, ZERO) + c2
                if v:
                    out[kk] = v
                else:
                    out.pop(kk, None)
        return out

    def constant_family(self, c):
        out = {}
        for m, name in self.sset.nondegenerate():
            if m == 0:
                out[(name, ((), 0))] = Fraction(c)
            else:
                out[(name, ((0,) * m, 0))] = Fraction(c)
        return out


def omega_of_sset(sset, D):
    """The degree-D truncated forms on a finite simplicial set."""
    return SimplicialForms(sset, D)


def extend_from_boundary(facet_forms, n, D, max_degree=None):
    """A form on Delta^n restricting to the given facet family.

    facet_forms: list of n+1 PolyForms on Delta^{n-1}, the values on the
    facets d_0..d_n of the top cell.  The family must be compatible
    (matching second restrictions); the output degree starts at
    max(D, input degree) and is raised until the affine system solves.
    """
    if len(facet_forms) != n + 1:
        raise ValueError(f"expected {n + 1} facet forms")
    for f in facet_forms:
        if f.n != n - 1:
            raise ValueError("facet forms must live on the (n-1)-simplex")
    if n >= 2:
        # vertices share no subfaces, so only n >= 2 has conditions
        for j in range(n + 1):
            for i in range(j):
                lhs = restrict_to_face(facet_forms[j], i)
                rhs = restrict_to_face(facet_forms[i], j - 1)
                if lhs != rhs:
                    raise ValueError(
                        f"facet family incompatible between "
                        f"faces {i} and {j}")
    start = max(D, max(f.poly_degree() for f in facet_forms))
    ceiling = max_degree if max_degree is not None else start + n + 3
    for bound in range(start, ceiling + 1):
        monos = monomials_up_to(n, bound)
        # one row per (facet, monomial of the facet), as in _solve_degree
        rows = {(i, tm): {} for i, f in enumerate(facet_forms)
                for tm in f.terms}
        for i in range(n + 1):
            for col, m in enumerate(monos):
                for tm, c in monomial_pullback(face_map(i, n), n, m):
                    rows.setdefault((i, tm), {})[col] = c
        rhs = [facet_forms[i].terms.get(tm, ZERO) for i, tm in rows]
        res = sparse_solve_affine(list(rows.values()), rhs, len(monos))
        if not isinstance(res, NoSolution):
            coeffs, _ = res
            return PolyForm(n, {monos[j]: coeffs[j] for j in sorted(coeffs)})
    raise BoundExhausted(
        f"no extension of the boundary family within degree {ceiling}")
