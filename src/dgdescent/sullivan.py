"""Polynomial forms on finite simplicial sets; extension from boundaries.

A form on a finite simplicial set is a compatible family: one PolyForm
per nondegenerate simplex, with the value on any degenerate simplex
defined as the pullback of its core along the degeneracy surjection,
and face restrictions matching everywhere.  Compatibility is a linear
condition on coefficients, so the degree-D truncation is a plain
kernel computation and comes back as a finite-dimensional complex.
"""

from fractions import Fraction

from .cochain import Cochain, GradedSpace, map_blocks
from .forms import (PolyForm, mono_form_degree, monomials_up_to,
                    omega_apply, restrict_to_face)
from .linalg import NoSolution, ZERO, kernel_basis, solve_affine
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
            self.basis_by_degree[k] = self._solve_degree(k, keys)
        degrees = {k: [f"w{k}_{i}" for i in range(len(v))]
                   for k, v in self.basis_by_degree.items() if v}
        space = GradedSpace(degrees, top_degree=max(sset.dimension() + 1, 8))
        self.cochain = Cochain(space, map_blocks(
            self.differential, self.basis_by_degree, self.basis_by_degree, 1))

    # -- compatibility ---------------------------------------------------------

    def _face_constraint_rows(self, keys):
        """Linear conditions: every face restriction of every cell equals
        the (possibly degenerate) family value on that face."""
        rows = []
        index = {kk: i for i, kk in enumerate(keys)}
        sset = self.sset
        for m, name in sset.nondegenerate():
            if m == 0:
                continue
            for i in range(m + 1):
                word, core = sset.face(((), name), i)
                # row group: restrict(omega_name, i) - pullback(omega_core)
                row_entries = {}
                for kk in keys:
                    nm, mono = kk
                    if nm == name:
                        pulled = restrict_to_face(
                            PolyForm(m, {mono: Fraction(1)}), i)
                        for m2, c in pulled.terms.items():
                            row_entries.setdefault(m2, {})[index[kk]] = \
                                row_entries.get(m2, {}).get(index[kk], ZERO) \
                                + c
                    if nm == core:
                        u = degeneracy_monotone(word, m - 1)
                        cdim = sset.dim_of_name(core)
                        pulled = omega_apply(
                            u, PolyForm(cdim, {mono: Fraction(1)}), m - 1)
                        for m2, c in pulled.terms.items():
                            cur = row_entries.setdefault(m2, {})
                            cur[index[kk]] = cur.get(index[kk], ZERO) - c
                for m2, entries in row_entries.items():
                    row = [ZERO] * len(keys)
                    for j, c in entries.items():
                        row[j] = c
                    if any(x for x in row):
                        rows.append(row)
        return rows

    def _solve_degree(self, k, keys):
        vecs = kernel_basis(self._face_constraint_rows(keys), len(keys))
        return [{kk: c for kk, c in zip(keys, v) if c} for v in vecs]

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
        rows = []
        rhs = []
        restrictions = [
            {m: restrict_to_face(PolyForm(n, {m: Fraction(1)}), i)
             for m in monos}
            for i in range(n + 1)]
        target_monos = monomials_up_to(n - 1, bound)
        for i in range(n + 1):
            for tm in target_monos:
                row = [restrictions[i][m].terms.get(tm, ZERO) for m in monos]
                rows.append(row)
                rhs.append(facet_forms[i].terms.get(tm, ZERO))
        res = solve_affine(rows, rhs)
        if not isinstance(res, NoSolution):
            coeffs, _ = res
            return PolyForm(n, {m: c for m, c in zip(monos, coeffs) if c})
    raise BoundExhausted(
        f"no extension of the boundary family within degree {ceiling}")
