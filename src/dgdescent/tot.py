"""Totalization of cosimplicial objects, three ways.

* complexes: the conormalized double complex, totalized;
* dg Lie algebras: families (omega_p in Omega_p (x) g^p) compatible with
  the pullback/pushforward exchange, truncated at polynomial degree D.
  Their ambient, TotContext, is the forms (x) algebra ambient
  mcgauge.FormLieContext over every level, whose keys carry their
  level; it adds only the exchange conditions, which read each
  structure map g(u) off one memoized table
  (CosimplicialDgLie.structure_table).  On a Cech algebra the
  keys are those of the nondegenerate (strictly increasing) tuples and
  the conditions the faces between them; the degenerate components are
  pullbacks of those, written by TotContext.extend;
* groupoids: descent data (a, theta) with the cocycle condition.

The truncation level N must dominate the level above which the
conormalization vanishes ("finite in the cosimplicial sense"); the
constructors check this on the stored levels, cech_cosimplicial also
against the intersections of the cover, and the reports record N.
"""

import functools

from .cochain import Cochain, GradedSpace, map_table
from .dgla import (NilpotentDgLie, TruncationError, el_add, el_eq,
                   el_is_zero, el_scale, el_sub, el_sum, lower_central_series)
from .forms import (compose_maps, degeneracy_map, face_map,
                    monomial_pullback, monotone_factorize)
from .linalg import (echelon_basis, linear_apply, lower, sparse_factor,
                     sparse_kernel)
from .mcgauge import (FiniteLieContext, FormLieContext, bch, by_monomial,
                      gauge_act, mc_residual)


class CosimplicialDgLie:
    """Levels g^0..g^N with cofaces and codegeneracies.

    cofaces[q] is the list of maps g^q -> g^{q+1} (i = 0..q+1);
    codegens[q] the list g^{q+1} -> g^q (i = 0..q).  Functoriality on
    all composable pairs of elementary maps is validated, which covers
    every cosimplicial identity; failures name the offending composite.
    """

    def __init__(self, levels, cofaces, codegens, vanishing_level=None,
                 name=None):
        self.levels = list(levels)
        self.N = len(self.levels) - 1
        self.cofaces = [list(v) for v in cofaces]
        self.codegens = [list(v) for v in codegens]
        self.name = name
        if len(self.cofaces) != self.N or len(self.codegens) != self.N:
            raise ValueError("need coface/codegeneracy lists for each "
                             "adjacent pair of levels")
        for q, maps in enumerate(self.cofaces):
            if len(maps) != q + 2:
                raise ValueError(f"level {q} needs {q + 2} cofaces")
        for q, maps in enumerate(self.codegens):
            if len(maps) != q + 1:
                raise ValueError(f"level {q} needs {q + 1} codegeneracies")
        self._validate_identities()
        # before _check_vanishing: normalization_basis reads these tables
        self._tables = {}
        self._tot_context = self._descent_groupoid = None
        self.vanishing_level = self._check_vanishing(vanishing_level)

    # -- structure maps ---------------------------------------------------------

    def level(self, q):
        return self.levels[q]

    def coface(self, q, i):
        return self.cofaces[q][i]

    def codegeneracy(self, q, i):
        return self.codegens[q][i]

    def structure_table(self, u, q):
        """The table {i: {j: c}} of g(u) for u: [p] -> [q],
        p = len(u) - 1: the image of basis element i of g^p, coefficients
        lowered (`linalg.lower`).  Built by walking the normal path of u
        once and memoized per (u, q); a map that is not monotone into
        [q] is never stored, so it is refused on every call.
        `normalization_basis` reads the codegeneracy rows off it,
        `TotContext.exchange_rows` the columns of the level-p keys and
        `TotContext.compatibility_defect` pushes through it."""
        key = (tuple(u), q)
        table = self._tables.get(key)
        if table is None:
            images = [{gi: 1} for gi in
                      range(self.levels[len(u) - 1].total_dim())]
            for f in self._normal_path(u, q):
                images = [f.apply(x) for x in images]
            table = self._tables[key] = {
                gi: {gj: lower(c) for gj, c in image.items()}
                for gi, image in enumerate(images)}
        return table

    def tot_context(self):
        """The TotContext of this algebra: one per cosimplicial algebra,
        built on first use, so the gluing systems and Tot bases it
        memoizes serve every sample of every check on it."""
        if self._tot_context is None:
            self._tot_context = TotContext(self)
        return self._tot_context

    def descent_groupoid(self):
        """The groupoid of descent data (`tot_groupoid`) of this
        algebra, built on first use and shared the same way."""
        if self._descent_groupoid is None:
            self._descent_groupoid = tot_groupoid(self)
        return self._descent_groupoid

    def _elementary_from(self, q):
        """(name, u, target level, map) for every elementary map out of
        level q: the cofaces into q + 1, the codegeneracies into q - 1."""
        maps = []
        if q < self.N:
            maps += [(f"coface^{i}", face_map(i, q + 1), q + 1,
                      self.cofaces[q][i]) for i in range(q + 2)]
        if q > 0:
            maps += [(f"codeg^{i}", degeneracy_map(i, q - 1), q - 1,
                      self.codegens[q - 1][i]) for i in range(q)]
        return maps

    def _normal_path(self, u, q):
        """The elementary maps that g(u), u: [p] -> [q], applies, in
        order: the codegeneracies, then the cofaces of its epi-mono
        factorization.  ValueError when u is not monotone into [q]."""
        p = len(u) - 1
        if list(u) != sorted(u) or not 0 <= u[0] <= u[-1] <= q:
            raise ValueError(f"{u} is not a monotone map [{p}] -> [{q}]")
        faces, degens = monotone_factorize(u, q)
        low = p - len(degens)
        return ([self.codegens[p - 1 - k][j]
                 for k, j in enumerate(reversed(degens))] +
                [self.cofaces[low + k][i]
                 for k, i in enumerate(reversed(faces))])

    def _validate_identities(self):
        # functoriality over composable elementary pairs covers all the
        # cosimplicial identities; a pair that is its own normal form
        # would only be compared with itself
        for q in range(self.N + 1):
            basis = [{b: 1} for b in range(self.levels[q].total_dim())]
            for name1, u1, lvl1, f1 in self._elementary_from(q):
                images = [f1.apply(x) for x in basis]
                for name2, u2, lvl2, f2 in self._elementary_from(lvl1):
                    path = self._normal_path(compose_maps(u2, u1), lvl2)
                    if len(path) == 2 and path[0] is f1 and path[1] is f2:
                        continue
                    for x, image in zip(basis, images):
                        direct = x
                        for f in path:
                            direct = f.apply(direct)
                        if not el_eq(f2.apply(image), direct):
                            raise ValueError(
                                f"cosimplicial identity fails: {name2} "
                                f"after {name1} at level {q}")

    # -- conormalization ----------------------------------------------------------

    def normalization_basis(self, q):
        """Basis of N^q = joint kernel of the codegeneracies out of
        level q, as elements of the level-q algebra."""
        # one row per (codegeneracy i, level q-1 index t), filled from
        # the image of each basis element
        rows = {}
        for i in range(q):
            table = self.structure_table(degeneracy_map(i, q - 1), q - 1)
            for b, image in table.items():
                for t, c in image.items():
                    rows.setdefault((i, t), {})[b] = c
        return sparse_kernel(list(rows.values()), self.levels[q].total_dim())

    def _check_vanishing(self, declared):
        vanish = -1
        for q in range(self.N, -1, -1):
            if self.normalization_basis(q):
                vanish = q
                break
        if declared is not None and vanish > declared:
            raise ValueError(
                f"normalization does not vanish above the declared level "
                f"{declared}: N^{vanish} != 0")
        return vanish

    def degenerate_copies(self):
        """None: Tot keys every component of every level.  A cosimplicial
        algebra whose levels split into nondegenerate components and
        copies of them (`cech.CechCosimplicial`) returns
        {s: {i: j}}, where s: [q] -> [p] is a surjection and basis
        element j of g^q is the copy of basis element i of g^p along s,
        so that the j-component of a Tot element is the pullback along
        s of its i-component."""
        return None

    def nilpotent_levels(self):
        nils = []
        for g in self.levels:
            nil = lower_central_series(g)
            if not isinstance(nil, NilpotentDgLie):
                raise ValueError("cosimplicial levels must be nilpotent")
            nils.append(nil)
        return nils


# ---------------------------------------------------------------------------
# totalization of the underlying complexes


def tot_cochain(cc):
    """Total complex of the conormalized double complex on levels
    0..cc.N.

    Degree n holds the conormalized pieces N^{q, n-q}; the differential
    is the alternating coface sum plus (-1)^q times the internal one.
    Returns (Cochain, identification), the identification listing, per
    total degree, the (level, level element) pairs of basis vectors.
    """
    N = cc.N
    pieces = {}
    collected = {}
    for q in range(N + 1):
        g = cc.level(q)
        for el in cc.normalization_basis(q):
            # the codegeneracies keep degrees, so each reduced kernel
            # vector lies in one degree
            dd = g.degree_of(next(iter(el)))
            collected.setdefault((q, q + dd), []).append(el)
    for (q, n), parts in sorted(collected.items()):
        for el in echelon_basis(parts):
            pieces.setdefault(n, []).append((q, el))
    degrees = {n: [f"t{n}_{i}" for i in range(len(v))]
               for n, v in pieces.items()}
    space = GradedSpace(degrees)

    def total_d(x):
        parts = []
        for q, el in _by_level(x).items():
            # Cech differential: alternating sum of cofaces
            if q + 1 <= N:
                delta = el_sum(el_scale(-1 if i % 2 else 1,
                                        cc.coface(q, i).apply(el))
                               for i in range(q + 2))
                parts.append({(q + 1, k): v for k, v in delta.items()})
            # internal differential with the Koszul sign
            sgn = -1 if q % 2 else 1
            parts.append({(q, k): v for k, v in
                          el_scale(sgn, cc.level(q).d_element(el)).items()})
        return el_sum(parts)

    # basis vectors as sparse vectors over (level, global index) keys
    keyed = {n: [{(q, k): v for k, v in el.items()} for q, el in basis]
             for n, basis in pieces.items()}
    return Cochain(space, map_table(total_d, keyed, keyed, 1)), pieces


def _by_level(x):
    """{q: level-q element} from a vector over (q, index) keys."""
    out = {}
    for (q, k), v in x.items():
        out.setdefault(q, {})[k] = v
    return out


# ---------------------------------------------------------------------------
# the Thom-Sullivan side: compatible form families


def _cofaces(N):
    """The cofaces [p-1] -> [p] into levels 1..N, as pairs (u, p)."""
    return [(face_map(i, p), p) for p in range(1, N + 1)
            for i in range(p + 1)]


def _structure_maps(N):
    """Every coface and codegeneracy [p+1] -> [p] of levels 0..N, as
    pairs (u, q)."""
    return _cofaces(N) + [(degeneracy_map(i, p), p) for p in range(N)
                          for i in range(p + 1)]


class TotContext(FormLieContext):
    """The FormLieContext over every level p <= cc.N, with the Tot
    conditions.

    Keys are (p, basis index of g^p, monomial on Delta^p), so an
    element of one level is already an element here, and every ambient
    operation (d, bracket, keys, stage vectors) is the levels' own: the
    lower-central-series machinery of the gauge searches works with the
    levelwise filtrations: the stage vectors of a level-p key are those
    of level p, so the staged solvers of one level (`cech._glue_level`,
    `mcgauge.solve_1simplex`) run in this ambient too.  Membership in
    the totalization is a linear condition handled by
    compatibility_defect / subspace bases, not by the ambient itself.

    Which components carry keys.  When cc.degenerate_copies() is None
    (a `cosimplicial_dg_lie` record, a constant algebra), every
    component of every level does, and Tot is cut out by every coface
    and codegeneracy.  A Cech algebra names its degenerate components,
    those of the tuples with a repeated index: each is s*(x_{T'}) for a
    strictly increasing T' and a surjection s, forced so by the
    codegeneracy conditions (Eilenberg-Zilber).  Then only the
    nondegenerate components carry keys, Tot is cut out by the cofaces
    between them alone (the semicosimplicial Thom-Whitney totalization
    of Fiorenza-Manetti-Martinengo), and `extend` writes the degenerate
    components for the callers that need the whole family:
    `is_tot_element` checks every coface and codegeneracy on it.  The
    keys are a subset of the all-tuples ones, so both models share
    indices, and d and bracket act componentwise: an element over the
    keys stays one.  cells[p] is the set of basis indices of g^p that
    carry keys (None when all do), and copies the algebra's
    `degenerate_copies` ({} when all do).

    What depends only on the algebra and a bound is built once per
    context and memoized in it: the gluing systems per (level, D), and
    per (degree, D) the Tot bases (`tot_basis`) and the blocks of d
    between them (`tot_differential`).  Another context, even on an
    equal algebra, shares none of them.
    """

    def __init__(self, cc):
        self.cc = cc
        self.N = cc.N
        self.nils = dict(enumerate(cc.nilpotent_levels()))
        copies = cc.degenerate_copies()
        self.cells = None
        if copies is not None:
            copied = {}
            for s, index in copies.items():
                copied.setdefault(len(s) - 1, set()).update(index.values())
            self.cells = {p: frozenset(range(g.total_dim()))
                          - copied.get(p, set())
                          for p, g in enumerate(cc.levels)}
        self.copies = copies or {}
        self._gluing = {}
        self._bases = {}
        self._differentials = {}
        self._key_indices = {}

    # -- keys and the whole family ----------------------------------------------

    def carries(self, key):
        """Whether a key of the all-tuples ambient is a key here."""
        return self.cells is None or key[1] in self.cells[key[0]]

    def key_indices(self, p, n):
        """The basis indices of degree n of g^p that carry keys, in
        order; listed once per (p, n), so `keys_up_to` enumerates the
        keys without testing each all-tuples key."""
        out = self._key_indices.get((p, n))
        if out is None:
            out = self._key_indices[p, n] = [
                gi for gi in super().key_indices(p, n)
                if self.cells is None or gi in self.cells[p]]
        return out

    def project(self, x):
        """The terms of x on the keys."""
        return {k: v for k, v in x.items() if self.carries(k)}

    def extend(self, x):
        """The whole family of x, a family over the keys: x with every
        degenerate component written in, x_j = s*(x_i) for each copy j
        of i along s (`CosimplicialDgLie.degenerate_copies`).  It is an
        element of the all-tuples totalization exactly when x is one of
        this one; with every component keyed it is x itself."""
        return {(p, gi, mono): v
                for p, level in self._whole(by_monomial(x)).items()
                for mono, el in level.items() for gi, v in el.items()}

    def _whole(self, groups):
        """The whole family of a `by_monomial` grouping, grouped the
        same way: each monomial of a copied component pulled back along
        s (`monomial_pullback`) onto the copies of its basis
        elements."""
        whole = {p: {mono: dict(el) for mono, el in level.items()}
                 for p, level in groups.items()}
        for s, index in self.copies.items():
            p, q = s[-1], len(s) - 1
            level = whole.setdefault(q, {})
            for mono, el in groups.get(p, {}).items():
                copied = [(index[gi], c) for gi, c in el.items()
                          if gi in index]
                if not copied:
                    continue
                for m, v in monomial_pullback(s, p, mono):
                    image = level.setdefault(m, {})
                    for gj, c in copied:
                        image[gj] = image.get(gj, 0) + c * v
        return {p: {mono: low for mono, el in level.items()
                    if (low := {gi: lower(v) for gi, v in el.items() if v})}
                for p, level in whole.items()}

    # -- projections ----------------------------------------------------------

    def level0(self, x):
        """The p = 0 component as a plain element of g^0."""
        return {gi: v for (p, gi, mono), v in x.items() if p == 0}

    # -- compatibility with the structure maps ----------------------------------------

    def generators(self):
        """The monotone maps u: [p] -> [q] whose exchange conditions cut
        out Tot on the keys, as pairs (u, q); p is len(u) - 1: every
        coface and codegeneracy, or only the cofaces when only the
        nondegenerate components carry keys."""
        if self.cells is None:
            return _structure_maps(self.N)
        return _cofaces(self.N)

    def compatibility_defect(self, u, qtgt, groups, whole=False):
        """Omega(u)(level-q part) - g(u)(level-p part), a dict over
        (p, target Lie index, monomial on Delta^p) keys, for
        u: [p] -> [q], of an element grouped by `by_monomial`, so a
        caller that checks many generators on one element groups it
        once.  The defect is read at the targets that carry keys, or at
        every target when whole is set: the grouping is then that of a
        whole family (`extend`).  The level-q part is pulled back
        (`restrict`) and the level-p part pushed through the structure
        table of u (`push`), monomial by monomial."""
        psrc = len(u) - 1
        cells = None if whole or self.cells is None else self.cells[qtgt]
        if cells is not None and not cells:
            return {}
        table = self.cc.structure_table(u, qtgt)
        pulled = self.restrict(u, groups.get(qtgt, {}))
        pushed = self.push(lambda el: linear_apply(table, el),
                           groups.get(psrc, {}))
        defect = el_sub(pulled, pushed)
        if cells is None:
            return defect
        return {k: v for k, v in defect.items() if k[1] in cells}

    def is_tot_element(self, x):
        """Whether x, a family over the keys, is in Tot: its whole family
        (`extend`) meets the exchange condition of every coface and
        codegeneracy of levels 0..N.  A term off the keys is refused."""
        if not all(map(self.carries, x)):
            return False
        whole = self._whole(by_monomial(x))
        return all(not self.compatibility_defect(u, q, whole, whole=True)
                   for (u, q) in _structure_maps(self.N))

    def exchange_rows(self, keys, generators):
        """The exchange conditions of the generators (pairs (u, q_tgt),
        as listed by `generators`) on the span of keys, as sparse rows
        {(u, defect key): {position in keys: coefficient}}, a defect key
        (p_src, target Lie index, monomial on Delta^p_src) whose target
        carries keys.

        A generator u: [p_src] -> [q_tgt] contributes the row block
        (Omega(u) (x) id) - (id (x) g(u)): the column of a level-q_tgt
        key holds its pulled-back monomial (`monomial_pullback`), the
        column of a level-p_src key minus the image of its basis element
        (`CosimplicialDgLie.structure_table`).  Column for column this is
        compatibility_defect of the key's unit vector, which stays the
        independent check (`is_tot_element`); rows appear in the order
        in which those defects would name them.  `tot_basis` takes every
        generator, `cech._glue_level` those between levels p-1 and p on
        the level-p keys.
        """
        by_level = {}
        for col, (p, gi, mono) in enumerate(keys):
            by_level.setdefault(p, []).append((col, p, gi, mono))
        rows = {}
        for u, qtgt in generators:
            psrc = len(u) - 1
            pushes = self.cc.structure_table(u, qtgt)
            cells = None if self.cells is None else self.cells[qtgt]
            last = pulled = None
            # the keys of the two levels u connects, in column order
            for col, p, gi, mono in sorted(by_level.get(psrc, []) +
                                           by_level.get(qtgt, [])):
                if p == qtgt:
                    if mono is not last:    # one lookup per run of a monomial
                        last, pulled = mono, monomial_pullback(u, qtgt, mono)
                    for m, c in pulled:
                        rows.setdefault((u, (psrc, gi, m)), {})[col] = c
                else:
                    for gj, c in pushes[gi].items():
                        if cells is None or gj in cells:
                            rows.setdefault((u, (psrc, gj, mono)),
                                            {})[col] = -c
        return rows

    def gluing_system(self, p, D):
        """The system that glues level p onto level p - 1, as (keys,
        generators, row keys, factor), built once per (p, D).

        keys are the level-p keys of degree 1 up to D; generators those
        of `generators` between levels p-1 and p (the faces
        [p-1] -> [p], and the codegeneracies [p] -> [p-1] when every
        component carries keys); the rows are their `exchange_rows` on
        those keys, one block per generator in generator order, row
        keys lists each generator's defect keys in row order, and
        factor is the `linalg.sparse_factor` of the rows, which every
        right-hand side (minus the defect of a glued level p-1 member,
        `mcgauge.constraint_rhs`) replays.  Every caller gets the same
        objects, to read and never to change.
        """
        system = self._gluing.get((p, D))
        if system is None:
            keys = [k for k in self.keys_up_to(D, 1) if k[0] == p]
            generators = [(u, q) for u, q in self.generators()
                          if {len(u) - 1, q} == {p - 1, p}]
            rows = self.exchange_rows(keys, generators)
            row_keys = {u: [] for u, _ in generators}
            for u, k in rows:
                row_keys[u].append(k)
            system = self._gluing[(p, D)] = (
                keys, generators, list(row_keys.values()),
                sparse_factor(list(rows.values()), len(keys)))
        return system

    def tot_basis(self, degree, D):
        """Basis of the degree-(D-truncated) totalization in one total
        degree, over the keys: the kernel of the exchange row blocks
        (`exchange_rows`) of `generators` on the keys of that degree.
        Most of those rows have one or two terms; `sparse_kernel`
        substitutes them away and eliminates only the rest.

        Basis vector i is 1 on its free key and 0 on the other vectors'
        free keys, so the basis is reduced, as `tot_differential` needs
        its targets.  It is built once per (degree, D), and every caller
        gets the same list, to read and never to change.
        """
        basis = self._bases.get((degree, D))
        if basis is None:
            keys = self.keys_up_to(D, degree)
            rows = self.exchange_rows(keys, self.generators())
            basis = self._bases[(degree, D)] = [
                {keys[i]: c for i, c in v.items()}
                for v in sparse_kernel(list(rows.values()), len(keys))]
        return basis

    def tot_differential(self, degree, D):
        """The table of d from `tot_basis(degree, D)` to
        `tot_basis(degree + 1, D)`, {i: {j: coeff}} over the positions
        in those lists, written by `cochain.map_table`, which checks
        every image by exact reconstruction.

        It is built once per (degree, D), from the memoized bases (a
        basis not yet built is built here), and every caller gets the
        same table, to read and never to change.
        """
        block = self._differentials.get((degree, D))
        if block is None:
            # the memo is read directly, so that a complex requests each
            # basis from tot_basis once
            bases = {}
            for n in (degree, degree + 1):
                bases[n] = self._bases.get((n, D))
                if bases[n] is None:
                    bases[n] = self.tot_basis(n, D)
            block = self._differentials[(degree, D)] = map_table(
                self.d_el, {degree: bases[degree]},
                {degree + 1: bases[degree + 1]}, 1)
        return block


class TotLieComplex:
    """The degree-D truncation of the Thom-Sullivan totalization: the
    truncated complex, its basis per degree, and the ambient context
    used by the groupoid machinery.

    basis_by_degree holds the algebra's memoized `TotContext.tot_basis`
    lists themselves, and the differential is assembled from its
    memoized `TotContext.tot_differential` blocks, placed at the
    offsets of their degrees, so a second complex at the same D solves
    nothing again and applies d to nothing; read the lists and never
    change them.  The complex itself is not memoized: its `Cochain`
    checks d (degrees, d . d = 0) and computes cohomology anew.
    """

    def __init__(self, cc, D):
        self.cc = cc
        self.D = D
        self.ctx = cc.tot_context()
        self.N = self.ctx.N
        degs = set()
        for p in range(self.N + 1):
            g = cc.level(p)
            for n in g.space.nonzero_degrees():
                for k in range(p + 1):
                    degs.add(n + k)
        self.basis_by_degree = {}
        for n in sorted(degs):
            vecs = self.ctx.tot_basis(n, D)
            if vecs:
                self.basis_by_degree[n] = vecs
        space = GradedSpace({n: [f"T{n}_{i}" for i in range(len(v))]
                             for n, v in self.basis_by_degree.items()})
        d = {}
        for n in self.basis_by_degree:
            src = space.degree_range(n).start
            tgt = space.degree_range(n + 1).start
            for i, image in self.ctx.tot_differential(n, D).items():
                d[src + i] = {tgt + j: c for j, c in image.items()}
        self.cochain = Cochain(space, d)


def tot_lie(cc, D):
    return TotLieComplex(cc, D)


# ---------------------------------------------------------------------------
# totalization of groupoids: descent data


class DescentDatum:
    """An object of the total groupoid: a in the level-0 Deligne
    groupoid, theta a level-1 gauge from coface^1(a) to coface^0(a)."""

    def __init__(self, a, theta):
        self.a = dict(a)
        self.theta = dict(theta)

    def __repr__(self):
        return f"DescentDatum(a={self.a!r}, theta={self.theta!r})"


class DescentGroupoid:
    """Tot of the levelwise Deligne groupoids of a cosimplicial algebra.

    Levels 0..2 are required: the cocycle condition lives at level 2.
    Morphism equality goes through bch; in the abelian case pi0 and Aut
    are H^1 and H^0 of `abelian_complex`.
    """

    def __init__(self, cc):
        if cc.N < 2:
            raise TruncationError(f"descent groupoids need levels 0..2, "
                                  f"got levels 0..{cc.N}")
        self.cc = cc
        nils = cc.nilpotent_levels()
        self.nil0, self.nil1, self.nil2 = nils[0], nils[1], nils[2]
        self.ctx0 = FiniteLieContext(self.nil0)
        self.ctx1 = FiniteLieContext(self.nil1)
        self.ctx2 = FiniteLieContext(self.nil2)

    # -- structure shorthands -----------------------------------------------------

    def cf(self, q, i, x):
        return self.cc.coface(q, i).apply(x)

    def cd(self, q, i, x):
        return self.cc.codegeneracy(q, i).apply(x)

    def verify_object(self, datum, reasons=None):
        """The three object conditions; failures are named."""
        a, th = datum.a, datum.theta
        out = []
        if not el_is_zero(mc_residual(self.ctx0, a)):
            out.append("base object is not Maurer-Cartan")
        if not el_is_zero(self.cd(0, 0, th)):
            out.append("codegeneracy of theta is not the identity")
        src = self.cf(0, 1, a)
        tgt = self.cf(0, 0, a)
        if not el_eq(gauge_act(self.ctx1, th, src), tgt):
            out.append("theta does not carry coface^1(a) to coface^0(a)")
        lhs = self.cf(1, 1, th)
        rhs = bch(self.ctx2, self.cf(1, 0, th), self.cf(1, 2, th))
        if not el_eq(lhs, rhs):
            out.append("cocycle condition fails at level 2")
        if reasons is not None:
            reasons.extend(out)
        return not out

    def verify_morphism(self, d1, d2, r):
        """r in exp((g^0)^0) as a morphism d1 -> d2."""
        if not el_eq(gauge_act(self.ctx0, r, d1.a), d2.a):
            return False
        lhs = bch(self.ctx1, d2.theta, self.cf(0, 1, r))
        rhs = bch(self.ctx1, self.cf(0, 0, r), d1.theta)
        return el_eq(lhs, rhs)

    # -- abelian presentation -------------------------------------------------------

    def is_abelian(self):
        return all(g.is_abelian() for g in self.cc.levels[:3])

    @functools.cached_property
    def abelian_complex(self):
        """(C, keys): the abelian descent groupoid as a three-term
        complex C, keys[n] naming the basis of C^n.  C^0 holds the
        gauges r of (g^0)^0, C^1 the data (a, theta) in (g^0)^1 (+)
        (g^1)^0, C^2 the defects of the four object conditions da,
        d theta - delta^0 a + delta^1 a, s^0 theta and
        delta^1 theta - delta^0 theta - delta^2 theta.  As
        d(r) = (dr, delta^0 r - delta^1 r), objects are the 1-cocycles
        and morphism directions the 1-coboundaries: pi0 = H^1 and
        Aut = H^0.  Built from the descent conditions, independently of
        both totalizations."""
        if not self.is_abelian():
            raise ValueError("exact pi0 and Aut need abelian levels")
        g0, g1, g2 = self.cc.levels[:3]

        def tagged(tag, g, n):
            return [(tag, k) for k in g.space.degree_indices(n)]

        keys = {0: tagged("r", g0, 0),
                1: tagged("a", g0, 1) + tagged("theta", g1, 0),
                2: (tagged("da", g0, 2) + tagged("dtheta", g1, 1) +
                    tagged("s0", g0, 0) + tagged("cocycle", g2, 0))}

        def d(x):
            part = {}
            for (tag, k), v in x.items():
                part.setdefault(tag, {})[k] = v
            r, a, th = (part.get(t, {}) for t in ("r", "a", "theta"))
            images = {
                "a": g0.d_element(r),
                "theta": el_sub(self.cf(0, 0, r), self.cf(0, 1, r)),
                "da": g0.d_element(a),
                "dtheta": el_sub(g1.d_element(th),
                                 el_sub(self.cf(0, 0, a), self.cf(0, 1, a))),
                "s0": self.cd(0, 0, th),
                "cocycle": el_sub(self.cf(1, 1, th),
                                  el_add(self.cf(1, 0, th),
                                         self.cf(1, 2, th)))}
            return {(tag, k): v for tag, el in images.items()
                    for k, v in el.items()}

        units = {n: [{k: 1} for k in ks] for n, ks in keys.items()}
        return Cochain(GradedSpace(keys), map_table(d, units, units, 1)), keys

    def pi0_dimension(self):
        return self.abelian_complex[0].cohomology(1)[0]

    def aut_dimension(self):
        return self.abelian_complex[0].cohomology(0)[0]


def tot_groupoid(cc):
    """The groupoid of descent data of a cosimplicial nilpotent algebra."""
    return DescentGroupoid(cc)
