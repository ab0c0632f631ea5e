"""Cech cosimplicial algebras of covers and the descent comparison.

Covers (`dgla.CoverSpec`) are purely combinatorial: an index set, a dg
Lie algebra of sections for every nonempty intersection, and
restriction maps.  The ordered Cech cosimplicial algebra has level q
the product over nondecreasing index tuples of length q+1 (empty
intersections contribute nothing); cofaces delete an index and
restrict, codegeneracies repeat an index.  Its conormalization is the
product over the strictly increasing tuples, so it vanishes above
#opens - 1, as the totalization machinery requires.  The build stores
just that: level q is the product over the strictly increasing tuples,
with the cofaces between them and no codegeneracies, a
semicosimplicial algebra whose Tot is the Thom-Whitney totalization
of Fiorenza-Manetti-Martinengo.  A tuple with a repeated index has the
sections of its distinct indices, so its component would only copy
one of these; the reports still count the ordered complex
(`CechCosimplicial.ordered_tuples`).

The comparison functor sends an MC family (omega_p) to the descent
datum (a, theta): a is the level-0 component, theta the holonomy of the
dt-part of omega_1 (a gauge path between the two coface images of a).
Gluing goes the other way: level 0 and 1 from the datum itself, level
p >= 2, if nonzero, by boundary extension plus staged MC correction.
"""

import functools
import itertools

# CoverSpec and RestrictionError stay importable from here
from .dgla import (CoverSpec, DgLieMap, RestrictionError, SelfCheckFailed,
                   TruncationError, direct_product, el_combination, el_eq,
                   el_is_zero, el_scale, el_sum, lower_central_series,
                   tensor_lie)
from .forms import face_map, format_mono, mono_form_degree
from .io import label_to_json, scalar_to_str
from .linalg import NoSolution, sparse_columns, sparse_solve_affine
from .mcgauge import (DeligneGroupoid, FiniteLieContext,
                      ObstructionUnsolvable, bch, by_monomial,
                      constrained_mc_solve, constraint_rhs,
                      constraint_rows, gauge_act, gauge_equivalent,
                      holonomy, mc_residual, random_combination,
                      _stage_span, solve_1simplex, staged_gauge_search)
from .tot import CosimplicialDgLie, DescentDatum, tot_lie


class GluingFailed(Exception):
    """A datum that fails verification (level 0, stage None), or a level
    out of reach within the degree bound: stage 0 when its face
    constraints have no solution (at level 1, when the gauge
    path of theta is of higher polynomial degree), k when the MC
    correction is obstructed at filtration stage k."""

    def __init__(self, level, reason, stage=None):
        self.level = level
        self.reason = reason
        self.stage = stage
        super().__init__(f"gluing failed at level {level}: {reason}")


class ExtractionFailed(Exception):
    pass


class CechCosimplicial(CosimplicialDgLie):
    """The Cech levels over the strictly increasing tuples, tuples[q]
    those of level q, with their cover kept around; no
    codegeneracies."""

    def __init__(self, cover, levels, cofaces, tuples):
        self.cover = cover
        self.tuples = tuples
        # the sampler's factored restriction systems (`_open_system`)
        self.open_systems = {}
        super().__init__(levels, cofaces, None,
                         vanishing_level=cover.num_opens - 1,
                         name=f"cech({cover.name or cover.num_opens})")

    def ordered_tuples(self):
        """The tuples of every level of the ordered Cech complex: the
        nondecreasing ones with a nonempty intersection, the stored
        tuples among them."""
        # a tuple through an open without sections has no sections
        # either, so declared but unused opens add no tuples
        used = sorted(set().union(*self.cover.sections))
        return [[T for T in itertools.combinations_with_replacement(
                    used, q + 1) if self.cover.algebra(set(T)) is not None]
                for q in range(self.N + 1)]

    def level_dimensions(self):
        """The dimensions of the levels of the ordered Cech complex,
        which the reports print: a tuple has the sections of its set of
        indices."""
        return [sum(self.cover.algebra(set(T)).total_dim() for T in Ts)
                for Ts in self.ordered_tuples()]

    def from_components(self, q, parts):
        """Assemble a level-q element from {tuple: element}."""
        out = {}
        for tag, g, emb in self.levels[q].components:
            part = parts.get(tag, {})
            for k, v in part.items():
                if v:
                    out[emb[k]] = v
        return out


def vanishing_level(cover):
    """max |J| - 1 over the nonempty U_J: the level above which the
    conormalization of the ordered Cech complex vanishes."""
    return max((len(J) for J in cover.sections), default=1) - 1


def cech_cosimplicial(cover, N=None):
    """Levels 0..N of the Cech algebra on the strictly increasing
    tuples, by default N = max(2, vanishing_level(cover)).

    Level q is the sum of the sections over the intersections of q+1
    distinct opens, the conormalization N^q of the ordered Cech
    complex, so it can be nonzero up to max |J| - 1 over the nonempty
    U_J; a truncation below that level would hide nonzero N^q from
    every vanishing check and is refused.
    """
    vanishing = vanishing_level(cover)
    if N is None:
        N = max(2, vanishing)
    if N < vanishing:
        raise TruncationError(
            f"truncation level {N} is below the normalization vanishing "
            f"level {vanishing} of the ordered Cech complex (an "
            f"intersection of {vanishing + 1} opens is nonempty)")
    # the strictly increasing tuples are the nonempty intersections
    tuples = [sorted(tuple(sorted(J)) for J in cover.sections
                     if len(J) == q + 1) for q in range(N + 1)]
    levels = [direct_product([cover.algebra(T) for T in Ts], tags=Ts)
              for Ts in tuples]
    cofaces = [[_structure_map(cover, levels, face_map(i, q + 1), q + 1)
                for i in range(q + 2)] for q in range(N)]
    return CechCosimplicial(cover, levels, cofaces, tuples)


def _structure_map(cover, levels, u, q):
    """g(u): level p -> level q of a Cech algebra with levels over
    tuples, for a monotone u: [p] -> [q] such that T o u is a level-p
    tuple for every level-q tuple T: component T receives the
    restriction from U_{T o u} to U_T of component T o u.  A coface
    deletes an index and restricts; a codegeneracy, on levels that
    store tuples with a repeated index, repeats one, and its
    restriction is the identity."""
    p = len(u) - 1
    source = {tag: emb for tag, _, emb in levels[p].components}
    table = {}
    for T, _, emb in levels[q].components:
        S = tuple(T[k] for k in u)  # nonempty: CoverSpec checked subsets
        for gi, pidx in source[S].items():
            entry = table.setdefault(pidx, {})
            for k, v in cover.restrict(set(S), set(T), {gi: 1}).items():
                entry[emb[k]] = v
    return DgLieMap(levels[p], levels[q], table, validate=False)


# ---------------------------------------------------------------------------
# deformation instances: tensor a cover with an artinian maximal ideal


def tensored_cover(cover, artin):
    """The cover of m (x) Gamma algebras with the induced restrictions."""
    ideal = artin.maximal_ideal()
    sections = {}
    nils = {}
    for J, g in cover.sections.items():
        nil = tensor_lie(ideal, g, validate=False)
        nils[J] = nil
        sections[J] = nil.algebra
    restrictions = {}
    for (J, J2), f in cover.restrictions.items():
        src, tgt = sections[J], sections[J2]
        # m (x) f: a @ y -> a @ f(y)
        images = [f.apply({gi: 1}) for gi in range(f.source.total_dim())]
        restrictions[(J, J2)] = DgLieMap(src, tgt, {
            sidx: {tgt.tensor_index[(ai, gj)]: v
                   for gj, v in images[gi].items()}
            for (ai, gi), sidx in src.tensor_index.items()}, validate=False)
    return CoverSpec(cover.num_opens, sections, restrictions,
                     name=f"{artin.name or 'm'}@{cover.name or 'cover'}")


# ---------------------------------------------------------------------------
# the comparison functor C(Tot g) -> Tot(C(g))


class ComparisonFunctor:
    """Object and morphism maps from the Deligne groupoid of the
    totalization to the groupoid of descent data."""

    def __init__(self, cc):
        self.cc = cc
        self.ctx = cc.tot_context()
        self.groupoid = cc.descent_groupoid()

    def object_map(self, x):
        """MC family -> (a, theta): theta is the exact holonomy of the
        dt-part of the level-1 component."""
        if not el_is_zero(mc_residual(self.ctx, x)):
            raise ExtractionFailed("input family is not Maurer-Cartan")
        a = self.ctx.level0(x)
        # the dt-part of level 1 as time coefficients
        path = {}
        for (p, gi, (exps, mask)), v in x.items():
            if p != 1:
                continue
            if mask == 1:
                path.setdefault(exps[0], {})[gi] = v
            elif mask:
                raise ExtractionFailed("level-1 component has an "
                                       "impossible form degree")
        if path:
            top = max(path)
            y_coeffs = [path.get(k, {}) for k in range(top + 1)]
        else:
            y_coeffs = [{}]
        theta = holonomy(self.groupoid.ctx1, y_coeffs)
        datum = DescentDatum(a, theta)
        reasons = []
        if not self.groupoid.verify_object(datum, reasons):
            raise ExtractionFailed("; ".join(reasons))
        return datum

    def morphism_map(self, rho):
        """Project a Tot gauge to its level-0 component."""
        return self.ctx.level0(rho)


# ---------------------------------------------------------------------------
# gluing a descent datum into an MC family


def glue_descent_datum(cc, datum, D):
    """An MC family over the keys of cc.tot_context() whose comparison
    image is the given datum.

    Level 0 is a itself; level 1 the gauge path of theta, out of reach
    (`GluingFailed` at level 1) when its polynomial degree exceeds D;
    level p >= 2 is solved on its keys: the face restrictions are
    affine constraints on its components, then staged corrections
    restore MC exactly without moving the constrained part.  A level
    that no map of `TotContext.generators` reaches is zero and gets the
    member 0 unsolved, so a Cech algebra on a cover without triple
    overlaps solves nothing above level 1.
    """
    ctx = cc.tot_context()
    G = cc.descent_groupoid()
    reasons = []
    if not G.verify_object(datum, reasons):
        raise GluingFailed(0, "datum fails verification: "
                           + "; ".join(reasons))
    a, theta = datum.a, datum.theta
    omegas = [ctx.embed_level(0, a),
              solve_1simplex(ctx, cc.coface(0, 1).apply(a), theta)]
    # the gauge path is the flow of theta, not cut at the bound: a path
    # above it is out of reach at level 1, whatever the levels above hold
    degree = max((_poly_degree(mono) for _, _, mono in omegas[1]), default=0)
    if degree > D:
        raise GluingFailed(1, f"the gauge path of theta has polynomial "
                              f"degree {degree}, above the degree bound "
                              f"{D}", 0)
    for p in range(2, ctx.N + 1):
        omegas.append(_glue_level(ctx, omegas, p, D)
                      if ctx.gluing_system(p, D)[1] else {})
    x = el_sum(omegas)
    # every level was solved for these conditions
    if not ctx.is_tot_element(x):
        raise SelfCheckFailed("assembled family is not compatible")
    if not el_is_zero(mc_residual(ctx, x)):
        raise SelfCheckFailed("assembled family is not Maurer-Cartan")
    return x


def _poly_degree(mono):
    """The polynomial degree of a monomial: every t and every dt once."""
    return sum(mono[0]) + mono_form_degree(mono)


def _glue_level(ctx, omegas, p, D):
    """Solve level p, then MC: the exchange rows of the generators
    between levels p-1 and p on the level-p keys (the faces
    [p-1] -> [p]; `TotContext.gluing_system`, factored once), equal to
    minus the compatibility defect of the level p-1 member (glued)."""
    keys, generators, row_keys, factor = ctx.gluing_system(p, D)
    label = f"level {p}"
    try:
        # a level p-1 member above the degree bound is no Tot element
        # at that bound, so no level p continues it
        if any(_poly_degree(mono) > D for _, _, mono in omegas[p - 1]):
            raise ObstructionUnsolvable(0, label)
        groups = by_monomial(omegas[p - 1])
        defects = constraint_rhs(
            row_keys, [ctx.compatibility_defect(u, q, groups)
                       for u, q in generators])
        if defects is None:     # a defect key that no column reaches
            raise ObstructionUnsolvable(0, label)
        return constrained_mc_solve(ctx, keys, factor,
                                    [-c for c in defects], label=label)
    except ObstructionUnsolvable as exc:
        if exc.stage == 0:
            raise GluingFailed(
                p, f"face constraints unsolvable within degree bound "
                   f"{D}", 0) from exc
        raise GluingFailed(
            p, f"MC correction obstructed at filtration stage "
               f"{exc.stage} (raise the degree bound?)", exc.stage) from exc


# ---------------------------------------------------------------------------
# descent verification


def _sample_descent_datum(cc, rng):
    """Draw a valid descent datum from the cover structure.

    Per-open MC elements are drawn through the staged solver with
    randomized free choices and the overlap gauges sampled freely; that
    satisfies the cocycle condition whenever triple overlaps are empty,
    and invalid draws return None for the caller to resample (honest
    rejection, never repair).  Each open's restriction system is
    factored once per algebra (`_open_system`); a draw writes only its
    right-hand side, and one that a target makes insoluble is rejected
    before any random choice of the MC solve.
    """
    G = cc.descent_groupoid()
    cover = cc.cover
    # the opens that carry a section: a declared open without one has
    # no MC element to draw
    opens = [i for (i,) in cc.tuples[0]]
    a_parts = {}
    theta_parts = {}
    for n, j in enumerate(opens):
        earlier = [(i, frozenset({i, j})) for i in opens[:n]
                   if cover.algebra(frozenset({i, j})) is not None]
        ctx, keys, system, row_keys = _open_system(
            cc, j, tuple(J for _, J in earlier))
        targets = []
        for i, J in earlier:
            overlap = DeligneGroupoid(lower_central_series(cover.algebra(J)))
            theta_ij = overlap.random_gauge(rng)
            theta_parts[(i, j)] = theta_ij
            targets.append(gauge_act(overlap.ctx, theta_ij,
                                     cover.restrict({i}, J, a_parts[i])))
        rhs = constraint_rhs(row_keys, targets)
        if rhs is None:
            return None
        try:
            a_parts[j] = constrained_mc_solve(ctx, keys, system, rhs,
                                              rng=rng, label=f"open {j}")
        except ObstructionUnsolvable:
            return None
    # assemble level elements
    a = cc.from_components(0, {(i,): a_parts[i] for i in opens})
    # level 1 stores no diagonal tuple (i, i): theta_ii = 0
    theta = cc.from_components(1, theta_parts)
    datum = DescentDatum(a, theta)
    return datum if G.verify_object(datum) else None


def _open_system(cc, j, overlaps):
    """(context, degree-1 keys, factored rows, row keys per overlap) of
    the draw of open j's MC element under its restrictions to the given
    overlaps J, built and factored once per Cech algebra: only the
    targets depend on the draw (`mcgauge.constraint_rhs`)."""
    system = cc.open_systems.get((j, overlaps))
    if system is None:
        cover = cc.cover
        ctx = FiniteLieContext(lower_central_series(cover.algebra({j})))
        keys = ctx.degree_keys(1)
        system = cc.open_systems[j, overlaps] = (
            ctx, keys, *constraint_rows(
                keys, [functools.partial(cover.restrict, {j}, J)
                       for J in overlaps]))
    return system


class NotIsomorphic(Exception):
    """The level-0 search certified that two descent data lie in
    different orbits: no gauge moves a1 to a2, insoluble at `stage`."""

    def __init__(self, stage):
        self.stage = stage
        super().__init__(f"descent data not isomorphic (stage {stage})")


def find_descent_isomorphism(G, d1, d2):
    """A level-0 gauge r with act(r, a1) = a2 intertwining the thetas,
    or None; NotIsomorphic when no level-0 gauge moves a1 to a2.

    The orbit question (`mcgauge.gauge_equivalent`, a staged search over
    the whole degree-0 part of level 0) is asked of the action equation
    a1 -> a2 alone; the thetas enter only afterwards, when
    `verify_morphism` checks the witness exactly.  A witness that does
    not intertwine them gives None, so the caller counts the round trip
    as undecided; a "distinct" verdict is a certificate that d1 and d2
    are not isomorphic, and raises NotIsomorphic with its stage.
    """
    if el_eq(d1.a, d2.a) and el_eq(d1.theta, d2.theta):
        return {}      # the identity gauge
    res = gauge_equivalent(G.ctx0, d1.a, d2.a)
    if res.status == "distinct":
        raise NotIsomorphic(res.stage)
    r = res.witness
    if G.verify_morphism(d1, d2, r):
        return r
    return None


def _level0_fiber(ctx, D, r0):
    """(a degree-0 Tot gauge at bound D whose level-0 component is r0,
    the spanning list of those whose level-0 component is 0), or None
    when no gauge at bound D has level-0 component r0."""
    basis0 = ctx.tot_basis(0, D)
    level0 = [ctx.level0(b) for b in basis0]
    # r0's keys too: a term that no basis vector reaches is insoluble
    keys0 = sorted({k for b in level0 for k in b} | set(r0))
    rhs = [r0.get(k, 0) for k in keys0]
    sol = sparse_solve_affine(sparse_columns(level0, keys0), rhs, len(basis0))
    if isinstance(sol, NoSolution):
        return None
    coords, kernel = sol
    return (el_combination(coords, basis0),
            [d for d in (el_combination(kv, basis0) for kv in kernel) if d])


def _lift_witness_span(ctx, D):
    """W = the sum over j = 1..class of F^j & (the level-0 kernel at
    bound j*D), as a spanning list.  A bracket of elements of pieces i
    and j lies in F^{i+j} at bound (i+j)*D and has level-0 component 0,
    so W is a Lie subalgebra; it holds bch(-y0, y) for any two gauges
    y0, y at bound D with equal level-0 components."""
    return [w for j in range(1, ctx.nclass() + 1)
            for w in _stage_span(ctx, j, _level0_fiber(ctx, j * D, {})[1], 0)]


def lift_tot_gauge(ctx, x, xp, r0, D):
    """A Tot gauge from x to xp whose level-0 component is exactly r0,
    or None.

    A gauge y0 at degree bound D with level-0 component r0 is composed
    with a gauge w of `_lift_witness_span`, whose level-0 components are
    0: the staged search looks for w from x to gauge_act(-y0, xp), and
    the lift is bch(y0, w).  So it finds a lift whenever one exists at
    bound D, and the lift, a BCH product, can exceed polynomial degree D
    (up to class * D)."""
    fiber = _level0_fiber(ctx, D, r0)
    if fiber is None:
        return None
    y0 = fiber[0]
    res = staged_gauge_search(ctx, x, gauge_act(ctx, el_scale(-1, y0), xp),
                              _lift_witness_span(ctx, D))
    if res.status == "witness":
        return bch(ctx, y0, res.witness)
    return None


def verify_descent(cc, samples=25, seed=0, D=2, stabilize_to=4):
    """Check the descent equivalence on one cosimplicial instance.

    Abelian levels: pi0 and Aut dimensions of the two groupoids are
    computed by independent linear algebra (truncated form families on
    one side, the descent-datum system on the other) and must agree
    exactly, with the form side stabilized in the degree bound; a
    stabilized disagreement is undecided, since two equal bounds need
    not be the limit.
    Otherwise: sampled gluing round-trips with explicit isomorphism
    witnesses plus sampled Tot-gauge projections.  Verdicts are
    verified / falsified / undecided, never silently optimistic.
    A negative sample count is refused with ValueError, and so is a
    negative degree bound (`forms.monomials_up_to`).
    """
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    import random as _random
    rng = _random.Random(seed)
    report = {"instance": cc.name, "levels": cc.N,
              "vanishing_level": cc.vanishing_level,
              "degree_bound": D, "checks": []}
    G = cc.descent_groupoid()
    if G.is_abelian():
        stabilize_to = max(stabilize_to, D + 1)
        dims = {}
        stabilized_at = None
        for DD in range(D, stabilize_to + 1):
            dims[DD] = _abelian_tot_dims(cc, DD)
            if DD > D and dims[DD] == dims[DD - 1]:
                stabilized_at = DD
                break
        stable = dims[max(dims)]
        side_b = (G.pi0_dimension(), G.aut_dimension())
        for i, what in enumerate(("pi0", "Aut")):
            # an unstabilized bound supports no verdict either way, and
            # a stabilized one refutes nothing
            agree = stabilized_at is not None and stable[i] == side_b[i]
            check = {"name": f"abelian {what} dimensions agree",
                     "verdict": "verified" if agree else "undecided",
                     "tot_side": stable[i], "descent_side": side_b[i]}
            if i == 0 or stabilized_at is None:
                check["stabilized_at"] = stabilized_at
            if stabilized_at is None:
                check["reason"] = (f"no two consecutive degree bounds in "
                                   f"{D}..{stabilize_to} agree")
            elif not agree:
                check["reason"] = "stabilization in D proves nothing"
            report["checks"].append(check)
        for v in ("undecided", "falsified"):
            report[v] = sum(1 for c in report["checks"] if c["verdict"] == v)
        return report
    # sampled nonabelian verification
    if not isinstance(cc, CechCosimplicial):
        raise ValueError("sampled verification needs the cover structure")
    ctx = cc.tot_context()
    gauge_basis = ctx.tot_basis(0, D)
    comparison = ComparisonFunctor(cc)
    glued = 0
    unglued = 0
    roundtrips = 0
    undecided = 0
    falsified = 0
    morphism_checks = 0
    draws = 0
    while glued + unglued < samples and draws < samples * 8:
        draws += 1
        datum = _sample_descent_datum(cc, rng)
        if datum is None:
            continue
        try:
            x = glue_descent_datum(cc, datum, D)
        except GluingFailed as exc:
            # a level out of reach within the degree bound refutes
            # nothing: the sample is undecided
            unglued += 1
            report["checks"].append({
                "name": "gluing", "verdict": "undecided",
                "level": exc.level, "stage": exc.stage,
                "reason": exc.reason})
            continue
        glued += 1
        image = comparison.object_map(x)
        try:
            if find_descent_isomorphism(G, image, datum) is None:
                undecided += 1
            else:
                roundtrips += 1
        except NotIsomorphic as exc:
            # object_map(glue(datum)) is certified not isomorphic to
            # datum: the round trip refutes the equivalence
            falsified += 1
            report["checks"].append({"name": "round trip",
                                     "verdict": "falsified",
                                     "stage": exc.stage})
        # a sampled Tot gauge out of x projects to a descent morphism
        rho = _random_tot_gauge(gauge_basis, rng)
        xp = gauge_act(ctx, rho, x)
        image2 = comparison.object_map(xp)
        r0 = comparison.morphism_map(rho)
        if G.verify_morphism(image, image2, r0):
            morphism_checks += 1
        else:
            falsified += 1
            report["checks"].append({
                "name": "tot gauge projection", "verdict": "falsified",
                "gauge": _gauge_terms(cc, rho)})
    # verified needs every requested sample glued and witnessed, and at
    # least one sample: nothing glued supports nothing
    if falsified:
        verdict = "falsified"
    elif 0 < samples <= glued and undecided == 0:
        verdict = "verified"
    else:
        verdict = "undecided"
    check = {"name": "sampled gluing round-trips", "verdict": verdict,
             "glued": glued, "round_trips_witnessed": roundtrips,
             "morphism_projections": morphism_checks,
             "undecided": undecided + unglued, "draws": draws}
    if verdict == "undecided":
        reasons = []
        if glued < samples:
            reasons.append(f"glued {glued} of {samples} in {draws} draws")
        if unglued:
            reasons.append(f"{unglued} out of reach within degree bound "
                           f"{D}")
        if undecided:
            reasons.append(f"no isomorphism witness for {undecided} of "
                           f"{glued} glued")
        check["reason"] = "; ".join(reasons) or "no samples requested"
    report["checks"].append(check)
    # a requested sample that was never glued is undecided too
    report["undecided"] = undecided + samples - glued
    report["falsified"] = falsified
    return report


def _abelian_tot_dims(cc, D):
    """(dim pi0, dim Aut) of the Deligne groupoid of the D-truncated
    totalization of an abelian cosimplicial algebra."""
    T = tot_lie(cc, D)
    return T.cochain.cohomology(1)[0], len(T.cochain.cocycles(0))


def _gauge_terms(cc, rho):
    """A Tot gauge as report data: one term per key (level p, basis
    element of g^p, monomial on Delta^p), in key order."""
    return [{"level": p,
             "basis": label_to_json(cc.level(p).space.label_of(gi)),
             "form": format_mono(mono), "coeff": scalar_to_str(c)}
            for (p, gi, mono), c in sorted(rho.items())]


def _random_tot_gauge(basis0, rng):
    """A random combination of the degree-0 Tot basis `basis0`, with
    coefficients in -1..1."""
    return random_combination(rng, basis0, 1)
