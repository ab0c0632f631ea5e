"""Cech cosimplicial algebras of covers and the descent comparison.

Covers are purely combinatorial: an index set, a dg Lie algebra of
sections for every nonempty intersection, and restriction maps.  The
Cech cosimplicial algebra has level q the product over nondecreasing
index tuples of length q+1 (empty intersections contribute nothing);
cofaces delete an index and restrict, codegeneracies repeat an index.
Only this ordered version keeps the conormalization vanishing above
#opens - 1, which the totalization machinery requires.

The comparison functor sends an MC family (omega_p) to the descent
datum (a, theta): a is the level-0 component, theta the holonomy of the
dt-part of omega_1 (a gauge path between the two coface images of a).
Gluing goes the other way: level 0 and 1 from the datum itself, level
p >= 2 by boundary extension plus staged Maurer-Cartan correction.
"""

import itertools

from .dgla import (DgLieMap, SelfCheckFailed, direct_product, el_combination,
                   el_eq, el_is_zero, el_scale, el_sum, lower_central_series,
                   tensor_lie)
from .forms import format_mono
from .io import TruncationError, label_to_json, scalar_to_str
from .linalg import NoSolution, sparse_columns, sparse_solve_affine
from .mcgauge import (DeligneGroupoid, FiniteLieContext,
                      ObstructionUnsolvable, constrained_mc_solve,
                      constrained_mc_solve_rows, gauge_act, holonomy,
                      mc_residual, solve_1simplex, staged_gauge_search)
from .tot import CosimplicialDgLie, DescentDatum, tot_lie


class GluingFailed(Exception):
    """A datum that fails verification (level 0, stage None), or a level
    out of reach within the degree bound: stage 0 when its face and
    degeneracy constraints have no solution, k when the MC correction
    is obstructed at filtration stage k."""

    def __init__(self, level, reason, stage=None):
        self.level = level
        self.reason = reason
        self.stage = stage
        super().__init__(f"gluing failed at level {level}: {reason}")


class ExtractionFailed(Exception):
    pass


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


class CechCosimplicial(CosimplicialDgLie):
    """Cech levels with their tuple bookkeeping kept around."""

    def __init__(self, cover, levels, cofaces, codegens, tuples):
        self.cover = cover
        self.tuples = tuples
        super().__init__(levels, cofaces, codegens,
                         vanishing_level=cover.num_opens - 1,
                         name=f"cech({cover.name or cover.num_opens})")

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
    """Levels 0..N of the ordered Cech cosimplicial algebra, by default
    N = max(2, vanishing_level(cover)).

    Its conormalization N^q is the sum of the sections over the
    intersections of q+1 distinct opens, so it can be nonzero up to
    max |J| - 1 over the nonempty U_J; a truncation below that level
    would hide nonzero N^q from every vanishing check and is refused.
    """
    vanishing = vanishing_level(cover)
    if N is None:
        N = max(2, vanishing)
    if N < vanishing:
        raise TruncationError(
            f"truncation level {N} is below the normalization vanishing "
            f"level {vanishing} of the ordered Cech complex (an "
            f"intersection of {vanishing + 1} opens is nonempty)")
    # a tuple through an open without sections has no sections either,
    # so declared but unused opens add no tuples, only enumeration work
    used = sorted(set().union(*cover.sections))
    tuples = []
    levels = []
    for q in range(N + 1):
        Ts = [T for T in itertools.combinations_with_replacement(used, q + 1)
              if cover.algebra(set(T)) is not None]
        tuples.append(Ts)
        prod = direct_product([cover.algebra(set(T)) for T in Ts], tags=Ts)
        levels.append(prod)
    cofaces = []
    codegens = []
    for q in range(N):
        cof = []
        for i in range(q + 2):
            cof.append(_coface_map(cover, levels, tuples, q, i))
        cofaces.append(cof)
        cod = []
        for i in range(q + 1):
            cod.append(_codegeneracy_map(levels, tuples, q, i))
        codegens.append(cod)
    return CechCosimplicial(cover, levels, cofaces, codegens, tuples)


def _component_map(src, tgt, entries):
    """The map of products that sends component stag through fn into
    component ttag, for each (stag, ttag, fn) in entries: its table
    relabels fn's image of every basis element of stag."""
    src_emb = {tag: emb for tag, g, emb in src.components}
    tgt_emb = {tag: emb for tag, g, emb in tgt.components}
    table = {}
    for stag, ttag, fn in entries:
        emb = tgt_emb[ttag]
        for gi, pidx in src_emb[stag].items():
            entry = table.setdefault(pidx, {})
            for k, v in fn({gi: 1}).items():
                entry[emb[k]] = v
    return DgLieMap(src, tgt, table, validate=False)


def _coface_map(cover, levels, tuples, q, i):
    """coface^i: level q -> level q+1, delete index i then restrict."""
    entries = []
    for T in tuples[q + 1]:
        S = T[:i] + T[i + 1:]   # nonempty: CoverSpec checked subsets
        entries.append(
            (S, T, lambda x, S=S, T=T: cover.restrict(set(S), set(T), x)))
    return _component_map(levels[q], levels[q + 1], entries)


def _codegeneracy_map(levels, tuples, q, i):
    """codeg^i: level q+1 -> level q, repeat index i (same index set)."""
    entries = []
    for T in tuples[q]:
        S = T[:i + 1] + T[i:]
        entries.append((S, T, lambda x: dict(x)))
    return _component_map(levels[q + 1], levels[q], entries)


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
        omega1 = self.ctx.split(x).get(1, {})
        # the dt-part as time coefficients
        path = {}
        for (_, gi, mono), v in omega1.items():
            exps, mask = mono
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
    """An MC family whose comparison image is the given datum.

    Level 0 is a itself; level 1 the gauge path of theta; level p >= 2
    is solved: the sigma-conditions and face restrictions are affine
    constraints, then staged corrections restore MC exactly without
    moving the constrained part.
    """
    ctx = cc.tot_context()
    G = cc.descent_groupoid()
    reasons = []
    if not G.verify_object(datum, reasons):
        raise GluingFailed(0, "datum fails verification: "
                           + "; ".join(reasons))
    a, theta = datum.a, datum.theta
    omegas = [ctx.embed_level(0, a),
              solve_1simplex(ctx.forms[1], cc.coface(0, 1).apply(a), theta)]
    for p in range(2, ctx.N + 1):
        omegas.append(_glue_level(ctx, omegas, p, D))
    x = el_sum(omegas)
    # every level was solved for these conditions
    if not ctx.is_tot_element(x):
        raise SelfCheckFailed("assembled family is not compatible")
    if not el_is_zero(mc_residual(ctx, x)):
        raise SelfCheckFailed("assembled family is not Maurer-Cartan")
    return x


def _glue_level(ctx, omegas, p, D):
    """Solve level p, then MC: the exchange rows of the faces [p-1] -> [p]
    and the codegeneracies [p] -> [p-1] on the level-p keys
    (`TotContext.gluing_system`, factored once), equal to minus the
    compatibility defect of the level p-1 member (glued)."""
    keys, generators, index, factor = ctx.gluing_system(p, D)
    label = f"level {p}"
    try:
        rhs = [0] * len(factor.rows)
        parts = ctx.split(omegas[p - 1])
        for u, q in generators:
            row_of = index[u]
            for k, c in ctx.compatibility_defect(u, q, parts).items():
                r = row_of.get(k)
                if r is not None:
                    rhs[r] = -c
                elif c:
                    # a defect key that no column reaches: an empty row
                    # with a nonzero right-hand side
                    raise ObstructionUnsolvable(0, label)
        return constrained_mc_solve_rows(
            ctx.forms[p], [{k: 1} for k in keys], factor, rhs, label=label)
    except ObstructionUnsolvable as exc:
        if exc.stage == 0:
            raise GluingFailed(
                p, f"boundary/degeneracy constraints unsolvable within "
                   f"degree bound {D}", 0) from exc
        raise GluingFailed(
            p, f"MC correction obstructed at filtration stage "
               f"{exc.stage} (raise the degree bound?)", exc.stage) from exc


# ---------------------------------------------------------------------------
# descent verification


def _sample_descent_datum(cc, rng):
    """Draw a valid descent datum from the cover structure.

    Abelian instances sample uniformly small coordinates over the
    1-cocycles of the abelian descent complex.  Otherwise per-open MC
    elements are drawn through the staged solver with randomized free
    choices and the overlap gauges sampled freely; that satisfies the
    cocycle condition whenever triple overlaps are empty, and invalid
    draws return None for the caller to resample (honest rejection,
    never repair).
    """
    G = cc.descent_groupoid()
    if G.is_abelian():
        Z = G.abelian_complex[0].cocycles(1)
        if not Z:
            return DescentDatum({}, {})
        coords = [rng.randint(-3, 3) for _ in Z]
        datum = G.abelian_object(coords)
        return datum if G.verify_object(datum) else None
    cover = cc.cover
    # the opens that carry a section: a declared open without one has
    # no MC element to draw
    opens = [i for (i,) in cc.tuples[0]]
    a_parts = {}
    theta_parts = {}
    for n, j in enumerate(opens):
        ctx = FiniteLieContext(lower_central_series(cover.algebra({j})))
        constraints = []
        for i in opens[:n]:
            J = frozenset({i, j})
            if cover.algebra(J) is None:
                continue
            overlap = DeligneGroupoid(lower_central_series(cover.algebra(J)))
            theta_ij = overlap.random_gauge(rng)
            theta_parts[(i, j)] = theta_ij
            target = gauge_act(overlap.ctx, theta_ij,
                               cover.restrict({i}, J, a_parts[i]))
            constraints.append(
                (lambda x, J=J, j=j: cover.restrict({j}, J, x), target))
        try:
            a_parts[j] = constrained_mc_solve(
                ctx, [{k: 1} for k in ctx.degree_keys(1)],
                constraints, rng=rng, label=f"open {j}")
        except ObstructionUnsolvable:
            return None
    # assemble level elements
    a = cc.from_components(0, {(i,): a_parts[i] for i in opens})
    # the diagonal tuples (i, i) carry the identity gauge
    theta = cc.from_components(1, theta_parts)
    datum = DescentDatum(a, theta)
    return datum if G.verify_object(datum) else None


def find_descent_isomorphism(G, d1, d2):
    """A level-0 gauge r with act(r, a1) = a2 intertwining the thetas,
    or None.

    The staged search runs on the action equation a1 -> a2 alone; the
    thetas enter only afterwards, when `verify_morphism` checks the
    witness exactly.  A witness that does not intertwine them gives
    None, as does a search that finds none, so the caller counts the
    round trip as undecided.
    """
    if el_eq(d1.a, d2.a) and el_eq(d1.theta, d2.theta):
        return G.identity_morphism()
    ctx0 = G.ctx0
    res = staged_gauge_search(ctx0, d1.a, d2.a,
                              ctx0.basis_of_degree(0))
    if res.status != "witness":
        return None
    r = res.witness
    if G.verify_morphism(d1, d2, r):
        return r
    return None


def lift_tot_gauge(ctx, tot_complex, x, xp, r0, D):
    """A Tot gauge from x to xp whose level-0 component is r0."""
    basis0 = tot_complex.basis_by_degree.get(0, [])
    if not basis0:
        return None
    # affine constraint: level0(rho) = r0
    level0 = [{k: c for k, c in b.items() if k[0] == 0} for b in basis0]
    keys0 = sorted({k for b in level0 for k in b})
    rhs = [r0.get(k[1], 0) for k in keys0]
    sol = sparse_solve_affine(sparse_columns(level0, keys0), rhs, len(basis0))
    if isinstance(sol, NoSolution):
        return None
    coords, kernel = sol
    y0 = el_combination(coords, basis0)
    witness_space = [d for d in (el_combination(kv, basis0) for kv in kernel)
                     if d]
    res = staged_gauge_search(ctx, x, xp, witness_space, y_init=y0)
    if res.status == "witness":
        return res.witness
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
    """
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
        witness = find_descent_isomorphism(G, image, datum)
        if witness is None:
            undecided += 1
        else:
            roundtrips += 1
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
    return el_sum(el_scale(rng.randint(-1, 1), b)
                  for b in basis0)
