"""Maurer-Cartan theory of nilpotent dg Lie algebras.

Elements are sparse coordinate dicts over ambient-specific keys.  An
ambient provides d_el, bracket_el, key_degree, stage vectors and the
nilpotency class; there is one algebra ambient and one forms (x)
algebra ambient:

  * FiniteLieContext -- the algebra g itself, keys are basis indices;
    d_el and bracket_el are g's own structure-table kernels;
  * FormLieContext   -- Omega (x) g over one or several levels p, forms
    on the p-simplex tensored with the level-p algebra, keys are
    (p, basis index of g^p, form monomial on Delta^p); d_el and
    bracket_el are the keyed cases of the levels' kernels (one pass
    over the keys, monomials multiplied and differentiated by the
    memoized forms tables); it also carries the two functorialities of
    such elements, restrict (pull the forms back along a monotone map)
    and push (apply a map of algebra elements monomial by monomial).
    Both read one level of the grouping {p: {monomial: level-p
    element}} that `by_monomial` builds in one pass, and read the
    level off the monomials.

An element of one level is already an element over every level, so the
Thom-Sullivan ambient tot.TotContext is the FormLieContext over all
levels of a cosimplicial algebra, with the Tot conditions added.

The gauge action is the time-1 flow of rho(y)(x) = dy + [x, y], and the
holonomy of a gauge path y(t) the time-1 value of the right Magnus
equation theta' = sum_k (B+_k / k!) ad_theta^k y.  Both are polynomial
in time by nilpotency (the holonomy of degree at most class * len(y)),
and their time coefficients follow from the earlier ones by exact
recursions (`flow_path`, `holonomy`), so each is computed once and
everything stays exact.

Gauge orbits are decided along the lower central series F^k, one linear
solve per stage (`staged_gauge_search`): a gauge u that fixes x modulo
F^k moves it by the twisted differential d_x u = du + [x, u] modulo
F^{k+1}, so each stage solves d_x u = residual over a witness span,
which must be a Lie subalgebra of degree 0; an insoluble stage is a
certificate that the orbits differ.

Composition convention: gauge elements are stored as logarithm
coordinates, and bch(y1, y2) is the holonomy of the constant path y1
started at y2, so it acts by y2, then by y1: the convention follows
from the flow.  bch reads it off one Dynkin table per nilpotency class,
folded for even letters: that holonomy in the free associative algebra
on two letters.  The class-2 instance in the tests pins it down.  All
groupoid composition, cocycle conditions and nerve simplices downstream
use bch, so the convention is fixed in exactly one place.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

from .dgla import (SelfCheckFailed, el_add, el_combination, el_eq,
                   el_is_zero, el_scale, el_sub, el_sum,
                   keyed_bilinear_apply, keyed_linear_apply)
from .forms import (PolyForm, mono_form_degree, mono_is_odd, monomial_d,
                    monomial_product, monomials_up_to, omega_apply)
from .linalg import (NoSolution, lower, sparse_columns, sparse_factor,
                     sparse_solve_affine, span_intersection)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# ambient contexts


class FiniteLieContext:
    """A nilpotent dg Lie algebra as an ambient; keys = basis indices."""

    def __init__(self, nil):
        self.nil = nil
        self.g = nil.algebra

    def nclass(self):
        return self.nil.nilpotency_class

    def key_degree(self, key):
        return self.g.degree_of(key)

    def d_el(self, x):
        return self.g.d_element(x)

    def bracket_el(self, x, y):
        return self.g.bracket(x, y)

    def degree_keys(self, n):
        return self.g.space.degree_indices(n)

    def basis_of_degree(self, n):
        return [{k: 1} for k in self.degree_keys(n)]

    def stage_vectors_for(self, stage, keys):
        """Spanning elements of F^stage restricted to degrees present."""
        degs = sorted({self.key_degree(k) for k in keys})
        out = []
        for n in degs:
            out.extend(self.nil.stage_elements(stage, n))
        return out


def by_monomial(x):
    """{p: {monomial on Delta^p: level-p algebra element}}, an element
    of Omega (x) g over (p, basis index, monomial) keys grouped in one
    pass, as `FormLieContext.restrict` and `push` read it, one level at
    a time."""
    groups = {}
    for (p, gi, mono), v in x.items():
        groups.setdefault(p, {}).setdefault(mono, {})[gi] = v
    return groups


class FormLieContext:
    """Omega (x) g as an ambient, over the levels p of {p: g^p}: the sum
    of the Omega_p (x) g^p, forms on the p-simplex tensored with the
    level-p algebra; keys = (p, basis index of g^p, monomial on
    Delta^p).  FormLieContext(nil, n) is the one level n; a subclass
    (tot.TotContext) sets nils to every level of a cosimplicial algebra.

    The total differential is the de Rham d on the form side plus the
    internal d with the Koszul sign; brackets multiply forms of one
    level and carry the (-1)^{|x||omega'|} sign past the first Lie
    factor.  Both are one pass of g's keyed kernels over the keys, the
    monomials multiplied and differentiated by the memoized forms
    tables.  restrict and push read one level of the element grouped
    by monomial into algebra elements (`by_monomial`): restrict pulls
    each monomial back once and tensors its image with that algebra
    element, push applies its map once per monomial.
    """

    def __init__(self, nil, n):
        self.nils = {n: nil}

    @cached_property
    def algebras(self):
        return {p: nil.algebra for p, nil in self.nils.items()}

    def nclass(self):
        return max(nil.nilpotency_class for nil in self.nils.values())

    def key_degree(self, key):
        p, gi, mono = key
        return self.algebras[p].degree_of(gi) + mono_form_degree(mono)

    def embed_level(self, p, x):
        """A plain element of g^p as a constant level-p element."""
        return {(p, gi, ((0,) * p, 0)): v for gi, v in x.items()}

    def d_el(self, x):
        return keyed_linear_apply(self.algebras, x, monomial_d, mono_is_odd)

    def bracket_el(self, x, y):
        return keyed_bilinear_apply(self.algebras, x, y, monomial_product,
                                    mono_is_odd)

    def restrict(self, u, groups):
        """Pullback along a monotone map u: [p] -> [q] on the form side
        of one level of a `by_monomial` grouping, {monomial on Delta^q:
        level-q element}; q is read off the monomials, and the result
        lives on the p-simplex, p = len(u) - 1, so its keys are (p,
        basis index of g^q, monomial on Delta^p).  Each monomial is
        pulled back once (`omega_apply` of the unit form) and tensored
        with its algebra element."""
        p = len(u) - 1
        out = {}
        for mono, el in groups.items():
            pulled = omega_apply(u, PolyForm(len(mono[0]), {mono: 1}))
            for m, c in pulled.terms.items():
                for gi, v in el.items():
                    key = (p, gi, m)
                    out[key] = out.get(key, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def push(self, f, groups):
        """Apply f, a linear map of plain algebra elements, to each
        algebra element of one level of a `by_monomial` grouping; f may
        land in another algebra, and the keys keep the level read off
        their monomial."""
        return {(len(mono[0]), gj, mono): c for mono, el in groups.items()
                for gj, c in f(el).items()}

    def vertex(self, i, x):
        """Evaluate at the i-th vertex; a plain algebra element."""
        return el_sum({gi: v for (_, gi, _), v in
                       self.restrict((i,), groups).items()}
                      for groups in by_monomial(x).values())

    def keys_up_to(self, D, degree):
        return [(p, gi, mono) for p, g in sorted(self.algebras.items())
                for mono in monomials_up_to(p, D)
                for gi in g.space.degree_indices(
                    degree - mono_form_degree(mono))]

    def stage_vectors_for(self, stage, keys):
        by_mono = {}
        for (p, gi, mono) in keys:
            by_mono.setdefault((p, mono), set()).add(
                self.algebras[p].degree_of(gi))
        out = []
        for (p, mono), degs in sorted(
                by_mono.items(), key=lambda kv: (kv[0][0], kv[0][1][1],
                                                 kv[0][1][0])):
            for n in sorted(degs):
                for el in self.nils[p].stage_elements(stage, n):
                    out.append({(p, gi, mono): c for gi, c in el.items()})
        return out


# ---------------------------------------------------------------------------
# residual and flows


def mc_residual(ctx, x):
    """dx + (1/2)[x,x]; zero exactly when x is Maurer-Cartan."""
    return el_add(ctx.d_el(x), el_scale(HALF, ctx.bracket_el(x, x)))


def mc_element(ctx, coords):
    """Validate degree-1 support and the MC equation; returns the dict."""
    for k in coords:
        if ctx.key_degree(k) != 1:
            raise ValueError("MC elements live in degree 1")
    if not el_is_zero(mc_residual(ctx, coords)):
        raise ValueError("not a Maurer-Cartan element")
    return dict(coords)


def flow_path(ctx, y_coeffs, x0):
    """Time coefficients of the flow of x' = dy(t) + [x, y(t)], x(0)=x0.

    y_coeffs is the list of time coefficients of y (constant gauge:
    [y]).  Comparing the coefficients of t^k on both sides gives the
    exact recursion

        x_{k+1} = (dy_k + sum_{i+j=k} [x_i, y_j]) / (k+1),

    so each coefficient is computed once, from the len(y) coefficients
    before it.  Once len(y) consecutive coefficients past the range of
    dy are zero, every later one is a bracket of zeros and the list,
    trailing zeros dropped, is the polynomial solution.  By nilpotency
    that happens within (class+1) len(y) coefficients; an ambient that
    needs more than (class+3) len(y) is not nilpotent.
    """
    L = len(y_coeffs)
    dy = [ctx.d_el(c) for c in y_coeffs]
    bound = (ctx.nclass() + 3) * L
    coeffs = [dict(x0)]
    zeros = 0 if x0 else 1      # length of the trailing run of zeros
    k = 0                       # coeffs holds x_0 .. x_k
    while k < L or zeros < L:
        if k >= bound:
            raise ArithmeticError("gauge flow did not stabilize; "
                                  "ambient is not nilpotent")
        nxt = el_sum((ctx.bracket_el(coeffs[k - j], y_coeffs[j])
                      for j in range(min(L, k + 1))
                      if coeffs[k - j] and y_coeffs[j]),
                     dy[k] if k < L else None)
        if k:
            nxt = el_scale(Fraction(1, k + 1), nxt)
        coeffs.append(nxt)
        zeros = 0 if nxt else zeros + 1
        k += 1
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def gauge_act(ctx, y, x):
    """Time-1 value of the flow: the gauge action of exp(y) on x."""
    return el_sum(flow_path(ctx, [y], x))


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff as a holonomy


class _Words:
    """The free associative algebra on the letters 0 and 1, truncated
    beyond word length `depth`, as an ambient of class `depth`: {word
    tuple: coefficient}, bracketed by the commutator."""

    def __init__(self, depth):
        self.depth = depth

    def nclass(self):
        return self.depth

    def bracket_el(self, x, y):
        out = {}
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                if len(w1) + len(w2) <= self.depth:
                    out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
                    out[w2 + w1] = out.get(w2 + w1, 0) - c1 * c2
        return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _bch_table(depth):
    """The Dynkin bracketing of log(exp X0 exp X1) up to word length
    `depth`, folded for even letters: ((word, coefficient), ...), a word
    w standing for the right-nested bracket [w0, [w1, ... [w_{n-2},
    w_{n-1}]]] and its coefficient already divided by len(w).

    log(exp X0 exp X1) is the holonomy of the constant path X1 started
    at X0, which acts by X0 and then by X1, read in the free associative
    algebra on the two letters (`_Words`).  The letters of a gauge are
    even, so [y, y] = 0 and [b, a] = -[a, b]: a word that ends in two
    equal letters is dropped, and one that ends in (1, 0) is read as the
    word ending in (0, 1) with the sign flipped.  Words are listed by
    length, then lexicographically."""
    table = {}
    for w, c in holonomy(_Words(depth), [{(1,): 1}], {(0,): 1}).items():
        c = Fraction(c, len(w))
        if len(w) > 1:
            if w[-1] == w[-2]:
                continue
            if w[-2:] == (1, 0):
                w, c = w[:-2] + (0, 1), -c
        table[w] = table.get(w, 0) + c
    return tuple((w, lower(c)) for w, c in
                 sorted(table.items(), key=lambda wc: (len(wc[0]), wc[0]))
                 if c)


def bch(ctx, y1, y2):
    """The gauge with gauge_act(bch(y1,y2), x) = gauge_act(y1, gauge_act(y2, x)).

    It is holonomy(ctx, [y1], y2), evaluated as log(exp Y2 exp Y1)
    truncated beyond the nilpotency class and pushed into the algebra by
    the Dynkin bracketing.  y1 and y2 are gauges, of degree 0, so the
    bracketing is read off the folded table `_bch_table`: every
    right-nested bracket is computed once, from the one of its tail,
    and the terms are summed in one pass and lowered once at the end.
    """
    letters = (y2, y1)
    nested = {}

    def bracketed(w):
        if len(w) == 1:
            return letters[w[0]]
        b = nested.get(w)
        if b is None:
            tail = bracketed(w[1:])
            b = nested[w] = ctx.bracket_el(letters[w[0]], tail) \
                if tail else {}
        return b

    out = {}
    for w, c in _bch_table(ctx.nclass()):
        for k, v in bracketed(w).items():
            out[k] = out.get(k, 0) + c * v
    return {k: lower(v) for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# holonomy of a time-dependent gauge path (right Magnus expansion)


@lru_cache(maxsize=None)
def _bernoulli_plus(k):
    """Bernoulli numbers with B1 = +1/2 (the "plus" convention)."""
    if k == 0:
        return 1
    if k == 1:
        return HALF
    # standard recurrence for B^- then flip the sign at odd k (only k=1 odd
    # is nonzero, so only the parity of k matters through (-1)^k)
    B = [1, Fraction(-1, 2)]
    for m in range(2, k + 1):
        s = sum(comb(m + 1, j) * B[j] for j in range(m))
        B.append(Fraction(-s, m + 1))
    return B[k] * (-1) ** k


def holonomy(ctx, y_coeffs, theta0=None):
    """theta with exp(theta) = exp(theta0) followed by the time-ordered
    exponential of the path y(t): it acts by theta0, then along y.

    theta(t) = sum_{m>=0} theta_m t^m, theta_0 = theta0 (default 0),
    solves the right Magnus equation theta' = sum_{k<c} (B+_k / k!)
    ad_theta^k y(t), c the nilpotency class.  With P_k[m] = sum_{i=0..m}
    [theta_i, P_{k-1}[m-i]] the time coefficients of ad_theta^k y
    (P_0 = y), the coefficients of t^m give the exact recursion

        (m+1) theta_{m+1} = sum_{k<c} (B+_k / k!) P_k[m],

    whose right side reads only theta_0 .. theta_m.  A term of theta_m,
    m >= 1, brackets r >= 1 coefficients of y (and copies of theta0), has
    m <= r len(y), by induction on m; it lies in F^r, so r <= c and the
    c len(y) coefficients after theta0 are all of them, whatever theta0
    is.  gauge_act(theta, x) equals the time-1 nonautonomous flow from x
    for every MC x (tested).  A zero weight or an empty P_k[m] adds no
    term, and the weights are lowered once, so B+_0 = 1 is an int.
    """
    c, L = ctx.nclass(), len(y_coeffs)
    weights = [lower(Fraction(_bernoulli_plus(k), factorial(k)))
               for k in range(c)]
    theta = [dict(theta0 or {})]
    powers = [list(y_coeffs)] + [[] for _ in range(1, c)]   # P_k[0 .. m]
    for m in range(c * L):
        if m >= L:
            powers[0].append({})
        for k in range(1, c):
            powers[k].append(el_sum(
                ctx.bracket_el(theta[i], powers[k - 1][m - i])
                for i in range(m + 1)
                if theta[i] and powers[k - 1][m - i]))
        theta.append(el_scale(Fraction(1, m + 1), el_sum(
            el_scale(w, P[m]) for w, P in zip(weights, powers)
            if w and P[m])))
    return el_sum(theta)


# ---------------------------------------------------------------------------
# the 1-simplex attached to a gauge transformation


def solve_1simplex(ctx, x0, theta):
    """The MC element of Omega_1 (x) g built from the flow of theta.

    ctx is a forms (x) algebra ambient whose level 1, ctx.nils[1], is
    the owner g; x0 an MC element of the owner; theta a gauge element.
    Returns z = x(t) + dt theta with x(t) the exact flow, so z restricts
    to x0 at the 0-vertex and to gauge_act(theta, x0) at the 1-vertex,
    and z is MC upstairs.
    """
    fin = FiniteLieContext(ctx.nils[1])
    coeffs = flow_path(fin, [theta], x0)
    out = {}
    for k, c in enumerate(coeffs):
        mono = ((k,), 0)
        for gi, v in c.items():
            out[(1, gi, mono)] = out.get((1, gi, mono), 0) + v
    dt_mono = ((0,), 1)
    for gi, v in theta.items():
        out[(1, gi, dt_mono)] = out.get((1, gi, dt_mono), 0) + v
    out = {k: v for k, v in out.items() if v}
    if not el_is_zero(mc_residual(ctx, out)):
        raise SelfCheckFailed("1-simplex construction lost the MC equation")
    return out


# ---------------------------------------------------------------------------
# staged gauge-orbit search


class GaugeSearchResult:
    """Verdict of a staged gauge-orbit search.

    status is "witness" or "distinct"; a witness verifies
    gauge_act(witness, x) == xp exactly before being returned; distinct
    carries the stage whose linear system is insoluble, which is a
    certificate.
    """

    def __init__(self, status, witness=None, stage=None, reason=""):
        self.status = status
        self.witness = witness
        self.stage = stage
        self.reason = reason

    def __repr__(self):
        return f"GaugeSearchResult({self.status!r}, stage={self.stage})"


def _keys_of(elements):
    keys = set()
    for e in elements:
        keys.update(e)
    return keys


def _stage_span(ctx, stage, space, degree):
    """The echelon basis of span(space) & F^stage for a space of
    elements of one degree, or space itself at stage 1, where F^stage is
    everything.  Each stage vector lies in one block of keys, so those
    of the blocks that the space reaches give the whole intersection."""
    if stage == 1:
        return space
    stage_vectors = [v for v in ctx.stage_vectors_for(stage, _keys_of(space))
                     if v and ctx.key_degree(next(iter(v))) == degree]
    return span_intersection(space, stage_vectors)


def _solve_congruence(ctx, images, residual, stage):
    """Solve sum z_j images[j] = residual (mod F^{stage+1}).

    Returns (z, kernel) or NoSolution; z and the kernel vectors are
    sparse dicts over the positions of the images.
    """
    keys = _keys_of(images) | set(residual)
    aux = ctx.stage_vectors_for(stage + 1, keys) if stage + 1 <= ctx.nclass() \
        else []
    keys = sorted(keys | _keys_of(aux))
    # sum_j z_j images_j - sum_m w_m aux_m = residual
    columns = images + [el_scale(-1, a) for a in aux]
    b = [residual.get(k, 0) for k in keys]
    res = sparse_solve_affine(sparse_columns(columns, keys), b, len(columns))
    if isinstance(res, NoSolution):
        return res
    z, ker = res
    # strip the aux coordinates
    keep = len(images)
    return ({j: c for j, c in z.items() if j < keep},
            [{j: c for j, c in v.items() if j < keep} for v in ker])


def staged_gauge_search(ctx, x, xp, witness_space):
    """Search for y in the span W of witness_space with gauge_act(y, x)
    = xp, one linear solve per stage of the lower central series,
    through every stage up to the nilpotency class.  W must be a Lie
    subalgebra of degree 0 (g^0 is one), so that bch stays in W.

    Stage k starts from a y that moves x to xp modulo F^k.  Every other
    such y' in W is bch(y, u) for a u in W that fixes x modulo F^k, so
    d_x u = du + [x, u] lies in F^k (the gauge action of u moves x by an
    invertible operator applied to d_x u), and then u moves x by d_x u
    modulo F^{k+1}.  So the stage is the linear congruence
    d_x u = xp - gauge_act(y, x) (mod F^{k+1}) over u in W, with the
    images d_x w of the witness span computed once, and y becomes
    bch(y, u).  An insoluble stage is a certificate that no gauge of W
    moves x to xp: "distinct", with that stage.  A search that ends
    off-orbit raises SelfCheckFailed.
    """
    y = {}
    twisted = [el_add(ctx.d_el(w), ctx.bracket_el(x, w))
               for w in witness_space]
    for stage in range(1, ctx.nclass() + 1):
        residual = el_sub(xp, gauge_act(ctx, y, x))
        if el_is_zero(residual):
            break
        sol = _solve_congruence(ctx, twisted, residual, stage)
        if isinstance(sol, NoSolution):
            return GaugeSearchResult(
                "distinct", stage=stage,
                reason=f"affine obstruction insoluble at stage {stage}")
        y = bch(ctx, y, el_combination(sol[0], witness_space))
    if el_eq(gauge_act(ctx, y, x), xp):
        return GaugeSearchResult("witness", witness=y)
    raise SelfCheckFailed("staged search ended off-orbit; "
                          "staging invariant broken")


def gauge_equivalent(ctx, x, xp):
    """Witness or distinct for the gauge orbit question, by a staged
    search through the whole lower central series.

    The witness space is the whole degree-0 part, a Lie subalgebra, so
    "distinct" is a certificate that x and xp lie in different orbits.
    """
    if el_eq(x, xp):
        return GaugeSearchResult("witness", witness={})
    return staged_gauge_search(ctx, x, xp, ctx.basis_of_degree(0))


# ---------------------------------------------------------------------------
# staged Maurer-Cartan solving under affine constraints


class ObstructionUnsolvable(Exception):
    """The staged correction hit an insoluble affine system."""

    def __init__(self, stage, label=""):
        self.stage = stage
        self.label = label
        super().__init__(f"obstruction unsolvable at stage {stage}"
                         + (f" ({label})" if label else ""))


def constraint_rows(keys, maps):
    """The factored rows of affine constraints on elements over the
    keys, for `constrained_mc_solve`, and the row keys of each map: a
    map becomes the rows of the matrix whose column j is
    map({keys[j]: 1}), one row per key of the images, in sorted order.
    `constraint_rhs` writes the right-hand sides of each draw of
    targets."""
    units = [{k: 1} for k in keys]
    rows, row_keys = [], []
    for fn in maps:
        imgs = [fn(z) for z in units]
        row_keys.append(sorted(_keys_of(imgs)))
        rows += sparse_columns(imgs, row_keys[-1])
    return sparse_factor(rows, len(keys)), row_keys


def constraint_rhs(row_keys, targets):
    """The right-hand sides of `constraint_rows` (or of
    `TotContext.gluing_system`) for one target per map, or None when a
    target is nonzero on a key that no image reaches: no solution maps
    there."""
    rhs = []
    for keys_of_map, target in zip(row_keys, targets):
        reached = set(keys_of_map)
        if any(c and k not in reached for k, c in target.items()):
            return None
        rhs += [target.get(k, 0) for k in keys_of_map]
    return rhs


def constrained_mc_solve(ctx, keys, system, rhs, rng=None, label=""):
    """MC element x = sum_j c_j {keys[j]: 1} with rows . c = rhs.

    keys: distinct keys of degree 1 (ValueError when one repeats).
    system: the `linalg.sparse_factor` of sparse rows {key position:
    coefficient} over len(keys) columns, rhs their right-hand sides, as
    `constraint_rows` and `constraint_rhs` write them (a system factored
    once and met with many targets); the rows must be those of a linear
    map of elements.  The system is solved once and every attempt
    corrects that solution; a row that no key reaches stays in it, so a
    nonzero rhs there is insoluble.  x is exactly MC, and its
    coordinates are checked against the rows once more after the MC
    correction.  rng, when given, randomizes the free choices at every
    stage (the sampler hook); random choices can land on obstructed
    points of the MC variety, so failed attempts fall back to four
    fresh draws in all and finally to the deterministic greedy path
    before the obstruction is reported.  The rounds share each stage's
    span of the free directions and its d images, built once per call.
    """
    position = {k: j for j, k in enumerate(keys)}
    if len(position) != len(keys):
        raise ValueError("keys must be distinct")
    if system.ncols != len(keys):
        raise ValueError(f"a system over {system.ncols} columns for "
                         f"{len(keys)} keys")
    # no draw enters the affine constraints: one solve serves every round
    res = system.solve(rhs)
    if isinstance(res, NoSolution):
        raise ObstructionUnsolvable(0, label or "constraints")
    coeffs, kernel = res
    # keys listed in column order, as el_combination lists them; every
    # kernel vector is 1 on its free column, so no free direction is 0
    x0, *free = [{keys[j]: c for j, c in sorted(v.items()) if c}
                 for v in (coeffs, *kernel)]
    rounds = ([rng] * 4 + [None]) if rng is not None else [None]
    spans = {}
    for r in rounds:
        try:
            x = _mc_correct(ctx, x0, free, r, label, spans)
            break
        except ObstructionUnsolvable as exc:
            last_exc = exc
    else:
        raise last_exc
    # a key outside the columns reads as position None
    coords = {position.get(k): v for k, v in x.items()}
    if None in coords or not _rows_hold(system.rows, rhs, coords):
        raise SelfCheckFailed("constraints drifted during correction"
                              + (f" ({label})" if label else ""))
    return x


def random_combination(rng, vectors, bound, start=None):
    """start + sum of rng.randint(-bound, bound) * v over the vectors,
    drawn in order: the one random draw of the samplers."""
    return el_sum((el_scale(rng.randint(-bound, bound), v)
                   for v in vectors), start)


def _rows_hold(rows, rhs, coords):
    """Whether rows . coords == rhs exactly, for rows of (column,
    coefficient) pairs."""
    for row, b in zip(rows, rhs):
        s = 0
        for j, c in row:
            v = coords.get(j)
            if v is not None:
                s += c * v
        if s != b:
            return False
    return True


def _mc_correct(ctx, x, free, rng, label, spans):
    """x moved along the free directions (all of degree 1) until it is
    MC, stage by stage; rng, when given, draws the free choices.  spans
    memoizes each stage's span of the free directions and their d
    images, which depend on nothing else: the rounds of one
    `constrained_mc_solve` share it."""
    if rng is not None and free:
        x = random_combination(rng, free, 2, x)
    c = ctx.nclass()
    for stage in range(1, c + 1):
        R = mc_residual(ctx, x)
        if el_is_zero(R):
            break
        if stage not in spans:
            span = _stage_span(ctx, stage, free, 1)
            spans[stage] = span, [ctx.d_el(z) for z in span]
        cand_stage, imgs = spans[stage]
        sol = _solve_congruence(ctx, imgs, el_scale(-1, R), stage)
        if isinstance(sol, NoSolution):
            raise ObstructionUnsolvable(stage, label)
        zvals, kern = sol
        z = el_combination(zvals, cand_stage)
        if rng is not None and kern:
            dirs = [d for d in (el_combination(kv, cand_stage)
                                for kv in kern) if d]
            z = random_combination(rng, dirs, 2, z)
        x = el_add(x, z)
    R = mc_residual(ctx, x)
    if not el_is_zero(R):
        raise ObstructionUnsolvable(ctx.nclass(), label or "final residual")
    return x


def mc_lift(f, nil_g, nil_h, xbar):
    """Lift an MC element along an acyclic fibration, exactly.

    Induction over the lower central series: each stage's correction
    lives in ker(f) and F^stage and is found by an affine solve against
    the obstruction cocycle; solvability is what the acyclic-fibration
    hypothesis guarantees, so an ObstructionUnsolvable means f was not
    one (re-validate the input).
    """
    ctx = FiniteLieContext(nil_g)
    keys = ctx.degree_keys(1)
    system, row_keys = constraint_rows(keys, [f.apply])
    rhs = constraint_rhs(row_keys, [xbar])
    if rhs is None:
        raise ObstructionUnsolvable(0, "mc_lift")
    x = constrained_mc_solve(ctx, keys, system, rhs, label="mc_lift")
    if not el_eq(f.apply(x), xbar):
        raise SelfCheckFailed("mc_lift: the lift does not map to xbar")
    return x


# ---------------------------------------------------------------------------
# sampling the Deligne groupoid


class DeligneGroupoid:
    """Objects: MC elements; morphisms x -> x' : gauges g with x' = g(x).

    The sampler of both: random MC elements through the staged solver
    with randomized free choices, and random gauges with small integer
    coordinates.
    """

    def __init__(self, nil):
        self.ctx = FiniteLieContext(nil)

    def random_mc_element(self, rng):
        keys = self.ctx.degree_keys(1)
        system, _ = constraint_rows(keys, ())
        return constrained_mc_solve(self.ctx, keys, system, [], rng=rng,
                                    label="sample")

    def random_gauge(self, rng):
        return random_combination(rng, self.ctx.basis_of_degree(0), 2)
