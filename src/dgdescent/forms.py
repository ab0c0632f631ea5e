"""Polynomial differential forms on standard simplices, exactly over Q.

Forms on the n-simplex live in the free graded-commutative algebra on
t_1..t_n (degree 0) and dt_1..dt_n (degree 1); t_0 and dt_0 are
eliminated through t_0 = 1 - sum(t_i), dt_0 = -sum(dt_i), so the
relations of the simplicial forms algebra hold by construction and
equality of forms is equality of coefficient dicts.

A monomial is (exps, mask): exps a length-n tuple of exponents of the
t's, mask a bitmask of the dt factors, always written in increasing
index order.  The polynomial degree of a monomial counts every t and
every dt once; the form degree is the number of dt factors.

Pullback along a monotone map (`omega_apply`) is linear, computed per
monomial from a memo: `monomial_pullback` multiplies out the image of
each (map, monomial) pair once, as an immutable tuple, and later
pullbacks only scale and sum them.  The map is checked on every call,
through a memo per (map, target simplex).  Its caller in the
package, `mcgauge.FormLieContext.restrict`, reads an element grouped
by monomial (`mcgauge.by_monomial`) and pulls back each monomial once,
as the unit form, whatever the number of algebra basis elements it
carries.  Coefficients are int where they are integral (see `linalg`),
and the memoized images are lowered to that form when they are
built.  `monomial_d` gives the differential of one monomial in the
same way, and `monomial_product` the wedge of two monomials.
"""

import functools
from fractions import Fraction

from .linalg import lower


def mono_form_degree(mono):
    return bin(mono[1]).count("1")


def _merge_masks(m1, m2):
    """Wedge two increasing dt products; None if they share a factor.

    Returns (mask, sign) with sign the parity of moving the factors of
    m2 past those of m1 into one increasing word.
    """
    if m1 & m2:
        return None
    inversions = 0
    m = m2
    while m:
        low = m & -m
        # factors of m1 above this bit must jump over it
        inversions += bin(m1 >> low.bit_length()).count("1")
        m ^= low
    sign = -1 if inversions % 2 else 1
    return m1 | m2, sign


def mono_mul(a, b):
    (e1, m1), (e2, m2) = a, b
    merged = _merge_masks(m1, m2)
    if merged is None:
        return None
    mask, sign = merged
    return (tuple(x + y for x, y in zip(e1, e2)), mask), sign


class PolyForm:
    """Exact polynomial differential form on the standard n-simplex."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        c = lower(c)
        if not c:
            return cls(n)
        return cls(n, {((0,) * n, 0): c})

    @classmethod
    def one(cls, n):
        return cls.constant(n, 1)

    @classmethod
    def t(cls, n, i):
        """The barycentric coordinate t_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError(f"t_{i} is not a free coordinate on the "
                             f"{n}-simplex")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {(exps, 0): 1})

    @classmethod
    def dt(cls, n, i):
        if not 1 <= i <= n:
            raise ValueError(f"dt_{i} is not a free coordinate on the "
                             f"{n}-simplex")
        return cls(n, {((0,) * n, 1 << (i - 1)): 1})

    @classmethod
    def t0(cls, n):
        """1 - t_1 - ... - t_n."""
        out = cls.one(n)
        for i in range(1, n + 1):
            out = out - cls.t(n, i)
        return out

    @classmethod
    def dt0(cls, n):
        out = cls.zero(n)
        for i in range(1, n + 1):
            out = out - cls.dt(n, i)
        return out

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return PolyForm(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyForm(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyForm(self.n, {m: other * v
                                     for m, v in self.terms.items()})
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = mono_mul(m1, m2)
                if prod is None:
                    continue
                m, sign = prod
                v = out.get(m, 0) + sign * c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return PolyForm(self.n, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return isinstance(other, PolyForm) and self.n == other.n and \
            self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if not isinstance(other, PolyForm) or other.n != self.n:
            raise ValueError("forms live on different simplices")

    # -- structure -------------------------------------------------------------

    def d(self):
        """Exterior differential: d t_i = dt_i as a graded derivation."""
        out = {}
        for (exps, mask), c in self.terms.items():
            for i in range(self.n):
                e = exps[i]
                if not e or (mask >> i) & 1:
                    continue
                nexps = tuple(x - 1 if j == i else x
                              for j, x in enumerate(exps))
                below = bin(mask & ((1 << i) - 1)).count("1")
                sign = -1 if below % 2 else 1
                m = (nexps, mask | (1 << i))
                v = out.get(m, 0) + sign * e * c
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return PolyForm(self.n, out)

    def __repr__(self):
        return f"PolyForm({self.n}, {format_form(self)!r})"


# ---------------------------------------------------------------------------
# simplicial operator algebra on monotone maps


def monotone_maps(p, q):
    """All monotone maps [p] -> [q], as value tuples of length p+1."""
    out = []

    def rec(prefix, low):
        if len(prefix) == p + 1:
            out.append(tuple(prefix))
            return
        for v in range(low, q + 1):
            rec(prefix + [v], v)
    rec([], 0)
    return out


@functools.lru_cache(maxsize=None)
def _monotone_into(u, q):
    """Whether the tuple u is a monotone map [len(u) - 1] -> [q].
    Memoized, so a map that many pullbacks share is checked once."""
    return all(0 <= x <= q for x in u) and \
        all(a <= b for a, b in zip(u, u[1:]))


def compose_maps(u, v):
    """(u . v)(k) = u(v(k)); v into the domain of u."""
    return tuple(u[x] for x in v)


def face_map(i, n):
    """The injection [n-1] -> [n] missing i."""
    return tuple(j for j in range(n + 1) if j != i)


def degeneracy_map(i, n):
    """The surjection [n+1] -> [n] repeating i."""
    out = []
    for j in range(n + 2):
        out.append(j if j <= i else j - 1)
    return tuple(out)


def monotone_factorize(u, q):
    """Epi-mono factorization of u: [p] -> [q].

    Returns (faces, degens) with faces strictly decreasing and degens
    strictly increasing such that u is the composite of the cofaces
    (leftmost) after the codegeneracies:
        u = face_{faces[0]} . face_{faces[1]} . ... .
            degen_{degens[0]} . degen_{degens[1]} . ...
    """
    degens = [i for i in range(len(u) - 1) if u[i] == u[i + 1]]
    image = set(u)
    faces = sorted((i for i in range(q + 1) if i not in image), reverse=True)
    return faces, degens


def identity_monotone(n):
    return tuple(range(n + 1))


def omega_apply(u, omega):
    """Pullback of forms along a monotone map u: [p] -> [q], p = len(u) - 1.

    The algebra map is determined by t_i |-> sum over the preimage of i
    of the source coordinates (and the same on dt), with the eliminated
    coordinates t_0, dt_0 written out through the simplex relations.
    Commutes with d and with products.  It is linear, so it is computed
    per monomial from a memo: the pullback of each monomial along u is
    multiplied out once and then only scaled and summed.  The map is
    checked on every call, even on the zero form, through the memoized
    `_monotone_into`.
    """
    p = len(u) - 1
    q = omega.n
    u = tuple(u)
    if not _monotone_into(u, q):
        raise ValueError(f"{u} is not a monotone map into [{q}]")
    out = {}
    for mono, c in omega.terms.items():
        for m, v in monomial_pullback(u, q, mono):
            s = out.get(m, 0) + c * v
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return PolyForm(p, out)


@functools.lru_cache(maxsize=None)
def monomial_pullback(u, q, mono):
    """The pullback of one monomial on the q-simplex along the monotone
    map u (a tuple): t_i and dt_i go to the sums of the source
    coordinates (and differentials) over the preimage of i.  A tuple of
    (monomial, coefficient) pairs, coefficients lowered, in the order
    omega_apply adds them.  Memoized and immutable, so a caller may keep
    it: `TotContext.exchange_rows` reads its columns off it instead of
    pulling back one form per column."""
    p = len(u) - 1
    src_t = [PolyForm.t0(p)] + [PolyForm.t(p, j) for j in range(1, p + 1)]
    src_dt = [PolyForm.dt0(p)] + [PolyForm.dt(p, j) for j in range(1, p + 1)]
    sub_t = []
    sub_dt = []
    for i in range(1, q + 1):
        st = PolyForm.zero(p)
        sdt = PolyForm.zero(p)
        for j, uj in enumerate(u):
            if uj == i:
                st = st + src_t[j]
                sdt = sdt + src_dt[j]
        sub_t.append(st)
        sub_dt.append(sdt)
    exps, mask = mono
    term = PolyForm.one(p)
    for i in range(q):
        for _ in range(exps[i]):
            term = term * sub_t[i]
        if not term:
            return ()
    for i in range(q):
        if (mask >> i) & 1:
            term = term * sub_dt[i]
    return tuple((m, lower(c)) for m, c in term.terms.items())


@functools.lru_cache(maxsize=None)
def monomial_d(mono):
    """d of one monomial, on the simplex whose dimension is its number
    of exponents, as a tuple of (monomial, coefficient) pairs in the
    order PolyForm.d adds them.  Memoized and immutable:
    `FormLieContext.d_el` reads it once per key instead of
    differentiating a fresh form."""
    return tuple((m, lower(c)) for m, c in
                 PolyForm(len(mono[0]), {mono: 1}).d().terms.items())


@functools.lru_cache(maxsize=None)
def monomial_product(a, b):
    """The wedge product of two monomials as (monomial, negative), with
    a b = -monomial when negative; None when a and b share a dt factor.
    Memoized and immutable: `FormLieContext.bracket_el` reads it once
    per pair of keys instead of multiplying the monomials out."""
    prod = mono_mul(a, b)
    if prod is None:
        return None
    mono, sign = prod
    return mono, sign < 0


def mono_is_odd(mono):
    """Whether the monomial has odd form degree."""
    return bool(mono[1].bit_count() & 1)


# ---------------------------------------------------------------------------
# finite-dimensional truncations F_D


def monomials_up_to(n, D):
    """All monomials on the n-simplex of polynomial degree <= D, sorted.

    Every degree-D truncation takes its monomials from here, so a
    negative D, which would truncate to nothing, is refused here."""
    if D < 0:
        raise ValueError(f"degree bound must be >= 0, got {D}")
    out = []

    def exps_rec(prefix, remaining):
        if len(prefix) == n:
            out_exps.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            exps_rec(prefix + [e], remaining - e)

    for mask in range(1 << n):
        k = bin(mask).count("1")
        if k > D:
            continue
        out_exps = []
        exps_rec([], D - k)
        for exps in out_exps:
            out.append((exps, mask))
    out.sort(key=lambda m: (mono_form_degree(m), m[1], m[0]))
    return out


# ---------------------------------------------------------------------------
# printing


def format_mono(mono):
    exps, mask = mono
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"t{i + 1}")
        elif e > 1:
            parts.append(f"t{i + 1}^{e}")
    for i in range(len(exps)):
        if (mask >> i) & 1:
            parts.append(f"dt{i + 1}")
    return " ".join(parts) if parts else "1"


def format_form(omega):
    if not omega.terms:
        return "0"
    parts = []
    for m in sorted(omega.terms,
                    key=lambda mm: (mono_form_degree(mm), mm[1], mm[0])):
        c = omega.terms[m]
        mono = format_mono(m)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c} {mono}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")
