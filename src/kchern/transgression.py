r"""Polynomial families of connections (paths and bigons), the cylinder
calculus over them, homotopy operators, evaluation maps, and the
Chern-Simons transgression forms with all of their identities.

A family in R parameters x_0, ..., x_{R-1} is a `Connection` with that R
(`straight_line` adds a first one); it lives in the cylinder DGA
Omega(A) (x) Omega_poly(Delta^R).  A CylForm is a sum of terms c dx_I w,
with the parameter differentials kept leftmost in increasing order, w a
basis word and c a Poly in R variables; it holds them as one dict keyed by
(dx mask, word), the keys of `connections.Mat`.  One sign rule gives the
whole calculus:

  * product: (dx_I u)(dx_J v) = shuffle(I, J) dx_{I u J} sigma^{|J|}(u) v,
    and 0 when I and J meet, where shuffle(I, J) is the sign of the
    permutation that sorts I J and sigma negates odd-degree components;
  * differential:
    d(dx_I u) = (-1)^{|I|} dx_I (du + sum_{i not in I} dx_i del_i u).

Every sign is read from `grading_sign`, the sign of sigma on one word, and
the tables SHUFFLE and KOSZUL below.
Paths (R = 1, parameter t) use TForm, bigons (R = 2, parameters (s, t))
use BiForm.  `CylForm._key_product` is the one product rule, its results
kept per algebra and pair of keys, and `CylForm._key_d` the one d rule on
those keys, which `FormTerms.d` and `Mat.d` sum: products of cylinder
forms are 1 x 1 matrix products.  Integration (`CylForm.integrate`, the
one fibre integral K, which `homotopy_K` and `_fibre_chern` read) and
restriction keep the terms with (or without) dx_i and drop bit i.

KCS_k = K ch_k and the bigon potential K K_s ch_k integrate the dx_top part
of Karoubi's ch_k = tr(R~^k)/k! over the fibre and build only what reaches
it: the last power of `connections.chern_series` from the pairs of keys
whose masks join to the top one, found by lookup, and R~ without its base
part when k_max <= R.  The last power is integrated while it is multiplied:
by Fubini, int_{[0,1]^R} x^e = prod_i 1/(e_i + 1), so each pair of Poly
scalars a, b adds sum a_e1 b_e2 W(e1 + e2) into one rational per word, W
the integer weights den / prod_i (e1_i + e2_i + 1) of
`exactmath.integral_weights`, and each word is divided once, by den * k!.
The whole cylinder Chern forms read the same loop.
The k = 1 potential vanishes: R~ has no ds /\ dt part.  Every entry point
reads R~ from `_curvature_parts`, which computes it once per family and
keeps it on the `Connection`, so KCS, its closed form and the whole Chern
forms of one path (or bigon) share one curvature.  A family's theta
keeps the scalars `family_scalars(R)` it is built with, so only p's
rationals are coerced: in R~'s base part, and in p's cylinder matrix
(`_cyl_p`).
`kcs`, `kcs_closed_form` and `tilde_curvature` take a path and
`secondary_transgression` a bigon; another R raises ConnectionError_.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add

from .connections import (Connection, ConnectionError_, Mat, check_k_max,
                          chern_series, curvature_formula, family_scalars)
from .exactmath import accumulate, checked, coeff_integral, integral_weights
from .uforms import (FormError, FormTerms, UForm, project_ab, word_degree,
                     word_product)


def grading_sign(w) -> int:
    """The sign of the grading involution sigma on the word w: sigma
    negates odd-degree components."""
    return -1 if word_degree(w) % 2 else 1


# Signs of the cylinder calculus by bit mask of parameter differentials
# (bit i stands for dx_i), filled for each R in use by CylForm subclasses.
SHUFFLE = {}    # (I, J) disjoint -> sign with dx_I dx_J = sign * dx_{I u J}
KOSZUL = {}     # I -> (-1)^|I|, the sign of d passing dx_I


# ---------------------------------------------------------------------------
# Cylinder forms
# ---------------------------------------------------------------------------

class _CylProducts(dict):
    """(key, key) -> the product of two keys (mask, word) of one algebra,
    as a tuple of ((mask, word), scalar) pairs, and () when the masks meet;
    each built on its first read (`__missing__`) and kept.  Per pair it
    reads SHUFFLE, and sigma's sign `grading_sign(w1)` when the right mask
    has an odd number of bits.  Both depend only on the masks and the
    word, so one memo serves every R; like `word_product`, it is bounded
    by the degree cap.  Products share their output keys: `shared_keys`
    holds one tuple per (mask, word) met, read on misses only."""

    __slots__ = ("alg", "shared_keys")

    def __init__(self, alg):
        super().__init__()
        self.alg = alg
        self.shared_keys = {}

    def __missing__(self, pair):
        (m1, w1), (m2, w2) = pair
        out = ()
        if not m1 & m2:
            s = SHUFFLE[m1, m2]
            if bin(m2).count("1") % 2:
                s *= grading_sign(w1)
            m, keys = m1 | m2, self.shared_keys
            out = tuple((keys.setdefault((m, w), (m, w)), s * c)
                        for w, c in word_product(self.alg, w1, w2))
        self[pair] = out
        return out


class CylForm(FormTerms):
    r"""Element of the cylinder DGA over A in R parameters.

    terms[(m, w)] is the scalar of dx_I w, I the set bits of the mask m, a
    Poly in R variables: the keys of `connections.Mat`.  The constructor
    takes the coefficient forms of dx_I in mask order (missing ones are
    zero), and `parts` gives them back.  Restricting or integrating one
    parameter gives a CylForm in R - 1 parameters, and a UForm at R = 1.
    Sums and products refuse another type or algebra with FormError; a
    product is the 1 x 1 matrix product by `_key_product`.
    """

    __slots__ = ()
    R = 0
    TYPES = {}          # R -> subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        CylForm.TYPES[cls.R] = cls
        n = 1 << cls.R
        pairs = [(a, b) for a in range(n) for b in range(n) if not a & b]
        # the pairs of disjoint masks whose union is the top mask
        cls._TOP_PAIRS = frozenset((a, b) for a, b in pairs if a | b == n - 1)
        for a, b in pairs:
            KOSZUL[a] = -1 if bin(a).count("1") % 2 else 1
            # the sign counts the pairs i in I, j in J with i > j
            swaps = sum(bin(a >> (j + 1)).count("1")
                        for j in range(cls.R) if b >> j & 1)
            SHUFFLE[a, b] = -1 if swaps % 2 else 1

    def __init__(self, *parts):
        """1 to 2^R forms over one algebra, in mask order; FormError on
        anything else."""
        if (not 0 < len(parts) <= 1 << self.R
                or not all(isinstance(u, UForm) for u in parts)):
            raise FormError("%s takes 1 to %d forms, not %r"
                            % (type(self).__name__, 1 << self.R, parts))
        self.algebra = parts[0].algebra
        if any(u.algebra != self.algebra for u in parts):
            raise FormError("component algebra mismatch")
        coerce = family_scalars(self.R).coerce
        self.terms = {(m, w): coerce(c) for m, u in enumerate(parts)
                      for w, c in u.terms.items()}

    @property
    def parts(self) -> tuple:
        """The coefficient forms of dx_I in mask order (a view)."""
        return tuple(UForm(self.algebra, {w: c for (b, w), c
                                          in self.terms.items() if b == m})
                     for m in range(1 << self.R))

    @classmethod
    def zero(cls, alg) -> "CylForm":
        return cls(UForm.zero(alg))

    @staticmethod
    def _key_product(alg):
        r"""The product rule of keys (mask, word) of `connections.Mat` over
        `alg`: (dx_I w1)(dx_J w2) = shuffle(I, J) dx_{I u J} sigma^{|J|}(w1)
        w2, and 0 when I and J meet.  Its results are read from the
        algebra's memo `Algebra._cylmul` (`_CylProducts`), made here on
        first use, so a pair of keys is worked out once per algebra."""
        memo = alg._cylmul
        if memo is None:
            memo = alg._cylmul = _CylProducts(alg)
        return lambda a, b: memo[a, b]

    def __mul__(self, other):
        return (Mat([[self]]) * Mat([[checked(self, other)]])).trace()

    @classmethod
    def _key_d(cls, key, c):
        r"""The (key, scalar) pairs of d(c dx_I w), key = (I, w), by
        d(dx_I u) = (-1)^|I| dx_I (du + sum_{i not in I} dx_i del_i u), du
        by the word rule `UForm._key_d`; their sum over the keys of a form
        (or matrix entry) is its d."""
        m, w = key
        if KOSZUL[m] < 0:
            c = -c
        out = [((m, dw), dc) for dw, dc in UForm._key_d(w, c)]
        for i in range(cls.R):
            b = 1 << i
            if not m & b:
                dc = c.diff(i)
                out.append(((m | b, w), dc if SHUFFLE[m, b] > 0 else -dc))
        return out

    def _drop(self, i: int, with_dx: bool, f):
        """The terms with (or without) dx_i, f applied to their scalars, as
        a form in the other parameters: bit i leaves the mask."""
        bit = 1 << i
        low = bit - 1
        pairs = [(((m & low) | (m >> 1 & ~low), w), f(c))
                 for (m, w), c in self.terms.items()
                 if bool(m & bit) == with_dx]
        if self.R == 1:
            return UForm.from_terms(self.algebra,
                                    ((w, c) for (_, w), c in pairs))
        return CylForm.TYPES[self.R - 1].from_terms(self.algebra, pairs)

    def integrate(self, i: int):
        r"""K_i: dx_I u -> dx_{I - i} int_0^1 u dx_i for i in I, 0 otherwise.

        dx_i is removed where it stands, without the sign of moving it to the
        front, so that integrating two parameters in either order agrees
        (K K_1 = K K_2 is Fubini's theorem).
        """
        return self._drop(i, True, lambda q: q.integrate01(i))

    def restrict(self, i: int, x):
        """ev: set parameter i to the rational x; terms with dx_i die."""
        return self._drop(i, False, lambda q: q.subs(i, x))

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self.parts)


class TForm(CylForm):
    r"""One parameter t: parts (u, v) stand for u + dt /\ v."""

    __slots__ = ()
    R = 1
    # The traced benchmark wraps TForm.__mul__ and BiForm.__mul__ through
    # each class's own __dict__, so both bind the shared product.
    __mul__ = CylForm.__mul__


class BiForm(CylForm):
    r"""Two parameters (s, t): parts in the order 1, ds, dt, ds /\ dt."""

    __slots__ = ()
    R = 2
    __mul__ = CylForm.__mul__


def homotopy_K(w: TForm) -> UForm:
    """K: kill the base, integrate the dt part over [0, 1]."""
    return w.integrate(0)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _require(family, r: int):
    """Refuse anything but a family in r parameters with ConnectionError_."""
    got = family.R if isinstance(family, Connection) else type(family).__name__
    if got != r:
        raise ConnectionError_("expected a family with R = %d, not %s"
                               % (r, got))


def _interpolate(families, weights) -> Connection:
    """The family sum_i w_i theta_i in R + 1 parameters, for families with
    one R on one idempotent and (w_i) = weights(x), polynomials in the new
    parameter x, which comes first.  Each theta_i is compressed by p, so by
    linearity p (sum_i w_i theta_i) p = sum_i w_i theta_i: the family is
    built without the constructor's check, each theta_i coerced to the
    family's scalars before it is weighted."""
    f0 = families[0]
    if any((f.p, f.R) != (f0.p, f0.R) for f in families):
        raise ConnectionError_("families differ in idempotent or R")
    r = f0.R + 1
    poly = family_scalars(r)
    x = poly({(1,) + (0,) * f0.R: 1})
    thetas = [f.theta.map_scalars(lambda c: poly.coerce(c) * w)
              for f, w in zip(families, weights(x))]
    return Connection._new(f0.p, sum(thetas[1:], thetas[0]), r)


def straight_line(f0: Connection, f1: Connection) -> Connection:
    """theta(x, ...) = (1-x) theta0 + x theta1 in a new first parameter x: it
    restricts to f0 at x = 0 and to f1 at x = 1.  Two connections give a
    path, two paths a bigon; a family with no Poly type in R + 1 parameters
    is refused."""
    return _interpolate((f0, f1), lambda x: (1 - x, x))


def constant_path(c: Connection) -> Connection:
    return straight_line(c, c)


def three_point_path(c1: Connection, c2: Connection,
                     c3: Connection) -> Connection:
    """Quadratic interpolation through c1, c2, c3 at t = 0, 1/2, 1 with
    p1 = 1 - 3t + 2t^2, p2 = 4t - 4t^2, p3 = -t + 2t^2."""
    return _interpolate((c1, c2, c3), lambda t: (
        1 - 3 * t + 2 * t * t, 4 * t - 4 * t * t, 2 * t * t - t))


def reverse_path(path: Connection) -> Connection:
    """Substitute t -> 1 - t in a path: a ring map of Poly1 scalars, so
    p theta p = theta still holds."""
    _require(path, 1)
    return Connection._new(path.p, path.theta.map_scalars(
        lambda q: q.reflect(0)), 1)


# ---------------------------------------------------------------------------
# Curvature along families, KCS
# ---------------------------------------------------------------------------

def _curvature_parts(family, base: bool = True) -> dict:
    r"""The cylinder curvature of a family in R parameters by dx mask:
    0 -> p dp dp p + p dtheta p + theta^2 (by `curvature_formula`) and
    1 << i -> p (del_i theta) p = del_i theta: p is constant, and the
    `Connection` constructor checks p theta p = theta as polynomials in the
    parameters.  The parts with two or more dx are zero (they emerge in
    products).  Without `base` the base part 0 is left out.  The parts have
    theta's scalars: the base part, which p's rationals enter, is coerced.

    Computed at most once per family: the whole parts are kept in the
    family's `_curv` slot with the p and theta objects they came from, and
    read back only while both are still the family's own (a family whose p
    or theta was reassigned is recomputed).  Parts without the base are
    read from a filled slot or computed, never kept.  Callers must not
    mutate them."""
    memo = getattr(family, "_curv", None)
    if memo and memo[0] is family.p and memo[1] is family.theta:
        return memo[2] if base else {m: x for m, x in memo[2].items() if m}
    parts = {}
    if base:
        coerce = family_scalars(family.R).coerce
        parts[0] = curvature_formula(family.p.to_form(),
                                     family.theta).map_scalars(coerce)
    for i in range(family.R):
        parts[1 << i] = family.theta.map_scalars(lambda q: q.diff(i))
    if base:
        family._curv = (family.p, family.theta, parts)
    return parts


def _cyl_mat(family, parts: dict) -> Mat:
    """The matrix of CylForms in family.R parameters whose dx_I part is the
    form matrix parts[I]: keys w -> (I, w).  The parts already have the
    family's scalars `family_scalars(R)`, as theta and `_curvature_parts`
    do, and are wrapped as they are; `_cyl_p` coerces p's rationals."""
    return Mat._new(CylForm.TYPES[family.R], family.algebra, family.p.size, {
        (i, j, (m, w)): c for m, x in parts.items()
        for (i, j, w), c in x.data.items()})


def _cyl_p(family) -> Mat:
    """p as a matrix of CylForms in family.R parameters, its rationals
    coerced to `family_scalars(R)`."""
    return _cyl_mat(family, {0: family.p.to_form().map_scalars(
        family_scalars(family.R).coerce)})


def _cyl_curvature(family) -> Mat:
    """The cylinder curvature R~ of a family as a matrix of CylForms in
    family.R parameters; the parts _curvature_parts leaves out are zero."""
    return _cyl_mat(family, _curvature_parts(family))


def _cyl_chern(family, r: int, k_max: int):
    """[ch_0, ..., ch_kmax] of a family in r parameters as whole CylForms."""
    _require(family, r)
    return [_cyl_p(family).trace()] + chern_series(
        lambda: _cyl_curvature(family), k_max, Mat.trace)


def tilde_curvature(path: Connection):
    r"""(R(t), S(t)) with the cylinder curvature R-tilde = R(t) + dt /\ S(t);
    R(t) = p dp dp p + p dtheta p + theta^2 and S(t) = p (del_t theta) p,
    read as del_t theta: the identities of `_curvature_parts`, licensed by
    the compression p theta p = theta that `Connection` checks."""
    _require(path, 1)
    parts = _curvature_parts(path)
    return parts[0], parts[1]


def tform_operator(path: Connection, x: Mat) -> Mat:
    """The cylinder connection operator X -> p d-tilde X + theta X on TForm
    matrices (the oracle certifying tilde_curvature)."""
    _require(path, 1)
    return _cyl_p(path) * x.d() + _cyl_mat(path, {0: path.theta}) * x


def chern_tform(path: Connection, k_max: int):
    """[ch_0, ..., ch_kmax] as whole TForms, for the suites' ev check."""
    return _cyl_chern(path, 1, k_max)


def _degrees(m: Mat) -> tuple:
    """The highest exponent of each parameter over the Poly scalars of m."""
    return tuple(map(max, zip(*{e for c in m.data.values()
                                for e in c.coeffs})))


def _fibre_chern(family, k_max: int):
    r"""[int_{[0,1]^R} ch_k|top for k = 1..k_max]: the dx_top coefficient of
    the family's ch_k, integrated over every parameter.  Only what reaches
    dx_top is built: each part of R~ carries at most one dx, so the base
    part reaches it only when k_max > R, and the last power pairs each key
    only with the keys of its partner mask in _TOP_PAIRS (`Mat.diagonal`).

    ch_1 and the lower powers are traced, integrated by `CylForm.integrate`
    (K_0 taken R times keeps only the dx_top part, so on a bigon the trace
    is cut to its dx_top terms first) and scaled by 1/k!.
    The last power is integrated while it is multiplied:
    by Fubini, int_{[0,1]^R} x^e = prod_i 1/(e_i + 1), so each pair of
    scalars a, b adds s * sum a_e1 b_e2 W(e1 + e2) into one rational per
    word (`exactmath.coeff_integral`), the weights W integers over one
    common denominator (`exactmath.integral_weights`), and each word is
    divided once, by that denominator times k!."""
    check_k_max(k_max)
    partner = dict(CylForm.TYPES[family.R]._TOP_PAIRS)

    top = (1 << family.R) - 1

    def fibre(m: Mat) -> UForm:
        part = m.trace()
        if family.R > 1:
            part = part._like({key: c for key, c in part.terms.items()
                               if key[0] == top})
        for _ in range(family.R):
            part = part.integrate(0)
        return part

    # a mask with no partner looks up None, which no mask matches
    match = (lambda a: partner.get(a[0]), lambda b: b[0])

    def last(power: Mat, r: Mat, fact: int) -> UForm:
        den, rows = integral_weights(tuple(map(add, _degrees(power),
                                               _degrees(r))))
        diag = power.diagonal(r, match, partial(coeff_integral, rows=rows))
        # every key of diag has the top mask: match pairs only partners
        sums = accumulate((w, n) for (_, _, (_, w)), n in diag.data.items())
        den *= fact
        return UForm.from_terms(family.algebra, (
            (w, Fraction(n, den)) for w, n in sums.items()))

    return chern_series(lambda: _cyl_mat(family, _curvature_parts(
        family, k_max > family.R)), k_max, fibre, last)


def kcs(path: Connection, k_max: int):
    r"""[KCS_1, ..., KCS_kmax] with KCS_k = K ch_k, the fibre integral over t
    of the dt part of the cylinder Chern form; a degree 2k-1 class in the
    abelianization; k_max >= 1."""
    _require(path, 1)
    return [project_ab(u) for u in _fibre_chern(path, k_max)]


def kcs_between(c0: Connection, c1: Connection, k_max: int):
    """KCS of the straight-line path; well defined only mod Im(d)."""
    return kcs(straight_line(c0, c1), k_max)


def kcs_closed_form(path: Connection, k_max: int):
    """Independent oracle: 1/(k-1)! * int_0^1 tr_ab(S R^(k-1)) dt;
    k_max >= 1.  Its own power loop, apart from `chern_series`; the last
    S R^(kmax-1) is built only on its diagonal, all its trace reads."""
    check_k_max(k_max)
    r, sr = tilde_curvature(path)       # sr = S R^(k-1)
    out = []
    fact = 1
    for k in range(1, k_max + 1):
        if k > 1:
            fact *= (k - 1)
            sr = sr.diagonal(r) if k == k_max else sr * r
        val = project_ab(sr.trace()).map_scalars(lambda q: q.integrate01(0))
        out.append(val.scale(Fraction(1, fact)))
    return out


# ---------------------------------------------------------------------------
# Bigons and secondary transgression
# ---------------------------------------------------------------------------

def bigon_straight(path1: Connection, path2: Connection) -> Connection:
    """theta(s, t) = (1-s) theta1(t) + s theta2(t); shared endpoints,
    compared as the thetas at t = 0 and t = 1."""
    _require(path1, 1)
    _require(path2, 1)
    for t in (0, 1):
        a, b = (path.theta.map_scalars(lambda q: q.subs(0, t))
                for path in (path1, path2))
        if a != b:
            raise ConnectionError_("paths do not share endpoint t=%s" % t)
    return straight_line(path1, path2)


def bigon_curvature(b: Connection) -> Mat:
    r"""Curvature of the bigon connection as a BiForm matrix:
    c00 = p dp dp p + p dtheta p + theta^2, ds part p (del_s theta) p,
    dt part p (del_t theta) p; the ds/\dt component emerges from products."""
    _require(b, 2)
    return _cyl_curvature(b)


def chern_biform(b: Connection, k_max: int):
    """[ch_0, ..., ch_kmax] as whole BiForms; only tests call it, as the
    oracle of secondary_transgression."""
    return _cyl_chern(b, 2, k_max)


def secondary_transgression(b: Connection, k_max: int):
    r"""[K K_s ch_1, ..., K K_s ch_kmax]: the fibre integrals over (s, t) of
    the ds /\ dt part of the bigon's Chern forms, even potentials (degree
    2k-2) whose dbar is the KCS of the s = 0 edge minus that of the s = 1
    edge, per degree in the abelianization.  The k = 1 potential vanishes,
    since the curvature has no ds /\ dt part; k_max >= 1."""
    _require(b, 2)
    return [project_ab(u) for u in _fibre_chern(b, k_max)]
