r"""Polynomial families of connections (paths and bigons), the cylinder
calculus over them, homotopy operators, evaluation maps, and the
Chern-Simons transgression forms with all of their identities.

A family in R parameters x_0, ..., x_{R-1} lives in the cylinder DGA
Omega(A) (x) Omega_poly(Delta^R).  A CylForm is a sum of dx_I /\ u_I over
the subsets I of the parameters, with u_I a form with Poly scalars and the
parameter differentials kept leftmost in increasing order.  One sign rule
gives the whole calculus:

  * product: (dx_I u)(dx_J v) = shuffle(I, J) dx_{I u J} sigma^{|J|}(u) v,
    and 0 when I and J meet, where shuffle(I, J) is the sign of the
    permutation that sorts I J and sigma negates odd-degree components;
  * differential:
    d(dx_I u) = (-1)^{|I|} dx_I (du + sum_{i not in I} dx_i del_i u).

Every sign is read from `sigma` and the tables SHUFFLE and KOSZUL below.
Paths (R = 1, parameter t) use TForm, bigons (R = 2, parameters (s, t))
use BiForm.
"""

from __future__ import annotations

from fractions import Fraction

from .connections import (Connection, ConnectionError_, Mat, chern_series,
                          curvature_formula)
from .exactmath import Poly1, Poly2
from .uforms import FormError, UForm, project_ab, to_poly, word_degree


def sigma(u: UForm) -> UForm:
    """Grading involution: negate odd-degree components."""
    return UForm(u.algebra, {w: (-c if word_degree(w) % 2 else c)
                             for w, c in u.terms.items()})


# Signs of the cylinder calculus by bit mask of parameter differentials
# (bit i stands for dx_i), filled for each R in use by CylForm subclasses.
SHUFFLE = {}    # (I, J) disjoint -> sign with dx_I dx_J = sign * dx_{I u J}
KOSZUL = {}     # I -> (-1)^|I|, the sign of d passing dx_I


# ---------------------------------------------------------------------------
# Cylinder forms
# ---------------------------------------------------------------------------

class CylForm:
    r"""Element of the cylinder DGA over A in R parameters.

    parts[m] is the coefficient form of dx_I, I the set bits of m, with
    Poly scalars in R variables.  Restricting or integrating one parameter
    gives a CylForm in R - 1 parameters, and a UForm at R = 1.
    """

    __slots__ = ("parts",)
    R = 0
    TYPES = {}          # R -> subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        CylForm.TYPES[cls.R] = cls
        n = 1 << cls.R
        cls._PAIRS = tuple((a, b, a | b, bin(b).count("1") % 2)
                           for a in range(n) for b in range(n) if not a & b)
        for a, b, _, _ in cls._PAIRS:
            KOSZUL[a] = -1 if bin(a).count("1") % 2 else 1
            # the sign counts the pairs i in I, j in J with i > j
            swaps = sum(bin(a >> (j + 1)).count("1")
                        for j in range(cls.R) if b >> j & 1)
            SHUFFLE[a, b] = -1 if swaps % 2 else 1

    def __init__(self, *parts):
        """parts in mask order; missing or None parts are zero."""
        alg = parts[0].algebra
        n = 1 << self.R
        if len(parts) > n:
            raise FormError("%d parts for %d parameters" % (len(parts),
                                                            self.R))
        out = []
        for m in range(n):
            u = parts[m] if m < len(parts) else None
            if u is None:
                u = UForm(alg)
            elif u.algebra != alg:
                raise FormError("component algebra mismatch")
            out.append(to_poly(u, self.R))
        self.parts = tuple(out)

    @classmethod
    def _make(cls, parts: tuple) -> "CylForm":
        """Wrap parts that already have Poly scalars in R variables."""
        r = object.__new__(cls)
        r.parts = parts
        return r

    @property
    def algebra(self):
        return self.parts[0].algebra

    @classmethod
    def zero(cls, alg) -> "CylForm":
        return cls(UForm.zero(alg))

    def __add__(self, other):
        return self._make(tuple(x + y for x, y in zip(self.parts,
                                                      other.parts)))

    def __sub__(self, other):
        return self._make(tuple(x - y for x, y in zip(self.parts,
                                                      other.parts)))

    def __neg__(self):
        return self._make(tuple(-x for x in self.parts))

    def __mul__(self, other):
        """(dx_I u)(dx_J v) = shuffle(I, J) dx_{I u J} sigma^{|J|}(u) v."""
        if type(other) is not type(self):
            return NotImplemented
        us, vs = self.parts, other.parts
        out = [None] * len(us)
        flipped = {}
        for a, b, ab, odd in self._PAIRS:
            u, v = us[a], vs[b]
            if not u or not v:
                continue
            if odd:
                if a not in flipped:
                    flipped[a] = sigma(u)
                u = flipped[a]
            term = u * v
            if SHUFFLE[a, b] < 0:
                term = -term
            out[ab] = term if out[ab] is None else out[ab] + term
        return self._make(tuple(UForm(self.algebra) if x is None else x
                                for x in out))

    def __rmul__(self, scalar):
        return self._make(tuple(x.scale(scalar) for x in self.parts))

    def d(self) -> "CylForm":
        """d(dx_I u) = (-1)^|I| dx_I (du + sum_{i not in I} dx_i del_i u)."""
        out = [None] * len(self.parts)
        for a, u in enumerate(self.parts):
            if not u:
                continue
            terms = [(a, u.d())]
            for i in range(self.R):
                if not a >> i & 1:
                    b = 1 << i
                    du = u.map_scalars(lambda q: q.diff(i))
                    terms.append((a | b, du if SHUFFLE[a, b] > 0 else -du))
            for m, term in terms:
                if KOSZUL[a] < 0:
                    term = -term
                out[m] = term if out[m] is None else out[m] + term
        return self._make(tuple(UForm(self.algebra) if x is None else x
                                for x in out))

    def _drop(self, i: int, with_dx: bool, f):
        """The parts with (or without) dx_i, f applied to their scalars, as
        a form in the other parameters (mask order is kept)."""
        bit = 1 << i
        parts = tuple(u.map_scalars(f) for a, u in enumerate(self.parts)
                      if bool(a & bit) == with_dx)
        if self.R == 1:
            return parts[0]
        return CylForm.TYPES[self.R - 1]._make(parts)

    def integrate(self, i: int):
        r"""K_i: dx_I u -> dx_{I - i} int_0^1 u dx_i for i in I, 0 otherwise.

        dx_i is removed where it stands, without the sign of moving it to the
        front, so that integrating two parameters in either order agrees
        (K K_1 = K K_2 is Fubini's theorem).
        """
        return self._drop(i, True, lambda q: q.integrate01(i))

    def restrict(self, i: int, x):
        """ev: set parameter i to the rational x; parts with dx_i die."""
        x = Fraction(x)
        return self._drop(i, False, lambda q: q.subs(i, x))

    def __eq__(self, other):
        return type(other) is type(self) and self.parts == other.parts

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

class PolyPath(Connection):
    """One-parameter polynomial family of connections on a fixed idempotent:
    theta(t) with Poly1 scalars, p theta(t) p = theta(t)."""

    __slots__ = ()
    R = 1

    def restrict(self, i: int, x) -> Connection:
        """Set parameter i to the rational x: a family of the base class (a
        Connection for a path, a path for a bigon)."""
        x = Fraction(x)
        theta = self.theta.map(
            lambda u: u.map_scalars(lambda q: q.subs(i, x)))
        return type(self).__base__(self.p, theta)


class Bigon(PolyPath):
    """Two-parameter polynomial family theta(s, t) on a fixed idempotent."""

    __slots__ = ()
    R = 2


def _interpolate(cls, p, weighted) -> PolyPath:
    """The family cls(p, sum q * theta) over pairs (family, q), with each q a
    polynomial in cls.R variables."""
    theta = None
    for fam, q in weighted:
        m = fam.theta.map(lambda u: to_poly(u, cls.R).scale(q))
        theta = m if theta is None else theta + m
    return cls(p, theta)


_T = Poly1({(1,): 1})


def straight_line(c0: Connection, c1: Connection) -> PolyPath:
    """theta(t) = (1-t) theta0 + t theta1; it restricts to c0 at t = 0 and
    to c1 at t = 1."""
    if c0.p != c1.p:
        raise ConnectionError_("paths live on a fixed idempotent")
    return _interpolate(PolyPath, c0.p, ((c0, 1 - _T), (c1, _T)))


def constant_path(c: Connection) -> PolyPath:
    return straight_line(c, c)


def three_point_path(c1: Connection, c2: Connection,
                     c3: Connection) -> PolyPath:
    """Quadratic interpolation through c1, c2, c3 at t = 0, 1/2, 1 with
    p1 = 1 - 3t + 2t^2, p2 = 4t - 4t^2, p3 = -t + 2t^2."""
    if c1.p != c2.p or c1.p != c3.p:
        raise ConnectionError_("paths live on a fixed idempotent")
    tt = _T * _T
    return _interpolate(PolyPath, c1.p, ((c1, 1 - 3 * _T + 2 * tt),
                                         (c2, 4 * _T - 4 * tt),
                                         (c3, 2 * tt - _T)))


def reverse_path(path: PolyPath) -> PolyPath:
    """Substitute t -> 1 - t."""
    theta = path.theta.map(
        lambda u: u.map_scalars(lambda q: q.reflect(0)))
    return PolyPath(path.p, theta)


# ---------------------------------------------------------------------------
# Curvature along families, KCS
# ---------------------------------------------------------------------------

def _curvature_parts(family) -> dict:
    r"""The cylinder curvature of a family in R parameters by dx mask:
    0 -> p dp dp p + p dtheta p + theta^2 and 1 << i -> p (del_i theta) p;
    the parts with two or more dx are zero (they emerge in products)."""
    pf = family.p.to_form()
    parts = {0: curvature_formula(pf, family.theta)}
    for i in range(family.R):
        dtheta = family.theta.map(
            lambda u: u.map_scalars(lambda q: q.diff(i)))
        parts[1 << i] = pf * dtheta * pf
    return {m: x.map(lambda u: to_poly(u, family.R))
            for m, x in parts.items()}


def _cyl_mat(cls, parts: dict) -> Mat:
    """The matrix of cls forms whose part m comes from parts[m] (zero when
    absent)."""
    n = parts[0].size
    return Mat([[cls(*(parts[m].entries[i][j] if m in parts else None
                       for m in range(1 << cls.R)))
                 for j in range(n)] for i in range(n)])


def tilde_curvature(path: PolyPath):
    r"""(R(t), S(t)) with the cylinder curvature R-tilde = R(t) + dt /\ S(t);
    R(t) = p dp dp p + p dtheta p + theta^2 and S(t) = p (del_t theta) p."""
    parts = _curvature_parts(path)
    return parts[0], parts[1]


def tform_operator(path: PolyPath, x: Mat) -> Mat:
    """The cylinder connection operator X -> p d-tilde X + theta X on TForm
    matrices (the oracle certifying tilde_curvature)."""
    pf = path.p.to_form().map(TForm)
    th = path.theta.map(TForm)
    return pf * x.map(lambda w: w.d()) + th * x


def chern_tform(path: PolyPath, k_max: int):
    """[ch_0, ..., ch_kmax] of the cylinder connection, as TForms."""
    def curv():
        r, s = tilde_curvature(path)
        return _cyl_mat(TForm, {0: r, 1: s})
    return chern_series(path.p.to_form().map(TForm), curv, k_max, Mat.trace)


def kcs(path: PolyPath, k_max: int):
    """[KCS_1, ..., KCS_kmax]: K applied to the cylinder Chern forms;
    KCS_k is a degree 2k-1 class in the abelianization."""
    chs = chern_tform(path, k_max)
    return [project_ab(homotopy_K(chs[k])) for k in range(1, k_max + 1)]


def kcs_between(c0: Connection, c1: Connection, k_max: int):
    """KCS of the straight-line path; well defined only mod Im(d)."""
    return kcs(straight_line(c0, c1), k_max)


# Sign of the closed-form transgression integrand, calibrated once against
# the structural kcs() on the dual-numbers seed fixture (a test pins it).
EPSILON_K = 1


def kcs_closed_form(path: PolyPath, k_max: int):
    """Independent oracle: epsilon_k/(k-1)! * int_0^1 tr_ab(S R^(k-1)) dt."""
    r, s = tilde_curvature(path)
    out = []
    power = None
    fact = 1
    for k in range(1, k_max + 1):
        if k > 1:
            fact *= (k - 1)
            power = r if power is None else power * r
        integrand = s.trace() if power is None else (s * power).trace()
        cls = project_ab(integrand)
        val = cls.map_scalars(lambda q: q.integrate01(0))
        out.append(val.scale(Fraction(EPSILON_K, fact)))
    return out


# ---------------------------------------------------------------------------
# Bigons and secondary transgression
# ---------------------------------------------------------------------------

def bigon_straight(path1: PolyPath, path2: PolyPath) -> Bigon:
    """theta(s, t) = (1-s) theta1(t) + s theta2(t); requires shared endpoints."""
    if path1.p != path2.p:
        raise ConnectionError_("bigon requires a fixed idempotent")
    for t in (0, 1):
        if path1.restrict(0, t).theta != path2.restrict(0, t).theta:
            raise ConnectionError_("paths do not share endpoint t=%s" % t)
    s = Poly2({(1, 0): 1})
    return _interpolate(Bigon, path1.p, ((path1, 1 - s), (path2, s)))


def bigon_curvature(b: Bigon) -> Mat:
    r"""Curvature of the bigon connection as a BiForm matrix:
    c00 = p dp dp p + p dtheta p + theta^2, ds part p (del_s theta) p,
    dt part p (del_t theta) p; the ds/\dt component emerges from products."""
    return _cyl_mat(BiForm, _curvature_parts(b))


def chern_biform(b: Bigon, k_max: int):
    """[ch_0, ..., ch_kmax] of the bigon connection, as BiForms."""
    return chern_series(b.p.to_form().map(BiForm), lambda: bigon_curvature(b),
                        k_max, Mat.trace)


def secondary_transgression(b: Bigon, k_max: int):
    """[K K_s ch_1, ..., K K_s ch_kmax]: even potentials (degree 2k-2) whose
    dbar is the KCS of the s = 0 edge minus that of the s = 1 edge, per
    degree in the abelianization."""
    chs = chern_biform(b, k_max)
    return [project_ab(homotopy_K(chs[k].integrate(0)))
            for k in range(1, k_max + 1)]
