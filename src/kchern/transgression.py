"""Polynomial paths and bigons of connections, the cylinder calculus
(forms with a dt and with a ds,dt prefix over polynomial scalars), homotopy
operators, evaluation maps, and the Chern-Simons transgression forms with
all of their identities.

Sign conventions (the only two audited sign sites):
  * one variable: dt is kept leftmost; (a + dt b)(c + dt e) =
    ac + dt(bc + sigma(a) e) with sigma negating odd-degree components;
    d(a + dt b) = (d_spatial a) + dt (del_t a - d_spatial b).
  * two variables: prefixes ordered (ds, dt); product and differential
    component rules spelled out in BiForm below.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra, AlgebraHom
from .connections import (Connection, ConnectionError_, Idempotent, Mat,
                          ModuleIso, block_diag, chern_series,
                          curvature_formula)
from .exactmath import Poly1, Poly2, Q0, Q1
from .uforms import FormError, UForm, project_ab, word_degree


def sigma(u: UForm) -> UForm:
    """Grading involution: negate odd-degree components."""
    return UForm(u.algebra, {w: (-c if word_degree(w) % 2 else c)
                             for w, c in u.terms.items()})


def to_poly1(u: UForm) -> UForm:
    """Coerce Fraction scalars to constant Poly1 scalars."""
    return u.map_scalars(lambda c: c if isinstance(c, Poly1)
                         else Poly1.const(c))


def to_poly2(u: UForm) -> UForm:
    """Coerce Fraction or Poly1-in-t scalars to Poly2 scalars."""
    def conv(c):
        if isinstance(c, Poly2):
            return c
        if isinstance(c, Poly1):
            return Poly2.from_t(c)
        return Poly2.const(c)
    return u.map_scalars(conv)


# ---------------------------------------------------------------------------
# One parameter: TForm = base(t) + dt /\ dt_part(t)
# ---------------------------------------------------------------------------

class TForm:
    r"""Element of the one-parameter cylinder DGA over A.

    base and dt_part are UForms with Poly1 scalars; the value represented is
    base(t) + dt /\ dt_part(t) with dt leftmost.
    """

    __slots__ = ("base", "dt")

    def __init__(self, base: UForm, dt: UForm = None):
        self.base = to_poly1(base)
        self.dt = to_poly1(dt) if dt is not None \
            else UForm.zero(base.algebra)
        if self.dt.algebra != self.base.algebra:
            raise FormError("component algebra mismatch")

    @property
    def algebra(self):
        return self.base.algebra

    @staticmethod
    def zero(alg: Algebra) -> "TForm":
        return TForm(UForm.zero(alg))

    def __add__(self, other):
        return TForm(self.base + other.base, self.dt + other.dt)

    def __sub__(self, other):
        return TForm(self.base - other.base, self.dt - other.dt)

    def __neg__(self):
        return TForm(-self.base, -self.dt)

    def __mul__(self, other):
        if not isinstance(other, TForm):
            return TForm(self.base * other, self.dt * other)
        # (a + dt b)(c + dt e) = ac + dt(bc + sigma(a) e)
        return TForm(self.base * other.base,
                     self.dt * other.base + sigma(self.base) * other.dt)

    def __rmul__(self, scalar):
        return TForm(self.base.scale(scalar), self.dt.scale(scalar))

    def d(self) -> "TForm":
        # d(a + dt b) = da + dt (del_t a - db)
        ddt = self.base.map_scalars(lambda q: q.diff())
        return TForm(self.base.d(), ddt - self.dt.d())

    def __eq__(self, other):
        return (isinstance(other, TForm) and self.base == other.base
                and self.dt == other.dt)

    def __repr__(self):
        return "TForm(base=%r, dt=%r)" % (self.base, self.dt)


def homotopy_K(w: TForm) -> UForm:
    """K: kill the base, integrate the dt part over [0, 1]."""
    return UForm(w.algebra, {word: c.integrate01()
                             for word, c in w.dt.terms.items()})


def ev(w: TForm, t) -> UForm:
    """Evaluation at a rational parameter value; the dt part dies."""
    t = Fraction(t)
    return UForm(w.algebra, {word: c.eval(t)
                             for word, c in w.base.terms.items()})


# ---------------------------------------------------------------------------
# Two parameters: BiForm with prefixes {1, ds, dt, ds/\dt}
# ---------------------------------------------------------------------------

class BiForm:
    r"""Element of the two-parameter cylinder DGA over A.

    Components are UForms with Poly2 scalars in the fixed prefix order
    (1, ds, dt, ds/\dt); ds and dt are kept leftmost in the order (ds, dt).
    """

    __slots__ = ("c00", "c10", "c01", "c11")

    def __init__(self, c00, c10=None, c01=None, c11=None):
        alg = c00.algebra
        z = UForm.zero(alg)
        self.c00 = to_poly2(c00)
        self.c10 = to_poly2(c10) if c10 is not None else z
        self.c01 = to_poly2(c01) if c01 is not None else z
        self.c11 = to_poly2(c11) if c11 is not None else z

    @property
    def algebra(self):
        return self.c00.algebra

    @staticmethod
    def zero(alg: Algebra) -> "BiForm":
        return BiForm(UForm.zero(alg))

    def __add__(self, other):
        return BiForm(self.c00 + other.c00, self.c10 + other.c10,
                      self.c01 + other.c01, self.c11 + other.c11)

    def __sub__(self, other):
        return BiForm(self.c00 - other.c00, self.c10 - other.c10,
                      self.c01 - other.c01, self.c11 - other.c11)

    def __neg__(self):
        return BiForm(-self.c00, -self.c10, -self.c01, -self.c11)

    def __mul__(self, other):
        if not isinstance(other, BiForm):
            return BiForm(self.c00 * other, self.c10 * other,
                          self.c01 * other, self.c11 * other)
        a, b, c, e = self.c00, self.c10, self.c01, self.c11
        a2, b2, c2, e2 = other.c00, other.c10, other.c01, other.c11
        sa, sb, sc = sigma(a), sigma(b), sigma(c)
        return BiForm(
            a * a2,
            sa * b2 + b * a2,
            sa * c2 + c * a2,
            a * e2 + e * a2 + sb * c2 - sc * b2,
        )

    def __rmul__(self, scalar):
        return BiForm(self.c00.scale(scalar), self.c10.scale(scalar),
                      self.c01.scale(scalar), self.c11.scale(scalar))

    def d(self) -> "BiForm":
        a, b, c, e = self.c00, self.c10, self.c01, self.c11
        ds_a = a.map_scalars(lambda q: q.diff_s())
        dt_a = a.map_scalars(lambda q: q.diff_t())
        dt_b = b.map_scalars(lambda q: q.diff_t())
        ds_c = c.map_scalars(lambda q: q.diff_s())
        return BiForm(
            a.d(),
            ds_a - b.d(),
            dt_a - c.d(),
            ds_c - dt_b + e.d(),
        )

    def K1(self) -> TForm:
        """Integrate the ds components over s in [0,1]; a TForm in t."""
        base = UForm(self.algebra, {w: q.integrate_s01()
                                    for w, q in self.c10.terms.items()})
        dt = UForm(self.algebra, {w: q.integrate_s01()
                                  for w, q in self.c11.terms.items()})
        return TForm(base, dt)

    def K2(self) -> TForm:
        """Integrate the dt components over t in [0,1]; a TForm in s."""
        base = UForm(self.algebra, {w: q.integrate_t01()
                                    for w, q in self.c01.terms.items()})
        ds = UForm(self.algebra, {w: q.integrate_t01()
                                  for w, q in self.c11.terms.items()})
        return TForm(base, ds)

    def ev_s(self, s) -> TForm:
        """Evaluate s; ds components die; the result is a TForm in t."""
        s = Fraction(s)
        base = UForm(self.algebra, {w: q.subs_s(s)
                                    for w, q in self.c00.terms.items()})
        dt = UForm(self.algebra, {w: q.subs_s(s)
                                  for w, q in self.c01.terms.items()})
        return TForm(base, dt)

    def ev_t(self, t) -> TForm:
        """Evaluate t; dt components die; the result is a TForm in s."""
        t = Fraction(t)
        base = UForm(self.algebra, {w: q.subs_t(t)
                                    for w, q in self.c00.terms.items()})
        ds = UForm(self.algebra, {w: q.subs_t(t)
                                  for w, q in self.c10.terms.items()})
        return TForm(base, ds)

    def __eq__(self, other):
        return (isinstance(other, BiForm) and self.c00 == other.c00
                and self.c10 == other.c10 and self.c01 == other.c01
                and self.c11 == other.c11)

    def __repr__(self):
        return ("BiForm(c00=%r, ds=%r, dt=%r, dsdt=%r)"
                % (self.c00, self.c10, self.c01, self.c11))


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

class PolyPath:
    """One-parameter polynomial family of connections on a fixed idempotent:
    theta(t) with Poly1 scalars, p theta(t) p = theta(t)."""

    __slots__ = ("p", "theta", "algebra")

    def __init__(self, p: Idempotent, theta: Mat):
        self.p = p
        self.theta = theta
        self.algebra = p.algebra
        if theta.size != p.size:
            raise ConnectionError_("theta size mismatch")
        pf = p.to_form().map(to_poly1)
        t1 = theta.map(to_poly1)
        if (pf * t1 * pf).entries != t1.entries:
            raise ConnectionError_("path potential is not compressed")
        self.theta = t1

    def ev(self, t) -> Connection:
        t = Fraction(t)
        theta = self.theta.map(
            lambda u: UForm(u.algebra, {w: c.eval(t)
                                        for w, c in u.terms.items()}))
        return Connection(self.p, theta)


class Bigon:
    """Two-parameter polynomial family theta(s, t) on a fixed idempotent."""

    __slots__ = ("p", "theta", "algebra")

    def __init__(self, p: Idempotent, theta: Mat):
        self.p = p
        self.algebra = p.algebra
        if theta.size != p.size:
            raise ConnectionError_("theta size mismatch")
        pf = p.to_form().map(to_poly2)
        t2 = theta.map(to_poly2)
        if (pf * t2 * pf).entries != t2.entries:
            raise ConnectionError_("bigon potential is not compressed")
        self.theta = t2

    def ev_s(self, s) -> PolyPath:
        s = Fraction(s)
        theta = self.theta.map(
            lambda u: UForm(u.algebra, {w: c.subs_s(s)
                                        for w, c in u.terms.items()}))
        return PolyPath(self.p, theta)

    def ev_t(self, t) -> PolyPath:
        t = Fraction(t)
        theta = self.theta.map(
            lambda u: UForm(u.algebra, {w: c.subs_t(t)
                                        for w, c in u.terms.items()}))
        return PolyPath(self.p, theta)


def straight_line(c0: Connection, c1: Connection) -> PolyPath:
    """theta(t) = (1-t) theta0 + t theta1; ev0 = c0 and ev1 = c1."""
    if c0.p != c1.p:
        raise ConnectionError_("paths live on a fixed idempotent")
    one_minus_t = Poly1((Q1, -Q1))
    t = Poly1.t()
    n = c0.p.size
    theta = Mat([[to_poly1(c0.theta.entries[i][j]).scale(one_minus_t)
                  + to_poly1(c1.theta.entries[i][j]).scale(t)
                  for j in range(n)] for i in range(n)])
    return PolyPath(c0.p, theta)


def constant_path(c: Connection) -> PolyPath:
    return straight_line(c, c)


def three_point_path(c1: Connection, c2: Connection,
                     c3: Connection) -> PolyPath:
    """Quadratic interpolation through c1, c2, c3 at t = 0, 1/2, 1 with
    p1 = 1 - 3t + 2t^2, p2 = 4t - 4t^2, p3 = -t + 2t^2."""
    if c1.p != c2.p or c1.p != c3.p:
        raise ConnectionError_("paths live on a fixed idempotent")
    q1 = Poly1((Q1, Fraction(-3), Fraction(2)))
    q2 = Poly1((Q0, Fraction(4), Fraction(-4)))
    q3 = Poly1((Q0, -Q1, Fraction(2)))
    n = c1.p.size
    theta = Mat([[to_poly1(c1.theta.entries[i][j]).scale(q1)
                  + to_poly1(c2.theta.entries[i][j]).scale(q2)
                  + to_poly1(c3.theta.entries[i][j]).scale(q3)
                  for j in range(n)] for i in range(n)])
    return PolyPath(c1.p, theta)


def reverse_path(path: PolyPath) -> PolyPath:
    """Substitute t -> 1 - t."""
    sub = Poly1((Q1, -Q1))
    theta = path.theta.map(
        lambda u: u.map_scalars(lambda q: q.subs(sub)))
    return PolyPath(path.p, theta)


def direct_sum_paths(p1: PolyPath, p2: PolyPath) -> PolyPath:
    if p1.algebra != p2.algebra:
        raise ConnectionError_("algebra mismatch")
    alg = p1.algebra
    p = Idempotent(alg, block_diag(p1.p.mat, p2.p.mat, alg.zero()))
    theta = block_diag(p1.theta, p2.theta,
                       to_poly1(UForm.zero(alg)))
    return PolyPath(p, theta)


def pullback_path(path: PolyPath, phi: ModuleIso) -> PolyPath:
    """phi* applied t-pointwise; polynomial in t since theta enters linearly."""
    if phi.p1 != path.p:
        raise ConnectionError_("iso target does not match the path")
    p0f = phi.p0.to_form().map(to_poly1)
    p1f = phi.p1.to_form().map(to_poly1)
    uf = phi.u.map(UForm.from_element).map(to_poly1)
    vf = phi.v.map(UForm.from_element).map(to_poly1)
    du = uf.map(lambda w: w.d())
    theta = p0f * (vf * (p1f * du + path.theta * uf)) * p0f
    return PolyPath(phi.p0, theta)


def induced_path(path: PolyPath, psi: AlgebraHom) -> PolyPath:
    """Entrywise (psi(p), psi^u(theta(t))) over the target algebra."""
    from .uforms import extend_hom
    if path.algebra != psi.source:
        raise ConnectionError_("path does not live over the source")
    f = extend_hom(psi)
    p = Idempotent(psi.target, path.p.mat.map(psi))
    theta = path.theta.map(f)
    return PolyPath(p, theta)


# ---------------------------------------------------------------------------
# Curvature along paths, KCS
# ---------------------------------------------------------------------------

def tilde_curvature(path: PolyPath):
    r"""(R(t), S(t)) with the cylinder curvature R-tilde = R(t) + dt /\ S(t);
    R(t) = p dp dp p + p dtheta p + theta^2 and S(t) = p (del_t theta) p."""
    pf = path.p.to_form().map(to_poly1)
    r = curvature_formula(pf, path.theta)
    s = pf * path.theta.map(
        lambda u: u.map_scalars(lambda q: q.diff())) * pf
    return r, s


def tform_operator(path: PolyPath, x: Mat) -> Mat:
    """The cylinder connection operator X -> p d-tilde X + theta X on TForm
    matrices (the oracle certifying tilde_curvature)."""
    pf = path.p.to_form().map(lambda u: TForm(to_poly1(u)))
    th = path.theta.map(lambda u: TForm(to_poly1(u)))
    return pf * x.map(lambda w: w.d()) + th * x


def chern_tform(path: PolyPath, k_max: int):
    """[ch_0, ..., ch_kmax] of the cylinder connection, as TForms."""
    def curv():
        r, s = tilde_curvature(path)
        n = path.p.size
        return Mat([[TForm(r.entries[i][j], s.entries[i][j])
                     for j in range(n)] for i in range(n)])
    pf = path.p.to_form().map(lambda u: TForm(to_poly1(u)))
    return chern_series(pf, curv, k_max, Mat.trace)


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
        val = cls.map_scalars(lambda q: q.integrate01())
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
        e1 = path1.ev(t).theta
        e2 = path2.ev(t).theta
        if e1.entries != e2.entries:
            raise ConnectionError_("paths do not share endpoint t=%s" % t)
    one_minus_s = Poly2({(0, 0): Q1, (1, 0): -Q1})
    s_var = Poly2.s()
    n = path1.p.size
    theta = Mat([[to_poly2(path1.theta.entries[i][j]).scale(one_minus_s)
                  + to_poly2(path2.theta.entries[i][j]).scale(s_var)
                  for j in range(n)] for i in range(n)])
    return Bigon(path1.p, theta)


def bigon_curvature(b: Bigon) -> Mat:
    r"""Curvature of the bigon connection as a BiForm matrix:
    c00 = p dp dp p + p dtheta p + theta^2, ds part p (del_s theta) p,
    dt part p (del_t theta) p; the ds/\dt component emerges from products."""
    pf = b.p.to_form().map(to_poly2)
    r00 = curvature_formula(pf, b.theta)
    rs = pf * b.theta.map(
        lambda u: u.map_scalars(lambda q: q.diff_s())) * pf
    rt = pf * b.theta.map(
        lambda u: u.map_scalars(lambda q: q.diff_t())) * pf
    n = b.p.size
    return Mat([[BiForm(r00.entries[i][j], rs.entries[i][j],
                        rt.entries[i][j])
                 for j in range(n)] for i in range(n)])


def chern_biform(b: Bigon, k_max: int):
    """[ch_0, ..., ch_kmax] of the bigon connection, as BiForms."""
    pf = b.p.to_form().map(lambda u: BiForm(to_poly2(u)))
    return chern_series(pf, lambda: bigon_curvature(b), k_max, Mat.trace)


def secondary_transgression(b: Bigon, k_max: int):
    """[KK1 ch_1, ..., KK1 ch_kmax]: even potentials (degree 2k-2) whose
    dbar equals kcs(ev_s(0)) - kcs(ev_s(1)) per degree in the abelianization."""
    chs = chern_biform(b, k_max)
    return [project_ab(homotopy_K(chs[k].K1())) for k in range(1, k_max + 1)]
