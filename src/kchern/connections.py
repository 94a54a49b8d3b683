"""Finitely generated projective modules as idempotent matrices, connections
(p, theta) encoding D = p o d + theta on Im(p), curvature, traces into the
abelianization, the Chern character forms, direct sums, pullbacks along
module isomorphisms, and extension of scalars along algebra homs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgElement, Algebra, AlgebraHom
from .exactmath import Q0
from .uforms import (AbClass, UForm, enumerate_words, extend_hom, project_ab,
                     to_poly)


class ConnectionError_(ValueError):
    pass


class Mat:
    """Square matrix over a ring with + and * (AlgElement, UForm, TForm,
    BiForm); minimal and generic."""

    __slots__ = ("entries", "size")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.size = len(self.entries)
        for row in self.entries:
            if len(row) != self.size:
                raise ConnectionError_("matrix is not square")

    def __add__(self, other):
        n = self.size
        return Mat([[self.entries[i][j] + other.entries[i][j]
                     for j in range(n)] for i in range(n)])

    def __sub__(self, other):
        n = self.size
        return Mat([[self.entries[i][j] - other.entries[i][j]
                     for j in range(n)] for i in range(n)])

    def __neg__(self):
        return Mat([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        n = self.size
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    term = self.entries[i][k] * other.entries[k][j]
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return Mat(out)

    def map(self, f) -> "Mat":
        return Mat([[f(e) for e in row] for row in self.entries])

    def trace(self):
        acc = self.entries[0][0]
        for i in range(1, self.size):
            acc = acc + self.entries[i][i]
        return acc

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __repr__(self):
        return "Mat(%r)" % (self.entries,)


def block_diag(a: Mat, b: Mat, zero) -> Mat:
    """Block diagonal; `zero` supplies off-block entries."""
    n, m = a.size, b.size
    out = [[zero for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a.entries[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b.entries[i][j]
    return Mat(out)


# ---------------------------------------------------------------------------
# Idempotents and connections
# ---------------------------------------------------------------------------

class Idempotent:
    """n x n matrix p over A with p*p = p (checked)."""

    __slots__ = ("algebra", "mat", "size")

    def __init__(self, algebra: Algebra, mat: Mat):
        self.algebra = algebra
        self.mat = mat
        self.size = mat.size
        for row in mat.entries:
            for e in row:
                if not isinstance(e, AlgElement) or e.algebra != algebra:
                    raise ConnectionError_("entries must live in the algebra")
        if (mat * mat).entries != mat.entries:
            raise ConnectionError_("matrix is not idempotent")

    def to_form(self) -> Mat:
        return self.mat.map(UForm.from_element)

    def __eq__(self, other):
        return (isinstance(other, Idempotent)
                and self.algebra == other.algebra
                and self.mat == other.mat)

    @staticmethod
    def identity(algebra: Algebra, n: int) -> "Idempotent":
        u, z = algebra.unit(), algebra.zero()
        return Idempotent(algebra, Mat([[u if i == j else z
                                         for j in range(n)]
                                        for i in range(n)]))

    @staticmethod
    def zero(algebra: Algebra, n: int = 1) -> "Idempotent":
        z = algebra.zero()
        return Idempotent(algebra, Mat([[z for _ in range(n)]
                                        for _ in range(n)]))


def zero_form_mat(algebra: Algebra, n: int) -> Mat:
    return Mat([[UForm.zero(algebra) for _ in range(n)] for _ in range(n)])


class Connection:
    """Pair (p, theta): idempotent plus degree-1 potential with
    p*theta*p = theta; encodes the operator D(s) = p*ds + theta*s.

    R counts the parameters of a polynomial family of connections: theta
    has Poly scalars in R variables (coerced here), and R = 0 is a single
    connection with Fraction scalars.
    """

    __slots__ = ("p", "theta", "algebra")
    R = 0

    def __init__(self, p: Idempotent, theta: Mat):
        self.algebra = p.algebra
        if theta.size != p.size:
            raise ConnectionError_("theta size mismatch")
        for row in theta.entries:
            for e in row:
                if not isinstance(e, UForm) or e.algebra != p.algebra:
                    raise ConnectionError_("theta entries must be forms")
                if e and e.degrees() != [1]:
                    raise ConnectionError_("theta must be of degree 1")
        if self.R:
            theta = theta.map(lambda u: to_poly(u, self.R))
        pf = p.to_form()
        if (pf * theta * pf).entries != theta.entries:
            raise ConnectionError_("theta is not compressed: p*theta*p != theta")
        self.p = p
        self.theta = theta


def grassmann(p: Idempotent) -> Connection:
    return Connection(p, zero_form_mat(p.algebra, p.size))


def apply_operator(c: Connection, x: Mat) -> Mat:
    """The extending connection applied entrywise: X -> p*dX + theta*X."""
    pf = c.p.to_form()
    return pf * x.map(lambda u: u.d()) + c.theta * x


def curvature_formula(pf: Mat, theta: Mat) -> Mat:
    """p(dp)(dp)p + p(dtheta)p + theta*theta for form matrices p and theta
    over any scalars (rationals, or polynomials in path parameters)."""
    dp = pf.map(lambda u: u.d())
    dtheta = theta.map(lambda u: u.d())
    return pf * dp * dp * pf + pf * dtheta * pf + theta * theta


def curvature(c: Connection) -> Mat:
    """R = p(dp)(dp)p + p(dtheta)p + theta*theta (degree 2); the theta terms
    are certified by the operator oracle R*p == D(D(p)) columnwise."""
    return curvature_formula(c.p.to_form(), c.theta)


def trace_ab(m: Mat) -> AbClass:
    """Sum of diagonal entries projected to the abelianization."""
    return project_ab(m.trace())


def chern_series(pf: Mat, curv, k_max: int, trace):
    """[trace(p), trace(R)/1!, ..., trace(R^kmax)/kmax!]: Karoubi's
    ch_k = tr(R^k)/k! for matrices over any ring of forms.  `curv()` gives
    the curvature R and is called only when k_max >= 1."""
    out = [trace(pf)]
    if k_max >= 1:
        r = curv()
        power = r
        fact = 1
        for k in range(1, k_max + 1):
            fact *= k
            out.append(Fraction(1, fact) * trace(power))
            if k < k_max:
                power = power * r
    return out


def chern(c: Connection, k_max: int):
    """[ch_0, ..., ch_kmax] with ch_k = trace_ab(R^k)/k!; ch_0 = trace_ab(p)."""
    return chern_series(c.p.to_form(), lambda: curvature(c), k_max, trace_ab)


def direct_sum(c1: Connection, c2: Connection) -> Connection:
    """Block sum of two connections, or of two families with the same
    parameters (pointwise)."""
    if c1.algebra != c2.algebra:
        raise ConnectionError_("algebra mismatch")
    if type(c1) is not type(c2):
        raise ConnectionError_("families with different parameters")
    alg = c1.algebra
    p = Idempotent(alg, block_diag(c1.p.mat, c2.p.mat, alg.zero()))
    theta = block_diag(c1.theta, c2.theta, UForm.zero(alg))
    return type(c1)(p, theta)


class ModuleIso:
    """Isomorphism Im(p0) -> Im(p1) given by u with explicit inverse v;
    p1*u*p0 = u, p0*v*p1 = v, v*u = p0, u*v = p1 (all checked)."""

    __slots__ = ("p0", "p1", "u", "v")

    def __init__(self, p0: Idempotent, p1: Idempotent, u: Mat, v: Mat):
        if p0.algebra != p1.algebra or p0.size != p1.size:
            raise ConnectionError_("idempotent mismatch")
        self.p0, self.p1, self.u, self.v = p0, p1, u, v
        if (p1.mat * u * p0.mat).entries != u.entries:
            raise ConnectionError_("u is not compressed: p1*u*p0 != u")
        if (p0.mat * v * p1.mat).entries != v.entries:
            raise ConnectionError_("v is not compressed: p0*v*p1 != v")
        if (v * u).entries != p0.mat.entries:
            raise ConnectionError_("v*u != p0")
        if (u * v).entries != p1.mat.entries:
            raise ConnectionError_("u*v != p1")

    def inverse(self) -> "ModuleIso":
        return ModuleIso(self.p1, self.p0, self.v, self.u)

    @staticmethod
    def identity(p: Idempotent) -> "ModuleIso":
        return ModuleIso(p, p, p.mat, p.mat)


def pullback(c: Connection, phi: ModuleIso) -> Connection:
    """phi*D on Im(p0), where c lives on Im(p1) = Im(phi.p1).

    theta' = p0 * v * (p1*du + theta*u) * p0, so that the operator identity
    phi*D = (v (x) id) o D o u holds on Im(p0).  Of a family, phi* is taken
    pointwise in the parameters; theta enters linearly, so the result is a
    family of the same kind.
    """
    if phi.p1 != c.p:
        raise ConnectionError_("iso target does not match the connection")
    p0f = phi.p0.to_form()
    p1f = phi.p1.to_form()
    uf = phi.u.map(UForm.from_element)
    vf = phi.v.map(UForm.from_element)
    du = uf.map(lambda w: w.d())
    theta = p0f * (vf * (p1f * du + c.theta * uf)) * p0f
    return type(c)(phi.p0, theta)


def extend_scalars(c: Connection, psi: AlgebraHom) -> Connection:
    """Entrywise (psi(p), psi^u(theta)) over the target algebra; a family
    stays a family of the same kind."""
    if c.algebra != psi.source:
        raise ConnectionError_("connection does not live over the source")
    f = extend_hom(psi)
    p = Idempotent(psi.target, c.p.mat.map(psi))
    theta = c.theta.map(f)
    return type(c)(p, theta)


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def _random_element(alg: Algebra, rng: random.Random) -> AlgElement:
    vec = []
    for _ in range(alg.dim):
        if rng.random() < 0.5:
            vec.append(Q0)
        else:
            vec.append(Fraction(rng.randint(-2, 2)))
    return AlgElement(alg, vec)


def _random_unipotent(alg: Algebra, n: int, rng: random.Random):
    """(1, g, g^-1) for g = 1 + N with N strictly upper random; N is
    nilpotent, so g^-1 = 1 - N + N^2 - ... is a finite series."""
    z, one = alg.zero(), alg.unit()
    nmat = Mat([[_random_element(alg, rng) if j > i else z
                 for j in range(n)] for i in range(n)])
    ident = Mat([[one if i == j else z for j in range(n)] for i in range(n)])
    ginv = power = ident
    for _ in range(n - 1):
        power = -(power * nmat)
        ginv = ginv + power
    return ident, ident + nmat, ginv


def random_idempotent(alg: Algebra, n: int, seed) -> Idempotent:
    """p = u E u^-1 with E a 0/1 diagonal and u random unipotent."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    z, one = alg.zero(), alg.unit()
    e = Mat([[one if (i == j and rng.random() < 0.6) else z
              for j in range(n)] for i in range(n)])
    _, u, uinv = _random_unipotent(alg, n, rng)
    return Idempotent(alg, u * e * uinv)


def _random_degree1(alg: Algebra, rng: random.Random) -> UForm:
    words = enumerate_words(alg, 1)
    terms = {}
    if not words:
        return UForm.zero(alg)
    for _ in range(rng.randint(1, 2)):
        w = words[rng.randrange(len(words))]
        c = Fraction(rng.randint(-2, 2))
        if c:
            terms[w] = terms.get(w, Q0) + c
    return UForm(alg, terms)


def random_connection(p: Idempotent, seed) -> Connection:
    """Random theta = p * Theta * p with random degree-1 entries."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    alg = p.algebra
    big = Mat([[_random_degree1(alg, rng) for _ in range(p.size)]
               for _ in range(p.size)])
    pf = p.to_form()
    return Connection(p, pf * big * pf)


def random_iso(p0: Idempotent, seed):
    """A random (p1, iso: Im(p0) -> Im(p1)) via conjugation p1 = g p0 g^-1
    with g = 1 + strictly upper random."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    alg = p0.algebra
    _, g, ginv = _random_unipotent(alg, p0.size, rng)
    p1 = Idempotent(alg, g * p0.mat * ginv)
    u = p1.mat * g * p0.mat
    v = p0.mat * ginv * p1.mat
    return p1, ModuleIso(p0, p1, u, v)


def compose_iso(a: ModuleIso, b: ModuleIso) -> ModuleIso:
    """b after a: Im(a.p0) -> Im(b.p1); requires a.p1 = b.p0."""
    if a.p1 != b.p0:
        raise ConnectionError_("isos are not composable")
    return ModuleIso(a.p0, b.p1, b.u * a.u, a.v * b.v)


def sum_iso(a: ModuleIso, b: ModuleIso) -> ModuleIso:
    """Block sum of isomorphisms."""
    alg = a.p0.algebra
    z = alg.zero()
    p0 = Idempotent(alg, block_diag(a.p0.mat, b.p0.mat, z))
    p1 = Idempotent(alg, block_diag(a.p1.mat, b.p1.mat, z))
    return ModuleIso(p0, p1, block_diag(a.u, b.u, z),
                     block_diag(a.v, b.v, z))


def random_automorphism(p: Idempotent, seed) -> ModuleIso:
    """A generally nontrivial automorphism of Im(p).

    Built as iso_h^-1 o iso_g for g random unipotent and h = g * (1 + alpha p)
    (the correction commutes with p, so both conjugations land on the same
    idempotent); alpha is a random rational != -1.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    alg = p.algebra
    ident, g, ginv = _random_unipotent(alg, p.size, rng)
    alpha = Fraction(rng.choice([1, 2, -2, 3]))
    c = ident + p.mat.map(lambda e: e.scale(alpha))
    cinv = ident + p.mat.map(lambda e: e.scale(-alpha / (1 + alpha)))
    h = g * c
    hinv = cinv * ginv
    p1 = Idempotent(alg, g * p.mat * ginv)
    iso_g = ModuleIso(p, p1, p1.mat * g * p.mat, p.mat * ginv * p1.mat)
    iso_h = ModuleIso(p, p1, p1.mat * h * p.mat, p.mat * hinv * p1.mat)
    return compose_iso(iso_g, iso_h.inverse())


def swap_iso(p: Idempotent, q: Idempotent) -> ModuleIso:
    """The block-swap isomorphism Im(p (+) q) -> Im(q (+) p)."""
    alg = p.algebra
    z, one = alg.zero(), alg.unit()
    n, m = p.size, q.size
    tot = n + m
    sigma = [[z for _ in range(tot)] for _ in range(tot)]
    for i in range(n):
        sigma[m + i][i] = one
    for j in range(m):
        sigma[j][n + j] = one
    sig = Mat(sigma)
    p0 = Idempotent(alg, block_diag(p.mat, q.mat, z))
    p1 = Idempotent(alg, block_diag(q.mat, p.mat, z))
    u = sig * p0.mat
    # inverse permutation
    sigma_inv = [[z for _ in range(tot)] for _ in range(tot)]
    for i in range(n):
        sigma_inv[i][m + i] = one
    for j in range(m):
        sigma_inv[n + j][j] = one
    v = Mat(sigma_inv) * p1.mat
    return ModuleIso(p0, p1, u, v)
