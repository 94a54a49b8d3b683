"""Finitely generated projective modules as idempotent matrices, connections
(p, theta) encoding D = p o d + theta on Im(p) and polynomial families of
them, curvature, traces into the abelianization, the Chern character forms,
direct sums, pullbacks along module isomorphisms, and extension of scalars
along algebra homs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgElement, Algebra, AlgebraHom
from .exactmath import Poly, Q0
from .uforms import AbClass, UForm, enumerate_words, extend_hom, project_ab


class ConnectionError_(ValueError):
    pass


class Mat:
    """Square matrix over a ring with + and * (AlgElement, UForm, TForm,
    BiForm); minimal and generic.

    Every product runs one sparse loop on the `sparse_ring()` hooks
    (terms, new, add, wrap) of its first entry: pairs with a zero entry
    are skipped, and each output entry is summed in one accumulator by the
    ring's product step and wrapped once.  An entry the ring cannot take
    raises as it would in an entrywise product.
    """

    __slots__ = ("entries", "size")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.size = len(self.entries)
        for row in self.entries:
            if len(row) != self.size:
                raise ConnectionError_("matrix is not square")

    def _check_size(self, other):
        if other.size != self.size:
            raise ConnectionError_("matrix sizes differ: %d and %d"
                                   % (self.size, other.size))

    def __add__(self, other):
        self._check_size(other)
        n = self.size
        return Mat([[self.entries[i][j] + other.entries[i][j]
                     for j in range(n)] for i in range(n)])

    def __sub__(self, other):
        self._check_size(other)
        n = self.size
        return Mat([[self.entries[i][j] - other.entries[i][j]
                     for j in range(n)] for i in range(n)])

    def __neg__(self):
        return Mat([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        self._check_size(other)
        if not self.size:
            return Mat([])
        first = self.entries[0][0]
        terms, new, add, wrap = first.sparse_ring()
        # a left entry of another kind refuses `first` through its own
        # ring, so errors follow the left factor as they do in a * b
        lt = [[terms(e) if type(e) is type(first)
               else e.sparse_ring()[0](first) for e in row]
              for row in self.entries]
        rt = [[terms(e) for e in row] for row in other.entries]
        zero = wrap(new())
        out = []
        for lrow in lt:
            row = []
            for j in range(self.size):
                acc = None
                for k, a in enumerate(lrow):
                    if a:
                        b = rt[k][j]
                        if b:
                            if acc is None:
                                acc = new()
                            add(acc, a, b)
                row.append(zero if acc is None else wrap(acc))
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
        if not mat.size:
            raise ConnectionError_("idempotent matrix is empty")
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

    R counts the parameters of a polynomial family of connections on p:
    R = 0 is a single connection, whose scalars must be rational, R = 1 a
    path and R = 2 a bigon, whose theta has Poly scalars in R variables
    (coerced here).
    """

    __slots__ = ("p", "theta", "algebra", "R")

    def __init__(self, p: Idempotent, theta: Mat, R: int = 0):
        self.algebra = p.algebra
        if theta.size != p.size:
            raise ConnectionError_("theta size mismatch")
        for row in theta.entries:
            for e in row:
                if not isinstance(e, UForm) or e.algebra != p.algebra:
                    raise ConnectionError_("theta entries must be forms")
                if e and e.degrees() != [1]:
                    raise ConnectionError_("theta must be of degree 1")
        if R:
            coerce = family_scalars(R).coerce
            theta = theta.map(lambda u: u.map_scalars(coerce))
        elif any(isinstance(c, Poly) for row in theta.entries for e in row
                 for c in e.terms.values()):
            raise ConnectionError_("a single connection has rational "
                                   "scalars, not polynomials")
        pf = p.to_form()
        if (pf * theta * pf).entries != theta.entries:
            raise ConnectionError_("theta is not compressed: p*theta*p != theta")
        self.p = p
        self.theta = theta
        self.R = R

    def restrict(self, i: int, x) -> "Connection":
        """Set parameter i to the rational x: a family with R - 1."""
        if not 0 <= i < self.R:
            raise ConnectionError_("R = %d has no parameter %r" % (self.R, i))
        return Connection(self.p, self.theta.map(
            lambda u: u.map_scalars(lambda q: q.subs(i, x))), self.R - 1)


def family_scalars(r: int):
    """The Poly type of a family in r parameters, or ConnectionError_."""
    if r not in Poly.TYPES:
        raise ConnectionError_("no Poly type in %r parameters" % (r,))
    return Poly.TYPES[r]


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


def check_k_max(k_max: int, least: int = 1):
    """Refuse a k_max below `least` with ValueError: a shorter series would
    leave the degrees it skips unchecked."""
    if k_max < least:
        raise ValueError("k_max must be at least %d, not %d" % (least, k_max))


def chern_series(pf: Mat, curv, k_max: int, trace):
    """[trace(p), trace(R)/1!, ..., trace(R^kmax)/kmax!]: Karoubi's
    ch_k = tr(R^k)/k! for matrices over any ring of forms.  `curv()` gives
    the curvature R and is called only when k_max >= 1."""
    check_k_max(k_max, 0)
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
    if c1.R != c2.R:
        raise ConnectionError_("families with different parameters")
    alg = c1.algebra
    p = Idempotent(alg, block_diag(c1.p.mat, c2.p.mat, alg.zero()))
    theta = block_diag(c1.theta, c2.theta, UForm.zero(alg))
    return Connection(p, theta, c1.R)


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
    family with the same R.
    """
    if phi.p1 != c.p:
        raise ConnectionError_("iso target does not match the connection")
    p0f = phi.p0.to_form()
    p1f = phi.p1.to_form()
    uf = phi.u.map(UForm.from_element)
    vf = phi.v.map(UForm.from_element)
    du = uf.map(lambda w: w.d())
    theta = p0f * (vf * (p1f * du + c.theta * uf)) * p0f
    return Connection(phi.p0, theta, c.R)


def extend_scalars(c: Connection, psi: AlgebraHom) -> Connection:
    """Entrywise (psi(p), psi^u(theta)) over the target algebra; a family
    keeps its R."""
    if c.algebra != psi.source:
        raise ConnectionError_("connection does not live over the source")
    f = extend_hom(psi)
    p = Idempotent(psi.target, c.p.mat.map(psi))
    theta = c.theta.map(f)
    return Connection(p, theta, c.R)


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def _rng(seed) -> random.Random:
    """`seed` itself if it is a random.Random, else a new one seeded by it."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _random_element(alg: Algebra, rng: random.Random) -> AlgElement:
    vec = []
    for _ in range(alg.dim):
        if rng.random() < 0.5:
            vec.append(Q0)
        else:
            vec.append(rng.randint(-2, 2))
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
    rng = _rng(seed)
    z, one = alg.zero(), alg.unit()
    e = Mat([[one if (i == j and rng.random() < 0.6) else z
              for j in range(n)] for i in range(n)])
    _, u, uinv = _random_unipotent(alg, n, rng)
    return Idempotent(alg, u * e * uinv)


def random_form(alg: Algebra, rng: random.Random, degrees, count,
                bound: int) -> UForm:
    """The sum of `count` seeded terms c*w per degree of `degrees`, with w a
    word of that degree and c an integer in [-bound, bound].  `degrees` is
    read lazily and `count` may be a (lo, hi) range, drawn for each degree
    that has words; so the draws come in the order degree, count, then word
    and coefficient per term."""
    pairs = []
    for n in degrees:
        words = enumerate_words(alg, n)
        if not words:
            continue
        draws = count if isinstance(count, int) else rng.randint(*count)
        for _ in range(draws):
            pairs.append((words[rng.randrange(len(words))],
                          rng.randint(-bound, bound)))
    return UForm(alg, pairs)


def random_connection(p: Idempotent, seed) -> Connection:
    """Random theta = p * Theta * p with random degree-1 entries."""
    rng = _rng(seed)
    alg = p.algebra
    big = Mat([[random_form(alg, rng, (1,), (1, 2), 2)
                for _ in range(p.size)] for _ in range(p.size)])
    pf = p.to_form()
    return Connection(p, pf * big * pf)


def random_iso(p0: Idempotent, seed):
    """A random (p1, iso: Im(p0) -> Im(p1)) via conjugation p1 = g p0 g^-1
    with g = 1 + strictly upper random."""
    rng = _rng(seed)
    alg = p0.algebra
    _, g, ginv = _random_unipotent(alg, p0.size, rng)
    p1 = Idempotent(alg, g * p0.mat * ginv)
    return p1, _conjugation_iso(p0, p1, g, ginv)


def _conjugation_iso(p0: Idempotent, p1: Idempotent, g: Mat,
                     ginv: Mat) -> ModuleIso:
    """Im(p0) -> Im(p1) by u = p1*g*p0, with inverse v = p0*g^-1*p1."""
    return ModuleIso(p0, p1, p1.mat * g * p0.mat, p0.mat * ginv * p1.mat)


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


def permute_blocks(p: Idempotent, sizes, order) -> ModuleIso:
    """Im(p) -> Im(s*p*s^T), moving block order[i] of the block diagonal p
    (blocks of the given sizes) to slot i: u = s*p and v = p*s^T for the
    permutation matrix s, so u permutes p's rows and v its columns."""
    if sum(sizes) != p.size or min(sizes) < 0:
        raise ConnectionError_("block sizes %r do not split %d"
                               % (tuple(sizes), p.size))
    if sorted(order) != list(range(len(sizes))):
        raise ConnectionError_("block order %r is not a permutation"
                               % (tuple(order),))
    block = [b for b, n in enumerate(sizes) for _ in range(n)]
    m = p.mat.entries
    if any(e and block[i] != block[j]
           for i, row in enumerate(m) for j, e in enumerate(row)):
        raise ConnectionError_("p has a nonzero entry off its diagonal blocks")
    perm = [i for b in order for i in range(p.size) if block[i] == b]
    p1 = Idempotent(p.algebra, Mat([[m[i][j] for j in perm] for i in perm]))
    return ModuleIso(p, p1, Mat([m[i] for i in perm]),
                     Mat([[row[j] for j in perm] for row in m]))


def random_automorphism(p: Idempotent, seed) -> ModuleIso:
    """The automorphism p/(1 + alpha) of Im(p): always a scalar multiple of
    p, so its odd Chern forms vanish.

    Built as iso_h^-1 o iso_g for g random unipotent and h = g * (1 + alpha p)
    (the correction commutes with p, so both conjugations land on the same
    idempotent), with alpha drawn from {1, 2, -2, 3}.  Since
    g^-1 (g p g^-1) g = p, the composite p (1 + alpha p)^-1 p is
    p/(1 + alpha), whatever g is.  The draws stay as they are because the
    khat benchmark's input digest depends on them.
    """
    rng = _rng(seed)
    alg = p.algebra
    ident, g, ginv = _random_unipotent(alg, p.size, rng)
    alpha = rng.choice([1, 2, -2, 3])
    c = ident + p.mat.map(lambda e: e.scale(alpha))
    cinv = ident + p.mat.map(lambda e: e.scale(Fraction(-alpha, 1 + alpha)))
    h = g * c
    hinv = cinv * ginv
    p1 = Idempotent(alg, g * p.mat * ginv)
    iso_g = _conjugation_iso(p, p1, g, ginv)
    iso_h = _conjugation_iso(p, p1, h, hinv)
    return compose_iso(iso_g, iso_h.inverse())
