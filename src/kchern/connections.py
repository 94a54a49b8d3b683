"""Finitely generated projective modules as idempotent matrices, connections
(p, theta) encoding D = p o d + theta on Im(p) and polynomial families of
them, curvature, traces into the abelianization, the Chern character forms,
direct sums, pullbacks along module isomorphisms, and extension of scalars
along algebra homs.  `chern_series` is the one Chern character loop, for
`chern` and the cylinder forms and fibre integrals of `transgression`.

A matrix (`Mat`) is one sparse dict (i, j, key) -> scalar over its ring:
products run one loop over pairs of keys, block sums and permutations
relabel i and j, and `Idempotent`, `ModuleIso` and `Connection` check their
identities by comparing dicts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .algebra import AlgElement, Algebra, AlgebraError, AlgebraHom
from .exactmath import Poly, Q0, accumulate, coeff_product, rat
from .uforms import (AbClass, FormError, UForm, enumerate_words, extend_hom,
                     project_ab)


class ConnectionError_(ValueError):
    pass


class Mat:
    """Square matrix over A (AlgElement entries), Omega(A) (UForm) or
    cylinder forms (TForm, BiForm): its ring held once, as the entry type
    `kind` and the `algebra`, and one sparse dict `data`, (i, j, key) ->
    nonzero scalar, keyed by basis index, or by the keys of a form's
    `terms`: word, or (dx mask, word) for cylinder forms, so form entries
    are read and wrapped the same way.  `entries` builds entry objects on
    demand.  A first entry of no matrix ring raises ConnectionError_; an
    entry of another ring than the first, and a matrix over another ring
    in +, - or *, raise the left factor's error: AlgebraError over A,
    FormError over forms.  The product reads each row of the right factor
    once and runs one key-product rule per pair of keys: `sparse_mul` over
    A, or the entry type's `_key_product` (`word_product` over Omega(A)).
    Over Poly scalars it multiplies coefficient dicts and wraps each output
    entry once (see `_product`).
    """

    __slots__ = ("kind", "algebra", "size", "data")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        n = self.size = len(rows)
        if any(len(row) != n for row in rows):
            raise ConnectionError_("matrix is not square")
        first = rows[0][0] if n else None
        self.kind = type(first) if n else None
        if n and not (self.kind is AlgElement
                      or hasattr(self.kind, "_key_product")):
            raise ConnectionError_("%s is not an entry of a matrix ring"
                                   % self.kind.__name__)
        self.algebra = getattr(first, "algebra", None)
        self.data = {}
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                self._check(e, size=False)
                keyed = (e.terms if self.kind is AlgElement
                         else e.terms.items())
                self.data.update(((i, j, key), c) for key, c in keyed)

    @classmethod
    def _new(cls, kind, algebra, size: int, data: dict) -> "Mat":
        """Wrap a dict of nonzero scalars, uncopied; over A they are stored
        as `rat` gives them.  An empty matrix has no ring (kind None)."""
        r = object.__new__(cls)
        r.kind, r.algebra = (kind, algebra) if size else (None, None)
        r.size = size
        r.data = ({k: rat(c) for k, c in data.items()}
                  if kind is AlgElement else data)
        return r

    def _like(self, data: dict) -> "Mat":
        return Mat._new(self.kind, self.algebra, self.size, data)

    def _check(self, other, size=True):
        """ConnectionError_ on another size (if `size`), and the left
        factor's error on another ring; `other` is a matrix or an entry."""
        if size and other.size != self.size:
            raise ConnectionError_("matrix sizes differ: %d and %d"
                                   % (self.size, other.size))
        kind = other.kind if isinstance(other, Mat) else type(other)
        alg = getattr(other, "algebra", None)
        if kind is not self.kind or (alg is not self.algebra
                                     and alg != self.algebra):
            raise (AlgebraError if self.kind is AlgElement else FormError)(
                "matrix ring mismatch")

    def _entry(self, terms: dict):
        """The entry object of this ring with the scalars `terms` by key."""
        kind, alg = self.kind, self.algebra
        if kind is AlgElement:
            return AlgElement(alg, [terms.get(a, Q0) for a in range(alg.dim)])
        return kind.from_terms(alg, terms.items())

    @property
    def entries(self):
        n = self.size
        cells = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j, key), c in self.data.items():
            cells[i][j][key] = c
        return [[self._entry(t) for t in row] for row in cells]

    def __add__(self, other):
        self._check(other)
        return self._like(accumulate(other.data.items(), dict(self.data)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.data.items()})

    def _product(self, other, keep=None) -> dict:
        """The data of self*other, summed over the pairs of keys a at (i, k)
        and b at (k, j) that keep(i, j, a, b) accepts (all by default).

        Rational scalars are multiplied and summed as they are.  When the
        first value of either factor is a Poly, the product is fused: the
        coefficients of ca*cb are multiplied out once per pair of keys whose
        rule yields terms, s times them are added into one coefficient dict
        per output key, and each output is wrapped once, so no intermediate
        Poly is built; rational values are coerced once per product."""
        self._check(other)
        kind, alg = self.kind, self.algebra
        if not (self.data and other.data):
            return {}
        if kind is AlgElement:
            sparse = alg.sparse_mul

            def rule(a, b):
                return sparse[a][b]
            poly = None
        else:
            rule = kind._key_product(alg, self.data)
            firsts = (next(iter(self.data.values())),
                      next(iter(other.data.values())))
            poly = next((type(c) for c in firsts if isinstance(c, Poly)),
                        None)
        rows = {}
        for (k, j, b), c in other.data.items():
            rows.setdefault(k, []).append((j, b, c))
        out = {}
        get = out.get
        if poly is None:
            for (i, k, a), ca in self.data.items():
                for j, b, cb in rows.get(k, ()):
                    if keep is None or keep(i, j, a, b):
                        c = ca * cb
                        for key, s in rule(a, b):
                            key = (i, j, key)
                            v = get(key)
                            out[key] = c * s if v is None else v + c * s
            return {key: rat(v) if type(v) is Fraction else v
                    for key, v in out.items() if v}

        def coeffs(c):
            return c.coeffs if type(c) is poly else poly.const(c).coeffs

        for row in rows.values():
            row[:] = [(j, b, coeffs(c)) for j, b, c in row]
        for (i, k, a), ca in self.data.items():
            ca = coeffs(ca)
            for j, b, cb in rows.get(k, ()):
                if keep is not None and not keep(i, j, a, b):
                    continue
                terms = rule(a, b)
                if not terms:
                    continue
                prod = coeff_product(ca, cb)
                for key, s in terms:
                    key = (i, j, key)
                    acc = get(key)
                    if acc is None:
                        out[key] = {e: s * v for e, v in prod.items()}
                    else:
                        for e, v in prod.items():
                            w = acc.get(e)
                            acc[e] = s * v if w is None else w + s * v
        data = {}
        for key, acc in out.items():
            cs = {e: rat(v) for e, v in acc.items() if v}
            if cs:
                data[key] = poly._new(cs)
        return data

    def __mul__(self, other):
        return self._like(self._product(other))

    def map(self, f) -> "Mat":
        return Mat([[f(e) for e in row] for row in self.entries])

    def map_scalars(self, f) -> "Mat":
        """f applied to every scalar, zeros dropped."""
        return self._like({k: v for k, c in self.data.items() if (v := f(c))})

    def to_form(self) -> "Mat":
        """A matrix over A as one over Omega(A): the key map a -> (a,)."""
        return Mat._new(UForm, self.algebra, self.size, {
            (i, j, (a,)): c for (i, j, a), c in self.data.items()})

    def d(self) -> "Mat":
        """d of every entry; over Omega(A) the key map w -> (0,) + w, where
        w[0] != 0 (distinct words have distinct images), over cylinder
        forms the sum of the key rule `_key_d` of the entry type.  A matrix
        over A has no d (take `to_form` first): ConnectionError_."""
        if self.kind is AlgElement:
            raise ConnectionError_("d needs a matrix of forms, not one over "
                                   "A (see to_form)")
        if self.kind is UForm:
            return self._like({(i, j, (0,) + w): c
                               for (i, j, w), c in self.data.items() if w[0]})
        return self._like(accumulate(
            ((i, j, k), v) for (i, j, key), c in self.data.items()
            for k, v in self.kind._key_d(key, c)))

    def trace(self):
        return self._entry(accumulate(
            (key, c) for (i, j, key), c in self.data.items() if i == j))

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.size == other.size
                and self.kind is other.kind and self.algebra == other.algebra
                and self.data == other.data)

    def __repr__(self):
        return "Mat(%r)" % (self.entries,)


def block_diag(a: Mat, b: Mat) -> Mat:
    """The block diagonal matrix of a and b: b's rows and columns shift."""
    a._check(b, size=False)
    n = a.size
    data = dict(a.data)
    data.update(((n + i, n + j, k), c) for (i, j, k), c in b.data.items())
    return Mat._new(a.kind, a.algebra, n + b.size, data)


# ---------------------------------------------------------------------------
# Idempotents and connections
# ---------------------------------------------------------------------------

class Idempotent:
    """n x n matrix p over A with p*p = p (checked)."""

    __slots__ = ("algebra", "mat", "size")

    def __init__(self, algebra: Algebra, mat: Mat):
        if not mat.size:
            raise ConnectionError_("idempotent matrix is empty")
        self.algebra, self.mat, self.size = algebra, mat, mat.size
        if mat.kind is not AlgElement or mat.algebra != algebra:
            raise ConnectionError_("entries must live in the algebra")
        if mat * mat != mat:
            raise ConnectionError_("matrix is not idempotent")

    def to_form(self) -> Mat:
        return self.mat.to_form()

    def __eq__(self, other):
        return isinstance(other, Idempotent) and self.mat == other.mat

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
        if theta.kind is not UForm or theta.algebra != p.algebra:
            raise ConnectionError_("theta entries must be forms")
        if any(len(w) != 2 for _, _, w in theta.data):
            raise ConnectionError_("theta must be of degree 1")
        if any(isinstance(c, Poly) and c.NVARS > R
               for c in theta.data.values()):
            raise ConnectionError_("theta has scalars in more than R = %d "
                                   "parameters (a single connection has "
                                   "rational scalars, not polynomials)" % R)
        if R:
            theta = theta.map_scalars(family_scalars(R).coerce)
        pf = p.to_form()
        if pf * theta * pf != theta:
            raise ConnectionError_("theta is not compressed: p*theta*p != theta")
        self.p, self.theta, self.R = p, theta, R

    def restrict(self, i: int, x) -> "Connection":
        """Set parameter i to the rational x: a family with R - 1."""
        if not 0 <= i < self.R:
            raise ConnectionError_("R = %d has no parameter %r" % (self.R, i))
        return Connection(self.p, self.theta.map_scalars(
            lambda q: q.subs(i, x)), self.R - 1)


def family_scalars(r: int):
    """The Poly type of a family in r parameters, or ConnectionError_."""
    if r not in Poly.TYPES:
        raise ConnectionError_("no Poly type in %r parameters" % (r,))
    return Poly.TYPES[r]


def grassmann(p: Idempotent) -> Connection:
    return Connection(p, Mat._new(UForm, p.algebra, p.size, {}))


def apply_operator(c: Connection, x: Mat) -> Mat:
    """The extending connection applied entrywise: X -> p*dX + theta*X."""
    return c.p.to_form() * x.d() + c.theta * x


def curvature_formula(pf: Mat, theta: Mat) -> Mat:
    """p(dp)(dp)p + p(dtheta)p + theta*theta for form matrices p and theta
    over any scalars (rationals, or polynomials in path parameters)."""
    dp = pf.d()
    return pf * dp * dp * pf + pf * theta.d() * pf + theta * theta


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


def chern_series(curv, k_max: int, trace, keep=None):
    """[trace(R)/1!, ..., trace(R^kmax)/kmax!]: Karoubi's ch_k = tr(R^k)/k!
    for k >= 1, over any ring of forms; `curv()` gives R, called only when
    k_max >= 1.  Each lower power is one full product; the last, R^(kmax-1)
    R, is built only on its diagonal, from the pairs of keys (a, b) that
    keep(a, b) accepts (all by default): `trace` reads no more than that."""
    check_k_max(k_max, 0)
    out = []
    for k in range(1, k_max + 1):
        if k == 1:
            r = power = curv()
        elif k < k_max:
            power = power * r
        else:
            power = power._like(power._product(r, lambda i, j, a, b: (
                i == j and (keep is None or keep(a, b)))))
        out.append(Fraction(1, factorial(k)) * trace(power))
    return out


def chern(c: Connection, k_max: int):
    """[ch_0, ..., ch_kmax] with ch_k = trace_ab(R^k)/k!; ch_0 = trace_ab(p)."""
    return [trace_ab(c.p.to_form())] + chern_series(lambda: curvature(c),
                                                    k_max, trace_ab)


def direct_sum(c1: Connection, c2: Connection) -> Connection:
    """Block sum of two connections, or of two families with the same
    parameters (pointwise)."""
    if c1.algebra != c2.algebra:
        raise ConnectionError_("algebra mismatch")
    if c1.R != c2.R:
        raise ConnectionError_("families with different parameters")
    p = Idempotent(c1.algebra, block_diag(c1.p.mat, c2.p.mat))
    return Connection(p, block_diag(c1.theta, c2.theta), c1.R)


class ModuleIso:
    """Isomorphism Im(p0) -> Im(p1) given by u with explicit inverse v;
    p1*u*p0 = u, p0*v*p1 = v, v*u = p0, u*v = p1 (all checked)."""

    __slots__ = ("p0", "p1", "u", "v")

    def __init__(self, p0: Idempotent, p1: Idempotent, u: Mat, v: Mat):
        if p0.algebra != p1.algebra or p0.size != p1.size:
            raise ConnectionError_("idempotent mismatch")
        self.p0, self.p1, self.u, self.v = p0, p1, u, v
        if p1.mat * u * p0.mat != u:
            raise ConnectionError_("u is not compressed: p1*u*p0 != u")
        if p0.mat * v * p1.mat != v:
            raise ConnectionError_("v is not compressed: p0*v*p1 != v")
        if v * u != p0.mat:
            raise ConnectionError_("v*u != p0")
        if u * v != p1.mat:
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
    uf = phi.u.to_form()
    vf = phi.v.to_form()
    du = uf.d()
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
    """(g, g^-1) for g = 1 + N with N strictly upper random; N is
    nilpotent, so g^-1 = 1 - N + N^2 - ... is a finite series."""
    z, one = alg.zero(), alg.unit()
    nmat = Mat([[_random_element(alg, rng) if j > i else z
                 for j in range(n)] for i in range(n)])
    ident = Mat([[one if i == j else z for j in range(n)] for i in range(n)])
    ginv = power = ident
    for _ in range(n - 1):
        power = -(power * nmat)
        ginv = ginv + power
    return ident + nmat, ginv


def random_idempotent(alg: Algebra, n: int, seed) -> Idempotent:
    """p = u E u^-1 with E a 0/1 diagonal and u random unipotent."""
    rng = _rng(seed)
    z, one = alg.zero(), alg.unit()
    e = Mat([[one if (i == j and rng.random() < 0.6) else z
              for j in range(n)] for i in range(n)])
    u, uinv = _random_unipotent(alg, n, rng)
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
    g, ginv = _random_unipotent(alg, p0.size, rng)
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
    p0 = Idempotent(alg, block_diag(a.p0.mat, b.p0.mat))
    p1 = Idempotent(alg, block_diag(a.p1.mat, b.p1.mat))
    return ModuleIso(p0, p1, block_diag(a.u, b.u), block_diag(a.v, b.v))


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
    m = p.mat
    if any(block[i] != block[j] for i, j, _ in m.data):
        raise ConnectionError_("p has a nonzero entry off its diagonal blocks")
    perm = [i for b in order for i in range(p.size) if block[i] == b]
    slot = {i: s for s, i in enumerate(perm)}       # row i moves to slot[i]

    def relabel(rows, cols):
        return m._like({(rows.get(i, i), cols.get(j, j), a): c
                        for (i, j, a), c in m.data.items()})

    return ModuleIso(p, Idempotent(p.algebra, relabel(slot, slot)),
                     relabel(slot, {}), relabel({}, slot))


def random_automorphism(p: Idempotent, seed) -> ModuleIso:
    """The automorphism p/(1 + alpha) of Im(p), with inverse (1 + alpha) p
    and alpha drawn from {1, 2, -2, 3}: a scalar multiple of p, so its odd
    Chern forms vanish."""
    rng = _rng(seed)
    # drawn and discarded: the khat benchmark's input digest depends on the
    # draws of the conjugation this generator once made
    _random_unipotent(p.algebra, p.size, rng)
    alpha = rng.choice([1, 2, -2, 3])
    inv = Fraction(1, 1 + alpha)
    return ModuleIso(p, p, p.mat.map_scalars(lambda c: c * inv),
                     p.mat.map_scalars(lambda c: c * (1 + alpha)))
