"""Finite-dimensional unital associative Q-algebras given by structure
constants, with the unit pinned to basis slot 0, plus standard constructors
and validated algebra homomorphisms.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import Q0, Q1, TrackedEchelon, rat_from_str, rat_to_str


class AlgebraError(ValueError):
    pass


class Algebra:
    """A unital associative Q-algebra of dimension m.

    mul[i][j] is the length-m coefficient vector of e_i * e_j.  Basis element
    0 is the unit; unitality and associativity are checked exhaustively at
    construction.  Instances are immutable; the caches hanging off an instance
    are read-mostly memoization (abelianization projections and word products)
    and do not affect value semantics.
    """

    def __init__(self, mul, names=None, degree_cap: int = 8):
        m = len(mul)
        if m < 1:
            raise AlgebraError("dimension must be >= 1")
        if degree_cap < 1:
            raise AlgebraError("degree cap must be positive")
        table = []
        for i in range(m):
            if len(mul[i]) != m:
                raise AlgebraError("mul table is not square")
            row = []
            for j in range(m):
                vec = [Fraction(c) for c in mul[i][j]]
                if len(vec) != m:
                    raise AlgebraError("mul table entry has wrong length")
                row.append(tuple(vec))
            table.append(tuple(row))
        self.dim = m
        self.mul = tuple(table)
        self.names = tuple(names) if names else tuple(
            "e%d" % i for i in range(m))
        if len(self.names) != m:
            raise AlgebraError("wrong number of basis names")
        self.degree_cap = degree_cap
        self._validate()
        # memoization caches (read-mostly, value-semantics preserving)
        self._wordmul = {}
        self._ab = {}
        self._exact = {}

    def _validate(self):
        m = self.dim
        unit = tuple(Q1 if k == 0 else Q0 for k in range(m))
        for i in range(m):
            ei = tuple(Q1 if k == i else Q0 for k in range(m))
            if self.mul[0][i] != ei:
                raise AlgebraError(
                    "unit is not basis element 0: e0*%s != %s"
                    % (self.names[i], self.names[i]))
            if self.mul[i][0] != ei:
                raise AlgebraError(
                    "unit is not basis element 0: %s*e0 != %s"
                    % (self.names[i], self.names[i]))
        del unit
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    left = self.elem_mul(self.mul[i][j], self._basis_vec(k))
                    right = self.elem_mul(self._basis_vec(i), self.mul[j][k])
                    if left != right:
                        raise AlgebraError(
                            "associativity fails on triple (%s, %s, %s)"
                            % (self.names[i], self.names[j], self.names[k]))

    def _basis_vec(self, i):
        return tuple(Q1 if k == i else Q0 for k in range(self.dim))

    def elem_mul(self, a, b):
        """Bilinear extension of the structure constants to vectors."""
        return (AlgElement(self, a) * AlgElement(self, b)).vec

    def unit(self) -> "AlgElement":
        return AlgElement(self, self._basis_vec(0))

    def basis(self, i: int) -> "AlgElement":
        return AlgElement(self, self._basis_vec(i))

    def element(self, vec) -> "AlgElement":
        return AlgElement(self, vec)

    def zero(self) -> "AlgElement":
        return AlgElement(self, (Q0,) * self.dim)

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.dim == other.dim
                and self.mul == other.mul)

    def __hash__(self):
        return hash((self.dim, self.mul))

    def __repr__(self):
        return "Algebra(dim=%d, names=%s)" % (self.dim, list(self.names))


class AlgElement:
    """Element of an Algebra: a coefficient vector over a scalar ring
    (Fraction, or a Poly in the parameters of a family)."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra: Algebra, vec):
        vec = tuple(vec)
        if len(vec) != algebra.dim:
            raise AlgebraError("coefficient vector length mismatch")
        self.algebra = algebra
        self.vec = vec

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.algebra,
                          tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.algebra,
                          tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        return AlgElement(self.algebra, tuple(-a for a in self.vec))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            m = self.algebra.dim
            table = self.algebra.mul
            out = [Q0] * m
            for i, ca in enumerate(self.vec):
                if ca:
                    for j, cb in enumerate(other.vec):
                        if cb:
                            c = ca * cb
                            row = table[i][j]
                            for k in range(m):
                                if row[k]:
                                    out[k] = out[k] + c * row[k]
            return AlgElement(self.algebra, out)
        return AlgElement(self.algebra, tuple(c * other for c in self.vec))

    def __rmul__(self, scalar):
        return AlgElement(self.algebra, tuple(scalar * c for c in self.vec))

    def scale(self, scalar):
        return AlgElement(self.algebra, tuple(c * scalar for c in self.vec))

    def is_zero(self):
        return not any(self.vec)

    def __bool__(self):
        return any(bool(c) for c in self.vec)

    def __eq__(self, other):
        return (isinstance(other, AlgElement)
                and self.algebra == other.algebra and self.vec == other.vec)

    def __hash__(self):
        return hash((self.algebra, self.vec))

    def _check(self, other):
        if not isinstance(other, AlgElement) or other.algebra != self.algebra:
            raise AlgebraError("algebra mismatch")

    def __repr__(self):
        names = self.algebra.names
        parts = [("%s*%s" % (c, names[i])) for i, c in enumerate(self.vec)
                 if c]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _express_in_basis(basis_vecs, dim):
    """Return a function expressing dense vectors in the given basis."""
    ech = TrackedEchelon(dim)
    for tag, v in enumerate(basis_vecs):
        dep = ech.add({i: c for i, c in enumerate(v) if c}, tag)
        if dep is not None:
            raise AlgebraError("proposed basis is dependent")

    def express(vec):
        sol = ech.solve({i: Fraction(c) for i, c in enumerate(vec) if c})
        if sol is None:
            raise AlgebraError("vector outside basis span")
        return tuple(sol.get(i, Q0) for i in range(len(basis_vecs)))

    return express


def make_matrix_algebra(k: int, degree_cap: int = 8) -> Algebra:
    """M_k(Q) with basis {1} followed by the matrix units E_ij except E_kk."""
    if k < 1:
        raise AlgebraError("k must be >= 1")
    n2 = k * k

    def mat_unit(i, j):
        v = [Q0] * n2
        v[i * k + j] = Q1
        return v

    ident = [Q0] * n2
    for i in range(k):
        ident[i * k + i] = Q1
    basis = [ident]
    names = ["1"]
    for i in range(k):
        for j in range(k):
            if (i, j) == (k - 1, k - 1):
                continue
            basis.append(mat_unit(i, j))
            names.append("E%d%d" % (i + 1, j + 1))
    express = _express_in_basis(basis, n2)

    def mat_mul(a, b):
        out = [Q0] * n2
        for i in range(k):
            for j in range(k):
                s = Q0
                for l in range(k):
                    s += a[i * k + l] * b[l * k + j]
                out[i * k + j] = s
        return out

    mul = [[express(mat_mul(basis[i], basis[j])) for j in range(len(basis))]
           for i in range(len(basis))]
    return Algebra(mul, names=names, degree_cap=degree_cap)


def make_truncated_poly(k: int, degree_cap: int = 8) -> Algebra:
    """Q[x]/(x^k) with basis {1, x, ..., x^(k-1)}."""
    if k < 1:
        raise AlgebraError("k must be >= 1")
    mul = []
    for i in range(k):
        row = []
        for j in range(k):
            vec = [Q0] * k
            if i + j < k:
                vec[i + j] = Q1
            row.append(vec)
        mul.append(row)
    names = ["1"] + ["x^%d" % i if i > 1 else "x" for i in range(1, k)]
    return Algebra(mul, names=names, degree_cap=degree_cap)


def make_product(a: Algebra, b: Algebra, degree_cap: int = 8) -> Algebra:
    """Direct product algebra, rebased so the unit (1,1) sits at slot 0.

    Basis: (1,1), (1,0), then (e_i, 0) for i >= 1, then (0, f_j) for j >= 1.
    """
    da, db = a.dim, b.dim
    dim = da + db

    def pair(av, bv):
        return tuple(av) + tuple(bv)

    zero_a = (Q0,) * da
    zero_b = (Q0,) * db
    basis = [pair(a._basis_vec(0), b._basis_vec(0)),
             pair(a._basis_vec(0), zero_b)]
    names = ["1", "eL"]
    for i in range(1, da):
        basis.append(pair(a._basis_vec(i), zero_b))
        names.append("L:" + a.names[i])
    for j in range(1, db):
        basis.append(pair(zero_a, b._basis_vec(j)))
        names.append("R:" + b.names[j])
    express = _express_in_basis(basis, dim)

    def mul_pair(u, v):
        av = a.elem_mul(u[:da], v[:da])
        bv = b.elem_mul(u[da:], v[da:])
        return pair(av, bv)

    mul = [[express(mul_pair(basis[i], basis[j]))
            for j in range(len(basis))] for i in range(len(basis))]
    return Algebra(mul, names=names, degree_cap=degree_cap)


def make_group_algebra(cayley_table, names=None, degree_cap: int = 8) -> Algebra:
    """Group algebra Q[G] from a Cayley table with identity first.

    cayley_table[i][j] is the index of g_i * g_j; validated as a group table.
    """
    n = len(cayley_table)
    for i in range(n):
        if len(cayley_table[i]) != n:
            raise AlgebraError("Cayley table is not square")
        for j in range(n):
            v = cayley_table[i][j]
            if not (0 <= v < n):
                raise AlgebraError("Cayley table entry out of range")
    for i in range(n):
        if cayley_table[0][i] != i or cayley_table[i][0] != i:
            raise AlgebraError("element 0 is not the identity")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (cayley_table[cayley_table[i][j]][k]
                        != cayley_table[i][cayley_table[j][k]]):
                    raise AlgebraError("Cayley table is not associative")
    for i in range(n):
        if sorted(cayley_table[i]) != list(range(n)):
            raise AlgebraError("element %d has no inverse" % i)
    mul = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [Q0] * n
            vec[cayley_table[i][j]] = Q1
            row.append(vec)
        mul.append(row)
    if names is None:
        names = ["1"] + ["g%d" % i for i in range(1, n)]
    return Algebra(mul, names=names, degree_cap=degree_cap)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class AlgebraHom:
    """Unital algebra homomorphism psi: B -> A given by a dim(A) x dim(B)
    rational matrix on basis vectors; validated eagerly."""

    def __init__(self, source: Algebra, target: Algebra, matrix):
        self.source = source
        self.target = target
        rows = []
        for r in matrix:
            row = tuple(Fraction(c) for c in r)
            if len(row) != source.dim:
                raise AlgebraError("hom matrix has wrong shape")
            rows.append(row)
        if len(rows) != target.dim:
            raise AlgebraError("hom matrix has wrong shape")
        self.matrix = tuple(rows)
        self._validate()

    def _validate(self):
        if self.apply_vec(self.source._basis_vec(0)) != \
                self.target._basis_vec(0):
            raise AlgebraError("hom does not preserve the unit")
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self.apply_vec(self.source.mul[i][j])
                rhs = self.target.elem_mul(
                    self.apply_vec(self.source._basis_vec(i)),
                    self.apply_vec(self.source._basis_vec(j)))
                if lhs != rhs:
                    raise AlgebraError(
                        "hom is not multiplicative on (%s, %s)"
                        % (self.source.names[i], self.source.names[j]))

    def apply_vec(self, vec):
        out = [Q0] * self.target.dim
        for j, c in enumerate(vec):
            if c:
                col = [self.matrix[i][j] for i in range(self.target.dim)]
                for i, v in enumerate(col):
                    if v:
                        out[i] = out[i] + v * c
        return tuple(out)

    def __call__(self, a: AlgElement) -> AlgElement:
        if a.algebra != self.source:
            raise AlgebraError("element does not belong to the source algebra")
        return AlgElement(self.target, self.apply_vec(a.vec))

    @staticmethod
    def identity(a: Algebra) -> "AlgebraHom":
        return AlgebraHom(a, a, [[Q1 if i == j else Q0 for j in range(a.dim)]
                                 for i in range(a.dim)])


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def algebra_to_json(a: Algebra) -> dict:
    return {
        "dim": a.dim,
        "names": list(a.names),
        "mul": [[[rat_to_str(c) for c in a.mul[i][j]]
                 for j in range(a.dim)] for i in range(a.dim)],
    }


def algebra_from_json(data: dict, degree_cap: int = 8) -> Algebra:
    if not isinstance(data, dict) or "dim" not in data or "mul" not in data:
        raise AlgebraError("algebra JSON must have 'dim' and 'mul'")
    dim = data["dim"]
    mul = data["mul"]
    if len(mul) != dim:
        raise AlgebraError("mul table size does not match dim")
    table = [[[rat_from_str(c) for c in mul[i][j]] for j in range(dim)]
             for i in range(dim)]
    return Algebra(table, names=data.get("names"), degree_cap=degree_cap)
