"""Finite-dimensional unital associative Q-algebras given by structure
constants, with the unit pinned to basis slot 0; standard constructors, each
stating e_i * e_j in closed form through one table builder, `_table` (and
`Algebra` validates every distinct table, theirs included, once per
process); validated homomorphisms.
"""

from __future__ import annotations

from .exactmath import (Q0, Q1, Terms, accumulate, checked, rat,
                        rat_from_str, rat_to_str)


class AlgebraError(ValueError):
    pass


# The tables `Algebra._validate` accepted in this process, oldest first, as
# dict keys; a table that failed is never kept.
_ACCEPTED = {}
_ACCEPTED_MAX = 256


class Algebra:
    """A unital associative Q-algebra of dimension m.

    mul[i][j] is the length-m coefficient vector of e_i * e_j.  Basis element
    0 is the unit; unitality and associativity are checked exhaustively
    (`_validate`) the first time a table is seen: a table equal to one
    accepted before in this process (the last `_ACCEPTED_MAX` of them, in
    `_ACCEPTED`) is not checked again, and a table that failed is never
    remembered.  Instances are immutable; the caches hanging off an
    instance are memoization that does not affect value semantics:
    `_right` holds, per degree, the basis words, their index map and the
    right-multiplication columns of `uforms._degree`, whose entries are
    built as they are read, `_wordmul` the product of each pair of words
    `uforms.word_product` was asked for, as a tuple of (word, rational)
    pairs decoded from those entries, `_cylmul` the product of each pair
    of cylinder keys (mask, word) that `transgression.CylForm._key_product`
    was asked for (`transgression._CylProducts`, made on first use), `_ab`
    the abelianization projection of each degree n, with the residual of
    each word it has reduced, `_dbar` the dbar into each degree n once
    built (`uforms.dbar`), `_ab_spectrum` the (eigenvalue, multiplicity)
    pairs of the bimodule matrix D that certify dim Omega_ab,n
    (`uforms._certified_dim`; empty where no certificate applies),
    `_generators` the basis indices of the generating set that the
    commutator echelon reads (`uforms._generating_set`), and `_necklace`
    the pair of the dz table of M_k (`uforms._dz`) and the weight-0 counts
    and ranks of the E11 lift (`uforms._lift`).
    The caches belong to one instance: a rule replaced at run time (a
    monkeypatched `word_product`, `grading_sign` or sign table) is seen
    only by an algebra that has not yet cached what it feeds, so a test
    that plants one builds a fresh algebra.

    `matrix_size` is the k that `make_matrix_algebra(k)` records on the
    M_k(Q) it builds, and None on every other algebra, one built from an
    equal table included.  Only the E11 lift of `uforms.de_rham_homology`
    reads it; the outputs are the same either way.

    `weights` is the torus grading that the constructors stating their table
    in closed form record (`_graded`): one integer per basis index, the
    eigenvalues of a diagonal derivation D(e_i) = w_i e_i, so w_0 = 0 and
    w_k = w_i + w_j wherever e_i e_j has an e_k term.  `make_truncated_poly`
    gives x^a the weight a, `make_matrix_algebra` gives E_pq the weight p - q
    (h_p - h_q with h = (0, 1, ..., k - 1)), and `make_product` keeps its
    factors' weights.  It is None on every other algebra (JSON tables, group
    algebras, a copy built from an equal table) and where every weight is 0.
    Only the early exit of `uforms.de_rham_homology` reads it, to answer
    H_n = 0 in a degree with no weight-0 word; the outputs are the same
    either way.

    Products go through one sparse kernel built from `mul` at construction:
    sparse_mul[i][j] lists the (k, c) with c != 0, so e_i * e_j = sum c e_k.
    The element product `AlgElement.__mul__`, the associativity check of
    `_validate`, the matrix product of `connections.Mat` (through
    `AlgElement._key_product`) and the word products of `uforms` read it;
    all skip zero coefficients.
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
                vec = [rat(c) for c in mul[i][j]]
                if len(vec) != m:
                    raise AlgebraError("mul table entry has wrong length")
                row.append(tuple(vec))
            table.append(tuple(row))
        self.dim = m
        self.mul = tuple(table)
        self.sparse_mul = tuple(
            tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row)
            for row in table)
        self.names = tuple(names) if names is not None else tuple(
            "e%d" % i for i in range(m))
        if len(self.names) != m:
            raise AlgebraError("wrong number of basis names")
        self.degree_cap = degree_cap
        self.matrix_size = None
        self.weights = None
        if self.mul not in _ACCEPTED:
            self._validate()
            if len(_ACCEPTED) >= _ACCEPTED_MAX:
                del _ACCEPTED[next(iter(_ACCEPTED))]
            _ACCEPTED[self.mul] = None
        # memoization caches (read-mostly, value-semantics preserving)
        self._right = []
        self._wordmul = {}
        self._cylmul = None
        self._ab = {}
        self._dbar = {}
        self._ab_spectrum = None
        self._generators = None
        self._necklace = None

    def _validate(self):
        m = self.dim
        for i in range(m):
            ei = self._basis_vec(i)
            if self.mul[0][i] != ei:
                raise AlgebraError(
                    "unit is not basis element 0: e0*%s != %s"
                    % (self.names[i], self.names[i]))
            if self.mul[i][0] != ei:
                raise AlgebraError(
                    "unit is not basis element 0: %s*e0 != %s"
                    % (self.names[i], self.names[i]))
        sparse = self.sparse_mul
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    # (e_i e_j) e_k and e_i (e_j e_k), row by row
                    left = accumulate((l, c * s) for p, c in sparse[i][j]
                                      for l, s in sparse[p][k])
                    right = accumulate((l, c * s) for p, c in sparse[j][k]
                                       for l, s in sparse[i][p])
                    if left != right:
                        raise AlgebraError(
                            "associativity fails on triple (%s, %s, %s)"
                            % (self.names[i], self.names[j], self.names[k]))

    def _basis_vec(self, i):
        return tuple(Q1 if k == i else Q0 for k in range(self.dim))

    def elem_mul(self, a, b):
        """Vectors a*b; only `perfbench/workloads.py` still calls it."""
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
        return self is other or (isinstance(other, Algebra)
                                 and self.dim == other.dim
                                 and self.mul == other.mul)

    def __hash__(self):
        return hash((self.dim, self.mul))

    def __repr__(self):
        return "Algebra(dim=%d, names=%s)" % (self.dim, list(self.names))


class AlgElement(Terms):
    """Element of an Algebra: `terms` maps a basis index to its nonzero
    rational coefficient, stored as `rat` gives it (an int when integral),
    so a float or a Poly raises TypeError.  The constructor takes the dense
    coefficient vector, and `vec` gives it back.

    Sums, differences, negation, `scale`, `==` and `hash` are those of
    `Terms`; a scalar multiple is `scale`, never `*`.  The product sums
    ca * cb * s over the terms (k, s) of `Algebra.sparse_mul[i][j]`, and
    `_key_product` gives `connections.Mat` the same structure constants as
    a rule on basis indices.
    """

    __slots__ = ()
    RingError = AlgebraError
    _scalar = staticmethod(rat)

    def __init__(self, algebra: Algebra, vec):
        vec = tuple(map(rat, vec))
        if len(vec) != algebra.dim:
            raise AlgebraError("coefficient vector length mismatch")
        self.algebra = algebra
        self.terms = {i: c for i, c in enumerate(vec) if c}

    @property
    def vec(self) -> tuple:
        """The dense coefficient vector (a view of `terms`)."""
        get = self.terms.get
        return tuple(get(i, Q0) for i in range(self.algebra.dim))

    # The traced benchmark wraps AlgElement.__add__ and __mul__ through the
    # class's own __dict__.
    __add__ = Terms.__add__

    def __mul__(self, other):
        b = checked(self, other).terms.items()
        sparse = self.algebra.sparse_mul
        return self._like(accumulate(
            (k, ca * cb * s) for i, ca in self.terms.items()
            for j, cb in b for k, s in sparse[i][j]))

    def __rmul__(self, other):
        return NotImplemented

    @staticmethod
    def _key_product(alg: Algebra):
        """The product rule of basis indices for `connections.Mat` over
        `alg`: the nonzero structure constants of e_a * e_b."""
        sparse = alg.sparse_mul
        return lambda a, b: sparse[a][b]

    def __repr__(self):
        names = self.algebra.names
        parts = [("%s*%s" % (c, names[i])) for i, c in sorted(
            self.terms.items())]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _table(m: int, product) -> list:
    """The dense table `Algebra` takes, from `product(i, j)`: the (k, c)
    pairs of e_i * e_j = sum c e_k over basis indices < m (a repeated k
    adds up)."""
    table = [[[Q0] * m for _ in range(m)] for _ in range(m)]
    for i, row in enumerate(table):
        for j, vec in enumerate(row):
            for k, c in product(i, j):
                vec[k] += c
    return table


def _graded(alg: Algebra, weights) -> Algebra:
    """alg with `weights` recorded as its `Algebra.weights`, None where all
    are 0; AlgebraError unless they are the eigenvalues of a diagonal
    derivation: w_0 = 0, and w_k = w_i + w_j wherever c_ij^k != 0."""
    weights = tuple(weights)
    if weights[0] or any(weights[k] != wi + wj
                         for i, wi in enumerate(weights)
                         for j, wj in enumerate(weights)
                         for k, _ in alg.sparse_mul[i][j]):
        raise AlgebraError("weights %r are not a derivation" % (weights,))
    alg.weights = weights if any(weights) else None
    return alg


def make_matrix_algebra(k: int, degree_cap: int = 8) -> Algebra:
    """M_k(Q) with basis {1} followed by the matrix units E_ij except E_kk,
    row by row: E_ij sits at slot 1 + (i - 1) k + (j - 1).  The algebra
    records k as its `matrix_size`, and E_ij has the weight i - j."""
    if k < 1:
        raise AlgebraError("k must be >= 1")
    units = [(i, j) for i in range(k) for j in range(k)][:-1]
    corner = [(0, Q1)] + [(1 + i * k + i, -Q1) for i in range(k - 1)]

    def product(s, t):
        if not (s and t):
            return ((s or t, Q1),)
        (i, j), (jj, l) = units[s - 1], units[t - 1]
        if j != jj:
            return ()
        # E_ij E_jl = E_il, and E_kk = 1 - sum_{i<k} E_ii
        return corner if i == l == k - 1 else ((1 + i * k + l, Q1),)

    names = ["1"] + ["E%d%d" % (i + 1, j + 1) for i, j in units]
    alg = Algebra(_table(k * k, product), names=names, degree_cap=degree_cap)
    alg.matrix_size = k
    return _graded(alg, [0] + [i - j for i, j in units])


def make_truncated_poly(k: int, degree_cap: int = 8) -> Algebra:
    """Q[x]/(x^k) with basis {1, x, ..., x^(k-1)}; x^a has the weight a."""
    if k < 1:
        raise AlgebraError("k must be >= 1")
    names = ["1"] + ["x^%d" % i if i > 1 else "x" for i in range(1, k)]
    return _graded(Algebra(_table(k, lambda i, j: ((i + j, Q1),) if i + j < k
                                  else ()), names=names,
                           degree_cap=degree_cap), range(k))


def make_product(a: Algebra, b: Algebra, degree_cap: int = 8) -> Algebra:
    """Direct product algebra, rebased so the unit (1,1) sits at slot 0.

    Basis: (1,1), (1,0), then (e_i, 0) for i >= 1, then (0, f_j) for j >= 1:
    (e_i, 0) sits at slot 1 + i, (0, f_j) at slot dim(a) + j, and (0, 1) is
    the unit minus eL = (1, 0).  Elements of different factors multiply to 0.
    A basis element keeps its weight in its factor (0 for a factor with no
    grading), and the unit and eL have the weight 0.
    """
    da = a.dim

    def right(k, c):
        return ((da + k, c),) if k else ((0, c), (1, -c))

    def product(s, t):
        if not (s and t):
            return ((s or t, Q1),)
        if s <= da and t <= da:
            return ((1 + k, c) for k, c in a.sparse_mul[s - 1][t - 1])
        if s > da and t > da:
            return (p for k, c in b.sparse_mul[s - da][t - da]
                    for p in right(k, c))
        return ()

    names = (["1", "eL"] + ["L:" + n for n in a.names[1:]]
             + ["R:" + n for n in b.names[1:]])
    wa, wb = (f.weights or (0,) * f.dim for f in (a, b))
    return _graded(Algebra(_table(da + b.dim, product), names=names,
                           degree_cap=degree_cap),
                   (0, 0) + wa[1:] + wb[1:])


def make_group_algebra(cayley_table, names=None, degree_cap: int = 8) -> Algebra:
    """Group algebra Q[G] from a Cayley table with identity first.

    cayley_table[i][j] is the index of g_i * g_j; validated as a group table
    (shape, identity and inverses here, associativity by Algebra).
    """
    n = len(cayley_table)
    for row in cayley_table:
        if len(row) != n:
            raise AlgebraError("Cayley table is not square")
        if not all(0 <= v < n for v in row):
            raise AlgebraError("Cayley table entry out of range")
    for i, row in enumerate(cayley_table):
        if cayley_table[0][i] != i or row[0] != i:
            raise AlgebraError("element 0 is not the identity")
        if sorted(row) != list(range(n)):
            raise AlgebraError("element %d has no inverse" % i)
    if names is None:
        names = ["1"] + ["g%d" % i for i in range(1, n)]
    return Algebra(_table(n, lambda i, j: ((cayley_table[i][j], Q1),)),
                   names=names, degree_cap=degree_cap)


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
            row = tuple(rat(c) for c in r)
            if len(row) != source.dim:
                raise AlgebraError("hom matrix has wrong shape")
            rows.append(row)
        if len(rows) != target.dim:
            raise AlgebraError("hom matrix has wrong shape")
        self.matrix = tuple(rows)
        self._validate()

    def _validate(self):
        src = self.source
        images = [self(src.basis(i)) for i in range(src.dim)]
        if images[0] != self.target.unit():
            raise AlgebraError("hom does not preserve the unit")
        for i, fi in enumerate(images):
            for j, fj in enumerate(images):
                if self(src.basis(i) * src.basis(j)) != fi * fj:
                    raise AlgebraError("hom is not multiplicative on (%s, %s)"
                                       % (src.names[i], src.names[j]))

    def __call__(self, a: AlgElement) -> AlgElement:
        if a.algebra != self.source:
            raise AlgebraError("element does not belong to the source algebra")
        return AlgElement(self.target, (sum(
            (row[i] * c for i, c in a.terms.items()), Q0)
            for row in self.matrix))


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


def table_from_json(data):
    """The (mul, names) of an algebra payload {"dim", "mul", "names"?}, with
    each rational parsed once.  A payload of the wrong shape, `names` not a
    list of strings included, raises AlgebraError; a rational that is not a
    "num/den" string raises TypeError or ValueError.  Unit, associativity
    and the number of names are left to Algebra."""
    if not isinstance(data, dict) or "dim" not in data or "mul" not in data:
        raise AlgebraError("algebra JSON must have 'dim' and 'mul'")
    dim = data["dim"]
    mul = data["mul"]
    if type(dim) is not int or dim < 1:
        raise AlgebraError("'dim' must be a positive integer")
    if not isinstance(mul, list) or len(mul) != dim:
        raise AlgebraError("'mul' must be a dim x dim table")
    table = []
    for row in mul:
        if not isinstance(row, list) or len(row) != dim:
            raise AlgebraError("'mul' must be a dim x dim table")
        for entry in row:
            if not isinstance(entry, list) or len(entry) != dim:
                raise AlgebraError("each product must be a length-dim vector")
        table.append([[rat_from_str(c) for c in entry] for entry in row])
    names = data.get("names")
    if "names" in data and not (isinstance(names, list) and all(
            isinstance(n, str) for n in names)):
        raise AlgebraError("'names' must be a list of strings")
    return table, names


def unit_index(mul):
    """The basis index of a two-sided unit of a parsed table, or None."""
    dim = len(mul)
    basis = [[Q1 if k == j else Q0 for k in range(dim)] for j in range(dim)]
    for u in range(dim):
        if all(mul[u][j] == e and mul[j][u] == e
               for j, e in enumerate(basis)):
            return u
    return None


def algebra_from_json(data: dict, degree_cap: int = 8) -> Algebra:
    mul, names = table_from_json(data)
    return Algebra(mul, names=names, degree_cap=degree_cap)
