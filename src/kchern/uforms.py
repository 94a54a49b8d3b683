"""The universal differential graded algebra Omega^u_*(A) over a
finite-dimensional unital Q-algebra A, in the word model.

A degree-n basis word is a tuple (i0, i1, ..., in) denoting
e_{i0} * d e_{i1} * ... * d e_{in} with i0 in {0..m-1} and each i_j in
{1..m-1} (slot 0 is the unit and d1 = 0, so the d-slots range over the
reduced basis of Abar = A / Q*1).  The degree-n component has dimension
m*(m-1)^n.

The product is computed by the boundary rewriting rule
da*b = d(ab) - a*db (a degree-0 move, no Koszul signs), the differential by
a0 da1...dan -> d(a0bar) da1...dan.  The abelianization quotient by graded
commutators, noncommutative de Rham homology, extension of algebra homs to
DGA maps, and exactness certificates live here as well.  Every algebra
projects onto the quotient through one commutator echelon per degree
(`abelianization`), whose reductions give canonical residuals, kept per
word.  The descended differential dbar into each degree is built once per
algebra (`dbar`) in those residuals; exactness solves and homology read
that copy.  Homology lives in weight 0 (the Cartan homotopy; see
`de_rham_homology`).  On M_k, whose k `make_matrix_algebra` records as
`Algebra.matrix_size`, in a degree n >= 1 it first reads dim H_n off the
ranks of dbar taken directly on the weight-0 necklaces, through the E11
lift of each (`_lift`, with one closed-form dz table, `_dz`): where H_n =
0, no word of any degree is touched.  On an algebra whose constructor
records a torus grading (`Algebra.weights`), a degree with no weight-0
word has H_n = 0, found by index arithmetic (`_weighted_codes`) with
nothing built.  Otherwise the representatives are read off `dbar` in
quotient words.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import gcd

from .algebra import AlgElement, Algebra, AlgebraHom
from .exactmath import (Echelon, Poly, Q0, Q1, Terms, TrackedEchelon,
                        accumulate, rat)


class DegreeCapError(ValueError):
    pass


class FormError(ValueError):
    pass


def word_degree(word) -> int:
    return len(word) - 1


def dimension(algebra: Algebra, n: int) -> int:
    """dim Omega^u_n = m*(m-1)^n."""
    if n < 0:
        raise FormError("negative degree")
    return algebra.dim * (algebra.dim - 1) ** n


def enumerate_words(algebra: Algebra, n: int) -> list:
    """All degree-n basis words in lexicographic order."""
    m = algebra.dim
    return [
        (i0,) + rest
        for i0 in range(m)
        for rest in itertools.product(range(1, m), repeat=n)
    ]


# ---------------------------------------------------------------------------
# Word-level products (memoized per algebra)
# ---------------------------------------------------------------------------
#
# Words are handled in index coordinates: with B = m - 1, the degree-n word
# w = (w0, w1, ..., wn) sits at position
#     idx(w) = w0 * B**n + sum_k (w_k - 1) * B**(n - k)
# of `enumerate_words`, so idx(head + (k,)) = idx(head) * B + (k - 1) and
# left multiplication by e_i only relabels the top digit w0.  Each degree
# has one word <-> index map and one right-multiplication column per basis
# element e_j, j >= 1 (`_degree`), whose entries are built on first read,
# each from one entry one degree down (`_RightColumn`).  `word_product`
# decodes an entry once per pair of words and keeps the result; every
# product of forms reads it.

class _RightColumn(dict):
    """right[j] of one degree n, j >= 1: idx(w) -> the (idx(w'), c) pairs
    of w * e_j, each entry built on its first read (`__missing__`) and
    kept; `get` and `in` see only the entries built so far.

    Degree 0 reads `sparse_mul`.  Above it, w = head + (i,) and the bimodule
    rule head de_i * e_j = head d(e_i e_j) - (head e_i) de_j reads one entry
    of the column of e_i one degree down (`prev`, that degree's list of
    columns), at idx(head); only degree-0 elements ever cross a d."""

    __slots__ = ("b", "j", "sparse", "prev")

    def __init__(self, alg: Algebra, j: int, prev):
        super().__init__()
        self.b, self.j, self.sparse, self.prev = (alg.dim - 1, j,
                                                  alg.sparse_mul, prev)

    def __missing__(self, idx):
        j, sparse, prev = self.j, self.sparse, self.prev
        if prev is None:
            entry = sparse[idx][j]
        else:
            b = self.b
            h, i = divmod(idx, b)
            out = {h * b + t - 1: c for t, c in sparse[i + 1][j] if t}
            accumulate(((g * b + j - 1, -c) for g, c in prev[i + 1][h]), out)
            entry = tuple(out.items())
        self[idx] = entry
        return entry


def _degree(alg: Algebra, n: int):
    """(words, index, right) of degree n, made once per algebra with every
    lower degree and kept in `Algebra._right`: `words` is
    `enumerate_words(alg, n)`, `index` its inverse w -> idx(w), and
    right[j] the `_RightColumn` of e_j for j >= 1 (right[0] is None; e_0 is
    the unit), whose entries are built only as they are read."""
    cache = alg._right
    while len(cache) <= n:
        deg = len(cache)
        prev = cache[-1][2] if deg else None
        words = enumerate_words(alg, deg)
        cache.append((words, {w: i for i, w in enumerate(words)},
                      [None] + [_RightColumn(alg, j, prev)
                                for j in range(1, alg.dim)]))
    return cache[n]


def random_form(alg: Algebra, rng, degrees, count, bound: int) -> UForm:
    """The sum of `count` seeded terms c*w per degree of `degrees`, with w a
    word of that degree and c an integer in [-bound, bound], drawn by the
    random.Random `rng` from the degree's kept word list (`_degree`).
    `degrees` is read lazily and `count` may be a (lo, hi) range, drawn for
    each degree that has words; so the draws come in the order degree,
    count, then word and coefficient per term."""
    pairs = []
    for n in degrees:
        if n < 0:
            raise FormError("negative degree")
        words = _degree(alg, n)[0]
        if not words:
            continue
        draws = count if isinstance(count, int) else rng.randint(*count)
        for _ in range(draws):
            pairs.append((words[rng.randrange(len(words))],
                          rng.randint(-bound, bound)))
    return UForm(alg, pairs)


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------

def _scalar(c):
    """A form scalar as stored: a Poly as it is, a rational as `rat` gives."""
    if isinstance(c, Poly):
        return c
    try:
        return rat(c)
    except TypeError as exc:
        raise FormError(str(exc)) from None


class FormTerms(Terms):
    """Terms with form scalars (see `_scalar`), refusing a mismatched
    operand with FormError: the base of forms, abelianization classes and
    cylinder forms."""

    __slots__ = ()
    RingError = FormError
    _scalar = staticmethod(_scalar)

    def d(self):
        """The one d of word and cylinder forms: the sum of the type's key
        rule `_key_d` over the terms (an AbClass has none; see `ab_d`)."""
        return self._like(accumulate(
            x for key, c in self.terms.items() for x in self._key_d(key, c)))


class _WordTerms(FormTerms):
    """Terms keyed by basis words, which have a degree."""

    __slots__ = ()

    def degrees(self):
        return sorted({word_degree(w) for w in self.terms})

    def component(self, n: int):
        return self._like({w: c for w, c in self.terms.items()
                           if word_degree(w) == n})


class UForm(_WordTerms):
    """Sparse element of Omega^u_*(A); may mix degrees.

    Scalars are rationals, stored as `rat` gives them, or Poly; both support
    ring arithmetic and are falsy exactly at zero.  The constructor and
    `scale` refuse anything else with FormError, and the constructor an
    empty word or a word index out of range.
    """

    __slots__ = ()

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        if isinstance(terms, dict):
            terms = terms.items()
        self.terms = accumulate((w, _scalar(c)) for w, c in terms or ())
        m = algebra.dim
        for w in self.terms:
            if not w:
                raise FormError("empty word")
            if not (0 <= w[0] < m) or any(not (1 <= i < m) for i in w[1:]):
                raise FormError("word index out of range: %r" % (w,))

    # constructors ---------------------------------------------------------
    @staticmethod
    def zero(algebra: Algebra) -> "UForm":
        return UForm(algebra)

    @staticmethod
    def unit(algebra: Algebra) -> "UForm":
        return UForm(algebra, {(0,): Q1})

    @staticmethod
    def word(algebra: Algebra, w, coeff=Q1) -> "UForm":
        return UForm(algebra, {tuple(w): coeff})

    @staticmethod
    def from_element(a: AlgElement) -> "UForm":
        return UForm(a.algebra, {(i,): c for i, c in a.terms.items()})

    # structure ------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, UForm):
            return multiply(self, other)
        return self.scale(other)

    @staticmethod
    def _key_d(word, c):
        """The (word, scalar) pairs of d(c word): a0 da1...dan ->
        d(a0bar) da1...dan, so the unit component of a0 dies.  Distinct
        words have distinct images (0,) + word."""
        return (((0,) + word, c),) if word[0] else ()

    @staticmethod
    def _key_product(alg):
        """The product rule of words for `connections.Mat` over `alg`:
        `word_product`."""
        return partial(word_product, alg)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.names
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            body = names[w[0]] + "".join(" d" + names[i] for i in w[1:])
            parts.append("(%s)*%s" % (c, body))
        return " + ".join(parts)


def word_product(alg: Algebra, w1, w2):
    """The product of two basis words as a tuple of (word, rational)
    pairs: w1 * e_{w2[0]}, followed by the d-slots of w2.  Memoized per
    algebra in `_wordmul`, so a repeated request returns the same tuple;
    DegreeCapError past the cap.  The one key product over Omega(A):
    `multiply` and `connections.Mat` read it."""
    hit = alg._wordmul.get((w1, w2))
    if hit is not None:
        return hit
    if len(w1) + len(w2) - 2 > alg.degree_cap:
        raise DegreeCapError("product degree %d exceeds cap %d"
                             % (len(w1) + len(w2) - 2, alg.degree_cap))
    j, tail = w2[0], w2[1:]
    if j:
        words, index, right = _degree(alg, len(w1) - 1)
        out = tuple((words[i] + tail, c) for i, c in right[j][index[w1]])
    else:
        out = ((w1 + tail, Q1),)
    alg._wordmul[w1, w2] = out
    return out


def multiply(u: UForm, v: UForm) -> UForm:
    """Associative graded product by boundary rewriting."""
    alg = u.algebra
    if alg != v.algebra:
        raise FormError("form algebra mismatch")
    return u._like(accumulate(
        (w, c1 * c2 * c) for w1, c1 in u.terms.items()
        for w2, c2 in v.terms.items() for w, c in word_product(alg, w1, w2)))


# ---------------------------------------------------------------------------
# Abelianization
# ---------------------------------------------------------------------------

class AbProjection:
    """Projection of Omega^u_n onto Omega^u_n(A)_ab.

    The quotient words are the non-pivot words of the echelonized
    graded-commutator span at degree n (`_commutator_projection`), in the
    degree's word indices (`words`, the list idx -> word, and `index` its
    inverse); `reduce_terms` gives the canonical residual of a dict word ->
    scalar, supported on them.

    `reduce_terms` sums c * residual(w) over the terms, with the residual of
    each word, the echelon's reduction of its index, kept in `_residuals`
    (each quotient word maps to itself).  This is sound because the
    canonical residual is linear: it is the unique vector on the quotient
    words congruent to its input modulo the row span, so the residual of a
    sum is the sum of the residuals.  And a projection's echelon is never
    changed after `abelianization` returns it, so a kept residual stays
    canonical.
    """

    __slots__ = ("algebra", "degree", "words", "index", "echelon",
                 "quotient_words", "_residuals")

    def __init__(self, algebra, degree, words, index, echelon):
        self.algebra = algebra
        self.degree = degree
        self.words = words
        self.index = index
        self.echelon = echelon
        self.quotient_words = [w for i, w in enumerate(words)
                               if i not in echelon.pivots]
        self._residuals = {q: {q: Q1} for q in self.quotient_words}

    def coords(self, terms: dict) -> dict:
        """The canonical residual of a degree-n dict word -> scalar by word
        index: the coordinates in which the solver of `dbar` reads it."""
        index = self.index
        return {index[q]: c for q, c in self.reduce_terms(terms).items()}

    def reduce_terms(self, terms: dict) -> dict:
        """Canonical residual of a degree-n coefficient dict word -> scalar,
        its rationals stored as `rat` gives them, keys sorted."""
        residuals, words, out = self._residuals, self.words, {}
        for w, c in terms.items():
            res = residuals.get(w)
            if res is None:
                res = residuals[w] = {words[i]: r for i, r in self.echelon
                                      .reduce({self.index[w]: Q1}).items()}
            for q, r in res.items():
                out[q] = out[q] + c * r if q in out else c * r
        return {q: rat(v) if type(v) is Fraction else v
                for q, v in sorted(out.items()) if v}


def _check_degree(algebra: Algebra, n: int):
    """FormError for a negative degree, DegreeCapError past the cap."""
    if n < 0:
        raise FormError("negative degree")
    if n > algebra.degree_cap:
        raise DegreeCapError("degree %d exceeds cap %d"
                             % (n, algebra.degree_cap))


def abelianization(algebra: Algebra, n: int) -> AbProjection:
    """Quotient projection of degree n by graded commutators, read off the
    commutator echelon (`_commutator_projection`) and memoized in
    `Algebra._ab`."""
    _check_degree(algebra, n)
    hit = algebra._ab.get(n)
    if hit is None:
        hit = algebra._ab[n] = _commutator_projection(algebra, n)
    return hit


def dbar(algebra: Algebra, n: int):
    """dbar: Omega_ab,n-1 -> Omega_ab,n as a pair (solver, kernel), built
    once per algebra and kept in `Algebra._dbar`; DegreeCapError past the
    cap.

    `solver` is a TrackedEchelon whose columns are d of the degree n-1
    quotient words q of the commutator echelon, tagged by the word, in the
    coordinates of degree n: the echelon's canonical residual of the word
    (0,) + q by word index (as `AbProjection.coords` gives it).  d(q) is
    zero when q0 = 0.  `kernel` lists the dependencies met while adding the
    columns, as dicts quotient word -> scalar; they are a basis of
    ker(dbar: Omega_ab,n-1 -> Omega_ab,n).
    """
    _check_degree(algebra, n)
    hit = algebra._dbar.get(n)
    if hit is not None:
        return hit
    echelon = abelianization(algebra, n).echelon
    solver, kernel = TrackedEchelon(dimension(algebra, n)), []
    if n:
        prev = abelianization(algebra, n - 1)
        low = (algebra.dim - 1) ** (n - 1)
        for q in prev.quotient_words:
            # idx((0,) + q) = idx(q) - B**(n-1) for q0 > 0
            dep = solver.add(echelon.reduce({prev.index[q] - low: Q1})
                             if q[0] else {}, q)
            if dep is not None:
                kernel.append({q: Q1, **{p: -c for p, c in dep.items()}})
    hit = algebra._dbar[n] = (solver, kernel)
    return hit


def _weighted_codes(start: dict, digits, n: int) -> list:
    """The codes of total weight 0 that extend those of `start` (a dict
    code -> weight) by n digits in base len(digits), digit i of weight
    digits[i], in increasing order: a code c of `start` followed by
    d_1...d_n is c B^n + sum d_k B^(n-k).  Grown a digit at a time, keeping
    only the prefixes whose weight the digits left can still bring to 0."""
    lo, hi = min(digits, default=0), max(digits, default=0)
    level = start
    for left in range(n - 1, -1, -1):
        level = {code * len(digits) + d: v for code, s in level.items()
                 for d, w in enumerate(digits)
                 if -left * hi <= (v := s + w) <= -left * lo}
    return [code for code, s in level.items() if not s]


def _commutator_projection(algebra: Algebra, n: int) -> AbProjection:
    """The projection of degree n read off the echelonized commutators.

    Rather than every word-pair commutator, the echelon is fed a spanning
    set of [Omega, Omega]_n = [A, Omega_n] + d([Omega, Omega]_{n-1}).  The
    right side lies in the left, as d[x, y] = [dx, y] + (-1)^|x| [x, dy].
    Conversely, [xy, z] = [x, yz] + (-1)^{|x|(|y|+|z|)} [y, zx] reduces
    every commutator to commutators [g, w] with a generator g = a or da,
    and [da, w] = d[a, w] - [a, dw].  For a, b in A the same identity reads
    [ab, w] = [a, bw] + [b, wa], so [A, Omega_n] is spanned by the [e_g, w]
    with g in a generating set of A (`_generating_set`) and w a degree-n
    word.  The echelon is fed d of the pivot rows at degree n - 1, then the
    commutators of each word with the generators.  Pivots and residuals
    depend only on the row space, so the projection equals that of the
    all-pairs span.

    The vectors are built in index coordinates (see `_degree`): e_g * w
    relabels the top digit of idx(w), w * e_g is an entry of the degree's
    right column of e_g, built as it is read, and d shifts the indices of
    a degree n - 1 row by B**(n-1).

    Feeding stops once the rank reaches dim Omega_n - `_certified_dim(A, n)`,
    0 where no certificate applies; then the row space is all of [Omega,
    Omega]_n.  A certified span that runs out below that rank raises
    RuntimeError: the certificate or the spanning set is wrong.  Pivots are
    least indices, so with a certificate the words go from the last down,
    which reaches the rank with fewer rows (dense copies of M2); without
    one every row is fed, and the words go in increasing order, which
    keeps the stored rows sparser (x3 at degree 5: 191 entries against 236
    from the last word down), so later reductions cost less.
    """
    words, index, right = _degree(algebra, n)
    b = algebra.dim - 1
    top = b ** n
    sparse, gens = algebra.sparse_mul, _generating_set(algebra)
    certified = _certified_dim(algebra, n)
    target = len(words) - (certified or 0)
    order = range(len(words))
    if certified is not None:
        order = reversed(order)

    def spanning_vectors():
        # in index coordinates; idx((0,) + w) = idx(w) - B**(n-1) for w0 > 0
        if n > 0:
            low = b ** (n - 1)
            for row in abelianization(algebra, n - 1).echelon.pivots.values():
                yield {j - low: c for j, c in row.items() if j >= low}
        for idx in order:
            w0, rest = divmod(idx, top)
            for g in gens:
                vec = {k * top + rest: c for k, c in sparse[g][w0]}
                for k, c in right[g][idx]:
                    vec[k] = vec.get(k, Q0) - c
                yield vec

    ech = Echelon()
    for vec in spanning_vectors():
        ech.add(vec)
        if ech.rank == target:
            break
    if certified is not None and ech.rank != target:
        raise RuntimeError(
            "commutator span of degree %d has rank %d, but the certified "
            "quotient dimension %d needs rank %d"
            % (n, ech.rank, certified, target))
    return AbProjection(algebra, n, words, index, ech)


def _generating_set(algebra: Algebra) -> tuple:
    """The basis indices of a generating set of A, found once per algebra
    and kept as `Algebra._generators`: the indices i >= 1 in order, each
    kept when e_i lies outside the subalgebra the kept ones generate.  That
    subalgebra is one Echelon, the span of the words in the kept
    generators, closed under left multiplication by each, and is built only
    while an index is left to test; so for m <= 2 the set is every index i
    >= 1, found with no Echelon work."""
    gens = algebra._generators
    if gens is None:
        m, sparse = algebra.dim, algebra.sparse_mul
        gens, span = [], Echelon()
        for i in range(1, m):
            if span.rank and not span.reduce({i: Q1}):
                continue
            gens.append(i)
            if i == m - 1:
                break
            span, todo = Echelon(), [{0: Q1}]
            while todo and span.rank < m:
                vec = todo.pop()
                if span.add(vec):
                    todo += [accumulate((k, c * s) for j, c in vec.items()
                                        for k, s in sparse[g][j])
                             for g in gens]
        gens = algebra._generators = tuple(gens)
    return gens


# ---------------------------------------------------------------------------
# The E11 lift: dbar of M_k on necklaces
# ---------------------------------------------------------------------------
#
# For A = M_k(Q) with matrix units E_pq, the L = k^2 - 1 one-forms z_pq =
# c_pq (p != q) and z_pp = c_pp - c_kk (p < k), where c_ij = sum_a E_ai
# dE_ja, commute with A, and with Z their span Omega^1 = A (x) Z (Cuntz and
# Quillen, J. AMS 8, 1995).  Matrix unit E_pq has the number u = p k + q,
# its slot less one and the number of letter z_pq (E_kk has neither).  With
# da = sum_z phi_z(a) z, a word is
#     a0 da1...dan = sum a0 phi_z1(a1)...phi_zn(an) z1...zn,
# and the matrix trace identifies Omega_n / [A, Omega_n] with Z^(x)n (the
# generalized trace; Loday, Cyclic Homology, 1.2).  The Karoubi operator
# acts there as eps = (-1)^(n-1) times the rotation that moves the last
# letter to the front, so Omega_ab,n is Z^(x)n modulo 1 - eps rotation: a
# basis is the necklaces of n letters whose rotation stabilizer carries no
# sign -1, and the quotient map is pi(a0 da1...dan) = sum tr(a0
# phi_z1(a1)...phi_zn(an)) [z1...zn], summed into necklaces with their
# signs.  A letter tuple is coded by its base-L digits, the first letter
# most significant, and a necklace by the least code of its rotations.

def _phi(k: int) -> tuple:
    """dE_pq = sum_{i!=p} E_iq z_ip - sum_{j!=q} E_pj z_qj + E_pq (z_pp -
    z_qq), with z_kk = 0, for every matrix unit at u = p k + q: its terms c
    E_ij z as {row i: [(letter z, j, c), ...]}.  E_kk is no special case:
    its form uses only the letters z_ik and z_kj.  d1 = 0 has no entry."""
    out = []
    for p in range(k):
        for q in range(k):
            rows = {i: [(i * k + p, q, Q1)] for i in range(k) if i != p}
            rows[p] = [(q * k + j, j, -Q1) for j in range(k) if j != q]
            if p != q:
                rows[p] += [(z, q, c) for z, c in ((p * k + p, Q1),
                                                   (q * k + q, -Q1))
                            if z != k * k - 1]
            out.append(rows)
    return tuple(out)


def _eps(n: int) -> int:
    """eps = (-1)^(n-1), the sign with which the Karoubi operator rotates
    n one-forms (see `_certified_dim`)."""
    return 1 if n % 2 else -1


def _necklace(code: int, n: int, size: int) -> tuple:
    """(necklace, sign) of the class of the degree-n letter tuple `code`
    over `size` letters: the tuple is eps^j times its j-fold rotation, and
    the necklace is the least rotation.  The sign is 0 when a rotation that
    fixes the tuple carries eps^j = -1."""
    top = size ** max(n - 1, 0)
    eps = _eps(n)
    best, sign, x, s = code, 1, code, 1
    for _ in range(n - 1):
        x = x % size * top + x // size
        s *= eps
        if x == code:
            return best, (sign if s > 0 else 0)
        if x < best:
            best, sign = x, s
    return best, sign


# The E11 lift.  A necklace t = z1...zn of the basis `_necklace` keeps
# lifts to E11 z1...zn: the letters commute with A and tr E11 = 1, so its
# pi is t.  Then
#     d(E11 z1...zn) = dE11 z1...zn + sum_i (-1)^(i-1) E11 z1...dz_i...zn,
# and pi of the first term is zero, since every term of dE11 (`_phi`) lies
# off the diagonal.  dz_i = sum M z' z'' with M in A moves past the letters
# before it, so the i-th term contributes tr(E11 M) [z1...z'z''...zn]: the
# rank of dbar out of degree n is that of these rows over necklaces, with
# no word enumerated.

def _dz(alg: Algebra) -> tuple:
    """The dz table of M_k, built on first use and kept in
    `Algebra._necklace` beside the counts and ranks of `_lift`: for each
    letter z, the (code of z'z'', c) pairs of dz = sum M z'z'' with c =
    tr(E11 M) nonzero, the code z' (k^2 - 1) + z'' as in `_necklace`.

    z_pq = c_pq = sum_a E_ap dE_qa, so dc_pq = sum_a dE_ap dE_qa, and z_pp =
    c_pp - c_kk.  With dE_xy = sum_z phi_z(E_xy) z read at x k + y of
    `_phi` (E_kk included), tr(E11 dE_ap dE_qa) at z'z'' sums the (1, j)
    entry of phi_z'(E_ap) times the (j, 1) entry of phi_z''(E_qa) over j."""
    if alg._necklace is None:
        k = alg.matrix_size
        phi = _phi(k)
        size = k * k - 1

        def dc(p, q, sign, out):
            for a in range(k):
                right = phi[q * k + a]
                accumulate(((z1 * size + z2, sign * c1 * c2)
                            for z1, j, c1 in phi[a * k + p].get(0, ())
                            for z2, i, c2 in right.get(j, ()) if i == 0), out)
            return out

        table = []
        for z in range(size):
            p, q = divmod(z, k)
            out = dc(p, q, 1, {})
            table.append(tuple((dc(k - 1, k - 1, -1, out) if p == q
                                else out).items()))
        alg._necklace = (tuple(table), {})
    return alg._necklace[0]


def _lift_rows(alg: Algebra, n: int):
    """(t, dbar of the class t) for each necklace t of weight 0 of n letters
    of M_k, n >= 0, by decreasing code, dbar of t as necklace -> nonzero
    int: the sum over the positions i of (-1)^(i-1) times the `_dz` pairs
    of the i-th letter spliced in its place, reduced into necklaces with
    their signs.  Letter z_pq has the torus weight h_q - h_p = q - p (h =
    (0, 1, ..., k - 1), as in `Algebra.weights`), a letter tuple the sum,
    which rotations keep; the weight-0 codes come from `_weighted_codes`.
    dz_pq = sum M z'z'' has the weight of z_pq, so every code met has weight
    0; their classes are kept for one call."""
    k, size = alg.matrix_size, alg.dim - 1
    dz = _dz(alg) if n else ()
    steps = [(size ** (n - i), size ** (n - 1 - i), -1 if i % 2 else 1)
             for i in range(n)]
    classes = {}
    for t in reversed(_weighted_codes(
            {0: 0}, [u % k - u // k for u in range(size)], n)):
        if _necklace(t, n, size) != (t, 1):
            continue
        row = {}
        for high, low, sign in steps:
            head, rest = divmod(t, high)
            z, tail = divmod(rest, low)
            base = head * size * size
            for pair, c in dz[z]:
                code = (base + pair) * low + tail
                hit = classes.get(code)
                if hit is None:
                    hit = classes[code] = _necklace(code, n + 1, size)
                key, s = hit
                if s:
                    row[key] = row.get(key, 0) + sign * s * c
        yield t, {key: v for key, v in row.items() if v}


def _lift(alg: Algebra, n: int) -> tuple:
    """(count_0(n), rank_0(n)) of M_k, n >= 0: the number of weight-0
    necklaces of n letters, dim of the weight-0 part of Omega_ab,n, and the
    rank of dbar out of it, that of the rows of `_lift_rows`; kept per
    degree in `Algebra._necklace`, which `_dz` makes.  Pivots are least
    necklaces, so the rows go in by decreasing code, which keeps the
    echelon's fill-in low."""
    _dz(alg)
    kept = alg._necklace[1]
    if n not in kept:
        ech, count = Echelon(), 0
        for _, row in _lift_rows(alg, n):
            count += 1
            if row:
                ech.add(row)
        kept[n] = (count, ech.rank)
    return kept[n]


def _certified_dim(algebra: Algebra, n: int):
    """dim Omega_ab,n in closed form, or None where it is not certified.

    It is certified for n >= 1 when A is semisimple, that is when the trace
    form Tr(L_{e_i e_j}) is nondegenerate (in characteristic 0 the same as
    separable).  Over the algebraic closure, A (x) Qbar = M_{k_1} x ... x
    M_{k_r}, with r = dim Omega_ab,0 = dim A/[A, A] and m = dim A = sum
    k_i^2, and D = k k^T - I for the block sizes k.  Then, with eps =
    (-1)^(n-1),

        dim Omega_ab,n = (1/n) sum_{k<n} eps^k tr(D^gcd(k, n)).

    Proof sketch.  For n >= 1, [Omega, Omega]_n = b Omega_{n+1} + (1 -
    kappa) Omega_n, with kappa(w da) = (-1)^|w| da w the Karoubi operator
    and b(w da) = (-1)^|w| [w, a] (Cuntz and Quillen, J. AMS 8, 1995).  So
    Omega_ab,n is the quotient of V_n = Omega_n / [A, Omega_n], the cyclic
    tensor power (Omega^1)^{(x)_A n} (x)_{A^e} A, by 1 - kappa, and kappa
    acts on V_n as eps times the rotation of the n factors, with kappa^n =
    1.  In characteristic 0 the coinvariants of a finite cyclic group have
    the dimension of its invariants, (1/n) sum_k tr(kappa^k | V_n).  For A
    separable, 0 -> Omega^1 -> A (x) A -> A -> 0 splits as bimodules, so
    over Qbar the bimodule Omega^1 has the Morita multiplicities d_ij =
    k_i k_j - delta_ij; (x)_A multiplies multiplicity matrices and (x)_{A^e}
    A takes their trace (the generalized trace; Loday, Cyclic Homology,
    1.2), so the k-fold rotation has trace tr(D^gcd(k, n)): the closed
    walks of length n that it fixes repeat a closed walk of length gcd(k,
    n).  D = k k^T - I has the eigenvalue |k|^2 - 1 = m - 1 once, on k,
    and -1 with multiplicity r - 1, on the complement of k; so tr(D^g) =
    (m-1)^g + (r-1)(-1)^g, and no block size is needed.

    Base change.  The words are a basis of Omega_n over Q and of Omega_n(A
    (x) Qbar) over Qbar, and over either field the commutators of words,
    whose coordinates are rational, span [Omega, Omega]_n.  So dim
    Omega_ab,n is the corank of one rational matrix and does not change
    from Q to Qbar, and neither does r, the case n = 0: the certificate
    holds for non-split algebras (Q(i), the quaternions) too.

    Built once per algebra from the degree-0 projection and one m x m rank,
    and kept as `Algebra._ab_spectrum`: the (eigenvalue, multiplicity)
    pairs of D, empty where no certificate applies.
    """
    if n < 1:
        return None
    spectrum = algebra._ab_spectrum
    if spectrum is None:
        spectrum = algebra._ab_spectrum = _ab_spectrum(algebra)
    if not spectrum:
        return None
    return _walk_count(spectrum, n)


def _walk_count(spectrum: tuple, n: int) -> int:
    """(1/n) sum_{k<n} eps^k tr(D^gcd(k, n)) for n >= 1, D given by its
    (eigenvalue, multiplicity) pairs: the signed closed walks of
    `_certified_dim`, and for D = [L] the necklaces of n letters out of L
    that `_necklace` keeps."""
    eps = _eps(n)
    return sum(eps ** k * mult * lam ** gcd(k, n) for k in range(n)
               for lam, mult in spectrum) // n


def _ab_spectrum(algebra: Algebra) -> tuple:
    """The eigenvalues of D with their multiplicities (see `_certified_dim`),
    or () where the certificate does not apply."""
    m, sparse = algebra.dim, algebra.sparse_mul
    # Tr(L_{e_k}) = sum_j (e_k e_j)_j; the form is sum_k (e_i e_j)_k Tr L_k
    tr = [sum(algebra.mul[k][j][j] for j in range(m)) for k in range(m)]
    form = Echelon()
    for i in range(m):
        form.add({j: sum(c * tr[k] for k, c in sparse[i][j])
                  for j in range(m)})
    if form.rank < m:
        return ()
    r = len(abelianization(algebra, 0).quotient_words)
    return ((m - 1, 1), (-1, r - 1))


class AbClass(_WordTerms):
    """A (possibly mixed-degree) element of Omega_ab in canonical quotient
    coordinates: a dict from quotient words to scalars.  The constructor
    checks its dict as UForm does and reduces it as `project_ab` does."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        self.terms = _ab_class(algebra, UForm(algebra, terms).terms).terms

    def lift(self) -> UForm:
        """The canonical representative as a form (sum of quotient words)."""
        return UForm(self.algebra, dict(self.terms))

    def __repr__(self):
        return "AbClass(%r)" % (self.lift(),)


def _ab_class(algebra: Algebra, terms: dict) -> "AbClass":
    """The class of a dict word -> scalar, already checked and stored: its
    canonical residual, reduced degree by degree in increasing order and
    wrapped as `reduce_terms` stores it."""
    by_degree, out = {}, {}
    for w, c in terms.items():
        by_degree.setdefault(word_degree(w), {})[w] = c
    for n in sorted(by_degree):
        out.update(abelianization(algebra, n).reduce_terms(by_degree[n]))
    return AbClass._new(algebra, out)


def project_ab(w: UForm) -> AbClass:
    """Image of a form in the abelianization, canonical coordinates."""
    return _ab_class(w.algebra, w.terms)


def ab_d(c: AbClass) -> AbClass:
    """The differential descended to the abelianization."""
    return project_ab(c.lift().d())


def is_exact_in_ab(w, n: int):
    """Decide project_ab(w) in Im(dbar: Omega_ab,n-1 -> Omega_ab,n).

    Accepts a UForm or AbClass homogeneous of degree n; the solver of
    `dbar` reads its canonical residual (`AbProjection.coords`).
    Returns (True, primitive UForm) or (False, None); the primitive v
    satisfies project_ab(d(v)) = project_ab(w).
    """
    if any(word_degree(ww) != n for ww in w.terms):
        raise FormError("%s is not homogeneous of degree %d"
                        % (type(w).__name__, n))
    solver = dbar(w.algebra, n)[0]
    sol = solver.solve(abelianization(w.algebra, n).coords(w.terms))
    if sol is None:
        return False, None
    return True, UForm(w.algebra, sol)


def de_rham_homology(algebra: Algebra, n: int):
    """Noncommutative de Rham homology H_n of (Omega_ab, dbar).

    Returns (dimension, list of representative UForms): the kernel vectors
    of dbar on degree n that are independent modulo the image of dbar on
    degree n - 1.  Needs n + 1 <= the degree cap (DegreeCapError, "H_n
    needs degree n + 1, which exceeds cap c", the message the CLI prints)
    and n >= 0 (FormError), both refused before anything is built.

    Homology lives in weight 0.  Let D be the diagonal derivation of a
    grading (`Algebra.weights`), D(e_i) = w_i e_i, and iota_D the graded
    derivation of degree -1 with iota_D(a) = 0 and iota_D(da) = D(a).  Then
    d iota_D + iota_D d = L_D, the degree-0 derivation with L_D(a) = D(a)
    and L_D(da) = dD(a): both sides are derivations (a graded commutator of
    odd derivations) and agree on the generators a and da.  All three maps
    send graded commutators to graded commutators, so on Omega_ab
    dbar iota_D + iota_D dbar = L_D, which acts on a word by its weight.
    A closed class c of weight j != 0 is then exact, c = dbar(iota_D c / j),
    and every nonzero weight is acyclic (the Cartan homotopy formula: Cuntz
    and Quillen, J. AMS 8, 1995; Goodwillie, Topology 24, 1985).  dbar keeps
    weights, so H_n is the homology of the weight-0 part of Omega_ab, and a
    degree n with no word of weight 0 has H_n = 0.

    On M_k (`Algebra.matrix_size`, which only this lift reads) with n >=
    1, dim H_n = count_0(n) - rank_0(n) - rank_0(n - 1), the weight-0
    necklaces and the ranks of dbar out of them, is read off the E11 lift
    (`_lift`); where it is zero the answer is (0, []), with no word
    enumerated and no projection or dbar built.  H_0 is never zero: it
    holds the class of 1, which d kills and [A, A] cannot contain (the
    trace of 1 on A is dim A).  On a graded algebra whose degree n has no
    word of weight 0 (`_weighted_codes`; dual and x3 at every n >= 1), the
    answer is (0, []) with nothing built.  Otherwise the representatives
    are the quotient words' kernel vectors of `dbar` over the whole degree,
    read in canonical residuals (`AbProjection.coords`); on M_k their
    number must equal the lift's (RuntimeError).
    """
    if n + 1 > algebra.degree_cap:
        raise DegreeCapError("H_%d needs degree %d, which exceeds cap %d"
                             % (n, n + 1, algebra.degree_cap))
    _check_degree(algebra, n)
    lift = None
    if n and algebra.matrix_size is not None:
        count, rank = _lift(algebra, n)
        lift = count - rank - _lift(algebra, n - 1)[1]
        if not lift:
            return 0, []
    grading = algebra.weights
    if grading is not None and not _weighted_codes(dict(enumerate(grading)),
                                                   grading[1:], n):
        return 0, []
    _, kernel = dbar(algebra, n + 1)
    coords = abelianization(algebra, n).coords
    # a copy, so the memoized solver of dbar never learns the kernel
    image = dbar(algebra, n)[0].copy()
    reps = []
    for vec in kernel:
        if image.add(coords(vec), None) is None:
            reps.append(UForm(algebra, vec))
    if lift is not None and len(reps) != lift:
        raise RuntimeError("H_%d has %d representatives, but the E11 lift "
                           "gives dimension %d" % (n, len(reps), lift))
    return len(reps), reps


# ---------------------------------------------------------------------------
# Extension of algebra homs to DGA maps
# ---------------------------------------------------------------------------

def extend_hom(psi: AlgebraHom):
    """The unique DGA map psi^u with psi^u(a0 da1...dan) =
    psi(a0) d psi(a1) ... d psi(an); returns a function on UForms."""
    src, tgt = psi.source, psi.target
    gens = [UForm.from_element(psi(src.basis(i))) for i in range(src.dim)]
    dgens = [g.d() for g in gens]
    images = {}

    def image(word):
        img = images.get(word)
        if img is None:
            img = gens[word[0]]
            for i in word[1:]:
                img = img * dgens[i]
            images[word] = img
        return img

    def apply_form(u: UForm) -> UForm:
        if u.algebra != src:
            raise FormError("form does not live over the source algebra")
        return UForm(tgt, ((w, c * s) for word, c in u.terms.items()
                           for w, s in image(word).terms.items()))

    return apply_form
