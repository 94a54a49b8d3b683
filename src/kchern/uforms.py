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
DGA maps, and exactness certificates live here as well.  Each degree's
abelianization projection memoizes the descended differential dbar into
it; exactness solves and homology both read that one copy.
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
# has one word <-> index map and one right-multiplication table per
# generator (`_degree`), built from the table one degree down.
# `word_product` decodes an entry of that table once per pair of words and
# keeps the result; every product of forms reads it.

def _degree(alg: Algebra, n: int):
    """(words, index, right) of degree n, built once per algebra with every
    lower degree: `words` is `enumerate_words(alg, n)`, `index` its inverse
    w -> idx(w), and right[j][idx(w)] the (idx(w'), c) pairs of w * e_j for
    j >= 1 (right[0] is None; e_0 is the unit).

    Degree 0 is `sparse_mul`.  Above it, w = head + (i,) and the bimodule
    rule head de_i * e_j = head d(e_i e_j) - (head e_i) de_j reads the table
    one degree down at idx(head); only degree-0 elements ever cross a d.
    """
    cache = alg._right
    m, b, sparse = alg.dim, alg.dim - 1, alg.sparse_mul
    while len(cache) <= n:
        deg = len(cache)
        right = [None]
        if deg == 0:
            right += [[sparse[i][j] for i in range(m)] for j in range(1, m)]
        else:
            prev = cache[deg - 1][2]
            for j in range(1, m):
                # the terms of d(e_i e_j) as (last digit, coefficient)
                dij = [tuple((t - 1, c) for t, c in sparse[i][j] if t)
                       for i in range(m)]
                col = []
                for h in range(m * b ** (deg - 1)):
                    base = h * b
                    for i in range(1, m):
                        out = {base + t: c for t, c in dij[i]}
                        accumulate(((g * b + j - 1, -c)
                                    for g, c in prev[i][h]), out)
                        col.append(tuple(out.items()))
                right.append(col)
        words = enumerate_words(alg, deg)
        cache.append((words, {w: i for i, w in enumerate(words)}, right))
    return cache[n]


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

    def d(self) -> "UForm":
        return differential(self)

    @staticmethod
    def _key_d(word, c):
        """The (word, scalar) pairs of d(c word): a0 da1...dan ->
        d(a0bar) da1...dan, so the unit component of a0 dies.  Distinct
        words have distinct images (0,) + word."""
        return (((0,) + word, c),) if word[0] else ()

    @staticmethod
    def _key_product(alg, left: dict):
        """The product rule of words for `connections.Mat`: `word_product`,
        whatever the left factor's data `left`."""
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


def to_poly(u: UForm, r: int) -> UForm:
    """u with every scalar as a polynomial in r >= 1 parameters (see
    Poly.coerce)."""
    return u.map_scalars(Poly.TYPES[r].coerce)


def differential(w: UForm) -> UForm:
    """d by the key rule `UForm._key_d`; nothing cancels."""
    return w._like(dict(x for word, c in w.terms.items()
                        for x in UForm._key_d(word, c)))


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

    Holds the echelonized graded-commutator span at degree n in the
    degree's word indices; residuals are canonical representatives
    supported on the non-pivot ("quotient") words.  The differential dbar:
    Omega_ab,n-1 -> Omega_ab,n is built on first use of `dbar` and kept
    here.
    """

    __slots__ = ("algebra", "degree", "words", "index", "echelon",
                 "quotient_words", "_dbar")

    def __init__(self, algebra, degree, words, index, echelon):
        self.algebra = algebra
        self.degree = degree
        self.words = words
        self.index = index
        self.echelon = echelon
        self.quotient_words = [w for i, w in enumerate(words)
                               if i not in echelon.pivots]
        self._dbar = None

    def reduce_terms(self, terms: dict) -> dict:
        """Canonical residual of a degree-n coefficient dict word -> scalar,
        its rationals stored as `rat` gives them."""
        if not terms:
            return {}
        if not self.echelon.pivots:
            return dict(terms)
        vec = {self.index[w]: c for w, c in terms.items()}
        res = self.echelon.reduce(vec)
        return {self.words[i]: rat(c) if type(c) is Fraction else c
                for i, c in res.items()}

    def dbar(self):
        """dbar: Omega_ab,n-1 -> Omega_ab,n as a pair (solver, kernel),
        built once.

        `solver` is a TrackedEchelon over the degree-n word indices whose
        columns are the canonical residuals of d of the degree n-1 quotient
        words, tagged by the word.  `kernel` lists the dependencies met
        while adding them, as dicts quotient word -> scalar; they are a
        basis of ker(dbar: Omega_ab,n-1 -> Omega_ab,n).

        d(q) is the word (0,) + q, at index idx(q) - B**(n-1) (as in
        `abelianization`), and zero when q0 = 0, that is idx(q) < B**(n-1).
        """
        if self._dbar is None:
            solver = TrackedEchelon(len(self.words))
            kernel = []
            if self.degree:
                prev = abelianization(self.algebra, self.degree - 1)
                low = (self.algebra.dim - 1) ** (self.degree - 1)
                for i, q in enumerate(prev.words):
                    if i in prev.echelon.pivots:
                        continue
                    col = (self.echelon.reduce({i - low: Q1}) if i >= low
                           else {})
                    dep = solver.add(col, q)
                    if dep is not None:
                        kernel.append({q: Q1,
                                       **{p: -c for p, c in dep.items()}})
            self._dbar = (solver, kernel)
        return self._dbar


def abelianization(algebra: Algebra, n: int) -> AbProjection:
    """Quotient projection of degree n by graded commutators (memoized).

    Rather than every word-pair commutator, the echelon is fed a spanning
    set of [Omega, Omega]_n = [A, Omega_n] + d([Omega, Omega]_{n-1}).  The
    right side lies in the left, as d[x, y] = [dx, y] + (-1)^|x| [x, dy].
    Conversely, [xy, z] = [x, yz] + (-1)^{|x|(|y|+|z|)} [y, zx] reduces
    every commutator to commutators [g, w] with a generator g = a or da,
    and [da, w] = d[a, w] - [a, dw].  The d-part is spanned by d of the
    pivot rows at degree n - 1, the other by the [e_i, w] with i >= 1 (e_0
    is the unit) and w a degree-n word.  Pivots and residuals depend only on
    the row space, so the projection equals that of the all-pairs span.

    The vectors are built in index coordinates (see `_degree`): e_i * w
    relabels the top digit of idx(w), w * e_i is an entry of the degree's
    right table, and d shifts the indices of a degree n - 1 row by B**(n-1).

    Feeding stops once the rank reaches dim Omega_n - `_certified_dim(A, n)`,
    0 where no certificate applies; then the row space is all of [Omega,
    Omega]_n.  A certified span that runs out below that rank raises
    RuntimeError: the certificate or the spanning set is wrong.
    """
    if n < 0:
        raise FormError("negative degree")
    if n > algebra.degree_cap:
        raise DegreeCapError("degree %d exceeds cap %d"
                             % (n, algebra.degree_cap))
    hit = algebra._ab.get(n)
    if hit is not None:
        return hit
    words, index, right = _degree(algebra, n)
    b = algebra.dim - 1
    top = b ** n

    def spanning_vectors():
        # in index coordinates; idx((0,) + w) = idx(w) - B**(n-1) for w0 > 0
        if n > 0:
            low = b ** (n - 1)
            for row in abelianization(algebra, n - 1).echelon.pivots.values():
                yield {j - low: c for j, c in row.items() if j >= low}
        for i in range(1, algebra.dim):
            left = algebra.sparse_mul[i]
            for idx, terms in enumerate(right[i]):
                w0, rest = divmod(idx, top)
                vec = {k * top + rest: c for k, c in left[w0]}
                for k, c in terms:
                    vec[k] = vec.get(k, Q0) - c
                yield vec

    certified = _certified_dim(algebra, n)
    target = len(words) - (certified or 0)
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
    proj = AbProjection(algebra, n, words, index, ech)
    algebra._ab[n] = proj
    return proj


def _certified_dim(algebra: Algebra, n: int):
    """dim Omega_ab,n in closed form, or None where it is not certified.

    It is certified for n >= 1 when A is semisimple, that is when the trace
    form Tr(L_{e_i e_j}) is nondegenerate (in characteristic 0 the same as
    separable), and r = dim Omega_ab,0 = dim A/[A, A] is 1 or m = dim A.
    Over the algebraic closure, A (x) Qbar = M_{k_1} x ... x M_{k_r}; r = 1
    means M_k(Qbar) with D = [m - 1], and r = m means Qbar^m, commutative,
    with D = J - I.  Then, with eps = (-1)^(n-1),

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
    n).  tr(D^g) is (m-1)^g, plus (m-1)(-1)^g when A is commutative.

    Base change.  The words are a basis of Omega_n over Q and of Omega_n(A
    (x) Qbar) over Qbar, and over either field the commutators of words,
    whose coordinates are rational, span [Omega, Omega]_n.  So dim
    Omega_ab,n is the corank of one rational matrix and does not change
    from Q to Qbar: the certificate holds for non-split algebras (Q(i), the
    quaternions) too.

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
    eps = 1 if n % 2 else -1
    return sum(eps ** k * mult * lam ** gcd(k, n) for k in range(n)
               for lam, mult in spectrum) // n


def _ab_spectrum(algebra: Algebra) -> tuple:
    """The eigenvalues of D with their multiplicities (see `_certified_dim`),
    or () where the certificate does not apply."""
    m, sparse = algebra.dim, algebra.sparse_mul
    r = len(abelianization(algebra, 0).quotient_words)
    if r not in (1, m):
        return ()
    # Tr(L_{e_k}) = sum_j (e_k e_j)_j; the form is sum_k (e_i e_j)_k Tr L_k
    tr = [sum(algebra.mul[k][j][j] for j in range(m)) for k in range(m)]
    form = Echelon()
    for i in range(m):
        form.add({j: sum(c * tr[k] for k, c in sparse[i][j])
                  for j in range(m)})
    if form.rank < m:
        return ()
    return ((m - 1, 1),) if r == 1 else ((m - 1, 1), (-1, m - 1))


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
    out = {}
    for n in sorted({word_degree(w) for w in terms}):
        out.update(abelianization(algebra, n).reduce_terms(
            {w: c for w, c in terms.items() if word_degree(w) == n}))
    return AbClass._new(algebra, out)


def project_ab(w: UForm) -> AbClass:
    """Image of a form in the abelianization, canonical coordinates."""
    return _ab_class(w.algebra, w.terms)


def ab_d(c: AbClass) -> AbClass:
    """The differential descended to the abelianization."""
    return project_ab(c.lift().d())


def is_exact_in_ab(w, n: int):
    """Decide project_ab(w) in Im(dbar: Omega_ab,n-1 -> Omega_ab,n).

    Accepts a UForm or AbClass homogeneous of degree n; either is reduced
    by the degree's commutator echelon first.  Returns (True, primitive
    UForm) or (False, None); the primitive v satisfies project_ab(d(v)) =
    project_ab(w).
    """
    if any(word_degree(ww) != n for ww in w.terms):
        raise FormError("%s is not homogeneous of degree %d"
                        % (type(w).__name__, n))
    proj = abelianization(w.algebra, n)
    solver, _ = proj.dbar()
    sol = solver.solve(proj.echelon.reduce(
        {proj.index[ww]: c for ww, c in w.terms.items()}))
    if sol is None:
        return False, None
    return True, UForm(w.algebra, sol)


def de_rham_homology(algebra: Algebra, n: int):
    """Noncommutative de Rham homology H_n of (Omega_ab, dbar).

    Returns (dimension, list of representative UForms): the kernel vectors
    of dbar on degree n that are independent modulo the image of dbar on
    degree n - 1.
    """
    proj = abelianization(algebra, n)
    _, kernel = abelianization(algebra, n + 1).dbar()
    # a copy, so the memoized solver of dbar never learns the kernel
    image = proj.dbar()[0].copy()
    reps = []
    for vec in kernel:
        if image.add({proj.index[q]: c for q, c in vec.items()},
                     None) is None:
            reps.append(UForm(algebra, vec))
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
