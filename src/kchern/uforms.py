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
DGA maps, and exactness certificates live here as well.
"""

from __future__ import annotations

import itertools

from .algebra import AlgElement, Algebra, AlgebraHom
from .exactmath import Echelon, Poly, Q0, Q1, TrackedEchelon


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

def _word_times_elem(alg: Algebra, w, j):
    """The product (basis word w) * e_j as a dict word -> Fraction.

    Uses d e_i * e_j = d(e_i e_j) - e_i * d e_j recursively; the recursion
    strictly shortens w, and only degree-0 elements ever cross a d.
    """
    key = (w, j)
    cache = alg._wordmul
    hit = cache.get(key)
    if hit is not None:
        return hit
    if len(w) == 1:
        row = alg.mul[w[0]][j]
        out = {(k,): c for k, c in enumerate(row) if c}
    else:
        head, i_n = w[:-1], w[-1]
        out = {}
        row = alg.mul[i_n][j]
        for k, c in enumerate(row):
            if c and k >= 1:
                wk = head + (k,)
                v = out.get(wk, Q0) + c
                if v:
                    out[wk] = v
                elif wk in out:
                    del out[wk]
        if j >= 1:
            for w2, c in _word_times_elem(alg, head, i_n).items():
                wk = w2 + (j,)
                v = out.get(wk, Q0) - c
                if v:
                    out[wk] = v
                elif wk in out:
                    del out[wk]
    cache[key] = out
    return out


def _word_mul(alg: Algebra, w1, w2):
    """Product of two basis words as a dict word -> Fraction."""
    key = (w1, w2)
    cache = alg._wordmul
    hit = cache.get(key)
    if hit is not None:
        return hit
    left = _word_times_elem(alg, w1, w2[0])
    tail = w2[1:]
    if tail:
        out = {w + tail: c for w, c in left.items()}
    else:
        out = left
    cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------

class UForm:
    """Sparse element of Omega^u_*(A); may mix degrees.

    Scalars are Fraction or Poly (duck-typed; both support ring arithmetic
    and are falsy exactly at zero).
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        t = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    if w in t:
                        v = t[w] + c
                        if v:
                            t[w] = v
                        else:
                            del t[w]
                    else:
                        t[w] = c
        self.terms = t
        if __debug__:
            m = algebra.dim
            for w in self.terms:
                if not (0 <= w[0] < m) or any(not (1 <= i < m)
                                              for i in w[1:]):
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
        return UForm(a.algebra, {(i,): c for i, c in enumerate(a.vec) if c})

    # structure ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degrees(self):
        return sorted({word_degree(w) for w in self.terms})

    def max_degree(self) -> int:
        return max((word_degree(w) for w in self.terms), default=0)

    def component(self, n: int) -> "UForm":
        return UForm(self.algebra, {w: c for w, c in self.terms.items()
                                    if word_degree(w) == n})

    def map_scalars(self, f) -> "UForm":
        return UForm(self.algebra, {w: f(c) for w, c in self.terms.items()})

    # arithmetic -----------------------------------------------------------
    def _check(self, other):
        if not isinstance(other, UForm) or other.algebra != self.algebra:
            raise FormError("form algebra mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            if w in out:
                v = out[w] + c
                if v:
                    out[w] = v
                else:
                    del out[w]
            else:
                out[w] = c
        r = UForm(self.algebra)
        r.terms = out
        return r

    def __neg__(self):
        r = UForm(self.algebra)
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UForm):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar) -> "UForm":
        if not scalar:
            return UForm(self.algebra)
        r = UForm(self.algebra)
        r.terms = {w: c * scalar for w, c in self.terms.items()}
        return r

    def d(self) -> "UForm":
        return differential(self)

    def __eq__(self, other):
        return (isinstance(other, UForm) and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra,
                     frozenset((w, c) for w, c in self.terms.items())))

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
    """a0 da1...dan -> d(a0bar) da1...dan; the unit component of a0 dies."""
    out = {}
    for word, c in w.terms.items():
        if word[0] == 0:
            continue
        nw = (0,) + word
        if nw in out:
            v = out[nw] + c
            if v:
                out[nw] = v
            else:
                del out[nw]
        else:
            out[nw] = c
    r = UForm(w.algebra)
    r.terms = out
    return r


def multiply(u: UForm, v: UForm) -> UForm:
    """Associative graded product by boundary rewriting."""
    if u.algebra != v.algebra:
        raise FormError("form algebra mismatch")
    alg = u.algebra
    cap = alg.degree_cap
    out = {}
    for w1, c1 in u.terms.items():
        d1 = word_degree(w1)
        for w2, c2 in v.terms.items():
            if d1 + word_degree(w2) > cap:
                raise DegreeCapError(
                    "product degree %d exceeds cap %d"
                    % (d1 + word_degree(w2), cap))
            c12 = c1 * c2
            for w, c in _word_mul(alg, w1, w2).items():
                val = c12 * c
                if w in out:
                    acc = out[w] + val
                    if acc:
                        out[w] = acc
                    else:
                        del out[w]
                else:
                    out[w] = val
    r = UForm(alg)
    r.terms = out
    return r


# ---------------------------------------------------------------------------
# Abelianization
# ---------------------------------------------------------------------------

class AbProjection:
    """Projection of Omega^u_n onto Omega^u_n(A)_ab.

    Holds the echelonized graded-commutator span at degree n; residuals are
    canonical representatives supported on the non-pivot ("quotient") words.
    """

    __slots__ = ("algebra", "degree", "words", "index", "echelon",
                 "quotient_words", "quotient_index")

    def __init__(self, algebra, degree, words, index, echelon):
        self.algebra = algebra
        self.degree = degree
        self.words = words
        self.index = index
        self.echelon = echelon
        self.quotient_words = [w for i, w in enumerate(words)
                               if i not in echelon.pivots]
        self.quotient_index = {w: k for k, w in
                               enumerate(self.quotient_words)}

    def reduce_terms(self, terms: dict) -> dict:
        """Canonical residual of a degree-n coefficient dict word -> scalar."""
        if not terms:
            return {}
        if not self.echelon.pivots:
            return dict(terms)
        vec = {self.index[w]: c for w, c in terms.items()}
        res = self.echelon.reduce(vec)
        return {self.words[i]: c for i, c in res.items()}


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
    """
    if n < 0:
        raise FormError("negative degree")
    if n > algebra.degree_cap:
        raise DegreeCapError("degree %d exceeds cap %d"
                             % (n, algebra.degree_cap))
    hit = algebra._ab.get(n)
    if hit is not None:
        return hit
    words = enumerate_words(algebra, n)
    index = {w: i for i, w in enumerate(words)}

    def spanning_vectors():
        if n > 0:
            prev = abelianization(algebra, n - 1)
            for row in prev.echelon.pivots.values():
                yield {index[(0,) + prev.words[j]]: c
                       for j, c in row.items() if prev.words[j][0]}
        for i in range(1, algebra.dim):
            for w in words:
                vec = {index[ww]: c
                       for ww, c in _word_mul(algebra, (i,), w).items()}
                for ww, c in _word_mul(algebra, w, (i,)).items():
                    vec[index[ww]] = vec.get(index[ww], Q0) - c
                yield vec

    ech = Echelon()
    for vec in spanning_vectors():
        ech.add(vec)
        if ech.rank == len(words):
            break
    proj = AbProjection(algebra, n, words, index, ech)
    algebra._ab[n] = proj
    return proj


class AbClass:
    """A (possibly mixed-degree) element of Omega_ab in canonical quotient
    coordinates: a dict from quotient words to scalars."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degrees(self):
        return sorted({word_degree(w) for w in self.terms})

    def component(self, n: int) -> "AbClass":
        return AbClass(self.algebra, {w: c for w, c in self.terms.items()
                                      if word_degree(w) == n})

    def lift(self) -> UForm:
        """The canonical representative as a form (sum of quotient words)."""
        return UForm(self.algebra, dict(self.terms))

    def __add__(self, other):
        if other == 0:
            return self
        if not isinstance(other, AbClass) or other.algebra != self.algebra:
            raise FormError("class algebra mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, 0) + c if w in out else c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
        return AbClass(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return AbClass(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "AbClass":
        if not scalar:
            return AbClass(self.algebra)
        return AbClass(self.algebra,
                       {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = scale

    def map_scalars(self, f) -> "AbClass":
        return AbClass(self.algebra,
                       {w: f(c) for w, c in self.terms.items()})

    def __eq__(self, other):
        if other == 0:
            return not self.terms
        return (isinstance(other, AbClass) and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra,
                     frozenset((w, c) for w, c in self.terms.items())))

    def __repr__(self):
        return "AbClass(%r)" % (self.lift(),)


def project_ab(w: UForm) -> AbClass:
    """Image of a form in the abelianization, canonical coordinates."""
    alg = w.algebra
    out = {}
    for n in w.degrees():
        proj = abelianization(alg, n)
        comp = {ww: c for ww, c in w.terms.items() if word_degree(ww) == n}
        out.update(proj.reduce_terms(comp))
    return AbClass(alg, out)


def ab_d(c: AbClass) -> AbClass:
    """The differential descended to the abelianization."""
    return project_ab(c.lift().d())


def is_exact_in_ab(w, n: int):
    """Decide project_ab(w) in Im(dbar: Omega_ab,n-1 -> Omega_ab,n).

    Accepts a UForm or AbClass homogeneous of degree n.  Returns
    (True, primitive UForm) or (False, None); the primitive v satisfies
    project_ab(d(v)) = project_ab(w).
    """
    if isinstance(w, AbClass):
        target = w.component(n)
        alg = w.algebra
        if set(w.terms) - set(target.terms):
            raise FormError("class is not homogeneous of degree %d" % n)
    else:
        alg = w.algebra
        if any(word_degree(ww) != n for ww in w.terms):
            raise FormError("form is not homogeneous of degree %d" % n)
        target = project_ab(w)
    if n == 0:
        if target.is_zero():
            return True, UForm.zero(alg)
        return False, None
    solver = alg._exact.get(n)
    proj_n = abelianization(alg, n)
    if solver is None:
        proj_prev = abelianization(alg, n - 1)
        solver = TrackedEchelon(len(proj_n.quotient_words))
        for q in proj_prev.quotient_words:
            dv = project_ab(UForm.word(alg, q).d())
            col = {proj_n.quotient_index[ww]: c
                   for ww, c in dv.terms.items()}
            solver.add(col, q)
        alg._exact[n] = solver
    vec = {proj_n.quotient_index[ww]: c for ww, c in target.terms.items()}
    sol = solver.solve(vec)
    if sol is None:
        return False, None
    return True, UForm(alg, {q: c for q, c in sol.items()})


def de_rham_homology(algebra: Algebra, n: int):
    """Noncommutative de Rham homology H_n of (Omega_ab, dbar).

    Returns (dimension, list of representative UForms).
    """
    proj_n = abelianization(algebra, n)
    proj_up = abelianization(algebra, n + 1)
    qn = proj_n.quotient_words
    # kernel of dbar_n
    ech_d = TrackedEchelon(len(proj_up.quotient_words))
    kernel = []
    for k, q in enumerate(qn):
        dv = project_ab(UForm.word(algebra, q).d())
        col = {proj_up.quotient_index[w]: c for w, c in dv.terms.items()}
        dep = ech_d.add(col, k)
        if dep is not None:
            kernel.append({k: Q1, **{j: -v for j, v in dep.items()}})
    # image of dbar_{n-1}
    ech = Echelon()
    if n > 0:
        proj_prev = abelianization(algebra, n - 1)
        for q in proj_prev.quotient_words:
            dv = project_ab(UForm.word(algebra, q).d())
            ech.add({proj_n.quotient_index[w]: c
                     for w, c in dv.terms.items()})
    reps = []
    for vec in kernel:
        if ech.add(vec):
            reps.append(UForm(algebra, {qn[i]: c for i, c in vec.items()}))
    return len(reps), reps


# ---------------------------------------------------------------------------
# Extension of algebra homs to DGA maps
# ---------------------------------------------------------------------------

def extend_hom(psi: AlgebraHom):
    """The unique DGA map psi^u with psi^u(a0 da1...dan) =
    psi(a0) d psi(a1) ... d psi(an); returns a function on UForms."""
    src, tgt = psi.source, psi.target

    def apply_word(word):
        cols = []
        a0col = [(l, psi.matrix[l][word[0]]) for l in range(tgt.dim)
                 if psi.matrix[l][word[0]]]
        for ij in word[1:]:
            col = [(k, psi.matrix[k][ij]) for k in range(1, tgt.dim)
                   if psi.matrix[k][ij]]
            cols.append(col)
        out = {}
        for l, c0 in a0col:
            for choice in itertools.product(*cols):
                coeff = c0
                for _, ck in choice:
                    coeff = coeff * ck
                w = (l,) + tuple(k for k, _ in choice)
                v = out.get(w, Q0) + coeff
                if v:
                    out[w] = v
                elif w in out:
                    del out[w]
        return out

    cache = {}

    def apply_form(u: UForm) -> UForm:
        if u.algebra != src:
            raise FormError("form does not live over the source algebra")
        acc = {}
        for word, c in u.terms.items():
            img = cache.get(word)
            if img is None:
                img = apply_word(word)
                cache[word] = img
            for w, s in img.items():
                v = acc.get(w, 0) + c * s if w in acc else c * s
                if v:
                    acc[w] = v
                elif w in acc:
                    del acc[w]
        r = UForm(tgt)
        r.terms = acc
        return r

    return apply_form
