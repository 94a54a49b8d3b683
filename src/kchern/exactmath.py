"""Exact arithmetic over Q: rationals, sparse linear combinations
(`accumulate`, and `Terms`, the one term type of algebra elements, forms
and cylinder forms), polynomials in the parameters of a family, and sparse
exact echelon forms (canonical residuals and tracked solves).

Rationals are stored as `rat` gives them: an ``int`` when the denominator
is 1, else a reduced ``fractions.Fraction``, so integral arithmetic stays on
the fast ``int`` path.  Equal values of the two types compare and hash equal
and serialize alike, as "num/den" strings with the denominator omitted when
it is 1.  Only this module divides, because int / int gives a float.

Echelon rows are stored as primitive integer rows (``int`` entries, gcd 1,
positive pivot entry) and eliminated without Fractions; a residual is
divided back into Q once, at the end of its reduction.
"""

from __future__ import annotations

import heapq
import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, prod
from operator import add

Q0 = 0
Q1 = 1


def rat(x):
    """The stored form of the rational x (an int or a Fraction): an int
    when its denominator is 1, else the Fraction.  Anything else, floats
    and bools included, raises TypeError.  Arithmetic can still produce an
    integral Fraction (1/2 + 1/2); where it is stored, rat makes it an int."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    raise TypeError("not an exact rational: %r" % (x,))


def rat_to_str(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def rat_from_str(s: str):
    """Parse a "num/den" (or integer) string into its stored form.  A
    string `int` reads is an integer, with the value `Fraction` gives it;
    `Fraction` parses every other string.  A decimal exponent whose value
    would need more digits than `int` reads in one literal
    (`sys.get_int_max_str_digits()`, where 0 means no limit) is refused
    with ValueError before any power of 10 is computed: the significant
    digits of the mantissa (at least one) plus |exponent|."""
    if not isinstance(s, str):
        raise TypeError("rationals are \"num/den\" strings, not %r" % (s,))
    try:
        return int(s)
    except ValueError:
        pass
    head, e, exp = s.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if e and limit:
        digits = "".join(c for c in head if c.isdigit()).lstrip("0")
        if max(len(digits), 1) + abs(int(exp)) > limit:
            raise ValueError("%r needs more than %d digits"
                             % (s[:40], limit))
    try:
        return rat(Fraction(s))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,))


# ---------------------------------------------------------------------------
# Sparse linear combinations
# ---------------------------------------------------------------------------

def accumulate(pairs, out=None) -> dict:
    """Add each (key, value) of `pairs` into the dict `out` (a fresh one by
    default) and return it; a key whose sum is zero is dropped, a zero
    first value included, and an integral Fraction is stored by `rat`."""
    if out is None:
        out = {}
    # a new key is stored as it is: 0 + v would be a slow Fraction sum
    for k, v in pairs:
        if k in out:
            v = out[k] + v
            if not v:
                del out[k]
        if v:
            out[k] = rat(v) if type(v) is Fraction else v
    return out


def checked(x, other):
    """`other`; x.RingError unless it has the type and algebra of `x`."""
    if type(other) is not type(x) or other.algebra != x.algebra:
        raise x.RingError("operand type or algebra mismatch")
    return other


class Terms:
    """Sparse map from keys to nonzero scalars over an algebra: the linear
    arithmetic of every ring `connections.Mat` takes entries from, and of
    abelianization classes.  The keys are basis indices for algebra
    elements, basis words for forms and (dx mask, word) for cylinder forms.

    A subclass sets two class constants: `RingError`, raised when values of
    different types or over different algebras meet, and `_scalar`, which
    gives a scalar its stored form (`rat` for rationals, so an integral
    result is an int) or raises.  A matrix ring adds `_key_product(alg)`,
    the product rule of its keys over the algebra `alg`, and a ring of
    forms `_key_d(key, c)`, the key rule of d.
    """

    __slots__ = ("algebra", "terms")

    @classmethod
    def _new(cls, algebra, terms: dict):
        """A value of this type over `algebra` wrapping `terms` (a dict of
        nonzero stored scalars), without copying or checking it."""
        r = object.__new__(cls)
        r.algebra = algebra
        r.terms = terms
        return r

    def _like(self, terms: dict):
        """`_new` over this value's algebra."""
        return self._new(self.algebra, terms)

    @classmethod
    def from_terms(cls, algebra, pairs):
        """A value of this type over `algebra` from (key, scalar) pairs with
        distinct keys: scalars stored as `_scalar` gives them, zeros
        dropped, keys not checked."""
        return cls._new(algebra, {k: v for k, c in pairs
                                  if (v := cls._scalar(c))})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def map_scalars(self, f):
        return self.from_terms(self.algebra,
                               ((k, f(c)) for k, c in self.terms.items()))

    def scale(self, scalar):
        scalar = self._scalar(scalar)
        return self.map_scalars(lambda c: c * scalar)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __add__(self, other):
        checked(self, other)
        return self._like(accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (type(other) is type(self) and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra,
                     frozenset((k, c) for k, c in self.terms.items())))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class _ExponentSums(dict):
    """(e1, e2) -> e1 + e2, the exponent of the product of two monomials,
    computed on first use: a lookup is cheaper than the tuple sum."""

    __slots__ = ()

    def __missing__(self, key):
        e = self[key] = tuple(map(add, *key))
        return e


_EXPONENT_SUMS = _ExponentSums()


def coeff_product(a: dict, b: dict) -> dict:
    """The coefficient dict of the product of two polynomials given as
    coefficient dicts; its values are not yet stored by `rat`, and a zero
    may remain where terms cancel."""
    # inline: via accumulate, transgression p50 went 1.28 -> 1.40 ms
    sums = _EXPONENT_SUMS
    out = {}
    get = out.get
    for e1, x in a.items():
        for e2, y in b.items():
            e = sums[e1, e2]
            v = get(e)
            out[e] = x * y if v is None else v + x * y
    return out


_INTEGRAL_WEIGHTS = {}  # bounds -> (den, rows) of integral_weights


def integral_weights(bounds: tuple):
    """(den, rows) for exponent tuples e1, e2 with e1 + e2 <= bounds in
    each variable: rows[e1][e2] = den // prod_i (e1_i + e2_i + 1), the
    integral of the monomial x^(e1 + e2) over [0, 1]^R (Fubini) as an
    integer weight over the common denominator den = prod_i lcm(1, ...,
    bounds_i + 1).  Kept per bounds."""
    table = _INTEGRAL_WEIGHTS.get(bounds)
    if table is None:
        den = prod(lcm(*range(1, b + 2)) for b in bounds)
        table = _INTEGRAL_WEIGHTS[bounds] = den, {
            e1: {e2: den // prod(x + y + 1 for x, y in zip(e1, e2))
                 for e2 in product(*(range(b - x + 1)
                                     for b, x in zip(bounds, e1)))}
            for e1 in product(*(range(b + 1) for b in bounds))}
    return table


def coeff_integral(a: dict, b: dict, rows: dict):
    """den times the integral over [0, 1]^R of the product of two
    polynomials given as coefficient dicts, for the weight rows and den of
    `integral_weights`: sum a_e1 b_e2 W(e1 + e2), with no product built.
    An int when both have int coefficients."""
    total = 0
    for e1, x in a.items():
        row = rows[e1]
        s = 0
        for e2, y in b.items():
            s += y * row[e2]
        total += x * s
    return total


class Poly:
    """Polynomial over Q in NVARS commuting variables (the parameters of a
    family), as a sparse map exponent tuple -> nonzero rational (see `rat`).

    Values are immutable.  Arithmetic accepts int, Fraction and polynomials
    of the same type only, so mixing arities raises TypeError; `lift` moves
    a polynomial to more variables.  Every result stores its coefficients
    as `rat` gives them.  Removing the last variable (`subs`, `integrate01`
    at NVARS = 1) gives a rational.  Matrix products over Poly scalars do
    not call `*` per entry: `connections.Mat._product` multiplies the
    coefficient dicts with `coeff_product` and wraps each sum once.
    """

    __slots__ = ("coeffs",)
    NVARS = 0
    TYPES = {}          # NVARS -> subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        Poly.TYPES[cls.NVARS] = cls

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        self.coeffs = accumulate((e, rat(c)) for e, c in items)

    @classmethod
    def _new(cls, cs: dict) -> "Poly":
        """Wrap a dict of nonzero rationals without copying or coercing."""
        r = object.__new__(cls)
        r.coeffs = cs
        return r

    @classmethod
    def const(cls, q) -> "Poly":
        q = rat(q)
        return cls._new({(0,) * cls.NVARS: q} if q else {})

    @classmethod
    def coerce(cls, x) -> "Poly":
        """A Fraction, int or polynomial in at most NVARS variables as a
        polynomial of this type."""
        if type(x) is cls:
            return x
        if isinstance(x, Poly):
            return x.lift(cls)
        return cls.const(x)

    def _drop(self, cs: dict):
        """Result with one variable fewer, from a dict of nonzero values."""
        if self.NVARS == 1:
            return cs.get((), Q0)
        return Poly.TYPES[self.NVARS - 1]._new(cs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == self.const(other).coeffs
        return NotImplemented

    def __hash__(self):
        # a constant equals its Fraction (see __eq__), so it hashes as one
        zero = (0,) * self.NVARS
        if self.coeffs.keys() <= {zero}:
            return hash(self.coeffs.get(zero, Q0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = self.const(other)
        return self._new(accumulate(other.coeffs.items(),
                                    dict(self.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is not type(self) and not isinstance(
                other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self._new({})
            return self._new({e: rat(c * other)
                              for e, c in self.coeffs.items()})
        return self._new({e: rat(v) for e, v in coeff_product(
            self.coeffs, other.coeffs).items() if v})

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        """Partial derivative in variable i."""
        return self._new({e[:i] + (e[i] - 1,) + e[i + 1:]: rat(c * e[i])
                          for e, c in self.coeffs.items() if e[i]})

    def integrate01(self, i: int):
        """Definite integral of variable i over [0, 1], exact: the term
        c x_i^k gives c/(k + 1).  The terms are summed over one common
        denominator, the lcm of the k + 1, and divided once per remaining
        exponent.  At den = 1 every k is 0, so each remaining exponent has
        one term, already stored as `rat` gives it."""
        cs = self.coeffs
        den = lcm(*(e[i] + 1 for e in cs))
        sums = {}
        for e, c in cs.items():
            rest = e[:i] + e[i + 1:]
            sums[rest] = sums.get(rest, 0) + c * (den // (e[i] + 1))
        return self._drop({e: rat(Fraction(n, den)) if den != 1 else n
                           for e, n in sums.items() if n})

    def subs(self, i: int, x):
        """Evaluate variable i at the rational x."""
        x = rat(x)
        return self._drop(accumulate((e[:i] + e[i + 1:], c * x ** e[i])
                                     for e, c in self.coeffs.items()))

    def reflect(self, i: int) -> "Poly":
        """Substitute 1 - x_i for x_i: (1 - x)^k = sum_j C(k, j) (-x)^j."""
        return self._new(accumulate(
            (e[:i] + (j,) + e[i + 1:], c * ((-1) ** j * comb(e[i], j)))
            for e, c in self.coeffs.items() for j in range(e[i] + 1)))

    def lift(self, cls) -> "Poly":
        """The same polynomial in cls.NVARS >= NVARS variables; the new
        variables come first."""
        if cls.NVARS < self.NVARS:
            raise TypeError("a lift cannot drop variables")
        pad = (0,) * (cls.NVARS - self.NVARS)
        return cls._new({pad + e: c for e, c in self.coeffs.items()})

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, {
            e: rat_to_str(c) for e, c in sorted(self.coeffs.items())})


class Poly1(Poly):
    """Polynomial in one path parameter t."""
    __slots__ = ()
    NVARS = 1


class Poly2(Poly):
    """Polynomial in two bigon parameters (s, t)."""
    __slots__ = ()
    NVARS = 2


# ---------------------------------------------------------------------------
# Sparse exact linear algebra
# ---------------------------------------------------------------------------

class Echelon:
    """Forward-only sparse echelon form with min-index pivots.

    The pivot of a stored row is its minimal nonzero index, and the row is
    primitive and integral: ``int`` entries with gcd 1 and a positive pivot
    entry, so ``row / row[pivot]`` is the normalized row.  Reducing a vector
    by increasing index yields the canonical residual supported on non-pivot
    indices.  Deterministic: pivots are always the first nonzero coordinate
    in index order.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of vec modulo the current row space.

        Values may live in any commutative ring containing Q (rationals,
        Poly1, Poly2).  Elimination is fraction-free (see `_eliminate`): the
        scaled residual is divided by its scale at the end.
        """
        return self._unscale(*self._eliminate(vec))

    @staticmethod
    def _unscale(out: dict, scale: int) -> dict:
        """The residual from `_eliminate`'s (scale * residual, scale)."""
        if scale == 1:
            return out
        inv = Fraction(1, scale)
        return {j: v * inv if isinstance(v, Poly) else rat(v * inv)
                for j, v in out.items()}

    def _eliminate(self, vec: dict):
        """(scale * residual, scale) for the canonical residual of vec and
        a positive int scale: at a pivot entry p != 1 the work vector and
        the residual found so far are scaled by p / gcd(a, p) (by p for a
        non-int coefficient a), and scale is the product of these."""
        work = dict(vec)
        out = {}
        scale = 1
        heap = list(work)
        heapq.heapify(heap)
        while heap:
            i = heapq.heappop(heap)
            a = work.get(i)
            if a is None or not a:
                work.pop(i, None)
                continue
            del work[i]
            row = self.pivots.get(i)
            if row is None:
                out[i] = a
                continue
            p = row[i]
            if p != 1:
                if type(a) is int:
                    g = gcd(a, p)
                    m, a = p // g, a // g
                else:
                    m = p
                if m != 1:
                    scale *= m
                    for d in (work, out):
                        for j, v in d.items():
                            d[j] = v * m
            for j, v in row.items():
                if j == i:
                    continue
                if j in work:
                    work[j] = work[j] - a * v
                else:
                    work[j] = -(a * v)
                    heapq.heappush(heap, j)
        return out, scale

    def add(self, vec: dict) -> bool:
        """Insert a rational vector; returns True iff it enlarged the row
        space.  The scaled residual of `_eliminate` is stored undivided: its
        scale is positive, so its primitive row is the residual's."""
        r = self._eliminate(vec)[0]
        if not r:
            return False
        self._store(r)
        return True

    def _store(self, r: dict):
        """Store a nonzero rational residual as the row of its pivot, with
        denominators cleared (where some entry is not an int) and the
        content divided out."""
        if any(type(v) is not int for v in r.values()):
            den = lcm(*(v.denominator for v in r.values()))
            r = {j: (v * den).numerator for j, v in r.items()}
        i = min(r)
        g = gcd(*r.values())
        if r[i] < 0:
            g = -g
        self.pivots[i] = r if g == 1 else {j: v // g for j, v in r.items()}


class TrackedEchelon(Echelon):
    """Echelon over a list of columns in Q^dim, tracking combinations for
    solves.

    The k-th independent column is inserted augmented by a unit tag
    coordinate dim + k, which sorts after every data index: pivots fall on
    data indices only, and the tag part of a residual records the columns
    subtracted while reducing it.  Stored rows are primitive integral rows
    like every Echelon row, tag part included.
    """

    __slots__ = ("dim", "tags")

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.tags = []

    def _combination(self, r: dict) -> dict:
        """{tag: coeff} read off a residual with no data part."""
        return {self.tags[i - self.dim]: -c for i, c in r.items()}

    def add(self, vec: dict, tag):
        """Insert column `vec` labeled `tag`.

        Returns None if independent of the current columns, else the
        dependency combination {tag: coeff} with vec = sum coeff * column.
        As in `Echelon.add`, an independent column's scaled residual is
        stored undivided; only a combination is divided by the scale.
        """
        new = self.dim + len(self.tags)
        aug = dict(vec)
        aug[new] = Q1
        r, scale = self._eliminate(aug)
        if min(r) < self.dim:
            self.tags.append(tag)
            self._store(r)
            return None
        del r[new]
        return self._combination(self._unscale(r, scale))

    def copy(self) -> "TrackedEchelon":
        """An independent echelon with the same columns and tags (stored
        rows are never mutated, so they are shared)."""
        r = TrackedEchelon(self.dim)
        r.pivots = dict(self.pivots)
        r.tags = list(self.tags)
        return r

    def solve(self, b: dict):
        """Solve sum x_tag * column_tag = b; None if b is outside the span."""
        r = self.reduce(b)
        if r and min(r) < self.dim:
            return None
        return self._combination(r)


