"""Exact arithmetic over Q: rationals, polynomials in the parameters of a
family, and sparse exact echelon forms (canonical residuals and tracked
solves).

Rationals are ``fractions.Fraction`` (canonical reduced form, arbitrary
precision); they serialize as "num/den" strings with the denominator
omitted when it is 1.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb
from operator import add

Q0 = Fraction(0)
Q1 = Fraction(1)


def rat_to_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def rat_from_str(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def _sparse(pairs) -> dict:
    """{key: sum of its values} over (key, value) pairs, zero sums dropped."""
    out = {}
    for k, v in pairs:
        v = out.get(k, Q0) + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


class Poly:
    """Polynomial over Q in NVARS commuting variables (the parameters of a
    family), as a sparse map exponent tuple -> nonzero Fraction.

    Values are immutable.  Arithmetic accepts int, Fraction and polynomials
    of the same type only, so mixing arities raises TypeError; `lift` moves
    a polynomial to more variables.  Removing the last variable (`subs`,
    `integrate01` at NVARS = 1) gives a Fraction.
    """

    __slots__ = ("coeffs",)
    NVARS = 0
    TYPES = {}          # NVARS -> subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        Poly.TYPES[cls.NVARS] = cls

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        self.coeffs = _sparse((e, Fraction(c)) for e, c in items)

    @classmethod
    def _new(cls, cs: dict) -> "Poly":
        """Wrap a dict of nonzero Fractions without copying or coercing."""
        r = object.__new__(cls)
        r.coeffs = cs
        return r

    @classmethod
    def const(cls, q) -> "Poly":
        q = Fraction(q)
        return cls._new({(0,) * cls.NVARS: q} if q else {})

    @classmethod
    def coerce(cls, c) -> "Poly":
        """A Fraction, int or polynomial in at most NVARS variables as a
        polynomial of this type."""
        if type(c) is cls:
            return c
        if isinstance(c, Poly):
            return c.lift(cls)
        return cls.const(c)

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
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = self.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v += c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return self._new(out)

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
            return self._new({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, a in self.coeffs.items():
            for e2, b in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                v = out.get(e)
                if v is None:
                    out[e] = a * b
                else:
                    v += a * b
                    if v:
                        out[e] = v
                    else:
                        del out[e]
        return self._new(out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        """Partial derivative in variable i."""
        return self._new({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                          for e, c in self.coeffs.items() if e[i]})

    def _collapse(self, i: int, weight):
        """Drop variable i, summing the terms weight(exponent) * c."""
        return self._drop(_sparse((e[:i] + e[i + 1:], c * weight(e[i]))
                                  for e, c in self.coeffs.items()))

    def integrate01(self, i: int):
        """Definite integral of variable i over [0, 1], exact."""
        return self._collapse(i, lambda k: Fraction(1, k + 1))

    def subs(self, i: int, x):
        """Evaluate variable i at the rational x."""
        x = Fraction(x)
        return self._collapse(i, lambda k: x ** k)

    def reflect(self, i: int) -> "Poly":
        """Substitute 1 - x_i for x_i: (1 - x)^k = sum_j C(k, j) (-x)^j."""
        return self._new(_sparse(
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

    Each stored row is normalized (pivot coefficient 1) and its pivot is its
    minimal nonzero index, so reducing a vector by increasing index yields the
    canonical residual supported on non-pivot indices.  Deterministic: pivots
    are always the first nonzero coordinate in index order.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of vec modulo the current row space.

        Values may live in any commutative ring containing Q (Fraction, Poly1,
        Poly2); pivot rows always have Fraction entries.
        """
        work = dict(vec)
        out = {}
        heap = list(work)
        heapq.heapify(heap)
        while heap:
            i = heapq.heappop(heap)
            c = work.get(i)
            if c is None or not c:
                work.pop(i, None)
                continue
            del work[i]
            row = self.pivots.get(i)
            if row is None:
                out[i] = c
                continue
            for j, v in row.items():
                if j == i:
                    continue
                if j in work:
                    work[j] = work[j] - c * v
                else:
                    work[j] = -(c * v)
                    heapq.heappush(heap, j)
        return out

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True iff it enlarged the row space."""
        r = self.reduce(vec)
        if not r:
            return False
        self._store(r)
        return True

    def _store(self, r: dict):
        """Store a nonzero residual, normalized, as the row of its pivot."""
        i = min(r)
        inv = Q1 / r[i]
        self.pivots[i] = {j: v * inv for j, v in r.items()}


class TrackedEchelon(Echelon):
    """Echelon over a list of columns in Q^dim, tracking combinations for
    solves.

    The k-th independent column is stored augmented by a unit tag
    coordinate dim + k, which sorts after every data index: pivots fall on
    data indices only, and the tag part of a residual records the columns
    subtracted while reducing it.
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
        """
        new = self.dim + len(self.tags)
        aug = dict(vec)
        aug[new] = Q1
        r = self.reduce(aug)
        if min(r) < self.dim:
            self.tags.append(tag)
            self._store(r)
            return None
        del r[new]
        return self._combination(r)

    def solve(self, b: dict):
        """Solve sum x_tag * column_tag = b; None if b is outside the span."""
        r = self.reduce(b)
        if r and min(r) < self.dim:
            return None
        return self._combination(r)


