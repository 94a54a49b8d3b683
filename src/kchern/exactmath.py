"""Exact arithmetic over Q: rationals, polynomials in one and two variables,
and sparse exact echelon forms (canonical residuals and tracked solves).

Rationals are ``fractions.Fraction`` (canonical reduced form, arbitrary
precision); they serialize as "num/den" strings with the denominator
omitted when it is 1.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

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

class Poly1:
    """Polynomial in one variable t over Q; coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(q) -> "Poly1":
        return Poly1((Fraction(q),))

    @staticmethod
    def t() -> "Poly1":
        return Poly1((Q0, Q1))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly1):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly1.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, Poly1):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly1.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Q0] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] += c
        return Poly1(a)

    __radd__ = __add__

    def __neg__(self):
        return Poly1(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly1()
        out = [Q0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly1(out)

    __rmul__ = __mul__

    def diff(self) -> "Poly1":
        return Poly1(tuple(Fraction(i + 1) * c
                           for i, c in enumerate(self.coeffs[1:])))

    def integrate01(self) -> Fraction:
        """Definite integral over [0, 1], exact."""
        return sum((c / (i + 1) for i, c in enumerate(self.coeffs)), Q0)

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        acc = Q0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subs(self, other: "Poly1") -> "Poly1":
        """Substitute another polynomial for the variable (Horner)."""
        acc = Poly1()
        for c in reversed(self.coeffs):
            acc = acc * other + Poly1.const(c)
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(rat_to_str(c) if i == 0
                             else ("%s*t^%d" % (rat_to_str(c), i)))
        return " + ".join(parts)


class Poly2:
    """Polynomial in two commuting variables s, t over Q.

    Coefficients are a sparse map (deg_s, deg_t) -> Fraction with no stored
    zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cs = {}
        if coeffs:
            for (i, j), c in (coeffs.items() if isinstance(coeffs, dict)
                              else coeffs):
                c = Fraction(c)
                if c:
                    cs[(i, j)] = cs.get((i, j), Q0) + c
            for k in [k for k, v in cs.items() if v == 0]:
                del cs[k]
        self.coeffs = cs

    @staticmethod
    def const(q) -> "Poly2":
        return Poly2({(0, 0): Fraction(q)})

    @staticmethod
    def s() -> "Poly2":
        return Poly2({(1, 0): Q1})

    @staticmethod
    def t() -> "Poly2":
        return Poly2({(0, 1): Q1})

    @staticmethod
    def from_t(p: Poly1) -> "Poly2":
        return Poly2({(0, j): c for j, c in enumerate(p.coeffs)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly2):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly2.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def _coerce(self, other):
        if isinstance(other, Poly2):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly2.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in o.coeffs.items():
            v = out.get(k, Q0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        r = Poly2()
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = Poly2()
        r.coeffs = {k: -c for k, c in self.coeffs.items()}
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in o.coeffs.items():
                k = (i1 + i2, j1 + j2)
                v = out.get(k, Q0) + a * b
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        r = Poly2()
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def diff_s(self) -> "Poly2":
        return Poly2({(i - 1, j): Fraction(i) * c
                      for (i, j), c in self.coeffs.items() if i > 0})

    def diff_t(self) -> "Poly2":
        return Poly2({(i, j - 1): Fraction(j) * c
                      for (i, j), c in self.coeffs.items() if j > 0})

    def integrate_s01(self) -> Poly1:
        """Integrate s over [0, 1]; the result is a Poly1 in t."""
        out = {}
        for (i, j), c in self.coeffs.items():
            out[j] = out.get(j, Q0) + c / (i + 1)
        n = 1 + max(out) if out else 0
        return Poly1([out.get(j, Q0) for j in range(n)])

    def integrate_t01(self) -> Poly1:
        """Integrate t over [0, 1]; the result is a Poly1 in s."""
        out = {}
        for (i, j), c in self.coeffs.items():
            out[i] = out.get(i, Q0) + c / (j + 1)
        n = 1 + max(out) if out else 0
        return Poly1([out.get(i, Q0) for i in range(n)])

    def subs_s(self, x) -> Poly1:
        """Evaluate s = x; the result is a Poly1 in t."""
        x = Fraction(x)
        out = {}
        for (i, j), c in self.coeffs.items():
            out[j] = out.get(j, Q0) + c * x ** i
        n = 1 + max(out) if out else 0
        return Poly1([out.get(j, Q0) for j in range(n)])

    def subs_t(self, x) -> Poly1:
        """Evaluate t = x; the result is a Poly1 in s."""
        x = Fraction(x)
        out = {}
        for (i, j), c in self.coeffs.items():
            out[i] = out.get(i, Q0) + c * x ** j
        n = 1 + max(out) if out else 0
        return Poly1([out.get(i, Q0) for i in range(n)])

    def eval(self, s, t) -> Fraction:
        return self.subs_s(s).eval(t)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            mono = "".join((["s^%d" % i] if i else []) +
                           (["t^%d" % j] if j else []))
            parts.append(rat_to_str(c) + ("*" + mono if mono else ""))
        return " + ".join(parts)


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


