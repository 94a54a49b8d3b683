"""Exact rational arithmetic, polynomials, and sparse linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kchern.exactmath import (Echelon, Poly1, Poly2, Q0, Q1, TrackedEchelon,
                              accumulate, rat, rat_from_str, rat_to_str)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


class TestRationalStrings:
    def test_round_trip(self):
        for r in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(5, 9)):
            assert rat_from_str(rat_to_str(r)) == r

    def test_integer_omits_denominator(self):
        assert rat_to_str(Fraction(4)) == "4"
        assert rat_to_str(Fraction(-1, 3)) == "-1/3"

    def test_bad_strings_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            rat_from_str("1/0")
        with pytest.raises((ValueError, TypeError)):
            rat_from_str("x")

    def test_only_strings_parse(self):
        # JSON numbers are not "num/den" strings: 1.0 or 0.1 would pass
        # through Fraction as a binary float
        for bad in (1, 1.0, 0.1, None, [1]):
            with pytest.raises(TypeError):
                rat_from_str(bad)
        assert type(rat_from_str("6/3")) is int
        assert rat_from_str("-6/4") == Fraction(-3, 2)


class TestStoredForm:
    def test_integral_values_are_ints(self):
        assert rat(Fraction(6, 3)) == 2 and type(rat(Fraction(6, 3))) is int
        assert type(rat(-4)) is int
        assert type(rat(Fraction(1, 2))) is Fraction
        for bad in (0.5, 1.0, True, "1", None):
            with pytest.raises(TypeError):
                rat(bad)

    def test_polynomials_refuse_floats(self):
        with pytest.raises(TypeError):
            Poly1({(1,): 0.1})
        with pytest.raises(TypeError):
            Poly2.const(0.5)
        assert type(Poly1({(1,): Fraction(4, 2)}).coeffs[(1,)]) is int

    def test_echelon_rows_are_stored_forms(self):
        # the pivot is normalized by an exact inverse, never by 1 / int
        ech = Echelon()
        ech.add({0: 2, 1: 1})
        row = ech.pivots[0]
        assert row == {0: 1, 1: Fraction(1, 2)}
        assert type(row[0]) is int and type(row[1]) is Fraction


class TestPoly1:
    t = Poly1({(1,): Q1})

    def test_arithmetic(self):
        t = self.t
        p = (t + 1) * (t - 1)
        assert p == t * t - 1

    def test_diff(self):
        t = self.t
        assert (t * t * t).diff(0) == 3 * t * t

    def test_integrate01_monomials(self):
        # definite integral of t^n over [0,1] is 1/(n+1)
        for n in range(6):
            p = Poly1({(n,): Q1})
            assert p.integrate01(0) == Fraction(1, n + 1)

    def test_eval_matches_subs(self):
        p = Poly1({(0,): 1, (1,): -2, (2,): 3})
        for v in (Q0, Q1, Fraction(1, 2), Fraction(-3, 7)):
            assert p.subs(0, v) == 1 - 2 * v + 3 * v * v

    def test_fundamental_theorem(self):
        p = Poly1({(0,): 2, (2,): -5, (3,): 4})
        assert p.diff(0).integrate01(0) == p.subs(0, Q1) - p.subs(0, Q0)

    def test_reflect(self):
        p = Poly1({(0,): 2, (1,): -1, (3,): 4})
        for v in (Q0, Fraction(1, 3), Q1):
            assert p.reflect(0).subs(0, v) == p.subs(0, 1 - v)
        assert p.reflect(0).reflect(0) == p

    def test_zero_is_dropped(self):
        t = self.t
        assert not (t - t)
        assert (t - t) == 0
        assert Poly1({(1,): 0}).coeffs == {}


def test_accumulate_adds_into_out_and_drops_zero_sums():
    assert accumulate([("a", 0), ("b", Fraction(1, 2))]) == {
        "b": Fraction(1, 2)}
    out = {"a": 1, "b": 2}
    pairs = [("a", -1), ("c", 3), ("c", -3), ("b", Fraction(1, 2))]
    assert accumulate(pairs, out) is out
    assert out == {"b": Fraction(5, 2)}


def test_constant_hashes_as_its_fraction():
    # a constant polynomial equals its Fraction, so the hashes must agree
    for q in (Q0, Fraction(3, 2)):
        assert Poly1.const(q) == q and hash(Poly1.const(q)) == hash(q)
        assert Poly2.const(q) == q and hash(Poly2.const(q)) == hash(q)


class TestPoly2:
    s = Poly2({(1, 0): Q1})
    t = Poly2({(0, 1): Q1})

    def test_product_and_eval(self):
        s, t = self.s, self.t
        p = (s + t) * (s + t)
        half = Fraction(1, 2)
        assert p.subs(0, half).subs(0, half) == 1

    def test_fubini(self):
        s, t = self.s, self.t
        p = s * s * t + 3 * s * t * t
        # integrate s then t equals integrate t then s
        lhs = p.integrate01(0).integrate01(0)
        rhs = p.integrate01(1).integrate01(0)
        assert lhs == rhs

    def test_partials_commute(self):
        s, t = self.s, self.t
        p = s * s * t * t + s * t
        assert p.diff(0).diff(1) == p.diff(1).diff(0)

    def test_substitution(self):
        s, t = self.s, self.t
        p = s * t + t
        q = p.subs(0, Fraction(1, 2))
        assert isinstance(q, Poly1)
        assert q.subs(0, Fraction(2)) == Fraction(3)

    def test_lift_puts_new_variables_first(self):
        q = Poly1({(0,): 1, (2,): 5})
        lifted = q.lift(Poly2)
        assert lifted == Poly2({(0, 0): 1, (0, 2): 5})
        assert lifted.subs(0, Fraction(7)) == q
        assert Poly2.coerce(q) == lifted
        assert Poly2.coerce(Fraction(3)) == 3

    def test_mixing_arities_raises(self):
        with pytest.raises(TypeError):
            Poly1({(1,): 1}) * self.s
        with pytest.raises(TypeError):
            self.t + Poly1({(1,): 1})
        with pytest.raises(TypeError):
            Poly1.coerce(self.s)


def _columns(rows, ncols):
    return [{i: Fraction(row[j]) for i, row in enumerate(rows) if row[j]}
            for j in range(ncols)]


def _tracked(rows, ncols):
    """A TrackedEchelon holding the columns of a dense matrix, plus the
    kernel basis read off the dependencies it reports."""
    ech = TrackedEchelon(len(rows))
    kernel = []
    for j, col in enumerate(_columns(rows, ncols)):
        dep = ech.add(col, j)
        if dep is not None:
            vec = [Q0] * ncols
            vec[j] = Q1
            for k, v in dep.items():
                vec[k] -= v
            kernel.append(vec)
    return ech, kernel


class TestLinearAlgebra:
    def test_kernel_of_known_matrix(self):
        rows = [[1, 2, 3], [2, 4, 6]]
        _, basis = _tracked(rows, 3)
        assert len(basis) == 2
        for v in basis:
            img = [sum(Fraction(row[j]) * v[j] for j in range(3))
                   for row in rows]
            assert all(c == 0 for c in img)

    def test_membership(self):
        ech, _ = _tracked([[1, 0], [1, 1]], 2)
        assert ech.solve({0: Fraction(2), 1: Fraction(5)}) == \
            {0: Fraction(2), 1: Fraction(3)}
        ech2, _ = _tracked([[1, 2], [2, 4], [0, 0]], 2)
        assert ech2.solve({2: Q1}) is None

    def test_quotient_projection(self):
        # quotient Q^3 by span{(1,1,0)}
        ech = Echelon()
        ech.add({0: Q1, 1: Q1})
        selected = [i for i in range(3) if i not in ech.pivots]
        assert len(selected) == 2
        # the subspace reduces to zero
        assert ech.reduce({0: Q1, 1: Q1}) == {}
        # reduction is the identity on the selected coordinates
        for idx in selected:
            assert ech.reduce({idx: Q1}) == {idx: Q1}

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows):
        _, basis = _tracked(rows, 4)
        rank = 0
        ech = Echelon()
        for c in _columns(rows, 4):
            if ech.add(c):
                rank += 1
        assert rank + len(basis) == 4
