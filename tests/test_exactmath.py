"""Exact rational arithmetic, polynomials, and sparse linear algebra."""

import math
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kchern.exactmath import (Echelon, Poly1, Poly2, Q0, Q1, TrackedEchelon,
                              accumulate, coeff_integral, integral_weights,
                              rat, rat_from_str, rat_to_str)

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

    def test_integer_strings_parse_as_fraction_does(self):
        # the int fast path must give Fraction's value and stored type, and
        # refuse what it refuses; a zero denominator is a ValueError
        def parsed(parse, s):
            try:
                x = parse(s)
            except (ValueError, ZeroDivisionError):
                return ValueError
            return type(x), x

        for s in ("5", "+5", "-5", "007", "-007", " 12 ", "\t-3\n", "1_000",
                  "1__0", "_1", "3/1", "-0", "+0", "٣", "١٢",
                  "١٢/٤", "²", "", " ", "1/0", "1/2",
                  "1e3", "0x10", "+-1", "1 0"):
            assert parsed(rat_from_str, s) == parsed(
                lambda t: rat(Fraction(t)), s), repr(s)


    def test_huge_exponents_are_refused_at_once(self):
        # the digits a decimal exponent asks for are counted before any
        # power of 10 is computed, against the limit `int` applies to a
        # literal; small exponents keep their values
        assert rat_from_str("1e3") == 1000
        assert rat_from_str("1.5") == Fraction(3, 2)
        assert rat_from_str("1e400") == 10 ** 400
        assert rat_from_str("25e-2") == Fraction(1, 4)
        for s in ("1e5000", "1e-5000", "1" * 5001):
            with pytest.raises(ValueError):
                rat_from_str(s)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="digits"):
            rat_from_str("1e10000000")
        assert time.perf_counter() - start < 0.05

    def test_no_digit_limit_means_no_refusal(self, monkeypatch):
        # a limit of 0 means no limit, as it does for int
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert rat_from_str("1e5000") == 10 ** 5000


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
        # a stored row is primitive and integral: int entries, gcd 1 and a
        # positive pivot entry; dividing by that entry gives the normalized row
        ech = Echelon()
        ech.add({0: 2, 1: 1})
        ech.add({1: Fraction(-3, 4), 2: Fraction(3, 2)})
        row = ech.pivots[0]
        assert {j: Fraction(v, row[0]) for j, v in row.items()} == \
            {0: 1, 1: Fraction(1, 2)}
        assert ech.pivots == {0: {0: 2, 1: 1}, 1: {1: 1, 2: -2}}
        for row in ech.pivots.values():
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1 and row[min(row)] > 0


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


def test_poly_arithmetic_stores_integral_values_as_ints():
    half = Fraction(1, 2)
    made = [Poly1({(1,): 2}) * half, half * Poly1({(1,): 2}),
            Poly1({(1,): half}) + Poly1({(1,): half}),
            Poly1({(1,): half}) - Poly1({(1,): -half}),
            Poly2({(1, 0): half}) * Fraction(4, 1)]
    ech = Echelon()
    ech.add({0: 2, 1: 1})
    made.append(ech.reduce({0: Poly1({(0,): 2}), 1: Poly1({(0,): 2})})[1])
    for p in made:
        assert all(type(c) is int for c in p.coeffs.values()), p.coeffs


def test_polynomial_products_and_partials_store_integral_values_as_ints():
    half = Fraction(1, 2)
    p = Poly1({(1,): half}) * Poly1({(0,): 2})
    assert p.coeffs == {(1,): 1} and type(p.coeffs[(1,)]) is int
    q = Poly2({(1, 0): half, (0, 1): Fraction(3, 4)}) * Poly2({(0, 0): 4})
    assert q.coeffs == {(1, 0): 2, (0, 1): 3}
    assert all(type(c) is int for c in q.coeffs.values())
    d = Poly1({(2,): half}).diff(0)
    assert d.coeffs == {(1,): 1} and type(d.coeffs[(1,)]) is int
    # a product whose terms cancel drops them
    assert (Poly1({(0,): 1, (1,): 1}) * Poly1({(0,): 1, (1,): -1})).coeffs \
        == {(0,): 1, (2,): -1}


def _integral_oracle(p, i):
    """{remaining exponent: sum of c/(k + 1)} of p's terms c x_i^k, term by
    term in Fractions, zeros dropped."""
    out = {}
    for e, c in p.coeffs.items():
        rest = e[:i] + e[i + 1:]
        out[rest] = out.get(rest, Fraction(0)) + Fraction(c) / (e[i] + 1)
    return {e: v for e, v in out.items() if v}


def _is_stored(q):
    return type(q) is (int if Fraction(q).denominator == 1 else Fraction)


class TestIntegrate01:
    def test_matches_the_termwise_oracle(self):
        rng = random.Random(19)
        coeffs = (1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-2, 3),
                  Fraction(5, 4))
        for cls in (Poly1, Poly2):
            for integral in (True, False):
                pool = coeffs[:5] if integral else coeffs
                for _ in range(30):
                    p = cls({tuple(rng.randint(0, 5) for _ in range(
                        cls.NVARS)): rng.choice(pool)
                        for _ in range(rng.randint(0, 6))})
                    for i in range(cls.NVARS):
                        want = _integral_oracle(p, i)
                        got = p.integrate01(i)
                        if cls is Poly1:
                            assert got == want.get((), 0) and _is_stored(got)
                        else:
                            assert type(got) is Poly1
                            assert got.coeffs == want
                            assert all(_is_stored(c)
                                       for c in got.coeffs.values())

    def test_zero_and_integral_results(self):
        assert Poly1().integrate01(0) == 0
        assert type(Poly1().integrate01(0)) is int
        assert Poly2().integrate01(1) == Poly1()
        for p in (Poly1({(1,): 2}), Poly1({(0,): Fraction(1, 2), (1,): 1}),
                  Poly1({(2,): 3, (5,): -6, (0,): 1})):
            assert p.integrate01(0) == 1 and type(p.integrate01(0)) is int
        got = Poly2({(1, 3): 2, (0, 1): Fraction(1, 2)}).integrate01(0)
        assert got.coeffs == {(3,): 1, (1,): Fraction(1, 2)}
        assert type(got.coeffs[(3,)]) is int


def _random_poly(rng, cls, pool, top=4):
    """A seeded polynomial of type cls with up to 5 terms of exponents at
    most `top` and coefficients drawn from `pool`; it may be empty."""
    return cls({tuple(rng.randint(0, top) for _ in range(cls.NVARS)):
                rng.choice(pool) for _ in range(rng.randint(0, 5))})


def _pair_integral(a, b):
    """coeff_integral of two polynomials of one type, divided by the
    denominator of their weights."""
    bounds = tuple(max((e[i] for e in a.coeffs), default=0)
                   + max((e[i] for e in b.coeffs), default=0)
                   for i in range(a.NVARS))
    den, rows = integral_weights(bounds)
    return coeff_integral(a.coeffs, b.coeffs, rows), den


class TestPairIntegral:
    INTS = (1, -1, 2, 3, -4, 7)
    FRACTIONS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
                 Fraction(3, 7))

    def test_matches_integrate01_of_the_product(self):
        # int, non-integral Fraction and mixed coefficients, constants and
        # empty coefficient dicts, in one and two variables
        rng = random.Random(31)
        kinds = {"int": self.INTS, "fraction": self.FRACTIONS,
                 "mixed": self.INTS + self.FRACTIONS}
        non_integral = 0
        for cls in (Poly1, Poly2):
            for kind, pool in kinds.items():
                for trial in range(40):
                    a, b = (_random_poly(rng, cls, pool) for _ in range(2))
                    if trial % 8 == 0:
                        a = cls.const(rng.choice(pool))
                    if trial % 10 == 1:
                        b = cls()
                    got, den = _pair_integral(a, b)
                    want = a * b
                    for _ in range(cls.NVARS):
                        want = want.integrate01(0)
                    assert Fraction(got, den) == want, (cls, kind, a, b)
                    if kind == "int":
                        assert type(got) is int
                    non_integral += Fraction(got).denominator != 1
        assert non_integral

    def test_weights_share_one_denominator(self):
        for bounds in ((0,), (3,), (8,), (2, 5), (4, 8)):
            den, rows = integral_weights(bounds)
            assert integral_weights(bounds) == (den, rows)
            for e1, row in rows.items():
                for e2, w in row.items():
                    e = [x + y for x, y in zip(e1, e2)]
                    assert all(x <= b for x, b in zip(e, bounds))
                    assert Fraction(w, den) == math.prod(
                        Fraction(1, x + 1) for x in e)
            # den is the least common denominator of the weights
            assert math.gcd(den, *(w for row in rows.values()
                                   for w in row.values())) == 1


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


# ---------------------------------------------------------------------------
# Fraction-free elimination against a plain Fraction Gaussian oracle
# ---------------------------------------------------------------------------

def _oracle_reduce(rows, vec):
    """Residual of vec by rows {pivot: row normalized to pivot entry 1},
    eliminating by increasing index in plain Fraction arithmetic."""
    work = {j: v for j, v in vec.items() if v}
    out = {}
    while work:
        i = min(work)
        c = work.pop(i)
        if i not in rows:
            out[i] = c
            continue
        for j, v in rows[i].items():
            if j != i:
                work[j] = work.get(j, Q0) - c * v
                if not work[j]:
                    del work[j]
    return out


def _oracle_add(rows, vec):
    r = _oracle_reduce(rows, vec)
    if r:
        i = min(r)
        rows[i] = {j: Fraction(v) / r[i] for j, v in r.items()}
    return bool(r)


_ENTRIES = (1, -1, 2, -2, 3, -4, 6, Fraction(1, 2), Fraction(-2, 3),
            Fraction(5, 4), Fraction(7, 6))


def _sparse_system(seed, width=12, count=14):
    """Seeded sparse vectors with entries != 1 and Fractions, about a
    third of them combinations of earlier ones."""
    rng = random.Random(seed)
    vecs = []
    for k in range(count):
        if k > 2 and rng.random() < 0.35:
            v = {}
            for u in rng.sample(vecs, 2):
                f = rng.choice(_ENTRIES)
                for j, x in u.items():
                    v[j] = v.get(j, Q0) + f * x
            vecs.append({j: x for j, x in v.items() if x})
        else:
            vecs.append({j: rng.choice(_ENTRIES) for j in range(width)
                         if rng.random() < 0.35})
    return rng, [v for v in vecs if v]


def _scalar(rng, kind):
    """A random value of kind "rat", Poly1 or Poly2 (zero allowed)."""
    if kind == "rat":
        return rng.choice(_ENTRIES + (0,))
    exps = [(0,), (1,), (2,)] if kind is Poly1 else [(0, 0), (1, 0), (0, 1)]
    return kind({e: rng.choice(_ENTRIES) for e in exps
                 if rng.random() < 0.6})


class TestFractionFreeEchelon:
    SEEDS = range(12)

    def test_rows_residuals_and_values_match_the_oracle(self):
        scaled = 0
        for seed in self.SEEDS:
            rng, vecs = _sparse_system(seed)
            ech, rows = Echelon(), {}
            for v in vecs:
                assert ech.add(v) == _oracle_add(rows, v)
            assert set(ech.pivots) == set(rows)
            for i, row in ech.pivots.items():
                assert all(type(x) is int for x in row.values())
                assert gcd(*row.values()) == 1 and row[i] > 0
                assert {j: Fraction(x, row[i]) for j, x in row.items()} \
                    == rows[i]
                scaled += row[i] != 1
            for kind in ("rat", Poly1, Poly2):
                for _ in range(6):
                    vec = {j: _scalar(rng, kind) for j in range(12)
                           if rng.random() < 0.5}
                    vec = {j: x for j, x in vec.items() if x}
                    assert ech.reduce(vec) == _oracle_reduce(rows, vec), \
                        (seed, kind, vec)
        assert scaled > 0

    def test_tracked_solves_and_dependencies_match_the_oracle(self):
        for seed in self.SEEDS:
            rng, cols = _sparse_system(100 + seed, width=9, count=12)
            ech, rows, kept = TrackedEchelon(9), {}, []
            for tag, col in enumerate(cols):
                dep = ech.add(col, tag)
                assert (dep is None) == _oracle_add(rows, col)
                if dep is None:
                    kept.append(tag)
                    continue
                assert set(dep) <= set(kept)
                assert _combine(cols, dep) == _nonzero(col)
            assert len(kept) == ech.rank == len(rows)
            for kind in ("rat", Poly1, Poly2):
                for _ in range(4):
                    # inside the span, as a known combination, and outside
                    coeffs = {t: _scalar(rng, kind) for t in kept}
                    b = _combine(cols, coeffs)
                    sol = ech.solve(b)
                    assert sol is not None
                    assert _nonzero(sol) == _nonzero(coeffs), (seed, kind)
                    probe = {j: _scalar(rng, kind) for j in range(9)}
                    inside = not _oracle_reduce(rows, _nonzero(probe))
                    sol = ech.solve(_nonzero(probe))
                    assert (sol is not None) == inside
                    if sol is not None:
                        assert _combine(cols, sol) == _nonzero(probe)


class _ReducingTrackedEchelon(TrackedEchelon):
    """The TrackedEchelon whose add divides every residual by its scale
    before storing it, as the one before undivided stores did."""

    def add(self, vec, tag):
        new = self.dim + len(self.tags)
        r = self.reduce({**vec, new: Q1})
        if min(r) < self.dim:
            self.tags.append(tag)
            self._store(r)
            return None
        del r[new]
        return self._combination(r)


class TestTrackedUndividedStore:
    def test_rows_tags_and_combinations_match_the_reducing_add(self):
        scaled = dependent = fractional = 0
        for seed in range(16):
            _, cols = _sparse_system(200 + seed, width=9, count=14)
            ech, ref = TrackedEchelon(9), _ReducingTrackedEchelon(9)
            for tag, col in enumerate(cols):
                got, want = ech.add(col, tag), ref.add(col, tag)
                assert got == want, (seed, tag)
                if got is not None:
                    dependent += 1
                    assert all(type(c) is (int if Fraction(c).denominator
                                           == 1 else Fraction)
                               for c in got.values())
                    fractional += any(type(c) is Fraction
                                      for c in got.values())
            assert ech.pivots == ref.pivots and ech.tags == ref.tags
            scaled += sum(row[i] != 1 for i, row in ech.pivots.items())
        assert scaled and dependent and fractional


def _primitive(r):
    """The reference normal form of a nonzero rational residual: divided by
    its pivot entry, times the lcm of the denominators, as ints with gcd 1
    and a positive pivot entry."""
    i = min(r)
    row = {j: Fraction(v) / r[i] for j, v in r.items()}
    den = math.lcm(*(v.denominator for v in row.values()))
    return {j: int(v * den) for j, v in row.items()}


class TestStore:
    def test_int_fraction_and_mixed_residuals_store_primitive_rows(self):
        # `_store` clears denominators only when some entry is not an int
        rng = random.Random(35)
        ints = [e for e in _ENTRIES if type(e) is int]
        fracs = [e for e in _ENTRIES if type(e) is Fraction]
        seen = set()
        for _ in range(200):
            kind = rng.choice(("int", "fraction", "mixed"))
            pool = {"int": ints, "fraction": fracs, "mixed": _ENTRIES}[kind]
            r = {j: rng.choice(pool) * rng.choice((1, 2, 6))
                 for j in rng.sample(range(10), rng.randint(1, 5))}
            if kind == "mixed" and all(type(v) is int for v in r.values()):
                r[10] = Fraction(1, 3)
            ech = Echelon()
            ech._store(r)
            ((i, row),) = ech.pivots.items()
            assert i == min(r)
            assert all(type(v) is int for v in row.values()), r
            assert row == _primitive(r), r
            assert gcd(*row.values()) == 1 and row[i] > 0
            seen.add(kind)
        assert seen == {"int", "fraction", "mixed"}


def _nonzero(vec):
    return {j: x for j, x in vec.items() if x}


def _combine(cols, coeffs):
    out = {}
    for tag, f in coeffs.items():
        for j, x in cols[tag].items():
            out[j] = out.get(j, Q0) + f * x
    return _nonzero(out)
