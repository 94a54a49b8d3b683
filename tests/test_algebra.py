"""Structure-constant algebras, constructors, homs, and JSON I/O."""

import itertools
from fractions import Fraction

import pytest

from kchern.algebra import (AlgebraError, AlgebraHom, algebra_from_json,
                            algebra_to_json, make_group_algebra,
                            make_matrix_algebra, make_product,
                            make_truncated_poly, table_from_json, unit_index)
from kchern.exactmath import Q0, Q1
from kchern.fixtures import FIXTURE_NAMES, make_fixture


class TestConstructors:
    def test_truncated_poly(self):
        dual = make_truncated_poly(2)
        eps = dual.basis(1)
        assert eps * eps == dual.zero()
        assert dual.unit() * eps == eps

    def test_matrix_algebra_relations(self):
        m2 = make_matrix_algebra(2)
        # basis: 1, E11, E12, E21; E22 = 1 - E11
        one, e11, e12, e21 = (m2.basis(i) for i in range(4))
        e22 = one - e11
        assert e11 * e11 == e11
        assert e12 * e21 == e11
        assert e21 * e12 == e22
        assert e12 * e12 == m2.zero()
        assert e11 * e12 == e12
        assert e12 * e11 == m2.zero()

    def test_product_algebra(self):
        qq = make_fixture("QxQ")
        e = qq.basis(1)          # (1, 0)
        assert e * e == e
        f = qq.unit() - e        # (0, 1)
        assert e * f == qq.zero()

    def test_group_algebra_c2(self):
        c2 = make_fixture("C2")
        g = c2.basis(1)
        assert g * g == c2.unit()

    def test_group_algebra_rejects_broken_table(self):
        with pytest.raises(AlgebraError):
            make_group_algebra([[0, 1], [1, 1]])
        with pytest.raises(AlgebraError):
            make_group_algebra([[1, 0], [0, 1]])

    def test_group_algebra_rejects_nonassociative_loop(self):
        # a Latin square with identity first: every element has an inverse,
        # but (g1 g2) g2 != g1 (g2 g2), so the table is a loop, not a group
        rows = ("01234", "10342", "24013", "32401", "43120")
        with pytest.raises(AlgebraError,
                           match="associativity fails on triple"):
            make_group_algebra([[int(c) for c in row] for row in rows])

    def test_all_fixtures_validate(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            assert alg.dim >= 1

    def test_rejects_nonassociative(self):
        from kchern.algebra import Algebra
        z, o = Q0, Q1
        # x*x = y, x*y = 1, y*x = 0: (xx)x != x(xx)
        mul_table = [
            [[o, z, z], [z, o, z], [z, z, o]],
            [[z, o, z], [z, z, o], [o, z, z]],
            [[z, z, o], [z, z, z], [z, z, z]],
        ]
        with pytest.raises(AlgebraError, match="associativity"):
            Algebra(mul_table)

    def test_rejects_misplaced_unit(self):
        from kchern.algebra import Algebra
        z, o = Q0, Q1
        # basis (x, 1) with x^2 = 0: the unit is element 1, not 0
        mul_table = [
            [[z, z], [o, z]],
            [[o, z], [z, o]],
        ]
        with pytest.raises(AlgebraError, match="unit"):
            Algebra(mul_table)

    def test_each_accepted_table_is_checked_once(self, monkeypatch):
        # a table equal to one accepted before is not checked again, one
        # that differs in one entry is, and a failure is never remembered
        from kchern import algebra
        make_fixture("M2")
        calls = []
        check = algebra.Algebra._validate

        def counted(self):
            calls.append(self.mul)
            check(self)

        monkeypatch.setattr(algebra.Algebra, "_validate", counted)
        m2 = make_fixture("M2")
        assert calls == []
        table = [[list(vec) for vec in row] for row in m2.mul]
        table[2][3][0] += 1         # E12 E21 = 1 + E11
        for _ in range(2):
            with pytest.raises(AlgebraError, match="associativity"):
                algebra.Algebra(table)
        assert len(calls) == 2
        # the planted failures still raise once every fixture was accepted
        for name in FIXTURE_NAMES:
            make_fixture(name)
        for _ in range(2):
            self.test_rejects_nonassociative()
            self.test_rejects_misplaced_unit()
            self.test_group_algebra_rejects_nonassociative_loop()

    def test_accepted_tables_are_bounded(self, monkeypatch):
        from kchern import algebra
        monkeypatch.setattr(algebra, "_ACCEPTED", {})
        monkeypatch.setattr(algebra, "_ACCEPTED_MAX", 2)
        for k in (2, 3, 4, 2):
            make_truncated_poly(k)
        assert list(algebra._ACCEPTED) == [make_truncated_poly(k).mul
                                           for k in (4, 2)]

    def test_recorded_gradings(self):
        # x^a has the weight a, E_pq the weight p - q, a product keeps its
        # factors' weights; an all-zero grading, a JSON table and a group
        # algebra record none
        want = {"Q": None, "dual": (0, 1), "x3": (0, 1, 2), "QxQ": None,
                "M2": (0, 0, -1, 1), "C2": None}
        assert {name: make_fixture(name).weights
                for name in FIXTURE_NAMES} == want
        assert make_matrix_algebra(3).weights == \
            (0, 0, -1, -2, 1, 0, -1, 2, 1)
        assert make_product(make_fixture("x3"), make_fixture("M2")).weights \
            == (0, 0, 1, 2, 0, -1, 1)
        assert make_product(make_fixture("C2"), make_fixture("dual")) \
            .weights == (0, 0, 0, 1)
        assert algebra_from_json(algebra_to_json(make_fixture("x3"))) \
            .weights is None

    def test_rejects_non_derivation_weights(self):
        from kchern.algebra import Algebra, _graded
        x3 = make_fixture("x3")
        for weights in ((0, 1, 1), (0, 0, 1), (1, 1, 2)):
            with pytest.raises(AlgebraError, match="not a derivation"):
                _graded(Algebra(x3.mul), weights)


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


def _combine(vec, images):
    """sum_k vec[k] images[k], for images that are lists of lists."""
    return [[sum(c * img[i][j] for c, img in zip(vec, images))
             for j in range(len(images[0][0]))]
            for i in range(len(images[0]))]


def _assert_represents(alg, images, product):
    """Every basis product e_s * e_t of alg, mapped linearly by images, is
    product(images[s], images[t])."""
    for s, t in itertools.product(range(alg.dim), repeat=2):
        got = _combine((alg.basis(s) * alg.basis(t)).vec, images)
        assert got == product(images[s], images[t]), (
            alg.names[s], alg.names[t])


def _unit_matrix(k, i, j):
    return [[Q1 if (r, c) == (i, j) else Q0 for c in range(k)]
            for r in range(k)]


def _s3():
    """The permutations of {0, 1, 2}, identity first, and their Cayley
    table under composition (g_i g_j is the map x -> g_i(g_j(x)))."""
    perms = list(itertools.permutations(range(3)))
    return perms, [[perms.index(tuple(p[q[x]] for x in range(3)))
                    for q in perms] for p in perms]


class TestConstructorOracles:
    """The constructors' products against models that share none of their
    closed forms: rational matrices, pairs of factor elements and
    permutation matrices."""

    def test_matrix_algebra_is_the_matrix_product(self):
        for k in range(1, 5):
            alg = make_matrix_algebra(k)
            assert alg.dim == k * k
            ident = [[Q1 if r == c else Q0 for c in range(k)]
                     for r in range(k)]
            images = [ident] + [
                _unit_matrix(k, int(name[1]) - 1, int(name[2]) - 1)
                for name in alg.names[1:]]
            _assert_represents(alg, images, _matmul)
            # the corner E_kk is 1 - sum_{i<k} E_ii
            corner = alg.unit()
            for i in range(k - 1):
                corner -= alg.basis(alg.names.index("E%d%d" % (i + 1, i + 1)))
            assert _combine(corner.vec, images) == _unit_matrix(
                k, k - 1, k - 1)

    def test_product_multiplies_componentwise(self):
        factors = [make_fixture(n) for n in FIXTURE_NAMES]
        factors.append(make_matrix_algebra(3))
        for a, b in itertools.product(factors, repeat=2):
            alg = make_product(a, b)
            da, db = a.dim, b.dim
            assert alg.dim == da + db

            def pair(u, v):
                # a one-row matrix, a's coordinates then b's, so that
                # _combine sums pairs componentwise
                return [list(u) + list(v)]

            zero_a, zero_b = a.zero().vec, b.zero().vec
            images = [pair(a.unit().vec, b.unit().vec),
                      pair(a.unit().vec, zero_b)]
            images += [pair(a.basis(i).vec, zero_b) for i in range(1, da)]
            images += [pair(zero_a, b.basis(j).vec) for j in range(1, db)]

            def product(x, y):
                (x,), (y,) = x, y
                return pair(
                    (a.element(x[:da]) * a.element(y[:da])).vec,
                    (b.element(x[da:]) * b.element(y[da:])).vec)

            _assert_represents(alg, images, product)
            assert alg.names[:2] == ("1", "eL")

    def test_group_algebra_matches_its_cayley_table(self):
        perms, table = _s3()
        alg = make_group_algebra(table)
        for i, j in itertools.product(range(6), repeat=2):
            assert alg.basis(i) * alg.basis(j) == alg.basis(table[i][j])
        # and Q[S3] acts on Q^3 by permutation matrices
        images = [[[Q1 if p[c] == r else Q0 for c in range(3)]
                   for r in range(3)] for p in perms]
        _assert_represents(alg, images, _matmul)

    def test_empty_constructors_are_refused(self):
        for make in (make_matrix_algebra, make_truncated_poly):
            with pytest.raises(AlgebraError):
                make(0)


class TestElements:
    def test_coefficients_are_exact(self):
        dual = make_fixture("dual")
        for bad in ([0.5, 1], [True, 1]):
            with pytest.raises(TypeError):
                dual.element(bad)
        e = dual.element([Fraction(2), Fraction(1, 2)])
        assert [type(c) for c in e.vec] == [int, Fraction]
        assert type((e * e).vec[0]) is int

    def test_integral_results_are_int(self):
        dual = make_fixture("dual")
        half = dual.element([Fraction(1, 2), 0])
        eps = dual.basis(1)
        for e in (half + half, (half + half) - eps, -(half + half),
                  half.scale(2), half * dual.element([2, 0])):
            assert all(type(c) is int for c in e.vec), e.vec
        assert (half + half).vec == (1, 0)

    def test_scale_is_the_one_scalar_product(self):
        dual = make_fixture("dual")
        eps = dual.basis(1)
        with pytest.raises(TypeError):
            eps.scale(0.25)
        assert eps.scale(Fraction(1, 2)).vec == (0, Fraction(1, 2))
        with pytest.raises(AlgebraError):
            eps * 2
        with pytest.raises(TypeError):
            2 * eps


class TestHoms:
    def test_truncation_hom(self):
        x3 = make_fixture("x3")
        dual = make_fixture("dual")
        psi = AlgebraHom(x3, dual, [[Q1, Q0, Q0], [Q0, Q1, Q0]])
        x = x3.basis(1)
        assert psi(x) == dual.basis(1)
        assert psi(x * x) == dual.zero()

    def test_diagonal_hom(self):
        q = make_fixture("Q")
        qq = make_fixture("QxQ")
        psi = AlgebraHom(q, qq, [[Q1], [Q0]])
        assert psi(q.unit()) == qq.unit()

    def test_rejects_non_multiplicative(self):
        dual = make_fixture("dual")
        with pytest.raises(AlgebraError):
            # eps -> 1 does not preserve eps^2 = 0
            AlgebraHom(dual, dual, [[Q1, Q1], [Q0, Q0]])

    def test_rejects_unit_breaking(self):
        q = make_fixture("Q")
        with pytest.raises(AlgebraError):
            AlgebraHom(q, q, [[Fraction(2)]])


class TestJson:
    def test_round_trip_all_fixtures(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            again = algebra_from_json(algebra_to_json(alg))
            assert again == alg
            assert again.names == alg.names

    def test_rejects_malformed(self):
        with pytest.raises(AlgebraError):
            algebra_from_json({"dim": 2})

    def test_table_shape(self):
        one = [[["1"]]]
        for bad in ([], {"mul": one}, {"dim": True, "mul": one},
                    {"dim": "1", "mul": one}, {"dim": 0, "mul": []},
                    {"dim": 2, "mul": one}, {"dim": 1, "mul": [["1"]]},
                    {"dim": 1, "mul": [[["1", "0"]]]}):
            with pytest.raises(AlgebraError):
                table_from_json(bad)
        for bad in (1, 1.0, "1/0", "x", None):
            with pytest.raises((TypeError, ValueError)):
                table_from_json({"dim": 1, "mul": [[[bad]]]})
        assert table_from_json({"dim": 1, "mul": one}) == ([[[1]]], None)

    def test_unit_index(self):
        z, o = Q0, Q1
        rebased = [[[z, z], [o, z]], [[o, z], [z, o]]]
        assert unit_index(rebased) == 1
        assert unit_index([[[z, z], [z, z]], [[z, z], [z, z]]]) is None
        data = algebra_to_json(make_fixture("M2"))
        assert unit_index(table_from_json(data)[0]) == 0
