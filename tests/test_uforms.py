"""Universal differential forms, abelianization, and de Rham homology."""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kchern
from kchern import uforms
from kchern.algebra import (Algebra, AlgebraHom, make_group_algebra,
                            make_matrix_algebra, make_product,
                            make_truncated_poly)
from kchern.connections import chern, random_connection, random_idempotent
from kchern.exactmath import (Echelon, Poly1, Q0, Q1, TrackedEchelon,
                              accumulate, rat)
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.serialize import form_to_json
from kchern.transgression import kcs_between
from kchern.uforms import (AbClass, AbProjection, DegreeCapError, FormError,
                           UForm, ab_d, abelianization, de_rham_homology,
                           dbar, dimension, enumerate_words,
                           extend_hom, is_exact_in_ab, multiply, project_ab,
                           random_form, word_degree, word_product,
                           _certified_dim, _degree,
                           _generating_set, _necklace, _phi)


def rand_homogeneous(alg, rng, degree, terms=2):
    return random_form(alg, rng, (degree,), terms, 3)


def canonical_forms_digest():
    """sha256 of the serialized homology representatives (n = 0..3) and of
    seeded exactness primitives on every fixture."""
    payload = {}
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        reps = [[form_to_json(r) for r in de_rham_homology(alg, n)[1]]
                for n in range(4)]
        rng = random.Random("golden-" + name)
        prims = []
        for n in (1, 2, 3):
            for _ in range(3):
                w = rand_homogeneous(alg, rng, n - 1, terms=3)
                ok, prim = is_exact_in_ab(w.d(), n)
                assert ok
                prims.append(form_to_json(prim))
        payload[name] = {"homology": reps, "primitives": prims}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _tuple_word_mul(alg, w1, w2, memo):
    """w1 * w2 as a dict word -> rational, by the bimodule law on word
    tuples: (head de_i) e_j = head d(e_i e_j) - (head e_i) de_j, with only
    `sparse_mul` read.  An oracle apart from the index tables of `uforms`;
    `memo` keeps the (word, j) products of one algebra."""
    def times(w, j):
        out = memo.get((w, j))
        if out is None:
            if len(w) == 1:
                out = {(k,): c for k, c in alg.sparse_mul[w[0]][j]}
            else:
                head, i = w[:-1], w[-1]
                out = {head + (k,): c for k, c in alg.sparse_mul[i][j] if k}
                if j:
                    for w3, c in times(head, i).items():
                        out[w3 + (j,)] = out.get(w3 + (j,), Q0) - c
            out = memo[w, j] = {w3: c for w3, c in out.items() if c}
        return out

    tail = w2[1:]
    return {w + tail: c for w, c in times(w1, w2[0]).items()}


def _all_pairs_span(alg, n):
    """The degree-n commutator projection from its definition: every graded
    commutator [w1, w2] of basis words with |w1| + |w2| = n, echelonized,
    with the word products of `_tuple_word_mul`."""
    words = enumerate_words(alg, n)
    index = {w: i for i, w in enumerate(words)}
    memo = {}
    ech = Echelon()
    for d1 in range(n // 2 + 1):
        d2 = n - d1
        sign = -Q1 if (d1 * d2) % 2 else Q1
        words1 = enumerate_words(alg, d1)
        words2 = enumerate_words(alg, d2)
        for a, w1 in enumerate(words1):
            for b, w2 in enumerate(words2):
                if d1 == d2 and b < a:
                    continue
                vec = {}
                for w, c in _tuple_word_mul(alg, w1, w2, memo).items():
                    vec[index[w]] = vec.get(index[w], Q0) + c
                for w, c in _tuple_word_mul(alg, w2, w1, memo).items():
                    vec[index[w]] = vec.get(index[w], Q0) - sign * c
                ech.add(vec)
    return AbProjection(alg, n, words, index, ech)


def dense_copy(alg, signs):
    """`alg` in the unit-fixing basis f_0 = e_0, f_i = e_i + sum_{j<i} s_ij
    e_j with the signs s_ij in {-1, 1} read from `signs`: unitriangular, so
    invertible, and dense below the diagonal."""
    m = alg.dim
    it = iter(signs)
    basis = [[Fraction(next(it)) if j < i else Fraction(int(i == j))
              for j in range(m)] for i in range(m)]

    def coords(x):
        # solve x = c * basis by back substitution
        c = [Q0] * m
        for k in reversed(range(m)):
            c[k] = x[k] - sum((c[i] * basis[i][k] for i in range(k + 1, m)),
                              Q0)
        return c

    table = [[coords((alg.element(basis[i]) * alg.element(basis[j])).vec)
              for j in range(m)] for i in range(m)]
    return Algebra(table, names=list(alg.names))


def dense_copies(name, count, seed):
    alg = make_fixture(name)
    rng = random.Random(seed)
    width = alg.dim * (alg.dim - 1) // 2
    return [dense_copy(alg, [rng.choice((-1, 1)) for _ in range(width)])
            for _ in range(count)]


def quadratic_field(d):
    """Q(sqrt d) for a non-square d: basis 1, r with r^2 = d."""
    return Algebra([[[1, 0], [0, 1]], [[0, 1], [d, 0]]], names=["1", "r"])


def quaternions():
    """Hamilton's quaternions over Q: basis 1, i, j, k, i^2 = j^2 = k^2 =
    ijk = -1; a division algebra, so not split."""
    mul = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        mul[0][a][a] = mul[a][0][a] = 1
    for a in range(1, 4):
        mul[a][a][0] = -1
        b, c = a % 3 + 1, (a + 1) % 3 + 1
        mul[a][b][c], mul[b][a][c] = 1, -1
    return Algebra(mul, names=["1", "i", "j", "k"])


def group_algebra_s3():
    """Q[S3] from the Cayley table of the permutations of {0, 1, 2},
    identity first (g_i g_j is x -> g_i(g_j(x))): dim 6, blocks Q, Q and
    M2, so no certificate applies."""
    perms = list(itertools.permutations(range(3)))
    return make_group_algebra([[perms.index(tuple(p[q[x]] for x in range(3)))
                                for q in perms] for p in perms])


def table_copy(alg):
    """A fresh copy of alg built from its table: equal to alg, but with no
    recorded matrix size, so its homology reads no E11 lift."""
    return Algebra(alg.mul, names=alg.names, degree_cap=alg.degree_cap)


def unstopped(alg):
    """A fresh table copy of alg whose commutator echelon is fed to the
    end: its certificate memo is set to the refused value ()."""
    fresh = table_copy(alg)
    fresh._ab_spectrum = ()
    return fresh


class TestWordModel:
    def test_dimension_law(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            m = alg.dim
            for n in range(0, 7):
                assert dimension(alg, n) == m * (m - 1) ** n
                assert len(enumerate_words(alg, n)) == dimension(alg, n)

    def test_rational_base_is_trivial(self):
        q = make_fixture("Q")
        for n in range(1, 7):
            assert dimension(q, n) == 0
            assert enumerate_words(q, n) == []

    def test_unit_differential_vanishes(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            assert UForm.unit(alg).d().is_zero()

    def test_words_are_checked(self):
        # forms and abelianization classes refuse the same words
        dual = make_fixture("dual")
        for cls in (UForm, AbClass):
            with pytest.raises(FormError, match="empty word"):
                cls(dual, {(): 1})
            for word in ((2,), (0, 0), (-1, 1), (7, 7)):
                with pytest.raises(FormError, match="out of range"):
                    cls(dual, {word: 1})
        # eps deps = 1/2 [eps, deps] is a commutator, so its class is zero
        assert UForm(dual, {(): 0, (1, 1): 2}).terms == {(1, 1): 2}
        assert AbClass(dual, {(): 0, (1, 1): 2}).terms == {}

    def test_degree_cap_enforced(self):
        alg = make_fixture("dual", degree_cap=2)
        eps = UForm.from_element(alg.basis(1))
        w = eps.d() * eps.d()
        with pytest.raises(DegreeCapError):
            w * eps.d()

    def test_word_products_are_read_only(self):
        # the memoized products are shared by every caller: a tuple, the
        # same object on a repeated request
        alg = make_fixture("x3")
        for w1, w2 in (((1,), (1,)), ((1, 2), (2,)), ((2, 1), (1, 2)),
                       ((2, 1), (0, 2))):
            prod = word_product(alg, w1, w2)
            assert type(prod) is tuple
            assert word_product(alg, w1, w2) is prod

    def test_degree_cap_checked_on_every_miss(self):
        # the cap is checked only when a product is not memoized: a pair
        # past it raises on every request and is never stored, also after
        # in-cap products of both words are
        alg = make_fixture("M2", degree_cap=3)
        w1, w2 = (1, 2, 3), (2, 1, 3)
        for a, b in ((w1, w1[:1]), (w2, w2[:2]), (w1[:2], w2),
                     (w2[:2], w1), ((2,), w1)):
            word_product(alg, a, b)
        assert len(alg._wordmul) == 5
        for _ in range(2):
            with pytest.raises(DegreeCapError, match="degree 4 exceeds"):
                word_product(alg, w1, w2)
            with pytest.raises(DegreeCapError):
                UForm.word(alg, w2) * UForm.word(alg, w1)
        assert len(alg._wordmul) == 5

    def test_poly_scalars_hash_like_fractions(self):
        # equal forms hash equally whatever the scalar type
        dual = make_fixture("dual")
        u = UForm(dual, {(1,): 3})
        assert len({u, u.map_scalars(Poly1.coerce)}) == 1

    def test_forms_and_classes_do_not_mix(self):
        dual = make_fixture("dual")
        u = UForm.word(dual, (1, 1, 1))
        cls = project_ab(u)
        with pytest.raises(FormError):
            u + cls
        with pytest.raises(FormError):
            cls + u
        # nor is a class a scalar of a form, on either side
        with pytest.raises(FormError):
            u * cls
        with pytest.raises(FormError):
            cls * u

    def test_scalars_are_exact(self):
        dual = make_fixture("dual")
        with pytest.raises(FormError):
            UForm(dual, {(1, 1, 1): 0.5})
        with pytest.raises(FormError):
            AbClass(dual, {(1, 1, 1): 0.5})
        assert type(AbClass(dual, {(1,): Fraction(2)}).terms[(1,)]) is int
        u = UForm.word(dual, (1, 1, 1))
        for bad in (0.25, "2"):
            with pytest.raises(FormError):
                u * bad
            with pytest.raises(FormError):
                bad * u
        v = UForm(dual, {(1,): Fraction(3)})
        assert type(v.terms[(1,)]) is int
        assert type((u * Fraction(4, 2)).terms[(1, 1, 1)]) is int

    def test_scalar_multiples_store_integral_values_as_ints(self):
        # scale and 2 * x store through the type's _scalar, as sums do
        dual = make_fixture("dual")
        half = Fraction(1, 2)
        for x in (UForm(dual, {(1,): half, (0, 1): Fraction(3, 2)}),
                  AbClass(dual, {(1,): half})):
            for y in (x.scale(2), 2 * x, x.scale(Fraction(2, 3))):
                assert all(type(c) is int or c.denominator != 1
                           for c in y.terms.values()), y.terms
            assert (2 * x).terms[(1,)] == 1

    def test_stored_scalars_keep_one_representation(self):
        # integral rationals are stored as int, everything else as a
        # Fraction with denominator > 1
        def canonical(c):
            return type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1)

        alg = table_copy(make_fixture("M2"))
        abelianization(alg, 4)
        for n in range(5):
            for row in abelianization(alg, n).echelon.pivots.values():
                assert all(canonical(c) for c in row.values())
        # the word products decoded from the right-multiplication entries,
        # and every entry the build and the products read
        words = enumerate_words(alg, 2)
        for w1 in words:
            for w2 in words:
                word_product(alg, w1, w2)
        assert alg._wordmul
        for prod in alg._wordmul.values():
            assert all(canonical(c) for _, c in prod)
        assert len(alg._right) == 5
        for words, index, right in alg._right:
            assert [index[w] for w in words] == list(range(len(words)))
            assert any(right[1:])
            for col in right[1:]:
                assert all(canonical(c) for terms in col.values()
                           for _, c in terms)

    def test_bimodule_law_degree_one(self):
        # a db . c = a d(bc) - ab dc: the kernel-of-multiplication model
        rng = random.Random(11)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for _ in range(20):
                a, b, c = (rand_homogeneous(alg, rng, 0) for _ in range(3))
                lhs = (a * b.d()) * c
                rhs = a * (b * c).d() - (a * b) * c.d()
                assert lhs == rhs


class TestDGA:
    def test_dd_zero(self):
        rng = random.Random(5)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for _ in range(30):
                w = rand_homogeneous(alg, rng, rng.randint(0, 4))
                assert w.d().d().is_zero()

    @given(st.integers(0, 3), st.integers(0, 2), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_graded_leibniz(self, du, dv, seed):
        rng = random.Random(seed)
        alg = make_fixture(rng.choice(FIXTURE_NAMES))
        u = rand_homogeneous(alg, rng, du)
        v = rand_homogeneous(alg, rng, dv)
        sign = -Q1 if du % 2 else Q1
        assert (u * v).d() == u.d() * v + (u * v.d()).scale(sign)

    def test_associativity_random(self):
        rng = random.Random(6)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for _ in range(20):
                u, v, w = (rand_homogeneous(alg, rng, rng.randint(0, 2))
                           for _ in range(3))
                assert (u * v) * w == u * (v * w)

    def test_dual_number_product_golden(self):
        # eps^2 = 0 forces (d eps) eps = -eps d eps
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        assert eps.d() * eps == -(eps * eps.d())

    def test_module_functions(self):
        alg = make_fixture("dual")
        eps = UForm.from_element(alg.basis(1))
        assert multiply(eps, eps.d()) == eps * eps.d()


# The weights of a derivation D of A that is diagonal on the basis, D(e_i)
# = w_i e_i: the Euler derivation on dual and x3, and ad(E11) on M2, whose
# basis 1, E11, E12, E21 it scales by 0, 0, 1, -1.
CARTAN_WEIGHTS = {"dual": (0, 1), "x3": (0, 1, 2), "M2": (0, 0, 1, -1)}


def _iota(u, weights, signed=True):
    """iota_D(a0 da1...dan) = sum_i (-1)^(i-1) a0 da1...D(a_i)...dan, each
    term a product of words through `multiply`; without `signed` the
    alternating sign is left out."""
    alg, out = u.algebra, UForm.zero(u.algebra)
    for w, c in u.terms.items():
        for i in range(1, len(w)):
            sign = -1 if signed and i % 2 == 0 else 1
            left = multiply(UForm.word(alg, w[:i]),
                            UForm.word(alg, (w[i],), sign * weights[w[i]] * c))
            out = out + multiply(left, UForm.word(alg, (0,) + w[i + 1:]))
    return out


class TestCartanFormula:
    """L_D = d iota_D + iota_D d, where the Lie derivative L_D of a diagonal
    D scales each word by the sum of its letters' weights."""

    @staticmethod
    def failing_words(signed):
        checked = failed = 0
        for name, weights in CARTAN_WEIGHTS.items():
            alg = make_fixture(name)
            for n in range(4):
                for w in enumerate_words(alg, n):
                    u = UForm.word(alg, w)
                    lhs = (_iota(u.d(), weights, signed)
                           + _iota(u, weights, signed).d())
                    checked += 1
                    failed += lhs != u.scale(sum(weights[i] for i in w))
        return checked, failed

    def test_cartan_formula_on_every_word(self):
        assert self.failing_words(True) == (213, 0)

    def test_unsigned_contraction_fails(self):
        assert self.failing_words(False) == (213, 162)


class TestConstructedPrimitives:
    """A class closed in Omega_ab splits into closed parts by D-weight, and
    iota_D maps graded commutators to graded commutators, so the Cartan
    formula gives each weight-j part w_j, j != 0, the primitive
    iota_D(w_j) / j: dbar [iota_D w_j] = j [w_j], with no call to dbar's
    solver."""

    @staticmethod
    def parts(name):
        """The nonzero-weight parts (j, w_j) of the lifted ch_1, ch_2 and
        closed triangle residuals KCS(c1, c3) - KCS(c1, c2) - KCS(c2, c3)
        of four seeded draws of (c1, c2, c3) over the fixture `name`."""
        alg, weights = make_fixture(name), CARTAN_WEIGHTS[name]
        rng = random.Random("primitives/" + name)
        parts = []
        for _ in range(4):
            p = random_idempotent(alg, 2, rng)
            c1, c2, c3 = (random_connection(p, rng) for _ in range(3))
            k13, k12, k23 = (kcs_between(a, b, 2)
                             for a, b in ((c1, c3), (c1, c2), (c2, c3)))
            for cls in chern(c1, 2)[1:] + [
                    x - y - z for x, y, z in zip(k13, k12, k23)]:
                split = {}
                for w, c in cls.lift().terms.items():
                    split.setdefault(sum(weights[i] for i in w), {})[w] = c
                parts += [(j, UForm(alg, terms))
                          for j, terms in split.items() if j]
        return alg, weights, parts

    @staticmethod
    def failing(parts, weights):
        return [(j, part) for j, part in parts
                if ab_d(project_ab(_iota(part, weights)))
                != project_ab(part).scale(j)]

    def test_every_part_has_its_constructed_primitive(self):
        count = 0
        for name in ("x3", "M2"):
            _, weights, parts = self.parts(name)
            assert self.failing(parts, weights) == []
            for _, part in parts:
                n = word_degree(min(part.terms))
                assert is_exact_in_ab(part, n)[0]
            count += len(parts)
        assert count == 21

    def test_flipped_residual_fails(self):
        # the kept degree-1 residual of the first word outside the quotient
        # words that a primitive of a degree-2 part reads, with one
        # coefficient flipped: dbar out of degree 1 is injective on M2, so
        # the changed class of the primitive changes its dbar
        alg, weights, parts = self.parts("M2")
        assert self.failing(parts, weights) == []
        proj = alg._ab[1]
        residuals = proj._residuals
        w = min(w for j, part in parts if word_degree(min(part.terms)) == 2
                for w in _iota(part, weights).terms
                if w not in proj.quotient_words and residuals[w])
        res = dict(residuals[w])
        q = min(res)
        res[q] = -res[q]
        residuals[w] = res
        assert self.failing(parts, weights)


class TestAbelianization:
    def test_dual_degree2_quotient_golden(self):
        # degree-2 quotient basis is {eps deps deps}; deps deps dies
        dual = make_fixture("dual")
        ab = abelianization(dual, 2)
        assert list(ab.quotient_words) == [(1, 1, 1)]
        deps2 = UForm.word(dual, (0, 1, 1))
        assert project_ab(deps2).is_zero()

    def test_constructed_classes_are_canonical(self):
        # a class built from any words equals the projection of their form
        m2, dual = make_fixture("M2"), make_fixture("dual")
        cls = AbClass(m2, {(1, 2): 1})
        assert cls == project_ab(UForm.word(m2, (1, 2)))
        assert cls.terms == {(2, 1): -1}
        assert AbClass(dual, {(0, 1, 1): 1}).is_zero()
        assert AbClass(dual, {(0, 1, 1): 1}) == AbClass(dual)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("classes/" + name)
            for _ in range(10):
                u = random_form(alg, rng, (0, 1, 2, 3), (1, 3), 3).scale(
                    Fraction(1, rng.randint(1, 3)))
                cls = AbClass(alg, u.terms)
                assert cls == project_ab(u), name
                assert all(type(c) is int for c in cls.terms.values()
                           if c.denominator == 1)

    def test_residuals_store_integral_values_as_ints(self):
        # the echelon's fraction-free reduction can end on an integral
        # Fraction; reduce_terms stores every value as rat gives it
        m2 = make_fixture("M2")
        proj = abelianization(m2, 1)
        integral = 0
        for w1 in proj.words:
            for w2 in proj.words:
                if w1 == w2:
                    continue
                res = proj.reduce_terms({w1: Fraction(3, 2),
                                         w2: Fraction(1, 2)})
                for c in res.values():
                    if c.denominator == 1:
                        integral += 1
                        assert type(c) is int, (w1, w2, res)
        assert len(proj.words) == 12 and integral

    def test_product_algebra_odd_degrees_vanish(self):
        qq = make_fixture("QxQ")
        for n in (1, 3):
            assert len(abelianization(qq, n).quotient_words) == 0

    def test_matrix_algebra_homology_matches_base(self):
        # chain groups do not vanish, but homology matches the base field:
        # H_0 one-dimensional (trace), H_1 = H_2 = 0
        m2 = make_fixture("M2")
        assert de_rham_homology(m2, 0)[0] == 1
        assert de_rham_homology(m2, 1)[0] == 0
        assert de_rham_homology(m2, 2)[0] == 0

    def test_cyclic_sign_in_quotient(self):
        # graded commutators die: uv = (-1)^{|u||v|} vu in the quotient
        rng = random.Random(9)
        for name in ("dual", "x3", "C2"):
            alg = make_fixture(name)
            for _ in range(20):
                du, dv = rng.randint(0, 2), rng.randint(0, 2)
                u = rand_homogeneous(alg, rng, du)
                v = rand_homogeneous(alg, rng, dv)
                sign = -Q1 if (du * dv) % 2 else Q1
                assert project_ab(u * v) == project_ab((v * u).scale(sign))

    def test_ab_d_well_defined(self):
        # d of any graded commutator projects to zero
        rng = random.Random(10)
        alg = make_fixture("dual")
        for _ in range(20):
            du, dv = rng.randint(0, 2), rng.randint(0, 2)
            u = rand_homogeneous(alg, rng, du)
            v = rand_homogeneous(alg, rng, dv)
            sign = -Q1 if (du * dv) % 2 else Q1
            comm = u * v - (v * u).scale(sign)
            assert project_ab(comm).is_zero()
            assert project_ab(comm.d()).is_zero()


class TestSpanningSet:
    """`abelianization` echelonizes [A, Omega_n] + d([Omega, Omega]_{n-1});
    the all-pairs span must give the same canonical projection."""

    def assert_same_projection(self, alg, n):
        fast = abelianization(alg, n)
        oracle = _all_pairs_span(alg, n)
        assert set(fast.echelon.pivots) == set(oracle.echelon.pivots)
        assert fast.quotient_words == oracle.quotient_words
        for w in fast.words:
            assert fast.reduce_terms({w: Q1}) == oracle.reduce_terms({w: Q1})

    def test_fixtures(self):
        # M2 through its table copy, which records no matrix size
        tops = {"M2": 4, "x3": 5}
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            if name == "M2":
                alg = table_copy(alg)
            for n in range(tops.get(name, 6) + 1):
                self.assert_same_projection(alg, n)

    def test_group_algebra_s3(self):
        alg = group_algebra_s3()
        assert _generating_set(alg) == (1, 2)
        for n in range(3):
            self.assert_same_projection(alg, n)

    def test_planted_dropped_generator_fails(self):
        # a generating set short of one generator spans too few commutators
        for alg, gens in ((make_fixture("x3"), ()),
                          (group_algebra_s3(), (1,)),
                          (group_algebra_s3(), (2,))):
            alg._generators = gens
            with pytest.raises((AssertionError, RuntimeError)):
                for n in range(3):
                    self.assert_same_projection(alg, n)

    def test_necklace_path(self):
        # the matrix size that `make_matrix_algebra` records changes no
        # projection; equal quotient words over one word list mean equal
        # pivot sets
        alg = make_fixture("M2")
        for n in range(5):
            fast, oracle = abelianization(alg, n), _all_pairs_span(alg, n)
            assert fast.quotient_words == oracle.quotient_words
            for w in fast.words:
                assert fast.reduce_terms({w: Q1}) == \
                    oracle.reduce_terms({w: Q1})

    def test_dense_copies(self):
        for name in ("x3", "M2"):
            for alg in dense_copies(name, 2, "span-" + name):
                for n in range(3):
                    self.assert_same_projection(alg, n)

    def test_word_products_match_tuple_oracle(self):
        # the index tables against the tuple recursion, term order aside
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            memo = {}
            for d1 in range(4):
                for d2 in range(4 - d1):
                    for w1 in enumerate_words(alg, d1):
                        for w2 in enumerate_words(alg, d2):
                            assert dict(word_product(alg, w1, w2)) == \
                                _tuple_word_mul(alg, w1, w2, memo), (w1, w2)

    def test_planted_right_table_entry_fails(self):
        # one flipped coefficient in one degree-1 right-table entry that
        # the feed reads, the top word's in the first generator's column,
        # before any degree above it is built, must show in the projection
        alg = table_copy(make_fixture("M2"))
        words, _, right = _degree(alg, 1)
        col = right[_generating_set(alg)[0]]
        idx = len(words) - 1
        (k, c), *rest = col[idx]
        col[idx] = ((k, -c), *rest)
        differs = []
        for n in range(4):
            fast, oracle = abelianization(alg, n), _all_pairs_span(alg, n)
            differs.append(set(fast.echelon.pivots)
                           != set(oracle.echelon.pivots)
                           or fast.quotient_words != oracle.quotient_words)
        assert any(differs), differs


class TestResidualCache:
    """`reduce_terms` sums the residuals a projection keeps per word: each
    must be the residual a fresh reduction of the echelon gives, and a sum
    of them the residual of the whole vector."""

    def assert_fresh(self, alg, top, rng):
        for n in range(top + 1):
            proj = abelianization(alg, n)
            words, index = proj.words, proj.index

            def fresh(terms):
                res = proj.echelon.reduce({index[w]: c
                                           for w, c in terms.items()})
                return [(words[i], rat(c) if type(c) is Fraction else c)
                        for i, c in sorted(res.items()) if c]
            for w in words:
                assert list(proj.reduce_terms({w: Q1}).items()) == \
                    fresh({w: Q1}), (n, w)
                assert proj._residuals[w] == dict(fresh({w: Q1})), (n, w)
            for _ in range(5):
                terms = {rng.choice(words): rng.choice(
                    (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                     Poly1({(0,): rng.randint(1, 3), (2,): -1})))
                         for _ in range(4)}
                assert list(proj.reduce_terms(terms).items()) == \
                    fresh(terms), (n, terms)

    def test_residuals_match_fresh_reductions(self):
        rng = random.Random(37)
        for name in ("x3", "dual", "QxQ", "C2", "M2"):
            self.assert_fresh(make_fixture(name), 4, rng)
        self.assert_fresh(dense_copies("x3", 1, "residuals")[0], 2, rng)

    def test_warm_projection_reduces_nothing(self, monkeypatch):
        # the residual of each word is reduced once and kept: a second
        # project_ab of the same forms makes no reduction
        for name in ("M2", "x3"):
            alg, rng = make_fixture(name), random.Random(35)
            forms = [rand_homogeneous(alg, rng, n, terms=6)
                     for n in (1, 2, 3)]
            calls = []
            reduce = Echelon.reduce

            def counted(self, vec):
                calls.append(vec)
                return reduce(self, vec)

            monkeypatch.setattr(Echelon, "reduce", counted)
            first = [project_ab(w) for w in forms]
            assert calls, name
            calls.clear()
            assert [project_ab(w) for w in forms] == first
            assert calls == [], name
            monkeypatch.undo()


class TestCertifiedDimension:
    """`_certified_dim` against the unstopped build, which it must equal
    wherever it is given, and planted wrong certificates."""

    def assert_certified(self, alg, top):
        full = unstopped(alg)
        for n in range(top + 1):
            stopped, ref = abelianization(alg, n), abelianization(full, n)
            if n:
                assert _certified_dim(alg, n) == len(ref.quotient_words), n
            assert set(stopped.echelon.pivots) == set(ref.echelon.pivots)
            assert stopped.quotient_words == ref.quotient_words

    def test_matrix_algebra(self):
        self.assert_certified(table_copy(make_fixture("M2")), 6)

    def test_two_dimensional_separable_algebras(self):
        for alg in (make_fixture("QxQ"), make_fixture("C2"),
                    quadratic_field(-1), quadratic_field(2)):
            self.assert_certified(alg, 7)

    def test_quaternions(self):
        self.assert_certified(quaternions(), 5)

    def test_dense_matrix_algebras(self):
        for alg in dense_copies("M2", 2, "certified-M2"):
            self.assert_certified(alg, 4)

    def test_closed_forms(self):
        # the signed necklace counts of ROADMAP F5, and 0, 1, 0, 1, ...
        m2, qq = make_fixture("M2"), make_fixture("QxQ")
        assert [_certified_dim(m2, n) for n in range(1, 10)] == \
            [3, 3, 11, 21, 51, 119, 315, 831, 2195]
        assert [_certified_dim(qq, n) for n in range(1, 7)] == \
            [0, 1, 0, 1, 0, 1]
        assert _certified_dim(m2, 0) is None

    @staticmethod
    def semisimple_with_blocks():
        """(algebra, top, dim Omega_ab,n for n <= top) of semisimple
        algebras with 1 < dim Omega_ab,0 < dim A: Q[S3] (blocks Q, Q, M2),
        Q x M2 and M2 x M2, the products built from table copies."""
        m2 = make_fixture("M2")
        return ((group_algebra_s3(), 3, [3, 3, 12, 43]),
                (make_product(make_fixture("Q"), table_copy(m2)), 4,
                 [2, 3, 7, 23, 67]),
                (make_product(table_copy(m2), table_copy(m2)), 3,
                 [2, 6, 22, 118]))

    def test_semisimple_with_blocks(self):
        # the spectrum ((m - 1, 1), (-1, r - 1)) of D = k k^T - I
        for alg, top, dims in self.semisimple_with_blocks():
            self.assert_certified(alg, top)
            r = len(abelianization(alg, 0).quotient_words)
            assert alg._ab_spectrum == ((alg.dim - 1, 1), (-1, r - 1))
            assert [len(abelianization(alg, n).quotient_words)
                    for n in range(top + 1)] == dims

    def test_planted_spectrum_too_small_raises(self):
        # one eigenvalue -1 too many on Q[S3] certifies dim Omega_ab,1 =
        # 5 - 3 = 2 < 3: the span cannot reach the rank target
        alg = group_algebra_s3()
        abelianization(alg, 0)
        alg._ab_spectrum = ((5, 1), (-1, 3))
        with pytest.raises(RuntimeError, match="certified"):
            abelianization(alg, 1)
        assert 1 not in alg._ab

    def test_planted_spectrum_overcount_fails_agreement(self):
        # one eigenvalue -1 too few certifies dim Omega_ab,1 = 4 > 3: the
        # feed stops early and raises nothing, so only the agreement with
        # the unstopped build catches it
        alg = group_algebra_s3()
        abelianization(alg, 0)
        alg._ab_spectrum = ((5, 1), (-1, 1))
        with pytest.raises(AssertionError):
            self.assert_certified(alg, 1)

    def test_refused(self):
        # not semisimple (dual, x3): the build is the unstopped one
        for alg in (make_fixture("dual"), make_fixture("x3"),
                    dense_copies("x3", 1, "refused-x3")[0]):
            assert all(_certified_dim(alg, n) is None for n in range(4))
            assert alg._ab_spectrum == ()
            for n in range(3):
                TestSpanningSet().assert_same_projection(alg, n)

    def test_planted_certificate_one_too_large_stops_early(self,
                                                          monkeypatch):
        true = _certified_dim
        for n in (2, 3):
            alg = table_copy(make_fixture("M2"))
            abelianization(alg, n - 1)
            monkeypatch.setattr(uforms, "_certified_dim",
                                lambda a, k: true(a, k) + 1)
            fast = abelianization(alg, n)
            monkeypatch.undo()
            oracle = _all_pairs_span(alg, n)
            assert set(fast.echelon.pivots) != set(oracle.echelon.pivots)
            assert fast.quotient_words != oracle.quotient_words

    def test_planted_certificate_one_too_small_raises(self, monkeypatch):
        true = _certified_dim
        for name, top in (("M2", 4), ("QxQ", 5), ("Q", 3)):
            for n in range(1, top + 1):
                alg = table_copy(make_fixture(name))
                abelianization(alg, n - 1)
                monkeypatch.setattr(uforms, "_certified_dim",
                                    lambda a, k: true(a, k) - 1)
                with pytest.raises(RuntimeError, match="certified"):
                    abelianization(alg, n)
                monkeypatch.undo()
                assert n not in alg._ab


class TestHomology:
    def test_h0_dimensions_golden(self):
        expected = {"Q": 1, "dual": 1, "x3": 1, "QxQ": 2, "M2": 1, "C2": 2}
        for name, dim_h in expected.items():
            alg = make_fixture(name)
            assert de_rham_homology(alg, 0)[0] == dim_h, name

    def test_rational_base_homology(self):
        q = make_fixture("Q")
        assert de_rham_homology(q, 0)[0] == 1
        for n in range(1, 5):
            assert de_rham_homology(q, n)[0] == 0

    def test_product_algebra_h2_golden(self):
        qq = make_fixture("QxQ")
        dim_h, reps = de_rham_homology(qq, 2)
        assert dim_h == 1
        # the class of e de de is closed, nonzero, and not exact
        e = UForm.from_element(qq.basis(1))
        cls = project_ab(e * e.d() * e.d())
        assert not cls.is_zero()
        assert ab_d(cls).is_zero()
        exact, _ = is_exact_in_ab(cls, 2)
        assert not exact

    @pytest.mark.parametrize("path", ["necklace", "echelon"])
    def test_degree_cap_is_explicit(self, path):
        # homology at n reads dbar into n + 1, exactness dbar into n: past
        # the cap both raise on either path, before building anything
        for cap in (3, 8):
            alg = make_fixture("M2", degree_cap=cap)
            if path == "echelon":
                alg = table_copy(alg)
            assert (alg.matrix_size is None) == (path == "echelon")
            with pytest.raises(DegreeCapError, match="exceeds cap %d" % cap):
                kchern.de_rham_homology(alg, cap)
            word = kchern.UForm.word(alg, (1,) * (cap + 2))
            with pytest.raises(DegreeCapError):
                kchern.is_exact_in_ab(word, cap + 1)
            assert alg._ab == {} and alg._dbar == {}
        assert kchern.de_rham_homology(alg, 1)[0] == 0

    def test_dual_h2_vanishes(self):
        dual = make_fixture("dual")
        assert de_rham_homology(dual, 2)[0] == 0

    def test_representatives_are_cycles(self):
        for name in ("dual", "QxQ", "C2"):
            alg = make_fixture(name)
            for n in range(0, 4):
                _, reps = de_rham_homology(alg, n)
                for r in reps:
                    assert ab_d(project_ab(r)).is_zero()

    def test_canonical_forms_golden(self):
        # canonical representatives and primitives are unique, so any
        # rewrite of the echelon code must reproduce them byte for byte
        assert canonical_forms_digest() == (
            "adb651ee519dd95bd98ef5ab5a282e1eb0212305dcd5e9975483865f6b0eea9f")

    def test_dense_copies_keep_dimensions(self):
        # a dense basis stores rows whose pivot entry is not 1, so the
        # elimination scales; the homology must not see the basis change
        for name in ("M2", "x3"):
            dims = [de_rham_homology(make_fixture(name), n)[0]
                    for n in range(3)]
            for alg in dense_copies(name, 2, "homology-" + name):
                assert [de_rham_homology(alg, n)[0]
                        for n in range(3)] == dims, name
                assert any(row[i] != 1 for n in range(4)
                           for i, row in abelianization(
                               alg, n).echelon.pivots.items()), name

    def test_homology_then_exactness(self):
        # homology and exactness solves share the memoized dbar: computing
        # homology first must not change what is_exact_in_ab decides
        rng = random.Random(14)
        for name, top in (("M2", 2), ("QxQ", 3)):
            alg = make_fixture(name)
            for n in range(top + 1):
                _, reps = de_rham_homology(alg, n)
                for rep in reps:
                    assert is_exact_in_ab(rep, n) == (False, None)
                if n:
                    target = project_ab(rand_homogeneous(alg, rng, n - 1,
                                                         terms=3).d())
                    ok, prim = is_exact_in_ab(target, n)
                    assert ok
                    assert project_ab(prim.d()) == target

    def test_exactness_reads_a_class_by_its_projection(self):
        # an AbClass holding a commutator word is decided like its
        # projection: (0, 1, 1) = deps deps projects to zero over dual
        dual = make_fixture("dual")
        ok, prim = is_exact_in_ab(AbClass(dual, {(0, 1, 1): 1}), 2)
        assert ok and project_ab(prim.d()).is_zero()

    def test_exactness_certificates(self):
        rng = random.Random(12)
        for name in ("dual", "x3", "C2"):
            alg = make_fixture(name)
            for _ in range(10):
                n = rng.randint(1, 3)
                w = rand_homogeneous(alg, rng, n - 1)
                target = project_ab(w.d())
                ok, prim = is_exact_in_ab(target, n)
                assert ok
                assert project_ab(prim.d()) == target


class TestHomologyOracle:
    """F12's dimensions as an oracle: H_0 = r and, for n >= 1, H_n = r - 1
    in even degrees and 0 in odd ones, with r the number of simple blocks
    of (A/J) (x) Qbar.  r is stated per algebra with its reason; nothing
    in `uforms` computes it."""

    BLOCKS = {
        "Q": 1,     # a field
        "dual": 1,  # local: A/J = Q
        "x3": 1,    # local: A/J = Q
        "M2": 1,    # simple, and M2(Qbar) stays simple
        "QxQ": 2,   # two copies of Q
        "C2": 2,    # Q x Q, split by the idempotents (1 +- g)/2
    }

    @staticmethod
    def dims(alg, top):
        return [de_rham_homology(alg, n)[0] for n in range(top + 1)]

    @staticmethod
    def want(r, top):
        return [r] + [0 if n % 2 else r - 1 for n in range(1, top + 1)]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        assert self.dims(make_fixture(name), 4) == \
            self.want(self.BLOCKS[name], 4)

    def test_m2_to_degree_8(self):
        assert self.dims(make_fixture("M2", degree_cap=9), 8) == \
            self.want(1, 8)

    def test_products(self):
        q = make_fixture("Q")
        # three copies of Q; Q and M2, each simple over Qbar
        for alg, r in ((make_product(make_fixture("QxQ"), q), 3),
                       (make_product(q, make_fixture("M2")), 2)):
            assert self.dims(alg, 3) == self.want(r, 3), r

    def test_planted_wrong_eps_fails(self, monkeypatch):
        # the M2 case must catch it, by a dimension or the lift's refusal
        true = uforms._eps
        monkeypatch.setattr(uforms, "_eps", lambda n: -true(n))
        try:
            dims = self.dims(make_fixture("M2", degree_cap=9), 8)
        except RuntimeError:
            return
        assert dims != self.want(1, 8)


class TestWeightZeroHomology:
    """F16: every nonzero torus weight is acyclic, so on an algebra whose
    constructor records a grading `de_rham_homology` answers H_n = 0 with
    nothing built in a degree that has no weight-0 word, and otherwise
    reads the whole degree.  The oracle is a copy built from its table,
    which records no grading: dimensions and representatives byte for
    byte."""

    @staticmethod
    def cases():
        """(algebra, dim H_n for n = 0..top); x3 x dual and dual x dual
        have two blocks, so H_0 = 2 and H_2 = 1 (F12)."""
        x3, dual = make_fixture("x3"), make_fixture("dual")
        return ((dual, [1] + [0] * 5), (x3, [1] + [0] * 5),
                (make_truncated_poly(4), [1] + [0] * 4),
                (make_product(x3, dual), [2, 0, 1, 0]),
                (make_product(dual, dual), [2, 0, 1, 0, 1]),
                (make_fixture("M2"), [1]), (make_matrix_algebra(3), [1]))

    @staticmethod
    def reports(alg, top):
        return [(dim, [form_to_json(r) for r in reps]) for dim, reps in
                (de_rham_homology(alg, n) for n in range(top + 1))]

    def test_matches_ungraded_copy(self):
        for alg, dims in self.cases():
            copy = Algebra(alg.mul, names=alg.names)
            assert alg.weights is not None and copy.weights is None
            got = self.reports(alg, len(dims) - 1)
            assert got == self.reports(copy, len(dims) - 1), alg
            assert [dim for dim, _ in got] == dims, alg

    def test_planted_non_derivation_fails(self):
        # weights that `_graded` refuses, forced past it: (0, 1, 1, 2, 1)
        # moves eL of x3 x dual out of weight 0, so no degree n >= 1 has a
        # weight-0 word and the early exit loses H_2
        alg = make_product(make_fixture("x3"), make_fixture("dual"))
        copy = Algebra(alg.mul, names=alg.names)
        alg.weights = (0, 1, 1, 2, 1)
        assert [dim for dim, _ in self.reports(alg, 3)] == [2, 0, 0, 0]
        assert [dim for dim, _ in self.reports(copy, 3)] == [2, 0, 1, 0]

    def test_no_weight_zero_word_builds_nothing(self):
        # dual and x3 have no weight-0 word in any degree n >= 1: no
        # projection, no dbar and no right table
        for name in ("dual", "x3"):
            for n in range(1, 6):
                alg = make_fixture(name)
                assert de_rham_homology(alg, n) == (0, []), (name, n)
                assert alg._ab == {} and alg._dbar == {}, (name, n)
                assert alg._right == [], (name, n)


def _quotient_dbar(alg, n):
    """dbar into degree n in quotient coordinates, the k-th coordinate the
    k-th quotient word of degree n: each degree n-1 quotient word q is
    mapped by `project_ab(UForm.word(alg, q).d())`.  Returns (solver,
    kernel, coordinate of each quotient word), solver and kernel as in
    `dbar`.  A reference apart from the coordinates there."""
    coord = {w: k for k, w in
             enumerate(abelianization(alg, n).quotient_words)}
    solver, kernel = TrackedEchelon(len(coord)), []
    for q in abelianization(alg, n - 1).quotient_words if n else ():
        dv = project_ab(UForm.word(alg, q).d())
        dep = solver.add({coord[w]: c for w, c in dv.terms.items()}, q)
        if dep is not None:
            kernel.append({q: Q1, **{p: -c for p, c in dep.items()}})
    return solver, kernel, coord


def _shifted_dbar(alg, n, shift):
    """A wrong dbar into degree n for planting: the degree n-1 quotient
    word at index i goes to the coordinates (`AbProjection.coords`, the
    canonical residual) of the word at index i - shift (zero below index
    0) instead of i - B**(n-1)."""
    proj, prev = abelianization(alg, n), abelianization(alg, n - 1)
    solver, kernel = TrackedEchelon(len(proj.words)), []
    for q in prev.quotient_words:
        i = prev.index[q] - shift
        dep = solver.add(proj.coords({proj.words[i]: Q1}) if i >= 0 else {},
                         q)
        if dep is not None:
            kernel.append({q: Q1, **{p: -c for p, c in dep.items()}})
    return solver, kernel


def _dbar_mismatches(name, alg, top):
    """Where dbar, homology and exactness of `alg` (up to degree top)
    differ from the quotient-coordinate reference on a fresh copy of
    fixture `name`: a list of (what, degree)."""
    ref = make_fixture(name)
    dbars = {n: _quotient_dbar(ref, n) for n in range(top + 1)}
    rng = random.Random("dbar-" + name)
    out = []
    for n in range(top + 1):
        if [list(v.items()) for v in dbar(alg, n)[1]] != \
                [list(v.items()) for v in dbars[n][1]]:
            out.append(("kernel", n))
        if n < top:
            solver, _, coord = dbars[n]
            solver = solver.copy()
            reps = [list(UForm(ref, v).terms.items()) for v in dbars[n + 1][1]
                    if solver.add({coord[q]: c for q, c in v.items()},
                                  None) is None]
            dim_h, got = de_rham_homology(alg, n)
            if (dim_h, [list(r.terms.items()) for r in got]) != \
                    (len(reps), reps):
                out.append(("homology", n))
        if n:
            for target in [rand_homogeneous(ref, rng, n - 1, terms=3).d()
                           for _ in range(3)] + \
                    [rand_homogeneous(ref, rng, n, terms=3)
                     for _ in range(3)]:
                solver, _, coord = dbars[n]
                sol = solver.solve({coord[w]: c for w, c in
                                    project_ab(target).terms.items()})
                ok, prim = is_exact_in_ab(UForm(alg, target.terms), n)
                if ok != (sol is not None) or (ok and list(
                        prim.terms.items()) != list(sol.items())):
                    out.append(("primitive", n))
    return out


class TestDbarReference:
    """`dbar` maps q to the word (0,) + q and reads it in the degree's
    solver coordinates; the quotient-coordinate build of
    `_quotient_dbar` must give the same kernels, homology and primitives,
    term order included."""

    def test_fixtures_match_reference(self):
        for name in FIXTURE_NAMES:
            assert _dbar_mismatches(name, make_fixture(name), 4) == [], name

    def test_planted_shift_fails(self):
        # a dbar built with shift B**(n-1) + 1 must be caught wherever
        # dbar is not zero: on dual, x3 and M2 (on Q, QxQ and C2 it is
        # zero up to degree 4, and so is the shifted one)
        caught, nonzero = [], []
        for name in FIXTURE_NAMES:
            alg, fresh = make_fixture(name), make_fixture(name)
            nonzero.append(any(dbar(fresh, n)[0].rank for n in range(5)))
            for n in range(1, 5):
                low = (alg.dim - 1) ** (n - 1)
                alg._dbar[n] = _shifted_dbar(alg, n, low + 1)
            caught.append(bool(_dbar_mismatches(name, alg, 4)))
        assert caught == nonzero == [name in ("dual", "x3", "M2")
                                     for name in FIXTURE_NAMES], caught


def _seeded_terms(alg, rng, n, count):
    """`count` distinct degree-n words with seeded nonzero scalars, half
    of them Poly1."""
    words = enumerate_words(alg, n)
    out = {}
    for w in rng.sample(words, min(count, len(words))):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        out[w] = Poly1({(0,): c, (rng.randint(1, 3),): 1}) \
            if rng.random() < 0.5 else c
    return out


def _necklace_mismatches(alg, ref, top, seed):
    """Where the projections of alg, built by `make_matrix_algebra`, up to
    degree top differ from those of ref, its table copy with no recorded
    matrix size: quotient words, the residuals of 30 seeded vectors per
    degree (term order included), dbar kernels, homology representatives
    (n < top) and exactness primitives, as a list of (what, degree).  A
    RuntimeError from alg's projections or homology ends the list."""
    rng = random.Random(seed)
    out = []
    for n in range(top + 1):
        try:
            _compare_projections(alg, ref, n, top, rng, out)
        except RuntimeError:
            return out + [("raised", n)]
    return out


def _compare_projections(alg, ref, n, top, rng, out):
    """One degree of `_necklace_mismatches`."""
    fast, slow = abelianization(alg, n), abelianization(ref, n)
    if fast.quotient_words != slow.quotient_words:
        out.append(("quotient words", n))
    for _ in range(30):
        terms = _seeded_terms(alg, rng, n, rng.randint(1, 6))
        if list(fast.reduce_terms(terms).items()) != \
                list(slow.reduce_terms(terms).items()):
            out.append(("residual", n))
            break
    if [list(v.items()) for v in dbar(alg, n)[1]] != \
            [list(v.items()) for v in dbar(ref, n)[1]]:
        out.append(("kernel", n))
    if n < top:
        (dim_a, reps_a), (dim_b, reps_b) = (de_rham_homology(alg, n),
                                            de_rham_homology(ref, n))
        if (dim_a, [list(r.terms.items()) for r in reps_a]) != \
                (dim_b, [list(r.terms.items()) for r in reps_b]):
            out.append(("homology", n))
    if n:
        for target in [rand_homogeneous(ref, rng, n - 1, terms=3).d()
                       for _ in range(3)] + \
                [rand_homogeneous(ref, rng, n, terms=3)
                 for _ in range(3)]:
            ok_a, prim_a = is_exact_in_ab(UForm(alg, target.terms), n)
            ok_b, prim_b = is_exact_in_ab(target, n)
            if ok_a != ok_b or (ok_a and list(prim_a.terms.items())
                                != list(prim_b.terms.items())):
                out.append(("primitive", n))


def _matrix_unit(alg, k, i, j):
    """E_ij of M_k as an element of `make_matrix_algebra(k)`, E_kk = 1 -
    sum_{i<k} E_ii."""
    if i == j == k - 1:
        return alg.unit() - sum((alg.basis(1 + l * k + l)
                                 for l in range(k - 1)), alg.zero())
    return alg.basis(1 + i * k + j)


def _letters(alg, k):
    """The letter one-forms of M_k as UForms, letter z_pq at p k + q: c(p, q)
    for p != q and c(p, p) - c(k, k), with c(i, j) = sum_a E_ai dE_ja."""
    def unit(i, j):
        return UForm.from_element(_matrix_unit(alg, k, i, j))

    def c(i, j):
        return sum((unit(a, i) * unit(j, a).d() for a in range(k)),
                   UForm(alg))

    return [c(p, q) if p != q else c(p, p) - c(k - 1, k - 1)
            for p in range(k) for q in range(k)][:-1]


def _right_entries(alg):
    """The right-table entries built so far on `alg`, over all degrees."""
    return sum(len(col) for _, _, right in alg._right for col in right[1:])


class TestNecklaceProjection:
    """The necklace model of M_k that the E11 lift reads (`_phi`,
    `_necklace`, `_lift`), and `make_matrix_algebra(k)` against
    its table copy: the matrix size it records changes no output."""

    def test_phi_matches_solve(self):
        # the e_a z are a basis of Omega^1, the z commute with A, and
        # solving dE_pq in that basis gives the closed form
        for k in (2, 3, 4):
            alg = make_matrix_algebra(k)
            letters = _letters(alg, k)
            index = {w: i for i, w in enumerate(enumerate_words(alg, 1))}
            solver = TrackedEchelon(len(index))
            for a in range(alg.dim):
                e = UForm.from_element(alg.basis(a))
                for z, form in enumerate(letters):
                    assert e * form == form * e, (k, a, z)
                    assert solver.add({index[w]: v for w, v in
                                       (e * form).terms.items()},
                                      (a, z)) is None
            assert solver.rank == len(index)
            phi = _phi(k)
            assert len(phi) == k * k

            def solved(s):
                return solver.solve({index[w]: v for w, v in UForm
                                     .from_element(alg.basis(s)).d().terms
                                     .items()})

            def closed(u):
                out = {}
                for i, terms in phi[u].items():
                    for z, j, x in terms:
                        for a, v in _matrix_unit(alg, k, i, j).terms.items():
                            out[a, z] = out.get((a, z), Q0) + x * v
                return {key: v for key, v in out.items() if v}

            # unit u = p k + q sits at slot u + 1
            for s in range(1, alg.dim):
                assert closed(s - 1) == solved(s), (k, s)
            # E_kk has no slot: dE_kk = -sum_{l<k} dE_ll
            want = {}
            for l in range(k - 1):
                for key, v in solved(1 + l * k + l).items():
                    want[key] = want.get(key, Q0) - v
            assert closed(k * k - 1) == \
                {key: v for key, v in want.items() if v}, k

    def test_necklace_count_is_certified(self):
        # the nonzero classes `_necklace` keeps, counted one by one
        for k, top in ((2, 9), (3, 5)):
            alg, size = make_matrix_algebra(k), k * k - 1
            for n in range(1, top + 1):
                kept = sum(1 for x in range(size ** n)
                           if _necklace(x, n, size) == (x, 1))
                assert kept == _certified_dim(alg, n), (k, n)

    def test_cold_homology_builds_no_right_table(self):
        # where H_n = 0 (n >= 1 on M2) the E11 lift answers with no
        # projection, no dbar, no right-table entry and no certificate;
        # at n = 0 dbar into degree 1 reads the commutator projections of
        # degrees 0 and 1, the second with its certificate
        for n in range(4):
            alg = make_fixture("M2")
            de_rham_homology(alg, n)
            if n:
                assert alg._ab == {} and alg._dbar == {}, n
                assert alg._right == [] and _right_entries(alg) == 0, n
                assert alg._ab_spectrum is None, n
            else:
                assert sorted(alg._ab) == [0, 1]
                assert sorted(alg._dbar) == [0, 1]
                assert alg._ab_spectrum

    def test_one_word_product_builds_one_entry_per_degree(self):
        # a right-table entry of degree n reads one entry of degree n - 1,
        # so a product with a degree-7 left factor builds at most 8
        alg = table_copy(make_fixture("M2"))
        word_product(alg, (1,) + (2, 3) * 3 + (1,), (3, 2))
        assert 0 < _right_entries(alg) <= 8

    def test_planted_shifted_column_fails(self):
        # a dbar column of M_k read off the wrong word, shifted as
        # `_shifted_dbar` does, must be caught against the table copy
        for k, top in ((2, 4), (3, 2)):
            alg = make_matrix_algebra(k)
            ref = table_copy(alg)
            for n in range(1, top + 1):
                low = (alg.dim - 1) ** (n - 1)
                alg._dbar[n] = _shifted_dbar(alg, n, low + 1)
            found = _necklace_mismatches(alg, ref, top, "shifted-%d" % k)
            assert ("kernel", 2) in found and ("primitive", 2) in found, k

    def assert_planted_fails(self, monkeypatch, name, value):
        # the oracle is built before the plant, which may reach its
        # certificate too
        ref = table_copy(make_fixture("M2"))
        for n in range(5):
            abelianization(ref, n)
        monkeypatch.setattr(uforms, name, value, raising=False)
        assert _necklace_mismatches(make_fixture("M2"), ref, 4, "planted")

    def test_planted_wrong_eps_fails(self, monkeypatch):
        true = uforms._eps
        self.assert_planted_fails(monkeypatch, "_eps", lambda n: -true(n))

    def test_planted_phi_coefficient_fails(self, monkeypatch):
        true = uforms._phi

        def flipped(k):
            # dE11, the entry of unit 0
            out = list(true(k))
            (i, ((z, j, c), *rest)), *_ = out[0].items()
            out[0] = {**out[0], i: [(z, j, -c), *rest]}
            return tuple(out)

        self.assert_planted_fails(monkeypatch, "_phi", flipped)

    @pytest.mark.parametrize("shift", (-1, 1))
    def test_planted_necklace_count_fails(self, monkeypatch, shift):
        # one weight-0 class short or one too many gives the E11 lift a
        # nonzero H_n that dbar's representatives do not match: homology
        # raises
        true = uforms._lift

        def planted(alg, n):
            count, rank = true(alg, n)
            return count + (shift if n else 0), rank

        self.assert_planted_fails(monkeypatch, "_lift", planted)


def _paths(alg, rest, memo):
    """phi_z1(a1)...phi_zn(an) for rest = (a1, ..., an) of M_k, summed over
    the letters: (c, j) -> {code of z1...zn: the coefficient of E_cj}.
    Built from rest[:-1] and `_phi` at a_n - 1, and kept in `memo`, one
    dict per algebra."""
    hit = memo.get(rest)
    if hit is None:
        k = alg.matrix_size
        if not rest:
            hit = {(c, c): {0: Q1} for c in range(k)}
        else:
            size, step = alg.dim - 1, _phi(k)[rest[-1] - 1]
            hit = {}
            for (c, i), codes in _paths(alg, rest[:-1], memo).items():
                for z, j, x in step.get(i, ()):
                    accumulate(((code * size + z, v * x)
                                for code, v in codes.items()),
                               hit.setdefault((c, j), {}))
        memo[rest] = hit
    return hit


def _pi(alg, word, memo):
    """pi of a word of M_k by the generalized trace (see the E11-lift
    comment in `uforms`): necklace -> nonzero coefficient, the products of
    `_paths` traced against e_w0 and summed into necklaces with their
    signs."""
    k, n = alg.matrix_size, len(word) - 1
    paths = _paths(alg, word[1:], memo)
    if word[0]:
        r, s = divmod(word[0] - 1, k)
        terms = paths.get((s, r), {}).items()
    else:
        terms = (t for c in range(k) for t in paths.get((c, c), {}).items())
    out = {}
    for code, v in terms:
        key, sign = _necklace(code, n, alg.dim - 1)
        out[key] = out.get(key, Q0) + sign * v
    return {key: v for key, v in out.items() if v}


def _form_pi(alg, form, memo):
    """pi of a homogeneous form of M_k: the sum of `_pi` over its words,
    necklace -> nonzero coefficient."""
    out = {}
    for w, c in form.terms.items():
        for key, v in _pi(alg, w, memo).items():
            out[key] = out.get(key, Q0) + c * v
    return {key: v for key, v in out.items() if v}


def _letter_product(alg, letters, head, t, n):
    """head z1...zn as a UForm, z1...zn the letter code t of n letters."""
    size = len(letters)
    for i in range(n):
        head = head * letters[t // size ** (n - 1 - i) % size]
    return head


def _letter_weight(k, t, n):
    """The torus weight of the letter code t of n letters of M_k: letter
    z_pq, at p k + q, has the weight q - p."""
    size, out = k * k - 1, 0
    for _ in range(n):
        t, u = divmod(t, size)
        out += u % k - u // k
    return out


def _all_lift_rows(alg, n):
    """(t, row) for every necklace t of n letters of M_k, of every weight, by
    decreasing code: the E11 lift rows of `uforms._lift_rows` read off the
    filter of all L^n letter codes, an oracle apart from the weight-0 codes
    of `uforms._weighted_codes`."""
    size = alg.dim - 1
    dz = uforms._dz(alg) if n else ()
    for t in range(size ** n - 1, -1, -1):
        if _necklace(t, n, size) != (t, 1):
            continue
        row = {}
        for i in range(n):
            high, low = size ** (n - i), size ** (n - 1 - i)
            head, rest = divmod(t, high)
            z, tail = divmod(rest, low)
            for pair, c in dz[z]:
                key, sign = _necklace((head * size * size + pair) * low
                                      + tail, n + 1, size)
                if sign:
                    row[key] = row.get(key, 0) + (-1) ** i * sign * c
        yield t, {key: v for key, v in row.items() if v}


@functools.cache
def _lift_blocks(k, n):
    """{weight: (count, rank)} of the E11 lift of M_k at degree n over every
    weight, one echelon per weight, built before any plant; the ranks sum
    to the all-weights rank of dbar out of degree n."""
    alg, blocks = make_matrix_algebra(k), {}
    for t, row in _all_lift_rows(alg, n):
        block = blocks.setdefault(_letter_weight(k, t, n), [0, Echelon()])
        block[0] += 1
        if row:
            block[1].add(row)
    return {w: (count, ech.rank) for w, (count, ech) in blocks.items()}


class TestNecklaceLift:
    """On M_k, homology reads the weight-0 ranks of dbar off the E11 lift of
    each weight-0 necklace (`uforms._lift`); dbar on the commutator
    echelon, in weight 0 and over every weight, and the lift over every
    weight, are the oracles."""

    # (k, top) for weight 0 (0) and for every weight (None)
    TOPS = {0: ((2, 6), (3, 2)), None: ((2, 6), (3, 3))}

    @staticmethod
    @functools.cache
    def word_ranks(k, top, weight):
        # built once per (k, top, weight), always before any plant: the
        # ranks of dbar over every weight, or the number of its independent
        # columns whose quotient word has that weight; columns are
        # homogeneous, so that is the rank of the weight's block
        alg = make_matrix_algebra(k)
        return tuple(sum(1 for q in dbar(alg, n + 1)[0].tags
                         if weight is None
                         or sum(alg.weights[i] for i in q) == weight)
                     for n in range(top + 1))

    @staticmethod
    def lift_ranks(k, top):
        alg = make_matrix_algebra(k)
        return tuple(uforms._lift(alg, n)[1] for n in range(top + 1))

    def test_ranks_match_word_path(self):
        # the weight-0 lift against dbar's weight-0 rank, and the lift
        # over every weight against dbar over every weight
        for k, top in self.TOPS[0]:
            assert self.lift_ranks(k, top) == self.word_ranks(k, top, 0), k
        for k, top in self.TOPS[None]:
            assert tuple(sum(r for _, r in _lift_blocks(k, n).values())
                         for n in range(top + 1)) == \
                self.word_ranks(k, top, None), k

    def test_weight_zero_homology_matches_all_weights(self):
        # F16 on the lift: count_0(n) - rank_0(n) - rank_0(n - 1) is the
        # dimension that the lift over every weight gives
        for k, top in ((2, 10), (3, 4)):
            alg = make_matrix_algebra(k)

            def every(n):
                return [sum(x[i] for x in _lift_blocks(k, n).values())
                        for i in (0, 1)]

            for n in range(1, top + 1):
                count, rank = uforms._lift(alg, n)
                assert _lift_blocks(k, n)[0] == (count, rank), (k, n)
                assert count - rank - uforms._lift(alg, n - 1)[1] == \
                    every(n)[0] - every(n)[1] - every(n - 1)[1], (k, n)

    def test_nonzero_weights_are_acyclic(self):
        # rank_w(n) + rank_w(n - 1) = count_w(n) for every weight w != 0
        for k, top in ((2, 8), (3, 3)):
            for n in range(1, top + 1):
                blocks, lower = _lift_blocks(k, n), _lift_blocks(k, n - 1)
                for w, (count, rank) in blocks.items():
                    if w:
                        assert rank + lower.get(w, (0, 0))[1] == count, \
                            (k, n, w)

    def test_dz_matches_letter_forms(self):
        # the e_a z'z'' are a basis of Omega^2, so d of each letter form
        # solves uniquely as sum M z'z''; tr(E11 e_a) is 1 for the unit
        # and E11 (slots 0 and 1) and 0 otherwise
        for k in (2, 3):
            alg = make_matrix_algebra(k)
            letters = _letters(alg, k)
            size = len(letters)
            index = {w: i for i, w in enumerate(enumerate_words(alg, 2))}
            solver = TrackedEchelon(len(index))
            for a in range(alg.dim):
                e = UForm.from_element(alg.basis(a))
                for z1, f1 in enumerate(letters):
                    for z2, f2 in enumerate(letters):
                        assert solver.add(
                            {index[w]: v for w, v in (e * f1 * f2).terms
                             .items()}, (a, z1 * size + z2)) is None
            assert solver.rank == len(index)
            table = uforms._dz(alg)
            assert len(table) == size
            for z, form in enumerate(letters):
                sol = solver.solve({index[w]: v for w, v in
                                    form.d().terms.items()})
                want = {}
                for (a, pair), v in sol.items():
                    if a < 2:
                        want[pair] = want.get(pair, Q0) + v
                assert dict(table[z]) == \
                    {pair: v for pair, v in want.items() if v}, (k, z)

    def test_rows_are_pi_of_d_of_the_lift(self):
        # E11 z1...zn lifts the necklace, and its row is pi(d(E11 z1...zn))
        # by the word model
        for k, top in ((2, 3), (3, 2)):
            alg, memo = make_matrix_algebra(k), {}
            letters = _letters(alg, k)
            e11 = UForm.from_element(_matrix_unit(alg, k, 0, 0))
            for n in range(top + 1):
                rows = list(uforms._lift_rows(alg, n))
                assert [t for t, _ in rows] == \
                    [t for t, _ in _all_lift_rows(alg, n)
                     if not _letter_weight(k, t, n)], (k, n)
                for t, row in rows:
                    lift = _letter_product(alg, letters, e11, t, n)
                    assert _form_pi(alg, lift, memo) == {t: 1}
                    assert _form_pi(alg, lift.d(), memo) == row, (k, n, t)

    def test_de11_term_vanishes(self):
        # pi(dE11 z1...zn) = 0 for every letter tuple: each term of dE11
        # lies off the diagonal, so the rows carry no dE11 term
        for k, top in ((2, 3), (3, 2)):
            alg, memo = make_matrix_algebra(k), {}
            letters = _letters(alg, k)
            de11 = UForm.from_element(_matrix_unit(alg, k, 0, 0)).d()
            assert de11
            for n in range(top + 1):
                for t in range(len(letters) ** n):
                    form = _letter_product(alg, letters, de11, t, n)
                    assert _form_pi(alg, form, memo) == {}

    def assert_planted_fails(self, monkeypatch, name, value):
        # against the weight-0 blocks of the lift over every weight, built
        # before the plant
        want = [tuple(_lift_blocks(k, n)[0][1] for n in range(top + 1))
                for k, top in self.TOPS[None]]
        monkeypatch.setattr(uforms, name, value)
        for (k, top), ranks in zip(self.TOPS[None], want):
            assert self.lift_ranks(k, top) != ranks, k

    def test_planted_dz_coefficient_fails(self, monkeypatch):
        true = uforms._dz

        def flipped(alg):
            table = list(true(alg))
            (pair, c), *rest = table[0]
            table[0] = ((pair, -c), *rest)
            return tuple(table)

        self.assert_planted_fails(monkeypatch, "_dz", flipped)

    def test_planted_dropped_dz_term_fails(self, monkeypatch):
        true = uforms._dz

        def dropped(alg):
            table = list(true(alg))
            table[0] = table[0][1:]
            return tuple(table)

        self.assert_planted_fails(monkeypatch, "_dz", dropped)

    def test_planted_ekk_phi_coefficient_fails(self, monkeypatch):
        # only `_dz` reads E_kk's entry of `_phi` (for z_pp = c_pp - c_kk),
        # so a flip there must reach the lift's ranks
        true = uforms._phi

        def flipped(k):
            out = list(true(k))
            rows = out[k * k - 1]
            (z, j, c), *rest = rows[min(rows)]
            out[k * k - 1] = {**rows, min(rows): [(z, j, -c), *rest]}
            return tuple(out)

        self.assert_planted_fails(monkeypatch, "_phi", flipped)

    def test_planted_wrong_eps_fails(self, monkeypatch):
        true = uforms._eps
        self.assert_planted_fails(monkeypatch, "_eps", lambda n: -true(n))

    def test_refusals_come_before_any_build(self):
        # a negative degree, or n + 1 past the cap, is refused before the
        # lift (or the word path) builds anything
        for name in ("M2", "x3"):
            alg = make_fixture(name, degree_cap=4)
            with pytest.raises(FormError, match="negative degree"):
                de_rham_homology(alg, -1)
            with pytest.raises(DegreeCapError, match="H_4 needs degree 5, "
                               "which exceeds cap 4"):
                de_rham_homology(alg, 4)
            assert (alg._ab, alg._dbar, alg._right, alg._necklace) == \
                ({}, {}, [], None), name


class TestExtendHom:
    def _homs(self):
        x3 = make_fixture("x3")
        dual = make_fixture("dual")
        q = make_fixture("Q")
        qq = make_fixture("QxQ")
        yield AlgebraHom(x3, dual, [[Q1, Q0, Q0], [Q0, Q1, Q0]])
        yield AlgebraHom(qq, q, [[Q1, Q1]])
        yield AlgebraHom(q, qq, [[Q1], [Q0]])
        yield self._x3_shear()

    @staticmethod
    def _x3_shear():
        """The automorphism x -> x + x^2 of Q[x]/(x^3)."""
        x3 = make_fixture("x3")
        return AlgebraHom(x3, x3, [[Q1, Q0, Q0], [Q0, Q1, Q0], [Q0, Q1, Q1]])

    def test_chain_map_and_multiplicative(self):
        rng = random.Random(13)
        for psi in self._homs():
            f = extend_hom(psi)
            for _ in range(20):
                u = rand_homogeneous(psi.source, rng, rng.randint(0, 3))
                v = rand_homogeneous(psi.source, rng, rng.randint(0, 2))
                assert f(u.d()) == f(u).d()
                assert f(u * v) == f(u) * f(v)

    def test_unit_preserved(self):
        for psi in self._homs():
            f = extend_hom(psi)
            assert f(UForm.unit(psi.source)) == UForm.unit(psi.target)
        # x dx -> (x + x^2) d(x + x^2) = x dx + x dx^2 + x^2 dx + x^2 dx^2
        shear = self._x3_shear()
        image = extend_hom(shear)(UForm.word(shear.source, (1, 1)))
        assert image.terms == {(1, 1): Q1, (1, 2): Q1, (2, 1): Q1,
                               (2, 2): Q1}
