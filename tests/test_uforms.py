"""Universal differential forms, abelianization, and de Rham homology."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kchern.algebra import Algebra, AlgebraHom
from kchern.connections import random_form
from kchern.exactmath import Echelon, Q0, Q1, TrackedEchelon
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.serialize import form_to_json
from kchern.uforms import (AbClass, AbProjection, DegreeCapError, FormError,
                           UForm, ab_d, abelianization, de_rham_homology,
                           differential, dimension, enumerate_words,
                           extend_hom, is_exact_in_ab, multiply, project_ab,
                           to_poly, word_product, _degree)


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
        assert len({u, to_poly(u, 1)}) == 1

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

    def test_stored_scalars_keep_one_representation(self):
        # integral rationals are stored as int, everything else as a
        # Fraction with denominator > 1
        def canonical(c):
            return type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1)

        alg = make_fixture("M2")
        abelianization(alg, 4)
        for n in range(5):
            for row in abelianization(alg, n).echelon.pivots.values():
                assert all(canonical(c) for c in row.values())
        # the right-multiplication tables the build read, and the word
        # products decoded from them
        assert len(alg._right) == 5
        for words, index, right in alg._right:
            assert [index[w] for w in words] == list(range(len(words)))
            for col in right[1:]:
                assert all(canonical(c) for terms in col for _, c in terms)
        words = enumerate_words(alg, 2)
        for w1 in words:
            for w2 in words:
                word_product(alg, w1, w2)
        assert alg._wordmul
        for prod in alg._wordmul.values():
            assert all(canonical(c) for _, c in prod)

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
        assert differential(eps) == eps.d()
        assert multiply(eps, eps.d()) == eps * eps.d()


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
        tops = {"M2": 4, "x3": 5}
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for n in range(tops.get(name, 6) + 1):
                self.assert_same_projection(alg, n)

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
        # one flipped coefficient in one degree-1 right-table entry, before
        # any degree above it is built, must show in the projection
        alg = make_fixture("M2")
        _, _, right = _degree(alg, 1)
        col = right[1]
        idx = next(i for i, terms in enumerate(col) if terms)
        (k, c), *rest = col[idx]
        col[idx] = ((k, -c), *rest)
        differs = []
        for n in range(4):
            fast, oracle = abelianization(alg, n), _all_pairs_span(alg, n)
            differs.append(set(fast.echelon.pivots)
                           != set(oracle.echelon.pivots)
                           or fast.quotient_words != oracle.quotient_words)
        assert any(differs), differs


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


def _quotient_dbar(alg, n):
    """dbar into degree n in quotient coordinates, the k-th coordinate the
    k-th quotient word of degree n: each degree n-1 quotient word q is
    mapped by `project_ab(UForm.word(alg, q).d())`.  Returns (solver,
    kernel, coordinate of each quotient word), solver and kernel as in
    `AbProjection.dbar`.  A reference apart from the index shift there."""
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
    word at index i goes to the residual of the word at index i - shift
    (zero below index 0) instead of i - B**(n-1)."""
    proj, prev = abelianization(alg, n), abelianization(alg, n - 1)
    solver, kernel = TrackedEchelon(len(proj.words)), []
    for q in prev.quotient_words:
        i = prev.index[q] - shift
        dep = solver.add(proj.echelon.reduce({i: Q1}) if i >= 0 else {}, q)
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
        if [list(v.items()) for v in abelianization(alg, n).dbar()[1]] != \
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
    """`AbProjection.dbar` shifts word indices by B**(n-1) and reduces in
    the degree's own coordinates; the quotient-coordinate build of
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
            nonzero.append(any(abelianization(fresh, n).dbar()[0].rank
                               for n in range(5)))
            for n in range(1, 5):
                low = (alg.dim - 1) ** (n - 1)
                abelianization(alg, n)._dbar = _shifted_dbar(alg, n, low + 1)
            caught.append(bool(_dbar_mismatches(name, alg, 4)))
        assert caught == nonzero == [name in ("dual", "x3", "M2")
                                     for name in FIXTURE_NAMES], caught


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
