"""Idempotents, connections, curvature, trace, and Chern classes."""

import operator
import random
from fractions import Fraction

import pytest

from kchern.algebra import AlgebraError, AlgebraHom
from kchern.connections import (Connection, ConnectionError_, Idempotent, Mat,
                                ModuleIso, apply_operator, block_diag, chern,
                                compose_iso,
                                curvature, curvature_formula, direct_sum,
                                extend_scalars, grassmann, permute_blocks,
                                pullback, random_automorphism,
                                random_connection, random_form,
                                family_scalars, random_idempotent,
                                random_iso, sum_iso, to_form, trace_ab)
from kchern.exactmath import Poly, Q0, Q1
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.transgression import (TForm, _curvature_parts, bigon_straight,
                                  constant_path, reverse_path, straight_line,
                                  three_point_path)
from kchern.uforms import (DegreeCapError, FormError, UForm, ab_d,
                           enumerate_words, is_exact_in_ab, multiply,
                           project_ab, word_product)
from tests.test_uforms import rand_homogeneous


class TestIdempotents:
    def test_rejects_non_idempotent(self):
        dual = make_fixture("dual")
        eps = dual.basis(1)
        with pytest.raises(ConnectionError_):
            Idempotent(dual, Mat([[eps]]))

    def test_random_idempotents(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(1)
            for n in (1, 2, 3):
                p = random_idempotent(alg, n, rng)
                assert p.mat * p.mat == p.mat

    def test_identity_and_zero(self):
        alg = make_fixture("QxQ")
        assert Idempotent.identity(alg, 2).size == 2
        assert Idempotent.zero(alg, 1).size == 1

    def test_rejects_empty_matrix(self):
        alg = make_fixture("dual")
        with pytest.raises(ConnectionError_, match="empty"):
            Idempotent(alg, Mat([]))
        with pytest.raises(ConnectionError_, match="empty"):
            random_idempotent(alg, 0, 1)


class TestConnections:
    def test_grassmann_theta_zero(self):
        alg = make_fixture("QxQ")
        p = random_idempotent(alg, 2, random.Random(2))
        c = grassmann(p)
        assert all(f.is_zero() for row in c.theta.entries for f in row)

    def test_rejects_unreduced_potential(self):
        alg = make_fixture("QxQ")
        e = alg.basis(1)
        p = Idempotent(alg, Mat([[e]]))
        f = alg.unit() - e
        theta = Mat([[UForm.from_element(f).d()]])  # (1-e) de, not p.theta.p
        with pytest.raises(ConnectionError_):
            Connection(p, theta)

    def test_single_connection_refuses_polynomial_scalars(self):
        dual = make_fixture("dual")
        p = Idempotent.identity(dual, 1)
        for coeff in (Poly.TYPES[1]({(1,): 1}), Poly.TYPES[1]({(0,): 1}),
                      Poly.TYPES[2]({(0, 1): 1})):
            theta = Mat([[UForm(dual, {(0, 1): coeff})]])
            with pytest.raises(ConnectionError_, match="rational scalars"):
                Connection(p, theta)
        assert Connection(p, Mat([[UForm(dual, {(0, 1): 1})]]))

    def test_curvature_operator_oracle(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(3)
            for _ in range(5):
                p = random_idempotent(alg, 2, rng)
                c = random_connection(p, rng)
                r = curvature(c)
                pf = p.to_form()
                lhs = (r * pf).entries
                rhs = apply_operator(c, apply_operator(c, pf)).entries
                assert lhs == rhs

    def test_trace_cyclicity(self):
        rng = random.Random(4)
        for name in ("dual", "M2", "C2"):
            alg = make_fixture(name)
            for _ in range(10):
                da, db = rng.randint(0, 2), rng.randint(0, 2)
                a = Mat([[rand_homogeneous(alg, rng, da) for _ in range(2)]
                         for _ in range(2)])
                b = Mat([[rand_homogeneous(alg, rng, db) for _ in range(2)]
                         for _ in range(2)])
                sign = -Q1 if (da * db) % 2 else Q1
                assert trace_ab(a * b) == trace_ab(b * a).scale(sign)


class TestChern:
    def test_kmax_range(self):
        c = random_connection(random_idempotent(make_fixture("dual"), 2, 1),
                              2)
        assert len(chern(c, 0)) == 1
        with pytest.raises(ValueError):
            chern(c, -1)

    def test_full_unit_idempotent(self):
        # p = 1 (rank 1 free module), Grassmann connection: ch0 = [1], rest 0
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            p = Idempotent.identity(alg, 1)
            chs = chern(grassmann(p), 2)
            assert chs[0] == project_ab(UForm.unit(alg))
            assert chs[1].is_zero() and chs[2].is_zero()

    def test_product_algebra_line_golden(self):
        # ch_k of the e-line in QxQ: ch1 = [e de de], ch2 = (1/2)[e (de)^4]
        qq = make_fixture("QxQ")
        e = qq.basis(1)
        p = Idempotent(qq, Mat([[e]]))
        chs = chern(grassmann(p), 2)
        f = UForm.from_element(e)
        assert chs[0] == project_ab(f)
        assert chs[1] == project_ab(f * f.d() * f.d())
        w4 = f * f.d() * f.d() * f.d() * f.d()
        assert chs[2] == project_ab(w4).scale(Fraction(1, 2))

    def test_closed_additive_and_independent(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(5)
            for _ in range(3):
                p = random_idempotent(alg, 2, rng)
                c1 = random_connection(p, rng)
                c2 = random_connection(p, rng)
                chs1 = chern(c1, 2)
                chs2 = chern(c2, 2)
                for k, cls in enumerate(chs1):
                    assert ab_d(cls).is_zero()
                both = chern(direct_sum(c1, c2), 2)
                for k in range(3):
                    assert both[k] == chs1[k] + chs2[k]
                for k in (1, 2):
                    ok, _ = is_exact_in_ab(chs1[k] - chs2[k], 2 * k)
                    assert ok

    def test_ch0_is_trace_of_p(self):
        alg = make_fixture("C2")
        rng = random.Random(6)
        p = random_idempotent(alg, 2, rng)
        assert chern(grassmann(p), 0)[0] == trace_ab(p.to_form())


class TestIsos:
    def test_pullback_along_identity(self):
        alg = make_fixture("QxQ")
        rng = random.Random(7)
        p = random_idempotent(alg, 2, rng)
        c = random_connection(p, rng)
        c2 = pullback(c, ModuleIso.identity(p))
        assert c2.theta.entries == c.theta.entries

    def test_chern_invariant_under_pullback(self):
        for name in ("dual", "QxQ", "M2"):
            alg = make_fixture(name)
            rng = random.Random(8)
            p0 = random_idempotent(alg, 2, rng)
            p1, iso = random_iso(p0, rng)
            c1 = random_connection(p1, rng)
            assert chern(pullback(c1, iso), 2) == chern(c1, 2)

    def test_pullback_composes(self):
        alg = make_fixture("C2")
        rng = random.Random(9)
        p0 = random_idempotent(alg, 2, rng)
        p1, iso01 = random_iso(p0, rng)
        p2, iso12 = random_iso(p1, rng)
        c2 = random_connection(p2, rng)
        via = pullback(pullback(c2, iso12), iso01)
        direct = pullback(c2, compose_iso(iso12, iso01))
        assert via.theta.entries == direct.theta.entries

    def test_automorphism_fixes_p(self):
        alg = make_fixture("x3")
        rng = random.Random(10)
        p = random_idempotent(alg, 2, rng)
        aut = random_automorphism(p, rng)
        assert aut.p0 == p and aut.p1 == p
        # and it is a scalar multiple p/(1 + alpha) of p
        assert any(aut.u == p.mat.map(lambda e: e.scale(Fraction(1, 1 + a)))
                   for a in (1, 2, -2, 3))

    def test_permute_blocks_roundtrip(self):
        alg = make_fixture("QxQ")
        rng = random.Random(11)
        p = random_idempotent(alg, 2, rng)
        q = random_idempotent(alg, 1, rng)
        pq = direct_sum(grassmann(p), grassmann(q)).p
        s = permute_blocks(pq, (p.size, q.size), (1, 0))
        assert s.p1 == direct_sum(grassmann(q), grassmann(p)).p
        back = s.inverse()
        comp = compose_iso(s, back)
        assert comp.p0 == comp.p1

    def test_permute_blocks_refusals(self):
        dual = make_fixture("dual")
        one, z, eps = dual.unit(), dual.zero(), dual.basis(1)
        diag = Idempotent.identity(dual, 3)
        for sizes, order in [((1, 1), (1, 0)), ((2, 2), (1, 0)),
                             ((4, -1), (1, 0)), ((1, 2), (0, 0)),
                             ((1, 2), (1, 2)), ((1, 1, 1), (2, 0))]:
            with pytest.raises(ConnectionError_):
                permute_blocks(diag, sizes, order)
        # [[1, eps], [0, 0]] is idempotent with an entry off its 1+1 blocks
        p = Idempotent(dual, Mat([[one, eps], [z, z]]))
        with pytest.raises(ConnectionError_):
            permute_blocks(p, (1, 1), (1, 0))
        assert permute_blocks(p, (2,), (0,)).p1 == p

    def test_sum_iso_blocks(self):
        alg = make_fixture("dual")
        rng = random.Random(12)
        p = random_idempotent(alg, 1, rng)
        q = random_idempotent(alg, 2, rng)
        _, a = random_iso(p, rng)
        _, b = random_iso(q, rng)
        s = sum_iso(a, b)
        assert s.p0.size == 3


def _random_rows(n, rng, entry, zero):
    """n x n entries: entry() 70% of the time, else `zero`, and, half the
    time, a zero off-diagonal block."""
    rows = [[entry() if rng.random() < 0.7 else zero for _ in range(n)]
            for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        cut = rng.randint(1, n - 1)
        for i in range(cut):
            for j in range(cut, n):
                rows[i][j] = zero
    return rows


def _random_mat(n, rng, entry, zero):
    return Mat(_random_rows(n, rng, entry, zero))


_COEFFS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _random_kernel_rows(alg, n, rng):
    """n x n elements, with non-integral coefficients, zero entries and, half
    the time, a zero off-diagonal block."""
    return _random_rows(n, rng, lambda: alg.element(
        [rng.choice(_COEFFS) for _ in range(alg.dim)]), alg.zero())


def _entrywise_product(alg, x, y):
    """x*y summed entry by entry from the dense structure table `mul`, for
    x and y given as lists of element rows (read by their `vec`)."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [Q0] * alg.dim
            for l in range(n):
                for a, ca in enumerate(x[i][l].vec):
                    for b, cb in enumerate(y[l][j].vec):
                        for k, s in enumerate(alg.mul[a][b]):
                            vec[k] += ca * cb * s
            row.append(alg.element(vec))
        out.append(row)
    return out


def _stored(elements):
    """Whether every coefficient is stored as `rat` gives it: integral
    results as int."""
    return not any(type(c) is Fraction and c.denominator == 1
                   for e in elements for c in e.terms.values())


def _kernel_agrees(alg, seed, trials=8):
    """(Mat products agree, element products agree): whether Mat products
    of seeded matrices, and `AlgElement.__mul__` on their entries paired
    position by position, equal `_entrywise_product` and store their
    results as `rat` gives them."""
    rng = random.Random(seed)
    mats = elements = True
    for _ in range(trials):
        n = rng.randint(1, 4)
        x = _random_kernel_rows(alg, n, rng)
        y = _random_kernel_rows(alg, n, rng)
        entries = (Mat(x) * Mat(y)).entries
        mats = mats and entries == _entrywise_product(alg, x, y) and _stored(
            e for row in entries for e in row)
        pairs = [(a, b) for ra, rb in zip(x, y) for a, b in zip(ra, rb)]
        products = [a * b for a, b in pairs]
        elements = elements and products == [
            _entrywise_product(alg, [[a]], [[b]])[0][0]
            for a, b in pairs] and _stored(products)
    return mats, elements


class TestProductKernel:
    def test_matches_entrywise_products(self):
        for name in FIXTURE_NAMES:
            assert _kernel_agrees(make_fixture(name), 40) == (True, True), name

    def test_planted_structure_constant_fails(self):
        # one wrong constant in the sparse table, for every pair (i, j)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            table = [list(row) for row in alg.sparse_mul]
            for i in range(alg.dim):
                for j in range(alg.dim):
                    terms = list(table[i][j]) or [(0, 0)]
                    k, c = terms[0]
                    terms[0] = (k, c + 1)
                    bad = make_fixture(name)
                    bad.sparse_mul = tuple(
                        tuple(tuple(terms) if (a, b) == (i, j) else t
                              for b, t in enumerate(row))
                        for a, row in enumerate(table))
                    assert _kernel_agrees(bad, 41, trials=30) == (
                        False, False), (name, i, j)

    def test_mixed_entries_raise(self):
        dual, x3 = make_fixture("dual"), make_fixture("x3")
        a = Mat([[dual.unit(), dual.zero()], [dual.zero(), dual.unit()]])
        b = Mat([[x3.unit(), x3.zero()], [x3.zero(), x3.unit()]])
        with pytest.raises(AlgebraError):
            a * b
        with pytest.raises(AlgebraError):
            a * a.map(UForm.from_element)
        with pytest.raises(AlgebraError):
            a * Mat([[dual.unit(), x3.zero()], [dual.zero(), dual.unit()]])
        # an element product checks its operand before it reads any term
        for left, right in ((dual.zero(), x3.unit()), (dual.unit(), x3.zero()),
                            (dual.zero(), x3.zero())):
            with pytest.raises(AlgebraError):
                left * right
        # an equal algebra built twice is the same algebra
        again = make_fixture("dual")
        assert a * a.map(lambda e: again.element(e.vec)) == a

    def test_terms_match_vec(self):
        # an element holds only its terms, and vec is read from them: over
        # the same operations, the terms are the nonzero entries of vec,
        # each stored by rat (an int when integral)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(42)
            x = Mat(_random_kernel_rows(alg, 3, rng))
            y = Mat(_random_kernel_rows(alg, 3, rng))
            a = alg.element([rng.choice(_COEFFS) for _ in range(alg.dim)])
            b = x.entries[0][0]
            made = [a, alg.zero(), a + b, a - b, -a, a * b, b * a,
                    a.scale(Fraction(-3, 2)), a.scale(0), a - a]
            made += [alg.basis(i) for i in range(alg.dim)]
            made += [e for row in (x * y).entries for e in row]
            for e in made:
                assert e.terms == {i: c for i, c in enumerate(e.vec)
                                   if c}, (name, e)
                assert all(type(c) is int or type(c) is Fraction
                           and c.denominator != 1
                           for c in e.terms.values()), (name, e)

    def test_empty_matrix(self):
        assert (Mat([]) * Mat([])).size == 0
        with pytest.raises(ConnectionError_, match="empty"):
            Idempotent(make_fixture("M2"), Mat([]))


def _random_form_mat(alg, n, rng, r):
    """n x n forms of degrees 0 to 2 with rational scalars (r = 0) or
    polynomial ones in r variables, as `_random_mat` places them."""
    def scalar():
        c = rng.choice(_COEFFS[2:])
        if not r:
            return c
        return Poly.TYPES[r]({(0,) * r: c, tuple(rng.randint(0, 1)
                                                  for _ in range(r)): 1})

    return _random_mat(n, rng, lambda: random_form(
        alg, rng, (0, 1, 2), (0, 2), 2).map_scalars(
            lambda c: c * scalar()), UForm.zero(alg))


def _entrywise_form_product(alg, x, y):
    """x*y over `alg` (an algebra equal to that of x and y, with its own
    word products), each entry summed term by term with `multiply`."""
    n = x.size
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = UForm.zero(alg)
            for k in range(n):
                acc = acc + multiply(UForm(alg, x.entries[i][k].terms),
                                     UForm(alg, y.entries[k][j].terms))
            row.append(acc)
        out.append(row)
    return out


def _form_kernel_agrees(alg, ref, seed, trials=6):
    rng = random.Random(seed)
    for _ in range(trials):
        n, r = rng.randint(1, 4), rng.randint(0, 2)
        x = _random_form_mat(alg, n, rng, r)
        y = _random_form_mat(alg, n, rng, r)
        if (x * y).entries != _entrywise_form_product(ref, x, y):
            return False
    return True


def _raised(f):
    try:
        f()
    except Exception as exc:
        return type(exc)
    return None


class TestFormProductKernel:
    def test_matches_entrywise_products(self):
        for name in FIXTURE_NAMES:
            assert _form_kernel_agrees(make_fixture(name), make_fixture(name),
                                       50), name
        assert (Mat([]) * Mat([])).size == 0

    def test_planted_word_product_fails(self):
        # one extra term in one memoized word product that the product
        # reads
        for name in FIXTURE_NAMES:
            bad = make_fixture(name)
            rng = random.Random(51)
            x = _random_form_mat(bad, 3, rng, 0)
            y = _random_form_mat(bad, 3, rng, 0)
            w1, w2 = next((min(a.terms), min(b.terms))
                          for row in x.entries for k, a in enumerate(row)
                          for b in y.entries[k] if a and b)
            bad._wordmul[w1, w2] = (word_product(bad, w1, w2)
                                    + ((w1 + w2[1:], 1),))
            assert (x * y).entries != _entrywise_form_product(
                make_fixture(name), x, y), name

    def test_mismatches_raise_as_entrywise(self):
        dual, x3 = make_fixture("dual"), make_fixture("x3")
        eps = UForm.from_element(dual.basis(1))

        def mat(one, zero):
            return Mat([[one, zero], [zero, one]])

        forms = mat(eps, UForm.zero(dual))
        others = (mat(UForm.unit(x3), UForm.zero(x3)),
                  mat(dual.unit(), dual.zero()),
                  mat(TForm(eps), TForm.zero(dual)))
        # a matrix mixing algebras or entry types cannot be built: it
        # raises what multiplying its first entry by the odd one raises
        for one, zero in ((eps, UForm.zero(x3)), (eps, dual.zero())):
            raised = _raised(lambda: mat(one, zero))
            assert raised in (FormError, AlgebraError)
            assert raised is _raised(lambda: one * zero)
        for other in others:
            for x, y in ((forms, other), (other, forms)):
                raised = _raised(lambda: x * y)
                assert raised in (FormError, AlgebraError)
                assert raised is _raised(lambda: [
                    [x.entries[i][0] * y.entries[0][j]
                     + x.entries[i][1] * y.entries[1][j] for j in range(2)]
                    for i in range(2)])

    def test_degree_cap(self):
        dual = make_fixture("dual", degree_cap=2)
        deps = UForm.from_element(dual.basis(1)).d()
        zero = UForm.zero(dual)
        x = Mat([[deps * deps, zero], [zero, zero]])
        y = Mat([[zero, deps], [zero, zero]])
        with pytest.raises(DegreeCapError):
            x * y
        assert (y * x).entries == Mat([[zero, zero], [zero, zero]]).entries


class TestMatSizes:
    @pytest.mark.parametrize("entry", [lambda e: e, UForm.from_element],
                             ids=["AlgElement", "UForm"])
    def test_size_mismatch_refused(self, entry):
        dual = make_fixture("dual")
        one, zero = entry(dual.unit()), entry(dual.zero())
        x = Mat([[one]])
        y = Mat([[one, zero], [zero, one]])
        for op in (operator.add, operator.sub, operator.mul):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(ConnectionError_, match="sizes differ"):
                    op(a, b)
        assert (y * y).entries == y.entries


class TestRandomForm:
    def test_degrees_and_coefficient_bound(self):
        rng = random.Random(5)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for _ in range(20):
                u = random_form(alg, rng, range(1, 4, 2), (0, 2), 2)
                assert set(u.degrees()) <= {1, 3}
                assert all(abs(c) <= 4 for c in u.terms.values())

    def test_degree_without_words_draws_nothing(self):
        q = make_fixture("Q")
        rng = random.Random(6)
        state = rng.getstate()
        assert random_form(q, rng, (1, 2), (1, 2), 2).is_zero()
        assert rng.getstate() == state

    def test_draw_order(self):
        # degrees are read lazily: each degree is drawn after the terms of
        # the one before, and each term draws its word, then its coefficient
        alg = make_fixture("M2")
        rng, ref = random.Random(7), random.Random(7)
        u = random_form(alg, rng, (rng.randint(0, 3) for _ in range(3)), 1, 3)
        pairs = []
        for _ in range(3):
            words = enumerate_words(alg, ref.randint(0, 3))
            pairs.append((words[ref.randrange(len(words))],
                          ref.randint(-3, 3)))
        assert u == UForm(alg, pairs)
        assert rng.getstate() == ref.getstate()

    def test_negative_degree_is_refused(self):
        # the kept word lists are indexed by degree, so -1 must not read
        # the highest one built
        alg = make_fixture("dual")
        random_form(alg, random.Random(8), (3,), 1, 1)
        with pytest.raises(FormError, match="negative degree"):
            random_form(alg, random.Random(8), (-1,), 1, 1)


class TestExtendScalars:
    def test_naturality_of_chern(self):
        x3 = make_fixture("x3")
        dual = make_fixture("dual")
        psi = AlgebraHom(x3, dual, [[Q1, Q0, Q0], [Q0, Q1, Q0]])
        rng = random.Random(13)
        p = random_idempotent(x3, 2, rng)
        c = random_connection(p, rng)
        from kchern.uforms import extend_hom
        f = extend_hom(psi)
        pushed = extend_scalars(c, psi)
        assert Idempotent(psi.target, p.mat.map(psi)) == pushed.p
        lhs = chern(pushed, 2)
        rhs = [project_ab(f(cls.lift())) for cls in chern(c, 2)]
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Curvature and pullback against the textbook formulas they rewrite
# ---------------------------------------------------------------------------

def textbook_curvature(pf, theta):
    """p(dp)(dp)p + p(dtheta)p + theta*theta, as first derived."""
    dp = pf.d()
    return pf * dp * dp * pf + pf * theta.d() * pf + theta * theta


def textbook_pullback(c, phi):
    """p0 v (p1 du + theta u) p0, as first derived."""
    p0f, p1f = phi.p0.to_form(), phi.p1.to_form()
    uf, vf = to_form(phi.u), to_form(phi.v)
    return p0f * (vf * (p1f * uf.d() + c.theta * uf)) * p0f


def first_summand(alg):
    """diag(1, 0), whose dp is 0."""
    z, one = alg.zero(), alg.unit()
    return Idempotent(alg, Mat([[one, z], [z, z]]))


def conjugated_summand(alg):
    """g diag(1, 0) g^-1 for g = [[1, 0], [b, 1]] [[1, a], [0, 1]] with
    a = e_1 and b = e_(m-1): dp dp is not 0 where A has such elements."""
    one = alg.unit()
    a, b = (alg.element([int(k == i) for k in range(alg.dim)])
            for i in (1, alg.dim - 1))
    return Idempotent(alg, Mat([[one + a * b, -a],
                                [b + b * a * b, -(b * a)]]))


def idempotents(alg):
    """The first summand, a random idempotent and a conjugated summand; the
    last two have dp != 0 on every fixture but Q."""
    return (first_summand(alg), random_idempotent(alg, 2, 8),
            conjugated_summand(alg))


def families(p, rng):
    """A connection, a path and a bigon on p (R = 0, 1, 2)."""
    c = [random_connection(p, rng) for _ in range(4)]
    return (c[0], straight_line(c[0], c[1]),
            straight_line(straight_line(c[0], c[1]),
                          straight_line(c[2], c[3])))


def uncompressed(c, word):
    """c with `word` added at the (1, 1) entry of theta, outside Im p for
    the first summand: built with `Mat._new`, bypassing the compression
    check of `Connection`."""
    bad = object.__new__(Connection)
    data = dict(c.theta.data)
    data[1, 1, word] = 1
    bad.p, bad.algebra, bad.R = c.p, c.algebra, c.R
    bad.theta = Mat._new(UForm, c.algebra, c.theta.size, data)
    return bad


class TestCompressionIdentities:
    """curvature_formula and pullback use p dp p = 0, theta = p theta p and
    the compressions of u and v; the textbook formulas do not."""

    def test_curvature_matches_textbook(self):
        dp_nonzero = 0
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("curv-" + name)
            for p in idempotents(alg):
                pf = p.to_form()
                dp_nonzero += bool(pf.d().data)
                for fam in families(p, rng):
                    assert curvature_formula(pf, fam.theta) == \
                        textbook_curvature(pf, fam.theta), (name, fam.R)
        assert dp_nonzero == 2 * (len(FIXTURE_NAMES) - 1)

    def test_pullback_matches_textbook(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("pull-" + name)
            for p0 in idempotents(alg):
                p1, phi = random_iso(p0, rng)
                for fam in families(p1, rng):
                    want = Connection(p0, textbook_pullback(fam, phi), fam.R)
                    got = pullback(fam, phi)
                    assert (got.theta, got.R) == (want.theta, fam.R), name

    def test_planted_uncompressed_theta_breaks_curvature(self):
        # the curvature identity is licensed by the compression check of
        # Connection: a theta that bypasses it makes the formulas differ
        alg = make_fixture("dual")
        p = first_summand(alg)
        for fam in families(p, random.Random(5)):
            bad = uncompressed(fam, (1, 1))
            pf = p.to_form()
            assert curvature_formula(pf, bad.theta) != \
                textbook_curvature(pf, bad.theta), fam.R
            with pytest.raises(ConnectionError_, match="not compressed"):
                Connection(p, bad.theta, fam.R)

    def test_planted_uncompressed_iso_breaks_pullback(self):
        # pullback's identity is licensed by ModuleIso's checks alone: an
        # uncompressed theta leaves it exact, v*theta*u = v (p1 theta p1) u,
        # but a v that bypasses v = p0 v p1 makes the formulas differ, and
        # the Connection check refuses the result
        alg = make_fixture("dual")
        p = first_summand(alg)
        z = UForm.zero(alg)
        c = Connection(p, Mat([[UForm(alg, {(0, 1): 1, (1, 1): 2}), z],
                               [z, z]]))
        phi = ModuleIso.identity(p)
        bad = uncompressed(c, (1, 1))
        assert Connection(p, textbook_pullback(bad, phi)).theta == \
            pullback(bad, phi).theta
        z, one = alg.zero(), alg.unit()
        leak = object.__new__(ModuleIso)
        leak.p0, leak.p1, leak.u = p, p, p.mat
        leak.v = p.mat + Mat([[z, z], [one, z]])
        assert Connection(p, textbook_pullback(c, leak)).theta == c.theta
        with pytest.raises(ConnectionError_, match="not compressed"):
            pullback(c, leak)

    def test_first_summand_curvature_is_one_product(self, monkeypatch):
        alg = make_fixture("M2")
        c = random_connection(first_summand(alg), random.Random(7))
        assert c.theta.data and not c.p.to_form().d().data
        calls = []
        product = Mat._product

        def counted(self, other, keep=None):
            if self.data and other.data:
                calls.append(1)
            return product(self, other, keep)

        monkeypatch.setattr(Mat, "_product", counted)
        r = curvature(c)
        assert len(calls) == 1
        assert r == c.theta * c.theta + c.theta.d()


# ---------------------------------------------------------------------------
# Closure operations build through _new: their identities, rechecked
# ---------------------------------------------------------------------------

def recheck(x):
    """x rebuilt by its checked public constructor, or ConnectionError_
    where an identity that its closure operation claims fails."""
    if isinstance(x, Idempotent):
        return Idempotent(x.algebra, x.mat)
    if isinstance(x, Connection):
        return Connection(recheck(x.p), x.theta, x.R)
    return ModuleIso(recheck(x.p0), recheck(x.p1), x.u, x.v)


def closure_inputs(alg, rng):
    """Seeded isos Im(p) -> Im(p1) -> Im(p2) on a conjugate p of the first
    summand, an iso on the 1 x 1 identity, a connection on that, and three
    on p."""
    p, _ = random_iso(first_summand(alg), rng)
    p1, a = random_iso(p, rng)
    _, b = random_iso(p1, rng)
    one = Idempotent.identity(alg, 1)
    _, e = random_iso(one, rng)
    return (a, b, e, random_connection(one, rng),
            [random_connection(p, rng) for _ in range(3)])


def closure_results(alg, rng):
    """(name, result) for every closure operation that builds through
    `_new`, on seeded inputs."""
    a, b, e, c1, (c0, c, c2) = closure_inputs(alg, rng)
    line, quad = straight_line(c0, c), three_point_path(c0, c, c2)
    line1 = straight_line(c1, c1)
    bigon = straight_line(line, quad)
    pair = sum_iso(a, e)
    third = Fraction(1, 3)
    return [
        ("direct_sum", direct_sum(c0, c1)),
        ("direct_sum of paths", direct_sum(line, line1)),
        ("sum_iso", pair),
        ("compose_iso", compose_iso(a, b)),
        ("permute_blocks", permute_blocks(pair.p1, (2, 1), (1, 0))),
        ("inverse", a.inverse()),
        ("identity", ModuleIso.identity(a.p1)),
        ("straight_line", line),
        ("three_point_path", quad),
        ("bigon", bigon),
        ("restrict", line.restrict(0, third)),
        ("restrict a bigon", bigon.restrict(1, third)),
        ("reverse_path", reverse_path(quad)),
    ]


def family_results(alg, rng):
    """(name, family) for every closure operation that builds a family, on
    seeded inputs: paths through connections on the conjugated summand, a
    bigon between two of them, a constant path on the 1 x 1 identity, and
    the constant path of the Grassmann connection, whose theta is 0, so
    that its base curvature p dp dp has only p's rationals."""
    p = conjugated_summand(alg)
    c0, c, c2 = (random_connection(p, rng) for _ in range(3))
    c1 = random_connection(Idempotent.identity(alg, 1), rng)
    line, quad = straight_line(c0, c), three_point_path(c0, c2, c)
    bigon = bigon_straight(line, quad)
    third = Fraction(1, 3)
    return [
        ("straight_line", line),
        ("three_point_path", quad),
        ("constant_path", constant_path(c0)),
        ("constant Grassmann path", constant_path(grassmann(p))),
        ("bigon_straight", bigon),
        ("direct_sum of paths", direct_sum(line, constant_path(c1))),
        ("restrict a bigon", bigon.restrict(0, third)),
        ("restrict a path", line.restrict(0, third)),
        ("reverse_path", reverse_path(quad)),
    ]


def _theta_and_curvature(family):
    """("theta", theta), then (mask, part) for the cylinder curvature parts
    of a family with R >= 1, computed only when they are reached."""
    yield "theta", family.theta
    if family.R:
        yield from sorted(_curvature_parts(family).items())


def _sum_iso_swapped_u(a, b):
    iso = sum_iso(a, b)
    return ModuleIso._new(iso.p0, iso.p1, block_diag(b.u, a.u), iso.v)


def _compose_iso_reversed_u(a, b):
    iso = compose_iso(a, b)
    return ModuleIso._new(iso.p0, iso.p1, a.u * b.u, iso.v)


def _permute_blocks_row_v(p, sizes, order):
    iso = permute_blocks(p, sizes, order)
    return ModuleIso._new(iso.p0, iso.p1, iso.u, iso.u)     # v = s*p


def _direct_sum_swapped_theta(c1, c2):
    c = direct_sum(c1, c2)
    return Connection._new(c.p, block_diag(c2.theta, c1.theta), c.R)


class TestClosureIdentities:
    """Each closure operation skips the checks that its identity makes
    hold; the checked constructors accept every result, and refuse a
    planted defect in each block-structural operation."""

    def test_checked_constructors_accept_closures(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("closure/" + name)
            for op, x in closure_results(alg, rng):
                y = recheck(x)
                if isinstance(x, Connection):
                    assert (y.theta, y.R) == (x.theta, x.R), (name, op)

    def test_closure_families_keep_their_scalar_type(self):
        # the constructor fixes a family's scalars as family_scalars(R),
        # rationals at R = 0, and every closure operation keeps that type,
        # so Connection._new only wraps; the curvature parts have it too
        nonzero = set()
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("scalars/" + name)
            for op, fam in family_results(alg, rng):
                want = {family_scalars(fam.R)} if fam.R else {int, Fraction}
                for part, m in _theta_and_curvature(fam):
                    got = {type(q) for q in m.data.values()}
                    assert got <= want, (name, op, part, got)
                    if got:
                        nonzero.add(op)
        assert nonzero == {op for op, _ in family_results(
            make_fixture("dual"), random.Random(0))}

    def test_checked_constructors_refuse_planted_defects(self):
        refused = {}
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            a, b, e, c1, conns = closure_inputs(
                alg, random.Random("closure/" + name))
            pair = sum_iso(a, e)
            plants = [
                ("sum_iso", lambda: _sum_iso_swapped_u(a, e)),
                ("compose_iso", lambda: _compose_iso_reversed_u(a, b)),
                ("permute_blocks", lambda: _permute_blocks_row_v(
                    pair.p1, (2, 1), (1, 0)))]
            # swapped thetas differ only if one is nonzero; on Q, which
            # has no degree-1 forms, none is
            c0 = next((c for c in conns if c.theta.data), None)
            if c0 is not None:
                plants.append(("direct_sum",
                               lambda: _direct_sum_swapped_theta(c0, c1)))
            for op, plant in plants:
                with pytest.raises(ConnectionError_):
                    recheck(plant())
                refused.setdefault(op, set()).add(name)
        everywhere = set(FIXTURE_NAMES)
        assert refused == {"sum_iso": everywhere, "compose_iso": everywhere,
                           "permute_blocks": everywhere,
                           "direct_sum": everywhere - {"Q"}}
