"""The flat sparse `Mat`: products over every ring against entrywise
oracles, and its API (entries, +, -, ==, trace, block sums and block
permutations, refusals) against entry-by-entry arithmetic."""

import math
import operator
import random
from fractions import Fraction

import pytest

from kchern.algebra import AlgebraError
from kchern.connections import (ConnectionError_, Idempotent, Mat, block_diag,
                                chern, curvature, direct_sum, permute_blocks,
                                random_connection, random_form,
                                random_idempotent, to_form, trace_ab)
from kchern.exactmath import Poly, Poly1, Poly2, Terms, rat
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.suites import _random_cylform
from kchern.transgression import (BiForm, TForm, _cyl_curvature, _cyl_p,
                                  _fibre_chern, bigon_straight, chern_biform,
                                  chern_tform, straight_line,
                                  three_point_path)
from kchern.uforms import (AbClass, DegreeCapError, FormError, UForm,
                           multiply, word_product)
from tests.test_connections import _COEFFS, _raised, _random_rows
from tests.test_transgression import (_drop_d_sign, _drop_sigma,
                                      _flip_shuffle, _pair_next_column,
                                      ref_biform_d, ref_biform_mul,
                                      ref_tform_d, ref_tform_mul)

RINGS = ("A", "forms", "forms/Poly1", "forms/Poly2", "TForm", "BiForm")
CYLINDERS = {"TForm": (TForm, ref_tform_mul),
             "BiForm": (BiForm, ref_biform_mul)}
# d of one entry: UForm.d, or the hand-expanded reference rule
D_REFERENCES = dict.fromkeys(RINGS[1:4], UForm.d)
D_REFERENCES.update(TForm=ref_tform_d, BiForm=ref_biform_d)


def _scalar(rng, r):
    c = rng.choice(_COEFFS[2:])
    if not r:
        return c
    return Poly.TYPES[r]({(0,) * r: c,
                          tuple(rng.randint(0, 1) for _ in range(r)): 1})


def _ring(name, alg, rng):
    """(draw, zero, mul) of a ring over alg: a seeded nonzero-ish entry, the
    zero entry, and the entry product the oracle sums (AlgElement.__mul__,
    `multiply`, or the hand-expanded reference rule of a cylinder type)."""
    if name == "A":
        return (lambda: alg.element([rng.choice(_COEFFS)
                                     for _ in range(alg.dim)]),
                alg.zero(), operator.mul)
    if name.startswith("forms"):
        r = ("forms", "forms/Poly1", "forms/Poly2").index(name)
        return (lambda: random_form(alg, rng, (0, 1, 2), (0, 2), 2)
                .map_scalars(lambda c: c * _scalar(rng, r)),
                UForm.zero(alg), multiply)
    cls, ref = CYLINDERS[name]
    return lambda: _random_cylform(cls, alg, rng, 1, 1), cls.zero(alg), ref


def _blocks(a, b, zero):
    """The entries of the block diagonal matrix of entry rows a and b."""
    return ([r + [zero] * len(b) for r in a]
            + [[zero] * len(a) + r for r in b])


def _entrywise(x, y, mul, zero):
    n = len(x)
    return [[sum((mul(x[i][k], y[k][j]) for k in range(n)), zero)
             for j in range(n)] for i in range(n)]


def _disagreeing(rings, seed=70, trials=2, top=6):
    """The rings whose matrix products differ from the entrywise oracle on
    seeded 1 x 1 to top x top matrices, with zero entries and zero blocks,
    over every fixture."""
    bad = set()
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random((seed, name).__repr__())
        for ring in rings:
            draw, zero, mul = _ring(ring, alg, rng)
            for _ in range(trials):
                n = rng.randint(1, top)
                x, y = (_random_rows(n, rng, draw, zero) for _ in "xy")
                if (Mat(x) * Mat(y)).entries != _entrywise(x, y, mul, zero):
                    bad.add(ring)
    return bad


def _diagonal_disagreeing(rings, seed=74, trials=2, top=4):
    """The rings where `Mat.diagonal` differs from the diagonal of the full
    product on seeded 1 x 1 to top x top matrices over every fixture; for
    the cylinder rings also under the match of the fibre integrals (a mask
    pairs with its partner in _TOP_PAIRS), against the dx_top keys of that
    diagonal."""
    bad = set()
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random((seed, name).__repr__())
        for ring in rings:
            draw, zero, _ = _ring(ring, alg, rng)
            for _ in range(trials):
                n = rng.randint(1, top)
                x, y = (Mat(_random_rows(n, rng, draw, zero)) for _ in "xy")
                diagonal = {(i, j, key): c for (i, j, key), c
                            in (x * y).data.items() if i == j}
                if x.diagonal(y).data != diagonal:
                    bad.add(ring)
                if ring not in CYLINDERS:
                    continue
                cls = CYLINDERS[ring][0]
                partner = dict(cls._TOP_PAIRS)
                match = (lambda a: partner.get(a[0]), lambda b: b[0])
                if x.diagonal(y, match).data != {
                        (i, j, key): c for (i, j, key), c in diagonal.items()
                        if key[0] == (1 << cls.R) - 1}:
                    bad.add(ring)
    return bad


def _poly(rng, r):
    """A Poly in r variables with up to three terms, int and Fraction
    coefficients."""
    return Poly.TYPES[r]({tuple(rng.randint(0, 2) for _ in range(r)):
                          rng.choice(_COEFFS) for _ in range(3)})


FUSED_MIXES = ("poly*poly", "rational*poly", "poly*rational", "mixed")


def _fused_disagreeing(seed=73, trials=2, top=4):
    """The (r, mix) whose form-matrix products over Poly scalars in r
    variables differ from the entrywise oracle `multiply` (plain Poly
    arithmetic) or store a scalar otherwise than `_stored` says, on seeded
    1 x 1 to top x top matrices over dual, x3 and M2.  `mix` says which
    factor holds rational scalars; "mixed" draws each scalar's kind at
    random, so the first value of a factor may be either, and a product
    may hold rationals."""
    bad = set()
    for name in ("dual", "x3", "M2"):
        alg = make_fixture(name)
        rng = random.Random(repr((seed, name)))
        zero = UForm.zero(alg)
        for r in (1, 2):
            for mix in FUSED_MIXES:
                kinds = {"poly": lambda: _poly(rng, r),
                         "rational": lambda: rng.choice(_COEFFS[2:]),
                         "mixed": lambda: rng.choice(
                             (_poly(rng, r), rng.choice(_COEFFS[2:])))}

                def draw(kind):
                    return random_form(alg, rng, (0, 1, 2), (0, 2), 2) \
                        .map_scalars(lambda c: c * kinds[kind]())

                left, right = mix.split("*") if "*" in mix else (mix, mix)
                for _ in range(trials):
                    n = rng.randint(1, top)
                    x = _random_rows(n, rng, lambda: draw(left), zero)
                    y = _random_rows(n, rng, lambda: draw(right), zero)
                    got = Mat(x) * Mat(y)
                    if (got.entries != _entrywise(x, y, multiply, zero)
                            or not all(_stored(c, r, mix == "mixed")
                                       for c in got.data.values())):
                        bad.add((r, mix))
    return bad


def _stored(c, r, rational_ok):
    """Whether c is a Poly in r variables (or, if rational_ok, a rational)
    that is nonzero and holds nonzero coefficients as `rat` gives them."""
    def is_rat(v):
        return v and type(v) is (int if Fraction(v).denominator == 1
                                 else Fraction)
    if isinstance(c, Poly):
        return type(c) is Poly.TYPES[r] and c.coeffs and all(
            map(is_rat, c.coeffs.values()))
    return rational_ok and is_rat(c)


def _d_disagreeing(seed=72, trials=2, top=4):
    """The form rings whose `Mat.d` differs from d entry by entry on
    seeded 1 x 1 to top x top matrices over every fixture."""
    bad = set()
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random((seed, name).__repr__())
        for ring, ref in D_REFERENCES.items():
            draw, zero, _ = _ring(ring, alg, rng)
            for _ in range(trials):
                x = _random_rows(rng.randint(1, top), rng, draw, zero)
                if Mat(x).d().entries != [[ref(e) for e in r] for r in x]:
                    bad.add(ring)
    return bad


def _families(name, seed):
    rng = random.Random(seed)
    p = random_idempotent(make_fixture(name), 2, rng)
    c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
    path1 = straight_line(c0, c1)
    path2 = three_point_path(c0, cm, c1)
    return path1, path2, bigon_straight(path1, path2)


def _fibre_by_full_products(family, k_max):
    """_fibre_chern with the dx_top part read off the trace of the whole
    product R~^k."""
    r = _cyl_curvature(family)
    power, out = r, []
    for k in range(1, k_max + 1):
        part = power.trace().parts[-1]
        for _ in range(family.R):
            part = part.map_scalars(lambda q: q.integrate01(0))
        out.append(part.scale(Fraction(1, math.factorial(k))))
        power = power * r
    return out


def _chern_by_full_products(pf, r, k_max, trace):
    """[trace(p), trace(R)/1!, ..., trace(R^kmax)/kmax!] with every power of
    R a full product."""
    out, power = [trace(pf)], r
    for k in range(1, k_max + 1):
        out.append(Fraction(1, math.factorial(k)) * trace(power))
        if k < k_max:
            power = power * r
    return out


class TestFlatMat:
    def test_algebra_and_form_products_match_entrywise(self):
        assert _disagreeing(RINGS[:4]) == set()

    def test_cylinder_products_match_the_reference_rules(self):
        assert _disagreeing(RINGS[4:], trials=1) == set()

    @pytest.mark.parametrize("plant, caught", [
        (_flip_shuffle, {"BiForm"}),
        (_drop_sigma, {"TForm", "BiForm"}),
    ])
    def test_planted_cylinder_sign_fails(self, monkeypatch, plant, caught):
        plant(monkeypatch)
        assert _disagreeing(RINGS[4:], trials=1) == caught

    def test_diagonal_is_the_diagonal_of_the_full_product(self):
        assert _diagonal_disagreeing(RINGS) == set()

    def test_planted_pair_next_column_fails_the_diagonal(self,
                                                         monkeypatch):
        _pair_next_column(monkeypatch)
        assert _diagonal_disagreeing(RINGS) == set(RINGS)

    def test_fused_poly_products_match_entrywise(self):
        assert _fused_disagreeing() == set()

    def test_planted_dropped_rule_sign_fails_fused_products(self,
                                                            monkeypatch):
        # every rule output's scalar s read as 1, as if the product dropped s
        monkeypatch.setattr(UForm, "_key_product", staticmethod(
            lambda alg: lambda a, b: [
                (w, 1) for w, _ in word_product(alg, a, b)]))
        assert _fused_disagreeing() == {(r, mix) for r in (1, 2)
                                        for mix in FUSED_MIXES}

    def test_fused_products_cancel_and_store_ints(self):
        dual = make_fixture("dual")
        one, zero = UForm.unit(dual), UForm.zero(dual)
        half = Fraction(1, 2)
        # (1/2 + 3/2 t)(2t) - (1/2)(2t) = 3t^2: the t terms cancel, and
        # 3/2 * 2 is stored as the int 3
        x = Mat([[one.scale(Poly1({(0,): half, (1,): Fraction(3, 2)})),
                  one.scale(Poly1({(0,): -half}))], [zero, zero]])
        y = Mat([[one.scale(Poly1({(1,): 2})), zero],
                 [one.scale(Poly1({(1,): 2})), zero]])
        got = (x * y).data
        assert got == {(0, 0, (0,)): Poly1({(2,): 3})}
        assert got[0, 0, (0,)].coeffs == {(2,): 3}
        assert type(got[0, 0, (0,)].coeffs[(2,)]) is int
        # an entry that cancels to zero is absent
        u = one.scale(Poly2({(1, 0): half, (0, 1): 1}))
        cancel = Mat([[u, u], [zero, zero]]) * Mat([[u, zero], [-u, zero]])
        assert cancel.data == {}
        # a rational factor on either side
        r = Mat([[one.scale(Fraction(2, 3))]])
        p = Mat([[one.scale(Poly1({(1,): Fraction(3, 2)}))]])
        for got in ((r * p).data, (p * r).data):
            assert got == {(0, 0, (0,)): Poly1({(1,): 1})}
            assert type(got[0, 0, (0,)].coeffs[(1,)]) is int
        # rational form matrices store integral products as ints too
        got = (r * Mat([[one.scale(Fraction(3, 2))]])).data
        assert got == {(0, 0, (0,)): 1} and type(got[0, 0, (0,)]) is int

    def test_d_matches_entrywise(self):
        assert _d_disagreeing() == set()

    def test_planted_d_sign_fails(self, monkeypatch):
        _drop_d_sign(monkeypatch)
        assert _d_disagreeing() == {"TForm", "BiForm"}

    def test_fibre_top_step_is_the_top_of_the_full_trace(self):
        nonzero = 0
        for name, k_max in (("dual", 3), ("x3", 2), ("M2", 2)):
            for family in _families(name, 71):
                got = _fibre_chern(family, k_max)
                assert got == _fibre_by_full_products(family, k_max), name
                nonzero += sum(1 for u in got if u)
        assert nonzero

    def test_chern_forms_match_full_products(self):
        # chern, chern_tform and chern_biform build the last power only on
        # its diagonal; the traces equal those of the full products (chern
        # up to k_max = 2 on M2, where degree 6 is slow)
        nonzero = 0
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("chern/" + name)
            cs = [random_connection(random_idempotent(alg, n, rng), rng)
                  for n in (2, 3)]
            path, _, bigon = _families(name, 73)
            for k_max in (1, 2, 3):
                for c in cs if name != "M2" or k_max < 3 else ():
                    got = chern(c, k_max)
                    assert got == _chern_by_full_products(
                        c.p.to_form(), curvature(c), k_max, trace_ab), name
                    nonzero += bool(got[-1])
                for family, whole in ((path, chern_tform),
                                      (bigon, chern_biform)):
                    got = whole(family, k_max)
                    assert got == _chern_by_full_products(
                        _cyl_p(family),
                        _cyl_curvature(family), k_max, Mat.trace), name
                    nonzero += bool(got[-1])
        assert nonzero


class TestMatParity:
    def test_entries_round_trip(self):
        for name in ("dual", "x3", "M2"):
            alg = make_fixture(name)
            rng = random.Random(name)
            for ring in RINGS:
                draw, zero, _ = _ring(ring, alg, rng)
                rows = _random_rows(rng.randint(1, 4), rng, draw, zero)
                assert Mat(rows).entries == rows, (name, ring)

    def test_linear_api_matches_entrywise(self):
        for name in ("dual", "x3", "QxQ"):
            alg = make_fixture(name)
            rng = random.Random(name)
            for ring in RINGS:
                draw, zero, _ = _ring(ring, alg, rng)
                n, m = rng.randint(1, 3), rng.randint(1, 3)
                x, y = (_random_rows(n, rng, draw, zero) for _ in "xy")
                z = _random_rows(m, rng, draw, zero)
                for op in (operator.add, operator.sub):
                    assert op(Mat(x), Mat(y)).entries == [
                        [op(a, b) for a, b in zip(rx, ry)]
                        for rx, ry in zip(x, y)], (name, ring)
                assert (-Mat(x)).entries == [[-a for a in r] for r in x]
                assert Mat(x).trace() == sum(
                    (x[i][i] for i in range(n)), zero)
                assert (Mat(x) == Mat(y)) == (x == y)
                assert Mat(x) == Mat([list(r) for r in x])
                assert Mat(x) - Mat(x) == Mat([[zero] * n] * n)
                assert block_diag(Mat(x), Mat(z)).entries == _blocks(x, z,
                                                                     zero)

    def test_block_diag_with_empty_left_factor(self):
        dual = make_fixture("dual")
        for one in (Mat([[dual.unit()]]), to_form(Mat([[dual.unit()]]))):
            assert block_diag(Mat([]), one) == one

    def test_block_diag_with_empty_right_factor(self):
        dual = make_fixture("dual")
        for one in (Mat([[dual.unit()]]), to_form(Mat([[dual.unit()]]))):
            assert block_diag(one, Mat([])) == one

    def test_block_permutation_and_direct_sum_match_entrywise(self):
        for name in ("dual", "x3", "M2"):
            alg = make_fixture(name)
            rng = random.Random(name)
            cs = [random_connection(random_idempotent(alg, k, rng), rng)
                  for k in (1, 2)]
            s = direct_sum(*cs)
            assert s.p.mat.entries == _blocks(
                cs[0].p.mat.entries, cs[1].p.mat.entries, alg.zero())
            assert s.theta.entries == _blocks(
                cs[0].theta.entries, cs[1].theta.entries, UForm.zero(alg))
            m = s.p.mat.entries
            perm = [1, 2, 0]
            iso = permute_blocks(s.p, (1, 2), (1, 0))
            assert iso.p1.mat.entries == [[m[i][j] for j in perm]
                                          for i in perm]
            assert iso.u.entries == [m[i] for i in perm]
            assert iso.v.entries == [[r[j] for j in perm] for r in m]


class _DualError(ValueError):
    pass


class _Dual(Terms):
    """Q[x]/(x^2) keyed by the exponent of x, a ring kchern does not define:
    it supplies only what the Terms protocol asks of a matrix ring."""

    __slots__ = ()
    RingError = _DualError
    _scalar = staticmethod(rat)

    @staticmethod
    def _key_product(alg):
        return lambda a, b: ((a + b, 1),) if a + b < 2 else ()


def _dual(c0, c1):
    return _Dual.from_terms("Q[x]/(x^2)", enumerate((c0, c1)))


def _dual_mul(a, b):
    (a0, a1), (b0, b1) = ((e.terms.get(0, 0), e.terms.get(1, 0))
                          for e in (a, b))
    return _dual(a0 * b0, a0 * b1 + a1 * b0)


class TestRingProtocol:
    def test_a_ring_of_the_protocol_alone(self):
        # Mat over a test-local Terms subclass with only _key_product,
        # RingError and _scalar: its whole contract with Mat
        rng = random.Random("protocol")
        zero = _dual(0, 0)

        def draw():
            return _dual(rng.choice(_COEFFS), rng.choice(_COEFFS))

        products = []
        for _ in range(20):
            n = rng.randint(1, 4)
            x, y = (_random_rows(n, rng, draw, zero) for _ in "xy")
            assert Mat(x).entries == x
            for op in (operator.add, operator.sub):
                assert op(Mat(x), Mat(y)).entries == [
                    [op(a, b) for a, b in zip(rx, ry)]
                    for rx, ry in zip(x, y)]
            products += (Mat(x) * Mat(y)).entries
            assert products[-n:] == _entrywise(x, y, _dual_mul, zero)
            assert Mat(x).trace() == sum((x[i][i] for i in range(n)), zero)
        # both exponents occur, so x * x = 0 is exercised
        assert {k for row in products for e in row for k in e.terms} == {0, 1}
        with pytest.raises(ConnectionError_, match="matrix of forms"):
            Mat(x).d()
        one = make_fixture("dual").unit()
        with pytest.raises(_DualError):
            Mat([[draw(), one], [one, one]])
        with pytest.raises(AlgebraError):
            Mat([[one, draw()], [one, one]])
        with pytest.raises(_DualError):
            Mat([[draw()]]) * Mat([[one]])


class TestMatRefusals:
    def test_size_mismatch(self):
        alg = make_fixture("dual")
        rng = random.Random(3)
        for ring in RINGS:
            draw, zero, _ = _ring(ring, alg, rng)
            x = Mat([[draw()]])
            y = Mat(_random_rows(2, rng, draw, zero))
            for op in (operator.add, operator.sub, operator.mul):
                for a, b in ((x, y), (y, x)):
                    with pytest.raises(ConnectionError_, match="sizes differ"):
                        op(a, b)

    def test_another_ring_raises_the_left_factors_error(self):
        dual, x3 = make_fixture("dual"), make_fixture("x3")
        one = Mat([[dual.unit()]])
        mats = {"A": one, "forms": to_form(one),
                "TForm": Mat([[TForm(UForm.unit(dual))]]),
                "x3": Mat([[x3.unit()]])}
        for left, x in mats.items():
            for right, y in mats.items():
                if left == right:
                    continue
                for op in (operator.add, operator.sub, operator.mul):
                    raised = _raised(lambda: op(x, y))
                    assert raised is (AlgebraError if left in ("A", "x3")
                                      else FormError), (left, right, op)

    def test_mixed_entries_are_refused_at_construction(self):
        dual, x3 = make_fixture("dual"), make_fixture("x3")
        eps = UForm.from_element(dual.basis(1))
        for first, other, error in (
                (dual.unit(), x3.zero(), AlgebraError),
                (dual.unit(), UForm.zero(dual), AlgebraError),
                (eps, dual.zero(), FormError),
                (eps, UForm.zero(x3), FormError),
                (TForm(eps), BiForm.zero(dual), FormError),
                (TForm(eps), UForm.zero(dual), FormError)):
            with pytest.raises(error):
                Mat([[first, other], [other, first]])
            assert _raised(lambda: first * other) is error

    def test_entries_of_no_matrix_ring_are_refused(self):
        dual = make_fixture("dual")
        for entry in (1, AbClass(dual, {(1,): 1})):
            with pytest.raises(ConnectionError_, match="not an entry"):
                Mat([[entry]])

    def test_degree_cap_in_every_form_ring(self):
        dual = make_fixture("dual", degree_cap=2)
        deps = UForm.from_element(dual.basis(1)).d()
        for wrap in (lambda u: u, TForm, BiForm):
            x = Mat([[wrap(deps * deps)]])
            with pytest.raises(DegreeCapError):
                x * Mat([[wrap(deps)]])

    def test_d_of_a_matrix_over_the_algebra_is_refused(self):
        dual = make_fixture("dual")
        for entry in (dual.unit(), dual.zero()):
            with pytest.raises(ConnectionError_, match="matrix of forms"):
                Mat([[entry]]).d()

    def test_empty_matrix_reaches_the_idempotent_refusal(self):
        assert Mat([]) * Mat([]) == Mat([])
        with pytest.raises(ConnectionError_, match="empty"):
            Idempotent(make_fixture("x3"), Mat([]))
