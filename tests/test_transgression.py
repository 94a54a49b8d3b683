"""Transgression: cylinder forms, homotopy operator, KCS, bigons."""

import collections
import hashlib
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from kchern import connections, suites, transgression
from kchern.algebra import AlgebraError
from kchern.connections import (Connection, ConnectionError_, Idempotent, Mat,
                                chern, chern_series, curvature, direct_sum,
                                extend_scalars, family_scalars, grassmann,
                                pullback, random_connection,
                                random_idempotent, random_iso)
from kchern.exactmath import Poly, Q0, Q1
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.serialize import abclass_to_json, form_to_json
from kchern.suites import _random_cylform, run_suite
from kchern.transgression import (BiForm, CylForm, KOSZUL, SHUFFLE, TForm,
                                  _CylProducts, bigon_curvature,
                                  bigon_straight, chern_biform, chern_tform,
                                  constant_path, homotopy_K, kcs, kcs_between,
                                  kcs_closed_form, reverse_path,
                                  secondary_transgression, straight_line,
                                  three_point_path, tilde_curvature,
                                  tform_operator)
from kchern.uforms import FormError, UForm, ab_d, project_ab, word_degree
from tests.test_connections import (_raised, _random_mat, families,
                                    family_results, first_summand,
                                    idempotents, textbook_curvature,
                                    uncompressed)


def unit_line_path(alg, theta1_form):
    """Straight line from theta = 0 to theta1 on the rank-1 free module."""
    p = Idempotent.identity(alg, 1)
    c0 = grassmann(p)
    c1 = Connection(p, Mat([[theta1_form]]))
    return c0, c1, straight_line(c0, c1)


class TestHomotopyOperator:
    def test_formula_random(self):
        for name in ("dual", "QxQ", "M2"):
            alg = make_fixture(name)
            rng = random.Random(20)
            for _ in range(20):
                w = _random_cylform(TForm, alg, rng, 3, 2)
                lhs = homotopy_K(w.d()) + homotopy_K(w).d()
                assert lhs == w.restrict(0, 1) - w.restrict(0, 0)

    def test_ev_is_a_ring_map(self):
        alg = make_fixture("C2")
        rng = random.Random(21)
        for _ in range(10):
            a = _random_cylform(TForm, alg, rng, 2, 2)
            b = _random_cylform(TForm, alg, rng, 2, 2)
            for t in (Q0, Fraction(1, 2), Q1):
                assert (a * b).restrict(0, t) == (a.restrict(0, t)
                                                  * b.restrict(0, t))
                assert a.d().restrict(0, t) == a.restrict(0, t).d()

    def test_tform_associativity(self):
        alg = make_fixture("x3")
        rng = random.Random(22)
        for _ in range(10):
            a, b, c = (_random_cylform(TForm, alg, rng, 2, 2)
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)


class TestPaths:
    def test_straight_line_endpoints(self):
        alg = make_fixture("QxQ")
        rng = random.Random(23)
        p = random_idempotent(alg, 2, rng)
        c0 = random_connection(p, rng)
        c1 = random_connection(p, rng)
        path = straight_line(c0, c1)
        assert path.restrict(0, 0).theta.entries == c0.theta.entries
        assert path.restrict(0, 1).theta.entries == c1.theta.entries

    def test_three_point_interpolation(self):
        alg = make_fixture("dual")
        rng = random.Random(24)
        p = random_idempotent(alg, 2, rng)
        c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
        path = three_point_path(c0, cm, c1)
        assert path.restrict(0, 0).theta.entries == c0.theta.entries
        assert (path.restrict(0, Fraction(1, 2)).theta.entries
                == cm.theta.entries)
        assert path.restrict(0, 1).theta.entries == c1.theta.entries

    def test_endpoint_mismatch_rejected(self):
        alg = make_fixture("QxQ")
        rng = random.Random(25)
        p = random_idempotent(alg, 2, rng)
        c0, c1, c2 = (random_connection(p, rng) for _ in range(3))
        with pytest.raises(ConnectionError_):
            bigon_straight(straight_line(c0, c1), straight_line(c0, c2))

    def test_bigon_refuses_either_endpoint(self, monkeypatch):
        # the endpoints are compared as matrices: the bigon is the one
        # Connection that bigon_straight builds, by either constructor
        built = []
        init, new = Connection.__init__, Connection._new.__func__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        def counted_new(cls, *args):
            built.append(1)
            return new(cls, *args)

        monkeypatch.setattr(Connection, "__init__", counted)
        monkeypatch.setattr(Connection, "_new", classmethod(counted_new))
        refused = set()
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("ends/" + name)
            p = random_idempotent(alg, 2, 8)
            c0, cm, c1, c2 = (random_connection(p, rng) for _ in range(4))
            lin, quad = straight_line(c0, c1), three_point_path(c0, cm, c1)
            for other, t, end in ((straight_line(c2, c1), 0, c0),
                                  (three_point_path(c0, cm, c2), 1, c1)):
                if c2.theta == end.theta:
                    continue        # equal ends (on Q every theta is 0)
                refused.add(name)
                for pair in ((lin, other), (other, lin)):
                    with pytest.raises(ConnectionError_,
                                       match="endpoint t=%d" % t):
                        bigon_straight(*pair)
            built.clear()
            bigon = bigon_straight(lin, quad)
            assert len(built) == 1
            assert bigon.theta == straight_line(lin, quad).theta
        assert refused == set(FIXTURE_NAMES) - {"Q"}

    def test_cylinder_curvature_oracle(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(26)
            p = random_idempotent(alg, 2, rng)
            path = straight_line(random_connection(p, rng),
                                 random_connection(p, rng))
            r, s = tilde_curvature(path)
            n = p.size
            rt = Mat([[TForm(r.entries[i][j], s.entries[i][j])
                       for j in range(n)] for i in range(n)])
            pf = p.to_form().map(TForm)
            assert (rt * pf).entries == tform_operator(
                path, tform_operator(path, pf)).entries


class TestKCS:
    def test_dual_numbers_golden(self):
        # line from 0 to d(eps) on the free module: KCS_1 = [d eps]
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        _, _, path = unit_line_path(dual, eps.d())
        classes = kcs(path, 1)
        assert classes[0] == project_ab(eps.d())
        assert not classes[0].is_zero()

    def test_sign_calibration(self):
        # pins the closed-form sign against the golden value
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        _, _, path = unit_line_path(dual, eps.d())
        assert kcs_closed_form(path, 1) == kcs(path, 1)

    def test_closed_form_refuses_kmax_below_one(self):
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        _, _, path = unit_line_path(dual, eps.d())
        for k_max in (0, -1):
            with pytest.raises(ValueError, match="k_max"):
                kcs_closed_form(path, k_max)

    def test_transgression_identity(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(27)
            p = random_idempotent(alg, 2, rng)
            c0 = random_connection(p, rng)
            c1 = random_connection(p, rng)
            classes = kcs_between(c0, c1, 2)
            ch0 = chern(c0, 2)
            ch1 = chern(c1, 2)
            for k in (1, 2):
                assert ab_d(classes[k - 1]) == ch1[k] - ch0[k]

    def test_reversal_and_constant(self):
        alg = make_fixture("C2")
        rng = random.Random(28)
        p = random_idempotent(alg, 2, rng)
        c0 = random_connection(p, rng)
        c1 = random_connection(p, rng)
        path = straight_line(c0, c1)
        assert kcs(reverse_path(path), 2) == [-x for x in kcs(path, 2)]
        assert all(x.is_zero() for x in kcs(constant_path(c0), 2))

    def test_direct_sum_additivity(self):
        alg = make_fixture("QxQ")
        rng = random.Random(29)
        p = random_idempotent(alg, 2, rng)
        q = random_idempotent(alg, 1, rng)
        path1 = straight_line(random_connection(p, rng),
                              random_connection(p, rng))
        path2 = straight_line(random_connection(q, rng),
                              random_connection(q, rng))
        total = kcs(direct_sum(path1, path2), 2)
        k1, k2 = kcs(path1, 2), kcs(path2, 2)
        assert total == [k1[i] + k2[i] for i in range(2)]

    def test_pullback_invariance(self):
        alg = make_fixture("dual")
        rng = random.Random(30)
        p0 = random_idempotent(alg, 2, rng)
        p1, iso = random_iso(p0, rng)
        path = straight_line(random_connection(p1, rng),
                             random_connection(p1, rng))
        assert kcs(pullback(path, iso), 2) == kcs(path, 2)

    def test_hom_naturality(self):
        from kchern.algebra import AlgebraHom
        from kchern.uforms import extend_hom
        x3 = make_fixture("x3")
        dual = make_fixture("dual")
        psi = AlgebraHom(x3, dual, [[Q1, Q0, Q0], [Q0, Q1, Q0]])
        f = extend_hom(psi)
        rng = random.Random(31)
        p = random_idempotent(x3, 2, rng)
        path = straight_line(random_connection(p, rng),
                             random_connection(p, rng))
        lhs = kcs(extend_scalars(path, psi), 2)
        rhs = [project_ab(f(cls.lift())) for cls in kcs(path, 2)]
        assert lhs == rhs

    def test_ev_compatibility_of_chern(self):
        alg = make_fixture("QxQ")
        rng = random.Random(32)
        p = random_idempotent(alg, 2, rng)
        path = straight_line(random_connection(p, rng),
                             random_connection(p, rng))
        chs_t = chern_tform(path, 2)
        for t in (Q0, Fraction(1, 2), Q1):
            cht = chern(path.restrict(0, t), 2)
            for k in range(3):
                assert project_ab(chs_t[k].restrict(0, t)) == cht[k]

    def test_closed_form_agreement_random(self):
        for name in ("dual", "QxQ", "C2"):
            alg = make_fixture(name)
            rng = random.Random(33)
            for i in range(5):
                p = random_idempotent(alg, 2, rng)
                c0 = random_connection(p, rng)
                c1 = random_connection(p, rng)
                if i % 2:
                    cm = random_connection(p, rng)
                    path = three_point_path(c0, cm, c1)
                else:
                    path = straight_line(c0, c1)
                assert kcs_closed_form(path, 2) == kcs(path, 2)


class TestBigons:
    def test_kk1_equals_kk2(self):
        for name in ("dual", "M2"):
            alg = make_fixture(name)
            rng = random.Random(34)
            for _ in range(20):
                b = _random_cylform(BiForm, alg, rng, 2, 1)
                assert (homotopy_K(b.integrate(0))
                        == homotopy_K(b.integrate(1)))

    def test_biform_associativity(self):
        alg = make_fixture("dual")
        rng = random.Random(35)
        for _ in range(10):
            a, b, c = (_random_cylform(BiForm, alg, rng, 1, 1)
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_biform_dd_zero(self):
        alg = make_fixture("QxQ")
        rng = random.Random(36)
        for _ in range(20):
            b = _random_cylform(BiForm, alg, rng, 2, 1)
            assert b.d().d() == BiForm.zero(alg)

    def test_secondary_transgression(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(37)
            p = random_idempotent(alg, 2, rng)
            c0 = random_connection(p, rng)
            c1 = random_connection(p, rng)
            cm = random_connection(p, rng)
            path1 = straight_line(c0, c1)
            path2 = three_point_path(c0, cm, c1)
            pots = secondary_transgression(bigon_straight(path1, path2), 2)
            k1 = kcs(path1, 2)
            k2 = kcs(path2, 2)
            for k in (1, 2):
                assert ab_d(pots[k - 1]) == k1[k - 1] - k2[k - 1]

    def test_secondary_refuses_kmax_below_one(self):
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        _, _, path = unit_line_path(dual, eps.d())
        bigon = bigon_straight(path, path)
        for k_max in (0, -1):
            with pytest.raises(ValueError, match="k_max"):
                secondary_transgression(bigon, k_max)

    def test_integrals_refuse_a_family_of_the_wrong_kind(self):
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        _, c1, path = unit_line_path(dual, eps.d())
        bigon = bigon_straight(path, path)
        for family in (bigon, c1):
            for call in (lambda: kcs(family, 2),
                         lambda: kcs_closed_form(family, 2),
                         lambda: tilde_curvature(family)):
                with pytest.raises(ConnectionError_, match="expected a"):
                    call()
        for family in (path, c1):
            with pytest.raises(ConnectionError_, match="expected a"):
                secondary_transgression(family, 2)

    def test_whole_chern_forms_refuse_a_family_of_the_wrong_kind(self):
        dual = make_fixture("dual")
        eps = UForm.from_element(dual.basis(1))
        _, c1, path = unit_line_path(dual, eps.d())
        bigon = bigon_straight(path, path)
        for family in (bigon, c1):
            with pytest.raises(ConnectionError_,
                               match="expected a family with R = 1"):
                chern_tform(family, 1)
        for family in (path, c1):
            with pytest.raises(ConnectionError_,
                               match="expected a family with R = 2"):
                chern_biform(family, 1)

    def test_bigon_edges_evaluate_to_paths(self):
        alg = make_fixture("dual")
        rng = random.Random(38)
        p = random_idempotent(alg, 2, rng)
        c0 = random_connection(p, rng)
        c1 = random_connection(p, rng)
        cm = random_connection(p, rng)
        path1 = straight_line(c0, c1)
        path2 = three_point_path(c0, cm, c1)
        bigon = bigon_straight(path1, path2)
        for t in (Q0, Q1):
            e0 = bigon.restrict(0, 0).restrict(0, t).theta.entries
            assert e0 == path1.restrict(0, t).theta.entries
            e1 = bigon.restrict(0, 1).restrict(0, t).theta.entries
            assert e1 == path2.restrict(0, t).theta.entries


def _families(seed):
    """(c0, c1, path1, path2, bigon) on a seeded rank-2 idempotent over dual:
    the straight and three-point paths from c0 to c1 and their bigon."""
    rng = random.Random(seed)
    p = random_idempotent(make_fixture("dual"), 2, rng)
    c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
    path1 = straight_line(c0, c1)
    path2 = three_point_path(c0, cm, c1)
    return c0, c1, path1, path2, bigon_straight(path1, path2)


class TestFamilyParameters:
    """A family is a Connection with R parameters; every builder and entry
    point keys on R."""

    def test_straight_line_adds_a_first_parameter(self):
        c0, c1, path1, path2, bigon = _families(41)
        assert (c0.R, path1.R, path2.R, bigon.R) == (0, 1, 1, 2)
        line = straight_line(path1, path2)
        assert line.R == 2
        assert line.theta == bigon.theta
        for s, path in ((0, path1), (1, path2)):
            assert line.restrict(0, s).theta == path.theta

    def test_square_is_two_nested_straight_lines(self):
        rng = random.Random(42)
        p = random_idempotent(make_fixture("x3"), 2, rng)
        c1, c2, c3 = (random_connection(p, rng) for _ in range(3))
        square = straight_line(constant_path(c1), straight_line(c2, c3))
        assert square.R == 2
        corners = {(s, t): square.restrict(0, s).restrict(0, t).theta
                   for s in (0, 1) for t in (0, 1)}
        assert corners == {(0, 0): c1.theta, (0, 1): c1.theta,
                           (1, 0): c2.theta, (1, 1): c3.theta}

    def test_a_pair_of_bigons_is_refused(self):
        *_, bigon = _families(43)
        with pytest.raises(ConnectionError_, match="no Poly type"):
            straight_line(bigon, bigon)
        with pytest.raises(ConnectionError_, match="no Poly type"):
            Connection(bigon.p, bigon.theta, 3)

    def test_families_with_different_R_are_refused(self):
        c0, c1, path1, path2, bigon = _families(44)
        for a, b in ((c0, path1), (path1, bigon)):
            with pytest.raises(ConnectionError_):
                straight_line(a, b)
        with pytest.raises(ConnectionError_):
            three_point_path(c0, path1, c1)
        # a bigon built by either builder is refused beside a path
        for other in (bigon, straight_line(path1, path2)):
            with pytest.raises(ConnectionError_, match="different parameters"):
                direct_sum(path1, other)

    def test_restrict_refuses_a_missing_parameter(self):
        c0, _, path1, _, bigon = _families(45)
        for family, i in ((c0, 0), (path1, 1), (bigon, 2), (bigon, -1)):
            with pytest.raises(ConnectionError_, match="no parameter"):
                family.restrict(i, 0)
        assert bigon.restrict(1, 0).R == 1

    def test_reverse_path_refuses_anything_but_a_path(self):
        c0, _, path1, _, bigon = _families(46)
        for family in (c0, bigon):
            with pytest.raises(ConnectionError_, match="expected a"):
                reverse_path(family)
        back = reverse_path(path1)
        assert back.R == 1
        assert back.restrict(0, 0).theta == path1.restrict(0, 1).theta

    def test_theta_with_more_parameters_than_r_is_refused(self):
        c0, _, path1, _, bigon = _families(48)
        for theta, r in ((bigon.theta, 1), (bigon.theta, 0),
                         (path1.theta, 0)):
            with pytest.raises(ConnectionError_, match="more than R"):
                Connection(bigon.p, theta, r)
        assert Connection(bigon.p, path1.theta, 2).R == 2

    def test_tform_operator_refuses_anything_but_a_path(self):
        c0, _, path1, _, bigon = _families(49)
        x = Mat([[TForm.zero(c0.algebra)] * c0.p.size] * c0.p.size)
        for family in (c0, bigon):
            with pytest.raises(ConnectionError_, match="expected a"):
                tform_operator(family, x)
        assert tform_operator(path1, x) == x

    def test_bigon_curvature_refuses_anything_but_a_bigon(self):
        c0, _, path1, _, bigon = _families(47)
        for family in (c0, path1):
            with pytest.raises(ConnectionError_, match="expected a"):
                bigon_curvature(family)
        assert isinstance(bigon_curvature(bigon).entries[0][0], BiForm)


# ---------------------------------------------------------------------------
# The cylinder curvature against the textbook formulas it rewrites
# ---------------------------------------------------------------------------

def _textbook_parts(family):
    """The parts of `_curvature_parts` as first derived: p dp dp p +
    p dtheta p + theta^2 and p (del_i theta) p."""
    pf = family.p.to_form()
    parts = {0: textbook_curvature(pf, family.theta)}
    for i in range(family.R):
        parts[1 << i] = pf * family.theta.map_scalars(
            lambda q: q.diff(i)) * pf
    coerce = family_scalars(family.R).coerce
    return {m: x.map_scalars(coerce) for m, x in parts.items()}


class TestCurvatureParts:
    def test_parts_match_textbook(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random("parts-" + name)
            for p in idempotents(alg):
                for fam in families(p, rng)[1:]:
                    want = _textbook_parts(fam)
                    # the parts are read back from the memo the fibre
                    # integral filled (it builds the base part, and so
                    # keeps the curvature, only when k_max > R)
                    fibre = kcs if fam.R == 1 else secondary_transgression
                    fibre(fam, fam.R + 1)
                    assert transgression._curvature_parts(fam) == want, name
                    if fam.R == 1:
                        assert tilde_curvature(fam) == (want[0], want[1])

    def test_planted_uncompressed_theta_breaks_s(self):
        # S = del_i theta is licensed by p theta p = theta as polynomials,
        # which Connection checks: a family theta that bypasses it makes S
        # differ from p (del_i theta) p
        alg = make_fixture("dual")
        p = first_summand(alg)
        path = families(p, random.Random(8))[1]
        x = family_scalars(1)({(1,): 1})
        bad = uncompressed(path, (1, 1))
        bad.theta = bad.theta.map_scalars(lambda c: x * c)
        assert transgression._curvature_parts(bad)[1] != \
            _textbook_parts(bad)[1]


class TestCylMatScalars:
    """`_cyl_mat` wraps its parts as they are: every caller hands it the
    family's scalars, and only p's rationals are coerced (`_cyl_p`)."""

    def test_every_part_has_the_family_scalars(self, monkeypatch):
        wrap, seen = transgression._cyl_mat, collections.Counter()

        def typed(family, parts):
            want = family_scalars(family.R)
            for m, x in parts.items():
                got = {type(c) for c in x.data.values()}
                assert got <= {want}, (family.R, m, got)
                seen[family.R, bool(m)] += bool(got)
            return wrap(family, parts)

        monkeypatch.setattr(transgression, "_cyl_mat", typed)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            # every closure that builds a family, the constant Grassmann
            # path among them: its base part has only p's rationals
            for _, family in family_results(alg, random.Random(name)):
                if not family.R:
                    continue
                # k_max > R builds the base part of R~, then the whole forms
                _fibre(family, family.R + 1)
                _whole_fibre(family, 2)
                if family.R == 1:
                    pf = family.p.to_form().map(TForm)
                    tform_operator(family, tform_operator(family, pf))
        # p, theta and the base part (mask 0), and the dx parts, on both R
        assert set(seen) == {(r, m) for r in (1, 2) for m in (False, True)}
        assert all(seen.values())


def _count_curvatures(monkeypatch):
    """A list that gains one item per curvature_formula call of
    transgression."""
    calls = []
    formula = transgression.curvature_formula

    def counted(pf, theta):
        calls.append(1)
        return formula(pf, theta)

    monkeypatch.setattr(transgression, "curvature_formula", counted)
    return calls


class TestCurvatureMemo:
    """A family's cylinder curvature is computed once and shared by every
    L4 entry point, and recomputed when its p or theta is reassigned."""

    def test_one_curvature_per_path(self, monkeypatch):
        calls = _count_curvatures(monkeypatch)
        for name in ("dual", "x3", "M2"):
            p = random_idempotent(make_fixture(name), 2, 9)
            path = families(p, random.Random("memo-" + name))[1]
            want = _textbook_parts(path)
            assert tilde_curvature(path) == (want[0], want[1])
            classes = kcs(path, 2)
            assert kcs_closed_form(path, 2) == classes
            assert [project_ab(homotopy_K(ch))
                    for ch in chern_tform(path, 2)[1:]] == classes
            assert tilde_curvature(path) == (want[0], want[1])
        assert len(calls) == 3

    def test_one_curvature_per_bigon(self, monkeypatch):
        calls = _count_curvatures(monkeypatch)
        *_, bigon = _families("memo-bigon")
        pots = secondary_transgression(bigon, 3)
        assert [project_ab(homotopy_K(ch.integrate(0)))
                for ch in chern_biform(bigon, 3)[1:]] == pots
        assert bigon_curvature(bigon) == \
            transgression._cyl_mat(bigon, _textbook_parts(bigon))
        assert len(calls) == 1

    def test_reassigned_theta_or_p_is_recomputed(self, monkeypatch):
        calls = _count_curvatures(monkeypatch)
        _, _, path1, path2, _ = _families(61)
        before = kcs(path1, 2)
        path1.theta = path2.theta
        assert tilde_curvature(path1) == tilde_curvature(path2)
        assert kcs(path1, 2) == kcs(path2, 2) != before
        assert len(calls) == 3
        # a p equal to the old one but another object is recomputed too
        path1.p = Idempotent(path1.algebra, path1.p.mat)
        assert tilde_curvature(path1) == tilde_curvature(path2)
        assert len(calls) == 4


# ---------------------------------------------------------------------------
# Golden L4 values
# ---------------------------------------------------------------------------

def _scaled(c, q):
    """The connection c with theta scaled by the rational q."""
    return Connection(c.p, c.theta.map_scalars(lambda x: x * q))


# The scale of the non-integral families: their thetas mix int and
# non-integral Fraction coefficients in one polynomial.
NON_INTEGRAL = Fraction(3, 7)


def _l4_digests(scale=1):
    """sha256 per L4 entry point of its serialized values over seeded
    straight and three-point paths and their bigon on every fixture (k_max
    2 on M2, 3 elsewhere), the middle and end connections' thetas scaled by
    `scale`.  On each path kcs runs first, so that kcs_closed_form and
    tilde_curvature read its curvature."""
    payload = {"kcs": {}, "closed": {}, "tilde": {}, "secondary": {}}
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random("l4-golden/" + name)
        p = random_idempotent(alg, 2, rng)
        c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
        if scale != 1:
            cm, c1 = _scaled(cm, scale), _scaled(c1, scale)
        lin, quad = straight_line(c0, c1), three_point_path(c0, cm, c1)
        k_max = 2 if name == "M2" else 3
        for key in ("kcs", "closed", "tilde"):
            payload[key][name] = []
        for path in (lin, quad):
            for key, f in (("kcs", kcs), ("closed", kcs_closed_form)):
                payload[key][name].append(
                    [abclass_to_json(u) for u in f(path, k_max)])
            payload["tilde"][name].append(
                [[[form_to_json(e) for e in row] for row in m.entries]
                 for m in tilde_curvature(path)])
        payload["secondary"][name] = [abclass_to_json(u) for u in
                                      secondary_transgression(
                                          bigon_straight(lin, quad), k_max)]
    return {key: hashlib.sha256(json.dumps(
        value, sort_keys=True).encode()).hexdigest()
        for key, value in payload.items()}


class TestGoldenL4:
    def test_l4_values_golden(self):
        # KCS, its closed form, the secondary potential and the cylinder
        # curvature are canonical, so a rewrite of L3/L4 must reproduce
        # them byte for byte
        assert _l4_digests() == {
            "kcs": "d18cd26228c64c6329466c97450fe961"
                   "41c2e4cb2aa477941e6beca92e118028",
            "closed": "d18cd26228c64c6329466c97450fe961"
                      "41c2e4cb2aa477941e6beca92e118028",
            "tilde": "4785cd88df00323e75258c7a8f128036"
                     "9ad26f1679188052e6be0fe2de2501e8",
            "secondary": "f7c03aa6e8dcb6431a45601d3888d7c1"
                         "a27d14dfa170e4973d34c6f7d9aece8e",
        }

    def test_l4_values_golden_non_integral(self):
        # the same families with thetas of int and non-integral Fraction
        # coefficients; the digests were computed before the last Chern
        # power of the fibre integrals was integrated in its product
        assert _l4_digests(NON_INTEGRAL) == {
            "kcs": "abf4fd3e68f26ce6d33cc3f4d027fc1e"
                   "1120dac769d4518be95bdc4f40b0e5a4",
            "closed": "abf4fd3e68f26ce6d33cc3f4d027fc1e"
                      "1120dac769d4518be95bdc4f40b0e5a4",
            "tilde": "d55b923f0b5938ba98c4e7a7a207cff5"
                     "0a8db7a51ed1ee38fbc776774b395e1a",
            "secondary": "97472295fa4faac7b16b0ce8c6251914"
                         "129080dc277bcb0c76f1b8b28856198a",
        }


# ---------------------------------------------------------------------------
# The fibre integrals against the full cylinder Chern forms
# ---------------------------------------------------------------------------

def _fibre_disagreements(scale=1):
    """(fixtures where kcs or secondary_transgression differs from K, or
    K K_s, of the full chern_tform or chern_biform forms, count of nonzero
    values), over seeded straight and three-point paths and their bigons,
    the middle and end connections' thetas scaled by `scale`."""
    bad, nonzero = set(), 0
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random("fibre/" + name)
        for p in (random_idempotent(alg, 2, rng), Idempotent.identity(alg, 1)):
            c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
            if scale != 1:
                cm, c1 = _scaled(cm, scale), _scaled(c1, scale)
            lin, quad = straight_line(c0, c1), three_point_path(c0, cm, c1)
            bigon = bigon_straight(lin, quad)
            for k_max in range(1, 3 if name == "M2" else 4):
                sides = [(kcs(path, k_max),
                          [project_ab(homotopy_K(ch))
                           for ch in chern_tform(path, k_max)[1:]])
                         for path in (lin, quad)]
                sides.append((secondary_transgression(bigon, k_max),
                              [project_ab(homotopy_K(ch.integrate(0)))
                               for ch in chern_biform(bigon, k_max)[1:]]))
                for new, old in sides:
                    if new != old:
                        bad.add(name)
                    nonzero += sum(1 for cls in new if cls)
    return bad, nonzero


def _keep_base_pair(monkeypatch):
    # the base pair (0, 0) stands in the place of (0, top), so the base of
    # R~^(k-1) times the dt part of a path's R~ is lost
    for cls in (TForm, BiForm):
        top = (1 << cls.R) - 1
        monkeypatch.setattr(cls, "_TOP_PAIRS", tuple(
            (0, 0) if x == (0, top) else x for x in cls._TOP_PAIRS))


def _drop_top_pair(monkeypatch):
    # the pair (top, 0) is the one with b = 0
    for cls in (TForm, BiForm):
        monkeypatch.setattr(cls, "_TOP_PAIRS",
                            tuple(x for x in cls._TOP_PAIRS if x[1]))


class TestFibreIntegral:
    def test_matches_full_chern_forms(self):
        bad, nonzero = _fibre_disagreements()
        assert bad == set()
        assert nonzero > 0

    def test_matches_full_chern_forms_non_integral(self):
        bad, nonzero = _fibre_disagreements(NON_INTEGRAL)
        assert bad == set()
        assert nonzero > 0

    @pytest.mark.parametrize("plant", [_keep_base_pair, _drop_top_pair])
    def test_planted_top_pair_fails(self, monkeypatch, plant):
        plant(monkeypatch)
        bad, _ = _fibre_disagreements()
        assert {"x3", "M2"} <= bad

    def test_planted_factorial_fails_the_suite(self, monkeypatch):
        # 1/k! applied as 1/(k-1)!
        monkeypatch.setattr(connections, "factorial",
                            lambda k: math.factorial(k - 1))
        for name, count in (("N_PATHS", 1), ("N_PAIRS", 2), ("N_TRIPLES", 1),
                            ("N_CLOSED", 2)):
            monkeypatch.setattr(suites, name, count)
        rep = run_suite("transgression", 3, fixtures=["x3"])
        failed = {c["name"] for c in rep["checks"] if c["status"] != "pass"}
        assert "closed-form agreement" in failed


# ---------------------------------------------------------------------------
# Only what the fibre integral reads: no base part when k_max <= R, and the
# last power on its diagonal from partner pairs alone
# ---------------------------------------------------------------------------

def _fibre_families(name, tag):
    """A seeded straight path, three-point path and their bigon on a random
    rank-2 idempotent over the fixture `name`."""
    alg = make_fixture(name)
    rng = random.Random("%s/%s" % (tag, name))
    p = random_idempotent(alg, 2, rng)
    c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
    lin, quad = straight_line(c0, c1), three_point_path(c0, cm, c1)
    return lin, quad, bigon_straight(lin, quad)


def _whole_fibre(family, k_max):
    """The fibre integrals read off the whole cylinder Chern forms: the
    oracle of kcs and secondary_transgression."""
    if family.R == 1:
        return [project_ab(homotopy_K(ch))
                for ch in chern_tform(family, k_max)[1:]]
    return [project_ab(homotopy_K(ch.integrate(0)))
            for ch in chern_biform(family, k_max)[1:]]


def _fibre(family, k_max):
    return (kcs if family.R == 1 else secondary_transgression)(family, k_max)


class TestBasePartSkip:
    """R~'s base part reaches dx_top only when k_max > R, so below that the
    fibre integrals build no curvature_formula."""

    @pytest.mark.parametrize("k_max", [1, 2])
    def test_low_k_max_builds_no_base_part(self, monkeypatch, k_max):
        calls = _count_curvatures(monkeypatch)
        nonzero = 0
        for name in FIXTURE_NAMES:
            lin, _, bigon = _fibre_families(name, "skip")
            fams = [bigon] + ([lin] if k_max == 1 else [])
            got = [_fibre(family, k_max) for family in fams]
            assert not calls, name
            assert all(getattr(f, "_curv", None) is None for f in fams)
            assert got == [_whole_fibre(f, k_max) for f in fams], name
            calls.clear()
            nonzero += sum(1 for values in got for u in values if u)
        assert nonzero

    def test_k_max_above_r_builds_the_base_part_once(self, monkeypatch):
        calls = _count_curvatures(monkeypatch)
        _, _, bigon = _fibre_families("x3", "skip3")
        pots = secondary_transgression(bigon, 3)
        assert len(calls) == 1
        assert secondary_transgression(bigon, 3) == pots
        # with the whole curvature kept, k_max = 2 reads its dx parts
        assert secondary_transgression(bigon, 2) == pots[:2]
        assert _whole_fibre(bigon, 3) == pots
        assert len(calls) == 1
        assert pots[2]

    def test_planted_skip_at_r_plus_one_fails(self, monkeypatch):
        # the base part left out at every k_max, so at k_max = R + 1 too
        cases = [(name, family, family.R + 1)
                 for name in ("x3", "M2")
                 for family in _fibre_families(name, "skip-plant")
                 if name != "M2" or family.R == 1]
        want = [_whole_fibre(family, k_max) for _, family, k_max in cases]
        parts = transgression._curvature_parts
        monkeypatch.setattr(transgression, "_curvature_parts",
                            lambda family, base=True: parts(family, False))
        bad = {name for (name, family, k_max), w in zip(cases, want)
               if _fibre(family, k_max) != w}
        assert bad == {"x3", "M2"}


def _pair_next_column(monkeypatch):
    # the diagonal index files the right factor's column j under j - 1, so
    # row i of the left factor meets column i + 1 (mod n) of the right
    product = Mat._product

    def planted(self, other, match=None, pair=None):
        if match is None:
            return product(self, other)
        n = other.size
        return product(self, other._like({
            (k, (j - 1) % n, b): c for (k, j, b), c in other.data.items()}),
            match, pair)

    monkeypatch.setattr(Mat, "_product", planted)


def _last_power_traces(monkeypatch):
    """A list that gains, per diagonal product, the trace of that product
    and the trace of the full product of the same factors."""
    seen = []
    product = Mat._product

    def spy(self, other, match=None, pair=None):
        out = product(self, other, match, pair)
        if match is not None:
            seen.append((self._like(out).trace(),
                         self._like(product(self, other)).trace()))
        return out

    monkeypatch.setattr(Mat, "_product", spy)
    return seen


def _closed_forms():
    """[(fixture, path, k_max)] over seeded straight and three-point paths
    on every fixture (k_max 2 on M2, 3 elsewhere)."""
    return [(name, path, 2 if name == "M2" else 3) for name in FIXTURE_NAMES
            for path in _fibre_families(name, "closed")[:2]]


class TestDiagonalLastPower:
    def test_closed_form_last_power_trace_is_the_full_trace(self,
                                                            monkeypatch):
        cases = _closed_forms()
        want = [kcs(path, k_max) for _, path, k_max in cases]
        seen = _last_power_traces(monkeypatch)
        for (name, path, k_max), w in zip(cases, want):
            assert kcs_closed_form(path, k_max) == w, name
        # one diagonal product per call: the last S R^(k_max - 1)
        assert len(seen) == len(cases)
        assert all(diag == full for diag, full in seen)
        # the last traces vanish over Q and the dual numbers
        assert {name for (name, _, _), (diag, _) in zip(cases, seen)
                if diag} == set(FIXTURE_NAMES) - {"Q", "dual"}

    def test_closed_form_keeps_its_own_power_loop(self, monkeypatch):
        # the oracle builds its last power as Polys, apart from the
        # integrated last power of the fibre integrals
        def refused(*args, **kwargs):
            raise AssertionError("kcs_closed_form called chern_series or "
                                 "the pair integral")

        cases = _closed_forms()
        want = [kcs(path, k_max) for _, path, k_max in cases]
        for name in ("chern_series", "coeff_integral", "integral_weights"):
            monkeypatch.setattr(transgression, name, refused)
        for (name, path, k_max), w in zip(cases, want):
            assert kcs_closed_form(path, k_max) == w, name

    def test_planted_pair_next_column_fails(self, monkeypatch):
        cases = _closed_forms()
        want = [kcs(path, k_max) for _, path, k_max in cases]
        _pair_next_column(monkeypatch)
        seen = _last_power_traces(monkeypatch)
        bad = {name for (name, path, k_max), w in zip(cases, want)
               if kcs_closed_form(path, k_max) != w}
        assert {"x3", "M2"} <= bad
        assert any(diag != full for diag, full in seen)

    def test_last_power_visits_only_pairs_it_keeps(self, monkeypatch):
        # the product rule runs once per pair of keys the loop visits; the
        # pairs kept are those on the diagonal whose masks are top partners
        visits = []
        count = [0]
        key_product, product = CylForm._key_product, Mat._product

        def counted_rule(alg):
            rule = key_product(alg)

            def counted(a, b):
                count[0] += 1
                return rule(a, b)
            return counted

        def spy(self, other, match=None, pair=None):
            if match is None:
                return product(self, other)
            count[0] = 0
            out = product(self, other, match, pair)
            pairs = [(a[0], b[0]) for (i, k, a) in self.data
                     for (k2, j, b) in other.data if k2 == k and j == i]
            kept = sum(1 for x in pairs if x in self.kind._TOP_PAIRS)
            visits.append((count[0], kept, len(pairs)))
            return out

        monkeypatch.setattr(CylForm, "_key_product",
                            staticmethod(counted_rule))
        monkeypatch.setattr(Mat, "_product", spy)
        for name in ("x3", "M2"):
            lin, quad, bigon = _fibre_families(name, "visits")
            kcs(lin, 2)
            kcs(quad, 2)
            secondary_transgression(bigon, 2 if name == "M2" else 3)
        assert len(visits) == 6
        assert all(visited == kept for visited, kept, _ in visits)
        assert sum(kept for _, kept, _ in visits) > 0
        assert all(kept < diagonal for _, kept, diagonal in visits)


class TestIntegratedLastPower:
    """The fibre integrals' last power is integrated in its product: it
    multiplies no coefficient dicts, builds no Poly and runs no
    integrate01, and its values are rationals."""

    def test_last_power_builds_no_poly(self, monkeypatch):
        inside, calls = [False], collections.Counter()
        product = Mat._product

        def spy(self, other, match=None, pair=None):
            inside[0] = pair is not None
            try:
                out = product(self, other, match, pair)
            finally:
                inside[0] = False
            if pair is not None:
                calls["pair products"] += 1
                calls["rational outputs"] += all(
                    type(v) in (int, Fraction) for v in out.values())
                calls["values"] += len(out)
            return out

        def counted(name, f):
            def wrapper(*args):
                calls[name, inside[0]] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(Mat, "_product", spy)
        monkeypatch.setattr(connections, "coeff_product", counted(
            "coeff_product", connections.coeff_product))
        monkeypatch.setattr(Poly, "_new", classmethod(counted(
            "Poly", Poly._new.__func__)))
        monkeypatch.setattr(Poly, "integrate01", counted(
            "integrate01", Poly.integrate01))
        runs = 0
        for name, k_maxes in (("x3", (2, 3)), ("M2", (2,))):
            for family in _fibre_families(name, "integrated"):
                for k_max in k_maxes:
                    _fibre(family, k_max)
                    runs += 1
        assert calls["pair products"] == calls["rational outputs"] == runs
        assert calls["values"] > 0
        for name in ("coeff_product", "Poly", "integrate01"):
            assert calls[name, False] > 0 and not calls[name, True], name

    def test_bigon_integrates_only_the_top_mask(self, monkeypatch):
        # on a bigon each traced lower power reaches K_0 cut to its ds dt
        # terms, and the fibre integrals still match the whole Chern forms;
        # a path's traces are integrated whole
        seen = collections.Counter()
        integrate = CylForm.integrate

        def spy(self, i):
            seen[self.R, all(m == (1 << self.R) - 1 for m, _ in self.terms)]\
                += 1
            return integrate(self, i)

        for name, k_max in (("x3", 3), ("M2", 2)):
            lin, _, bigon = _fibre_families(name, "top-mask")
            monkeypatch.setattr(CylForm, "integrate", spy)
            got = [_fibre(family, k_max) for family in (lin, bigon)]
            monkeypatch.undo()
            assert got == [_whole_fibre(family, k_max)
                           for family in (lin, bigon)], name
        assert seen[2, True] and not seen[2, False]
        assert seen[1, False]


# ---------------------------------------------------------------------------
# Reference cylinder calculus: the one- and two-parameter rules expanded by
# hand over the parts (1, dt) and (1, ds, dt, ds dt), with their own sigma.
# ---------------------------------------------------------------------------

def ref_sigma(u):
    return UForm(u.algebra, {w: (-c if word_degree(w) % 2 else c)
                             for w, c in u.terms.items()})


def _scalars(u, f):
    return u.map_scalars(f)


def ref_tform_mul(x, y):
    # (a + dt b)(c + dt e) = ac + dt (bc + sigma(a) e)
    a, b = x.parts
    c, e = y.parts
    return TForm(a * c, b * c + ref_sigma(a) * e)


def ref_tform_d(x):
    # d(a + dt b) = da + dt (del_t a - db)
    a, b = x.parts
    return TForm(a.d(), _scalars(a, lambda q: q.diff(0)) - b.d())


def ref_biform_mul(x, y):
    a, b, c, e = x.parts
    a2, b2, c2, e2 = y.parts
    sa, sb, sc = ref_sigma(a), ref_sigma(b), ref_sigma(c)
    return BiForm(a * a2, sa * b2 + b * a2, sa * c2 + c * a2,
                  a * e2 + e * a2 + sb * c2 - sc * b2)


def ref_biform_d(x):
    a, b, c, e = x.parts

    def ds(u):
        return _scalars(u, lambda q: q.diff(0))

    def dt(u):
        return _scalars(u, lambda q: q.diff(1))

    return BiForm(a.d(), ds(a) - b.d(), dt(a) - c.d(),
                  ds(c) - dt(b) + e.d())


def ref_K1(x):
    # integrate s on the ds parts: a TForm in t
    _, b, _, e = x.parts
    return TForm(_scalars(b, lambda q: q.integrate01(0)),
                 _scalars(e, lambda q: q.integrate01(0)))


def ref_K2(x):
    # integrate t on the dt parts, ds dt e -> ds int e: a TForm in s
    _, _, c, e = x.parts
    return TForm(_scalars(c, lambda q: q.integrate01(1)),
                 _scalars(e, lambda q: q.integrate01(1)))


def ref_ev_s(x, s):
    a, _, c, _ = x.parts
    return TForm(_scalars(a, lambda q: q.subs(0, s)),
                 _scalars(c, lambda q: q.subs(0, s)))


def ref_ev_t(x, t):
    a, b, _, _ = x.parts
    return TForm(_scalars(a, lambda q: q.subs(1, t)),
                 _scalars(b, lambda q: q.subs(1, t)))


def _disagreements(seed=50, count=8):
    """Names of the reference rules that CylForm disagrees with on random
    forms over dual, x3 and M2."""
    bad = set()
    for name in ("dual", "x3", "M2"):
        alg = make_fixture(name)
        rng = random.Random((seed, name).__repr__())
        for _ in range(count):
            x, y = (_random_cylform(TForm, alg, rng, 2, 2) for _ in "xy")
            if x * y != ref_tform_mul(x, y):
                bad.add("TForm product")
            if x.d() != ref_tform_d(x):
                bad.add("TForm d")
            u, v = (_random_cylform(BiForm, alg, rng, 1, 1) for _ in "uv")
            if u * v != ref_biform_mul(u, v):
                bad.add("BiForm product")
            if u.d() != ref_biform_d(u):
                bad.add("BiForm d")
            if (u.integrate(0), u.integrate(1)) != (ref_K1(u), ref_K2(u)):
                bad.add("K")
            half = Fraction(1, 2)
            if ((u.restrict(0, half), u.restrict(1, half))
                    != (ref_ev_s(u, half), ref_ev_t(u, half))):
                bad.add("ev")
    return bad


def _flip_shuffle(monkeypatch):
    for key, sign in list(SHUFFLE.items()):
        if key[0] and key[1]:
            monkeypatch.setitem(SHUFFLE, key, -sign)


def _drop_sigma(monkeypatch):
    monkeypatch.setattr(transgression, "grading_sign", lambda w: 1)


def _drop_d_sign(monkeypatch):
    for key in list(KOSZUL):
        monkeypatch.setitem(KOSZUL, key, 1)


def _flip_epsilon(monkeypatch):
    # the closed form's sign 1/(k-1)! flipped, where the suite calls it
    real = transgression.kcs_closed_form
    monkeypatch.setattr(suites, "kcs_closed_form",
                        lambda path, k_max: [-c for c in real(path, k_max)])


class TestReferenceCalculus:
    def test_cylform_matches_reference(self):
        assert _disagreements() == set()

    @pytest.mark.parametrize("flip, caught", [
        (_flip_shuffle, {"BiForm product", "BiForm d"}),
        (_drop_sigma, {"TForm product", "BiForm product"}),
        (_drop_d_sign, {"TForm d", "BiForm d"}),
    ])
    def test_reference_catches_planted_sign(self, monkeypatch, flip, caught):
        flip(monkeypatch)
        assert _disagreements(count=4) == caught


class TestSignMutations:
    """Each sign site of the calculus, flipped alone, makes the
    transgression suite on x3 fail."""

    @pytest.mark.parametrize("flip, caught", [
        (_drop_sigma, "secondary transgression"),
        (_flip_shuffle, "secondary transgression"),
        (_drop_d_sign, "homotopy formula"),
        (_flip_epsilon, "closed-form agreement"),
    ])
    def test_flip_fails_the_suite(self, monkeypatch, flip, caught):
        flip(monkeypatch)
        for name, count in (("N_PATHS", 1), ("N_PAIRS", 2), ("N_TRIPLES", 1),
                            ("N_CLOSED", 2)):
            monkeypatch.setattr(suites, name, count)
        rep = run_suite("transgression", 3, fixtures=["x3"])
        failed = {c["name"] for c in rep["checks"] if c["status"] != "pass"}
        assert rep["status"] == "fail"
        assert caught in failed


# ---------------------------------------------------------------------------
# Sums and matrix products of cylinder forms
# ---------------------------------------------------------------------------

_REFERENCE_MUL = {TForm: ref_tform_mul, BiForm: ref_biform_mul}


def _cyl_kernel_disagreements(seed=60, trials=3):
    """The cylinder types whose matrix products x*y differ from the sums of
    the reference products entry by entry, over 1-3-square matrices with
    zero entries and zero blocks on every fixture."""
    bad = set()
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random((seed, name).__repr__())
        for cls, ref in _REFERENCE_MUL.items():
            for _ in range(trials):
                n = rng.randint(1, 3)
                x, y = (_random_mat(n, rng, lambda: _random_cylform(
                    cls, alg, rng, 1, 1), cls.zero(alg)) for _ in "xy")
                want = [[cls.zero(alg) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            want[i][j] = want[i][j] + ref(x.entries[i][k],
                                                          y.entries[k][j])
                if (x * y).entries != want:
                    bad.add(cls.__name__)
    return bad


class TestCylinderProducts:
    def test_matrix_products_match_reference(self):
        assert _cyl_kernel_disagreements() == set()

    @pytest.mark.parametrize("flip, caught", [
        (_drop_sigma, {"TForm", "BiForm"}),
        (_flip_shuffle, {"BiForm"}),
    ])
    def test_planted_sign_fails(self, monkeypatch, flip, caught):
        flip(monkeypatch)
        assert _cyl_kernel_disagreements() == caught

    def test_mismatches_raise_as_left_factor(self):
        dual, x3 = make_fixture("dual"), make_fixture("x3")
        eps = UForm.from_element(dual.basis(1))

        def mat(one, zero):
            return Mat([[one, zero], [zero, one]])

        tforms = mat(TForm(eps), TForm.zero(dual))
        elems = mat(dual.unit(), dual.zero())
        with pytest.raises(FormError):
            tforms * elems
        with pytest.raises(AlgebraError):
            elems * tforms
        one = TForm(eps)
        raised = _raised(lambda: mat(one, dual.zero()))
        assert raised is FormError
        assert raised is _raised(lambda: one * dual.zero())
        others = (elems, mat(BiForm(eps), BiForm.zero(dual)),
                  mat(TForm(UForm.unit(x3)), TForm.zero(x3)),
                  mat(eps, UForm.zero(dual)))
        for other in others:
            for x, y in ((tforms, other), (other, tforms)):
                raised = _raised(lambda: x * y)
                assert raised in (FormError, AlgebraError)
                assert raised is _raised(lambda: [
                    [x.entries[i][0] * y.entries[0][j]
                     + x.entries[i][1] * y.entries[1][j] for j in range(2)]
                    for i in range(2)])

    def test_constructor_refuses_malformed_parts(self):
        dual = make_fixture("dual")
        u = UForm.unit(dual)
        for parts in ((), (None, u), (dual.unit(),), (u, u, u)):
            with pytest.raises(FormError):
                TForm(*parts)

    def test_sums_refuse_another_type_or_algebra(self):
        dual, x3 = make_fixture("dual"), make_fixture("x3")
        eps = UForm.from_element(dual.basis(1))
        x = TForm(eps)
        for other in (BiForm(eps.d()), TForm(UForm.unit(x3)), eps,
                      dual.unit()):
            for op in (operator.add, operator.sub):
                with pytest.raises(FormError, match="mismatch"):
                    op(x, other)
        assert x + x - x == x


# ---------------------------------------------------------------------------
# What each algebra memoizes per key: the cylinder key products and the
# residual of each word; a planted defect must show through both
# ---------------------------------------------------------------------------

def _transgresses(families, k_max):
    """The suite's two transgression checks in Omega_ab for k = 1..k_max,
    on a straight path, a three-point path and their bigon
    (`_fibre_families`): d KCS_k = ch_k(c1) - ch_k(c0) on the straight
    path, and d of the bigon's secondary potential equals the KCS_k of the
    first path minus that of the second.  Every product and projection is
    computed again on each call, through the algebra's memos."""
    lin, quad, bigon = families
    k1, k2 = kcs(lin, k_max), kcs(quad, k_max)
    pots = secondary_transgression(bigon, k_max)
    ch0, ch1 = (chern(lin.restrict(0, t), k_max) for t in (0, 1))
    return all(ab_d(k1[k - 1]) == ch1[k] - ch0[k]
               and ab_d(pots[k - 1]) == k1[k - 1] - k2[k - 1]
               for k in range(1, k_max + 1))


class TestKeyMemos:
    def test_flipped_residual_fails(self):
        # the kept residual of a word outside the quotient words, with
        # w0 != 0, that the raw Chern forms of degree 4 read with different
        # coefficients: d KCS_2 has only words with w0 = 0, so only the
        # Chern side moves
        families = _fibre_families("x3", "memo")
        lin = families[0]
        assert _transgresses(families, 3)
        raw0, raw1 = (chern_series(lambda t=t: curvature(lin.restrict(0, t)),
                                   3, Mat.trace)[1] for t in (0, 1))
        diff = raw1 - raw0
        proj = lin.algebra._ab[4]
        residuals = proj._residuals
        w = min(w for w, res in residuals.items() if w[0] and res
                and w not in proj.quotient_words and diff.terms.get(w))
        res = dict(residuals[w])
        q = min(res)
        res[q] = -res[q]
        residuals[w] = res
        assert not _transgresses(families, 3)

    @pytest.mark.parametrize("name", ["x3", "M2"])
    def test_flipped_cylinder_product_fails(self, name):
        # the first kept product of keys whose masks join to dx_0 (dt on a
        # path, ds on a bigon), with every sign flipped; of those whose
        # terms have a nonzero class, since no check in Omega_ab can see
        # the flip of a product of commutators
        families = _fibre_families(name, "memo")
        alg, k_max = families[0].algebra, 2 if name == "M2" else 3
        assert _transgresses(families, k_max)
        memo = alg._cylmul
        pair = next(pair for pair, terms in memo.items()
                    if pair[0][0] | pair[1][0] == 1 and project_ab(UForm(
                        alg, {w: s for (_, w), s in terms})))
        memo[pair] = tuple((key, -s) for key, s in memo[pair])
        assert not _transgresses(families, k_max)

    @pytest.mark.parametrize("name", ["x3", "M2"])
    def test_products_share_one_key_per_mask_and_word(self, name):
        families = _fibre_families(name, "memo")
        assert _transgresses(families, 2)
        memo = families[0].algebra._cylmul
        keys = [key for terms in memo.values() for key, _ in terms]
        assert len({id(key) for key in keys}) == len(set(keys)) < len(keys)
        assert all(memo.shared_keys[key] is key for key in keys)

    @pytest.mark.parametrize("name", ["x3", "M2"])
    def test_mask_blind_memo_fails(self, monkeypatch, name):
        # a memo keyed by the two words alone answers for the first pair of
        # masks it met.  On a path a word's degree fixes its mask, so only
        # the bigon's ds and dt parts, both of degree 1, can meet it; at
        # k = 2 it turns tr(S_s S_t - S_t S_s) into tr(S_s S_t + S_t S_s),
        # which is zero in Omega_ab, and on M2 the KCS_2 of the two paths
        # agree there, so k_max is 3
        memos = {}

        def key_product(alg):
            products, memo = _CylProducts(alg), memos.setdefault(id(alg), {})

            def rule(a, b):
                words = a[1], b[1]
                if words not in memo:
                    memo[words] = products[a, b]
                return memo[words]
            return rule
        monkeypatch.setattr(CylForm, "_key_product", staticmethod(key_product))
        assert not _transgresses(_fibre_families(name, "memo"), 3)

    def test_grading_sign_mutant_reaches_cold_memos_only(self, monkeypatch):
        # kcs never reads sigma (in a path's products every left factor of
        # an odd right mask has even degree); the secondary potential does.
        # The mutant is seen by an algebra built after it, not by one whose
        # memo already holds the products
        warm = _fibre_families("x3", "memo")[2]
        want = secondary_transgression(warm, 3)
        _drop_sigma(monkeypatch)
        assert secondary_transgression(warm, 3) == want
        assert secondary_transgression(
            _fibre_families("x3", "memo")[2], 3) != want
