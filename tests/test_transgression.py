"""Transgression: cylinder forms, homotopy operator, KCS, bigons."""

import math
import operator
import random
from fractions import Fraction

import pytest

from kchern import connections, suites, transgression
from kchern.algebra import AlgebraError
from kchern.connections import (Connection, ConnectionError_, Idempotent, Mat,
                                chern, direct_sum, extend_scalars, grassmann,
                                pullback, random_connection, random_idempotent,
                                random_iso)
from kchern.exactmath import Q0, Q1
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.suites import _random_cylform, run_transgression_suite
from kchern.transgression import (BiForm, EPSILON_K, KOSZUL, SHUFFLE, TForm,
                                  bigon_curvature, bigon_straight,
                                  chern_biform, chern_tform,
                                  constant_path, homotopy_K, kcs, kcs_between,
                                  kcs_closed_form, reverse_path,
                                  secondary_transgression, straight_line,
                                  three_point_path, tilde_curvature,
                                  tform_operator)
from kchern.uforms import FormError, UForm, ab_d, project_ab, word_degree
from tests.test_connections import _raised, _random_mat


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
        # pins the closed-form sign epsilon_k = +1 against the golden value
        assert EPSILON_K == 1
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
# The fibre integrals against the full cylinder Chern forms
# ---------------------------------------------------------------------------

def _fibre_disagreements():
    """(fixtures where kcs or secondary_transgression differs from K, or
    K K_s, of the full chern_tform or chern_biform forms, count of nonzero
    values), over seeded straight and three-point paths and their bigons."""
    bad, nonzero = set(), 0
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        rng = random.Random("fibre/" + name)
        for p in (random_idempotent(alg, 2, rng), Idempotent.identity(alg, 1)):
            c0, cm, c1 = (random_connection(p, rng) for _ in range(3))
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
        rep = run_transgression_suite(3, fixtures=["x3"])
        failed = {c["name"] for c in rep["checks"] if c["status"] != "pass"}
        assert "closed-form agreement" in failed


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
    monkeypatch.setattr(transgression, "sigma", lambda u: u)


def _drop_d_sign(monkeypatch):
    for key in list(KOSZUL):
        monkeypatch.setitem(KOSZUL, key, 1)


def _flip_epsilon(monkeypatch):
    monkeypatch.setattr(transgression, "EPSILON_K", -EPSILON_K)


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
        rep = run_transgression_suite(3, fixtures=["x3"])
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
