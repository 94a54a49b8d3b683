"""Transgression: cylinder forms, homotopy operator, KCS, bigons."""

import random
from fractions import Fraction

import pytest

from kchern import transgression
from kchern.connections import (Connection, ConnectionError_, Idempotent, Mat,
                                chern, direct_sum, extend_scalars, grassmann,
                                pullback, random_connection, random_idempotent,
                                random_iso)
from kchern.exactmath import Q0, Q1
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.suites import _random_cylform, run_transgression_suite
from kchern.transgression import (BiForm, EPSILON_K, KOSZUL, SHUFFLE, TForm,
                                  bigon_straight, chern_tform, constant_path,
                                  homotopy_K, kcs, kcs_between,
                                  kcs_closed_form, reverse_path,
                                  secondary_transgression, straight_line,
                                  three_point_path, tilde_curvature,
                                  tform_operator)
from kchern.uforms import UForm, ab_d, project_ab, word_degree


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
        rep = run_transgression_suite(3, fixtures=["x3"], n_paths=1,
                                      n_pairs=2, n_triples=1, n_closed=2)
        failed = {c["name"] for c in rep["checks"] if c["status"] != "pass"}
        assert rep["status"] == "fail"
        assert caught in failed
