"""Differential K-theory layer: maps, equivalence verifier, hexagon."""

import random

import pytest

from kchern.connections import (ConnectionError_, Idempotent, Mat, ModuleIso,
                                compose_iso, direct_sum, grassmann, pullback,
                                random_automorphism, random_connection,
                                random_idempotent, random_iso, sum_iso)
from kchern import khat
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.khat import (K1Pair, KCSWitness, KHatGen, chain_witnesses,
                         hexagon_suite, map_I, map_R, map_a,
                         odd_chern, verify_kcs_equivalence, zero_generator)
from kchern.transgression import kcs, kcs_between, straight_line
from kchern.uforms import (AbClass, UForm, ab_d, abelianization,
                           is_exact_in_ab, project_ab)
from tests.test_uforms import rand_homogeneous


def sum_classes(classes, alg):
    total = AbClass(alg)
    for cls in classes:
        total = total + cls
    return total


def constructed_pair(alg, rng, with_omega=True):
    """Two generators on the same module whose omega difference is the KCS
    of the connecting straight line (hence KCS-equivalent by construction)."""
    p = random_idempotent(alg, 2, rng)
    d0 = random_connection(p, rng)
    d1 = random_connection(p, rng)
    g0 = KHatGen(p, d0, UForm.zero(alg))
    omega = sum_classes(kcs_between(d0, d1, 2), alg)
    g1 = KHatGen(p, d1, (-omega).lift() if with_omega else UForm.zero(alg))
    return g0, g1


def trivial_witness(g, rng):
    stab_p = random_idempotent(g.algebra, 1, rng)
    stab = grassmann(stab_p)
    sum_p = direct_sum(g.conn, stab).p
    return KCSWitness(stab_p, stab, ModuleIso.identity(sum_p))


class TestMaps:
    def test_R_of_flat_inclusion_is_chern(self):
        alg = make_fixture("QxQ")
        rng = random.Random(40)
        p = random_idempotent(alg, 2, rng)
        g = KHatGen(p, grassmann(p), UForm.zero(alg))
        from kchern.connections import chern
        assert map_R(g, 2) == sum_classes(chern(grassmann(p), 2), alg)
        assert map_I(g) == p

    def test_R_of_a_is_d(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(41)
            for deg in (1, 3):
                omega = rand_homogeneous(alg, rng, deg)
                gp, gm = map_a(omega)
                lhs = map_R(gp, 2) - map_R(gm, 2)
                assert lhs == ab_d(project_ab(omega))

    def test_zero_generator_shape(self):
        alg = make_fixture("dual")
        g = zero_generator(alg)
        assert g.p.size == 1
        assert map_R(g, 2).is_zero()

    def test_in_MK(self):
        alg = make_fixture("C2")
        rng = random.Random(42)
        p = random_idempotent(alg, 2, rng)
        d = random_connection(p, rng)
        g0 = KHatGen(p, d, UForm.zero(alg))
        assert map_R(g0, 2) == map_R(g0, 2)
        # decorating with a non-closed odd form moves R
        eps = rand_homogeneous(alg, rng, 1, terms=3)
        g1 = KHatGen(p, d, eps)
        if not ab_d(project_ab(eps)).is_zero():
            assert map_R(g0, 2) != map_R(g1, 2)


class TestVerifier:
    def test_reflexive_and_constructed(self):
        alg = make_fixture("QxQ")
        rng = random.Random(43)
        g0, g1 = constructed_pair(alg, rng)
        w = trivial_witness(g0, rng)
        assert verify_kcs_equivalence(g0, g0, w, 2)["accepted"]
        assert verify_kcs_equivalence(g0, g1, w, 2)["accepted"]
        # primitives certify every degree
        rep = verify_kcs_equivalence(g0, g1, w, 2)
        assert all(v["exact"] for v in rep["degrees"].values())

    def test_stabilized_witness(self):
        alg = make_fixture("dual")
        rng = random.Random(44)
        p = random_idempotent(alg, 2, rng)
        d0 = random_connection(p, rng)
        d1 = random_connection(p, rng)
        stab_p = random_idempotent(alg, 1, rng)
        stab = random_connection(stab_p, rng)
        s0 = direct_sum(d0, stab)
        s1 = direct_sum(d1, stab)
        phi = random_automorphism(s1.p, rng)
        # omega matched to the stabilized, twisted comparison
        omega = sum_classes(kcs_between(s0, pullback(s1, phi), 2), alg)
        g0 = KHatGen(p, d0, UForm.zero(alg))
        g1 = KHatGen(p, d1, (-omega).lift())
        w = KCSWitness(stab_p, stab, phi)
        assert verify_kcs_equivalence(g0, g1, w, 2)["accepted"]

    def test_rejects_even_nonexact_perturbation(self):
        # on QxQ the class of e de de is nonzero in H_2
        alg = make_fixture("QxQ")
        rng = random.Random(45)
        g0, g1 = constructed_pair(alg, rng)
        e = UForm.from_element(alg.basis(1))
        pert = e * e.d() * e.d()
        exact, _ = is_exact_in_ab(pert, 2)
        assert not exact
        g1bad = KHatGen(g1.p, g1.conn, g1.omega + pert)
        w = trivial_witness(g0, rng)
        rep = verify_kcs_equivalence(g0, g1bad, w, 2)
        assert not rep["accepted"]
        assert not rep["degrees"][2]["exact"]

    def test_rejects_wrong_omega(self):
        alg = make_fixture("dual")
        rng = random.Random(46)
        g0, g1 = constructed_pair(alg, rng, with_omega=False)
        w = trivial_witness(g0, rng)
        rep = verify_kcs_equivalence(g0, g1, w, 2)
        # generically the KCS of the connecting line is not exact, so the
        # all-zero omega should fail in at least one odd degree
        kcs_cls = sum_classes(kcs_between(g0.conn, g1.conn, 2), alg)
        expect_reject = any(not is_exact_in_ab(kcs_cls.component(n), n)[0]
                            for n in (1, 3))
        assert rep["accepted"] == (not expect_reject)

    def test_chained_transitivity(self):
        alg = make_fixture("QxQ")
        rng = random.Random(47)
        p = random_idempotent(alg, 2, rng)
        d0, d1, d2 = (random_connection(p, rng) for _ in range(3))
        om01 = sum_classes(kcs_between(d0, d1, 2), alg)
        om12 = sum_classes(kcs_between(d1, d2, 2), alg)
        g0 = KHatGen(p, d0, UForm.zero(alg))
        g1 = KHatGen(p, d1, (-om01).lift())
        g2 = KHatGen(p, d2, (-om01 - om12).lift())
        w01 = trivial_witness(g0, rng)
        w12 = trivial_witness(g1, rng)
        assert verify_kcs_equivalence(g0, g1, w01, 2)["accepted"]
        assert verify_kcs_equivalence(g1, g2, w12, 2)["accepted"]
        w02 = chain_witnesses(g1, w01, w12)
        assert verify_kcs_equivalence(g0, g2, w02, 2)["accepted"]

    def test_witness_shape_mismatch_rejected(self):
        alg = make_fixture("dual")
        rng = random.Random(48)
        g0, g1 = constructed_pair(alg, rng)
        stab_p = random_idempotent(alg, 1, rng)
        stab = grassmann(stab_p)
        wrong = KCSWitness(stab_p, stab,
                           ModuleIso.identity(direct_sum(stab, stab).p))
        with pytest.raises(ConnectionError_):
            verify_kcs_equivalence(g0, g1, wrong, 2)


class TestOddChern:
    def test_composition_law(self):
        for name in ("dual", "QxQ", "C2"):
            alg = make_fixture(name)
            rng = random.Random(49)
            p = random_idempotent(alg, 2, rng)
            u1 = random_automorphism(p, rng)
            u2 = random_automorphism(p, rng)
            comp = compose_iso(u2, u1)
            ch_c = odd_chern(K1Pair(p, comp), 2)
            ch_1 = odd_chern(K1Pair(p, u1), 2)
            ch_2 = odd_chern(K1Pair(p, u2), 2)
            for k in (1, 2):
                diff = ch_c[k - 1] - ch_1[k - 1] - ch_2[k - 1]
                ok, _ = is_exact_in_ab(diff, 2 * k - 1)
                assert ok

    def test_block_sum_law(self):
        alg = make_fixture("dual")
        rng = random.Random(50)
        p = random_idempotent(alg, 2, rng)
        q = random_idempotent(alg, 2, rng)
        u = random_automorphism(p, rng)
        v = random_automorphism(q, rng)
        pq = direct_sum(grassmann(p), grassmann(q)).p
        chb = odd_chern(K1Pair(pq, sum_iso(u, v)), 2)
        chu = odd_chern(K1Pair(p, u), 2)
        chv = odd_chern(K1Pair(q, v), 2)
        for k in (1, 2):
            diff = chb[k - 1] - chu[k - 1] - chv[k - 1]
            ok, _ = is_exact_in_ab(diff, 2 * k - 1)
            assert ok

    def test_identity_automorphism_vanishes(self):
        alg = make_fixture("QxQ")
        rng = random.Random(51)
        p = random_idempotent(alg, 2, rng)
        classes = odd_chern(K1Pair(p, ModuleIso.identity(p)), 2)
        assert all(c.is_zero() for c in classes)


class TestHexagon:
    def test_all_fixtures_pass(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for seed in (1, 7, 42):
                rep = hexagon_suite(alg, seed, 2)
                assert rep["status"] == "pass", (name, seed)

    def test_report_shape(self):
        alg = make_fixture("Q")
        rep = hexagon_suite(alg, 7, 2)
        names = [e["name"] for e in rep["identities"]]
        assert names == ["R o a = d", "Pr o R = ch o I", "R o a o ch1 = 0"]

    def test_planted_non_closed_term_fails(self, monkeypatch):
        # R o a o ch1 = 0 holds because odd Chern classes are closed: a
        # degree-1 class with dbar != 0 added to them must break it
        alg = make_fixture("M2")
        planted = next(cls for cls in
                       (project_ab(UForm.word(alg, w))
                        for w in abelianization(alg, 1).quotient_words)
                       if not ab_d(cls).is_zero())
        real = khat.odd_chern
        monkeypatch.setattr(
            khat, "odd_chern",
            lambda k1, k_max: [c + planted if i == 0 else c
                               for i, c in enumerate(real(k1, k_max))])
        rep = hexagon_suite(alg, 7, 2)
        status = {e["name"]: e["status"] for e in rep["identities"]}
        assert status["R o a o ch1 = 0"] == "fail"
        assert rep["status"] == "fail"
