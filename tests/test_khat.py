"""Differential K-theory layer: maps, equivalence verifier, hexagon."""

import json
import random

import pytest

from kchern.connections import (Connection, ConnectionError_, Idempotent, Mat,
                                ModuleIso, chern, compose_iso, direct_sum,
                                grassmann, pullback, random_automorphism,
                                random_connection, random_idempotent,
                                random_iso, sum_iso)
from kchern import khat, suites
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.serialize import form_to_json
from kchern.khat import (K1Pair, KCSWitness, KHatGen, chain_witnesses,
                         map_I, map_R, map_a, odd_chern,
                         verify_kcs_equivalence, zero_generator)
from kchern.suites import hexagon_suite, run_suite
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


def twisted_case(alg, rng):
    """g0, g1, g1_bad, g2 on one module p and a stabilized witness w whose
    iso is an automorphism of p + N.  omega1 and omega2 are matched to the
    twisted KCS of D1 and D2 on w, so (g0, g1) and (g0, g2) both hold;
    g1_bad adds the unit 0-form, which is not exact, to omega1."""
    p = random_idempotent(alg, 2, rng)
    d0, d1, d2 = (random_connection(p, rng) for _ in range(3))
    stab = random_connection(random_idempotent(alg, 1, rng), rng)
    phi = random_automorphism(direct_sum(d1, stab).p, rng)

    def matched(d):
        omega = sum_classes(kcs_between(
            direct_sum(d0, stab), pullback(direct_sum(d, stab), phi), 2), alg)
        return KHatGen(p, d, (-omega).lift())

    g1 = matched(d1)
    g1_bad = KHatGen(p, d1, g1.omega + UForm.unit(alg))
    return (KHatGen(p, d0, UForm.zero(alg)), g1, g1_bad, matched(d2),
            KCSWitness(stab.p, stab, phi))


def shear(p, k, rng):
    """u = p + x, v = p - x with x = p E p for E one seeded +-e_i in the
    corner block (rows < k, columns >= k) of p = M + N, M of size k: x
    lies in that block, so x x = 0, p x = x p = x and v u = u v = p."""
    alg = p.algebra
    while True:
        i, j = rng.randrange(k), rng.randrange(k, p.size)
        a = alg.basis(rng.randrange(alg.dim)).scale(rng.choice((1, -1)))
        e = Mat([[a if (r, c) == (i, j) else alg.zero()
                  for c in range(p.size)] for r in range(p.size)])
        x = p.mat * e * p.mat
        if x.data:
            return ModuleIso(p, p, p.mat + x, p.mat - x)


def unit_twist(p, k, rng):
    """u = p + a E_kk, v = p + b E_kk for p whose row and column k are the
    identity's, where 1 + a is a unit with inverse 1 + b: a a seeded
    multiple of a nilpotent basis element, b = sum_(j >= 1) (-a)^j.  The
    identity where no basis element is nilpotent."""
    alg = p.algebra
    for i in rng.sample(range(1, alg.dim), alg.dim - 1):
        a = alg.basis(i).scale(rng.choice((1, 2, -1)))
        b, power = alg.zero(), alg.unit()
        for _ in range(alg.dim):
            power = power * (-a)
            b = b + power
        if power:
            continue

        def at_k(c):
            return p.mat + Mat([[c if (r, s) == (k, k) else alg.zero()
                                 for s in range(p.size)]
                                for r in range(p.size)])
        return ModuleIso(p, p, at_k(a), at_k(b))
    return ModuleIso.identity(p)


def twisted_links(alg, rng, links):
    """Generators g_0, ..., g_links on one module p and links w_i from g_i
    to g_(i+1), each with a non-Grassmann stabilizer on the 1 x 1 identity
    and a shear of p + N after a unit on N; every omega is matched, so each
    link holds.  p is drawn again while it is zero, where no shear moves
    anything.  Neither iso is a scalar multiple of p + N.  A shear alone
    leaves the KCS side as the identity's: it is block unitriangular, so
    the pulled-back line's curvature is too, with the untwisted diagonal
    blocks, and no trace moves.  The unit moves it on dual and x3."""
    p = random_idempotent(alg, 2, rng)
    while not p.mat.data:
        p = random_idempotent(alg, 2, rng)
    conns = [random_connection(p, rng) for _ in range(links + 1)]
    ws = []
    for _ in range(links):
        stab = random_connection(Idempotent.identity(alg, 1), rng)
        pn = direct_sum(conns[0], stab).p
        ws.append(KCSWitness(stab.p, stab, compose_iso(
            unit_twist(pn, 2, rng), shear(pn, 2, rng))))
    gens = [KHatGen(p, conns[0], UForm.zero(alg))]
    for w, c1 in zip(ws, conns[1:]):
        side = sum_classes(kcs_between(
            direct_sum(gens[-1].conn, w.stab_conn),
            pullback(direct_sum(c1, w.stab_conn), w.iso), 2), alg)
        gens.append(KHatGen(p, c1, gens[-1].omega - side.lift()))
    return gens, ws


def report_json(rep):
    """A verdict as text: accepted, k_max, and per degree exact and the
    primitive's terms."""
    return json.dumps({
        "accepted": rep["accepted"], "k_max": rep["k_max"],
        "degrees": {n: {"exact": e["exact"],
                        "primitive": (form_to_json(e["primitive"])
                                      if "primitive" in e else None)}
                    for n, e in rep["degrees"].items()}}, sort_keys=True)


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


@pytest.fixture
def calls(monkeypatch):
    """The k_max of every transgression the verifier runs."""
    count = []
    real = khat.kcs_between

    def counted(c0, c1, k_max):
        count.append(k_max)
        return real(c0, c1, k_max)
    monkeypatch.setattr(khat, "kcs_between", counted)
    return count


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

    def test_chained_transitivity(self, calls):
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
        # the chain's side is read from its verified links
        assert len(calls) == 2

    def test_chain_of_automorphism_witnesses(self):
        # phi01 and phi12 are automorphisms of M+N01 and M+N12 (M0 = M1 =
        # M2 = p), so only the block positions tell a dropped swap apart
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            rng = random.Random(49)
            p = random_idempotent(alg, 2, rng)
            d0, d1, d2 = (random_connection(p, rng) for _ in range(3))
            stabs = [random_connection(random_idempotent(alg, 1, rng), rng)
                     for _ in range(2)]
            phis = [random_automorphism(direct_sum(d1, s).p, rng)
                    for s in stabs]
            om01 = sum_classes(kcs_between(
                direct_sum(d0, stabs[0]),
                pullback(direct_sum(d1, stabs[0]), phis[0]), 2), alg)
            om12 = sum_classes(kcs_between(
                direct_sum(d1, stabs[1]),
                pullback(direct_sum(d2, stabs[1]), phis[1]), 2), alg)
            g0 = KHatGen(p, d0, UForm.zero(alg))
            g1 = KHatGen(p, d1, (-om01).lift())
            g2 = KHatGen(p, d2, (-om01 - om12).lift())
            w01, w12 = (KCSWitness(s.p, s, phi)
                        for s, phi in zip(stabs, phis))
            w02 = chain_witnesses(g1, w01, w12)
            self._check_chain_blocks(alg, p.size, w01, w12, w02)
            assert verify_kcs_equivalence(g0, g2, w02, 2)["accepted"]

    @staticmethod
    def _check_chain_blocks(alg, k, w01, w12, w02):
        """u and v of the chained iso against the blocks of phi01 and phi12
        placed as chain_witnesses' diagram says: in M0+N01+M1+N12, out
        M2+N01+M1+N12."""
        n = 2 * k + w01.stab_p.size + w12.stab_p.size
        # block offsets: in M0, N01, M1, N12; out M2, N01, M1, N12
        offsets = [0, k, k + w01.stab_p.size, 2 * k + w01.stab_p.size]

        def place(slots, size):
            # global indices of the M+N block pair at the given slots
            return ([offsets[slots[0]] + i for i in range(k)]
                    + [offsets[slots[1]] + i for i in range(size - k)])

        u = [[alg.zero() for _ in range(n)] for _ in range(n)]
        v = [[alg.zero() for _ in range(n)] for _ in range(n)]
        for phi, src, dst in ((w01.iso, (0, 1), (2, 1)),
                              (w12.iso, (2, 3), (0, 3))):
            size = phi.u.size
            rows, cols = place(dst, size), place(src, size)
            for i in range(size):
                for j in range(size):
                    u[rows[i]][cols[j]] = phi.u.entries[i][j]
                    v[cols[i]][rows[j]] = phi.v.entries[i][j]
        assert w02.iso.u == Mat(u)
        assert w02.iso.v == Mat(v)

    def test_chain_refuses_witnesses_that_do_not_meet(self):
        alg = make_fixture("x3")
        rng = random.Random(5)
        p = random_idempotent(alg, 2, rng)
        d1 = random_connection(p, rng)
        g1 = KHatGen(p, d1, UForm.zero(alg))
        stab = random_connection(random_idempotent(alg, 1, rng), rng)
        good = KCSWitness(stab.p, stab,
                          ModuleIso.identity(direct_sum(d1, stab).p))
        # a witness on another module q != p
        q = random_idempotent(alg, 2, rng)
        assert q != p
        other = KCSWitness(stab.p, stab, ModuleIso.identity(
            direct_sum(random_connection(q, rng), stab).p))
        # a witness whose target is not block diagonal
        target, iso = random_iso(direct_sum(d1, stab).p, rng)
        t = target.mat.entries
        assert any(t[i][2] or t[2][i] for i in range(2))
        skew = KCSWitness(stab.p, stab, iso)
        # a witness from M1 + N to M1 + N' with N' != N
        one, z, x = alg.unit(), alg.zero(), alg.basis(1)
        n = Idempotent(alg, Mat([[one, z], [z, z]]))
        n2 = Idempotent(alg, Mat([[one, x], [z, z]]))
        moved = KCSWitness(n, grassmann(n), sum_iso(
            ModuleIso.identity(p),
            ModuleIso(n, n2, n2.mat * n.mat, n.mat * n2.mat)))
        for w01, w12 in ((other, good), (good, other), (good, skew),
                         (good, moved)):
            with pytest.raises(ConnectionError_):
                chain_witnesses(g1, w01, w12)

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

    @staticmethod
    def fresh(g0, g1, w, k_max=2):
        # the report for a fresh witness, whose memo is empty
        return report_json(verify_kcs_equivalence(
            g0, g1, KCSWitness(w.stab_p, w.stab_conn, w.iso), k_max))

    def test_second_omega_reuses_the_kcs_side(self, calls):
        g0, g1, g1_bad, _, w = twisted_case(make_fixture("x3"),
                                            random.Random(60))
        reps = [verify_kcs_equivalence(g0, g, w, 2)
                for g in (g1, g1_bad, g1)]
        assert len(calls) == 1
        assert [r["accepted"] for r in reps] == [True, False, True]
        del calls[:]
        for rep, g in zip(reps, (g1, g1_bad, g1)):
            assert report_json(rep) == self.fresh(g0, g, w)

    def test_other_connection_recomputes(self, calls):
        # a memo keyed too coarsely would hand g2 the KCS side of D1
        g0, g1, _, g2, w = twisted_case(make_fixture("x3"), random.Random(61))
        assert verify_kcs_equivalence(g0, g1, w, 2)["accepted"]
        rep = verify_kcs_equivalence(g0, g2, w, 2)
        assert rep["accepted"]
        assert len(calls) == 2
        assert report_json(rep) == self.fresh(g0, g2, w)

    def test_swapped_roles_and_k_max_recompute(self, calls):
        g0, g1, _, _, w = twisted_case(make_fixture("x3"), random.Random(62))
        verify_kcs_equivalence(g0, g1, w, 2)
        swapped = verify_kcs_equivalence(g1, g0, w, 2)
        assert len(calls) == 2
        verify_kcs_equivalence(g0, g1, w, 2)
        lower = verify_kcs_equivalence(g0, g1, w, 1)
        assert calls == [2, 2, 2, 1]
        del calls[:]
        assert report_json(swapped) == self.fresh(g1, g0, w)
        assert report_json(lower) == self.fresh(g0, g1, w, 1)

    def test_reassigned_witness_fields_recompute(self, calls):
        g0, g1, _, _, w = twisted_case(make_fixture("x3"), random.Random(63))
        verify_kcs_equivalence(g0, g1, w, 2)
        iso = w.iso
        w.iso = ModuleIso(iso.p0, iso.p1, iso.u, iso.v)
        by_iso = verify_kcs_equivalence(g0, g1, w, 2)
        stab = w.stab_conn
        w.stab_conn = Connection(stab.p, stab.theta)
        by_stab = verify_kcs_equivalence(g0, g1, w, 2)
        assert len(calls) == 3
        del calls[:]
        assert report_json(by_iso) == report_json(by_stab) == self.fresh(
            g0, g1, w)

    def test_witness_without_init_recomputes(self, calls):
        g0, g1, _, _, w = twisted_case(make_fixture("x3"), random.Random(64))
        want = report_json(verify_kcs_equivalence(g0, g1, w, 2))
        bare = object.__new__(KCSWitness)
        bare.stab_p, bare.stab_conn, bare.iso = w.stab_p, w.stab_conn, w.iso
        assert report_json(verify_kcs_equivalence(g0, g1, bare, 2)) == want
        assert len(calls) == 2

    def test_generator_over_another_algebra_is_refused(self):
        # refused as `direct_sum` refuses the pair, with or without a memo
        g0, g1, _, _, w = twisted_case(make_fixture("x3"), random.Random(65))
        other = constructed_pair(make_fixture("dual"), random.Random(66))[0]
        for pair in ((g0, other), (other, g1), (g0, other)):
            with pytest.raises(ConnectionError_, match="^algebra mismatch$"):
                verify_kcs_equivalence(*pair, w, 2)
            assert verify_kcs_equivalence(g0, g1, w, 2)["accepted"]

    def test_path_generator_is_refused(self):
        # K-hat objects carry single connections: a family is refused at
        # construction, as a generator's connection or a stabilizer's
        g0, g1, _, _, w = twisted_case(make_fixture("x3"), random.Random(67))
        line = straight_line(g0.conn, g1.conn)
        with pytest.raises(ConnectionError_, match="^expected a single "
                           "connection .R = 0., not a family with R = 1$"):
            KHatGen(g1.p, line, g1.omega)
        with pytest.raises(ConnectionError_, match="R = 1$"):
            KCSWitness(w.stab_p, straight_line(w.stab_conn, w.stab_conn),
                       w.iso)
        # the verifier's own refusal, of a generator made without
        # `__init__`: an R = 1 connection does not sum with the R = 0
        # stabilizer
        path = object.__new__(KHatGen)
        path.p, path.conn, path.omega = g1.p, line, g1.omega
        for pair in ((g0, path), (path, g1), (g0, path)):
            with pytest.raises(ConnectionError_, match="^families with "
                               "different parameters$"):
                verify_kcs_equivalence(*pair, w, 2)
            assert verify_kcs_equivalence(g0, g1, w, 2)["accepted"]

    def test_forged_uncompressed_witness_is_refused(self):
        # the verifier pulls back the caller's iso through the checked
        # Connection constructor: a v that bypasses v = p0 v p1 is refused
        alg = make_fixture("dual")
        z, one = alg.zero(), alg.unit()
        p = Idempotent(alg, Mat([[one, z], [z, z]]))
        zf = UForm.zero(alg)
        c = Connection(p, Mat([[UForm(alg, {(0, 1): 1, (1, 1): 2}), zf],
                               [zf, zf]]))
        g = KHatGen(p, c, zf)
        stab = grassmann(Idempotent.identity(alg, 1))
        sum_p = direct_sum(c, stab).p
        forged = object.__new__(ModuleIso)
        forged.p0 = forged.p1 = sum_p
        forged.u = sum_p.mat
        forged.v = sum_p.mat + Mat([[z, z, z], [one, z, z], [z, z, z]])
        w = KCSWitness(stab.p, stab, forged)
        with pytest.raises(ConnectionError_, match="not compressed"):
            verify_kcs_equivalence(g, g, w, 2)
        honest = KCSWitness(stab.p, stab, ModuleIso.identity(sum_p))
        assert verify_kcs_equivalence(g, g, honest, 2)["accepted"]


def add_sides(a, b):
    return [x + y for x, y in zip(a, b)]


# Planted defects in how a chain combines its links' sides, given the
# side function, the links, the chain's ends c0, c1 and its middle mid.
CHAIN_PLANTS = {
    "one link's side dropped":
        lambda side, w01, w12, c0, mid, c1: side(w01, c0, mid),
    "the links' arguments swapped":
        lambda side, w01, w12, c0, mid, c1: add_sides(side(w01, mid, c0),
                                                      side(w12, c1, mid)),
    "g0.conn as the middle":
        lambda side, w01, w12, c0, mid, c1: add_sides(side(w01, c0, c0),
                                                      side(w12, c0, c1)),
}


class TestChainFromLinks:
    """A chained witness's KCS side is its two links' sides added, exactly
    the direct transgression of the chain's block sums."""

    CASES = [(name, seed) for name in ("dual", "x3", "M2", "QxQ")
             for seed in (1, 2)]

    @staticmethod
    def direct(c0, c1, w, k_max=2):
        stab = w.stab_conn
        return kcs_between(direct_sum(c0, stab),
                           pullback(direct_sum(c1, stab), w.iso), k_max)

    def oracle_holds(self, name, seed):
        """The side of a chain of twisted links, and of a chain of that
        chain and a third link, against the direct transgression."""
        (g0, g1, g2, g3), (w01, w12, w23) = twisted_links(
            make_fixture(name), random.Random(seed), 3)
        w02 = chain_witnesses(g1, w01, w12)
        w03 = chain_witnesses(g2, w02, w23)
        return all(khat._kcs_side(w, g0.conn, g.conn, 2)
                   == self.direct(g0.conn, g.conn, w)
                   for g, w in ((g2, w02), (g3, w03)))

    @pytest.mark.parametrize("name,seed", CASES)
    def test_side_is_the_direct_transgression(self, name, seed):
        assert self.oracle_holds(name, seed)

    @pytest.mark.parametrize("plant", sorted(CHAIN_PLANTS))
    def test_planted_defect_fails_the_oracle(self, plant, monkeypatch):
        real = khat._kcs_side

        def planted(w, c0, c1, k_max):
            if getattr(w, "_links", None) is None:
                return real(w, c0, c1, k_max)
            mid, w01, w12, _ = w._links
            return CHAIN_PLANTS[plant](
                lambda *args: planted(*args, k_max), w01, w12, c0, mid, c1)
        monkeypatch.setattr(khat, "_kcs_side", planted)
        # x3 tells every plant apart at each seed.  QxQ has no odd classes
        # in the abelianization, so every side is 0 there, and some seeds
        # on dual and M2 cannot see some plants: the degree-1 side is
        # tr(theta1 - theta0) of its ends, so a wrong middle cancels there,
        # and on M2 it cancelled in degree 3 too at every seed tried.
        for seed in (1, 2):
            assert not self.oracle_holds("x3", seed), seed

    def test_chains_of_chains_are_accepted(self):
        for name, seed in self.CASES:
            (g0, g1, g2, g3), (w01, w12, w23) = twisted_links(
                make_fixture(name), random.Random(seed), 3)
            w02 = chain_witnesses(g1, w01, w12)
            w13 = chain_witnesses(g2, w12, w23)
            for g, w in ((g2, w02), (g3, chain_witnesses(g2, w02, w23)),
                         (g3, chain_witnesses(g1, w01, w13))):
                rep = verify_kcs_equivalence(g0, g, w, 2)
                assert rep["accepted"], (name, seed)
                assert report_json(rep) == TestVerifier.fresh(g0, g, w)

    def test_verified_links_run_no_transgression(self, calls):
        (g0, g1, g2), (w01, w12) = twisted_links(make_fixture("x3"),
                                                 random.Random(3), 2)
        assert verify_kcs_equivalence(g0, g1, w01, 2)["accepted"]
        assert verify_kcs_equivalence(g1, g2, w12, 2)["accepted"]
        assert len(calls) == 2
        for _ in range(2):
            chain = chain_witnesses(g1, w01, w12)
            assert verify_kcs_equivalence(g0, g2, chain, 2)["accepted"]
            assert len(calls) == 2

    def test_unverified_links_run_one_transgression_each(self, calls):
        (g0, g1, g2), (w01, w12) = twisted_links(make_fixture("x3"),
                                                 random.Random(4), 2)
        chain = chain_witnesses(g1, w01, w12)
        rep = verify_kcs_equivalence(g0, g2, chain, 2)
        assert rep["accepted"]
        assert len(calls) == 2
        # the links keep their sides: verifying them, or the same links
        # chained again, runs no transgression
        assert verify_kcs_equivalence(g0, g1, w01, 2)["accepted"]
        assert verify_kcs_equivalence(g1, g2, w12, 2)["accepted"]
        again = verify_kcs_equivalence(g0, g2,
                                       chain_witnesses(g1, w01, w12), 2)
        assert len(calls) == 2
        del calls[:]
        assert report_json(again) == report_json(rep) == TestVerifier.fresh(
            g0, g2, chain)

    @pytest.mark.parametrize("field", ["link iso", "chain iso",
                                       "chain stab_conn"])
    def test_reassigned_fields_read_the_direct_side(self, field):
        # each link's side is kept against (D0, D1) and (D1, D2) first, so
        # a chain that read its links past a reassigned field would differ
        for name, seed in self.CASES:
            rng = random.Random(seed)
            (g0, g1, g2), (w01, w12) = twisted_links(make_fixture(name),
                                                     rng, 2)
            verify_kcs_equivalence(g0, g1, w01, 2)
            verify_kcs_equivalence(g1, g2, w12, 2)
            chain = chain_witnesses(g1, w01, w12)
            if field == "link iso":
                w01.iso = compose_iso(w01.iso, unit_twist(w01.iso.p1, 2, rng))
            elif field == "chain iso":
                # a unit on N12, the last block of M2 + N01 + M1 + N12
                p1 = chain.iso.p1
                chain.iso = compose_iso(chain.iso,
                                        unit_twist(p1, p1.size - 1, rng))
            else:
                chain.stab_conn = random_connection(chain.stab_conn.p, rng)
            side = khat._kcs_side(chain, g0.conn, g2.conn, 2)
            assert side == self.direct(g0.conn, g2.conn, chain), (name, seed)
            rep = verify_kcs_equivalence(g0, g2, chain, 2)
            assert report_json(rep) == TestVerifier.fresh(g0, g2, chain)


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

    def test_kmax_below_one_is_refused(self):
        # k_max = 0 would compare empty class lists and report "pass"
        alg = make_fixture("dual")
        for k_max in (0, -1):
            with pytest.raises(ValueError):
                hexagon_suite(alg, 7, k_max)
            for suite in ("chern", "transgression", "hexagon"):
                with pytest.raises(ValueError):
                    run_suite(suite, 7, ["dual"], k_max=k_max)
            p = random_idempotent(alg, 2, 1)
            c0, c1 = random_connection(p, 2), random_connection(p, 3)
            with pytest.raises(ValueError):
                kcs(straight_line(c0, c1), k_max)
            # refused before the witness is read: a witness of the wrong
            # shape would raise ConnectionError_ from its checks
            g = KHatGen(p, c0, UForm.zero(alg))
            stab = grassmann(Idempotent.identity(alg, 1))
            wrong = KCSWitness(stab.p, stab, ModuleIso.identity(
                direct_sum(stab, stab).p))
            with pytest.raises(ValueError, match="k_max must be at least"):
                verify_kcs_equivalence(g, g, wrong, k_max)

    def test_report_shape(self):
        alg = make_fixture("Q")
        rep = hexagon_suite(alg, 7, 2)
        names = [e["name"] for e in rep["identities"]]
        assert names == ["R o a = d", "Pr o R = ch o I", "R o a o ch1 = 0"]

    def test_planted_r_without_dbar_omega_fails(self, monkeypatch):
        # R o a = d holds because R adds dbar(omega) to ch(D): an R that
        # drops that term must break it
        monkeypatch.setattr(
            suites, "map_R",
            lambda g, k_max: sum_classes(chern(g.conn, k_max), g.algebra))
        rep = hexagon_suite(make_fixture("M2"), 7, 2)
        status = {e["name"]: e["status"] for e in rep["identities"]}
        assert status["R o a = d"] == "fail"

    def test_planted_non_closed_term_fails(self, monkeypatch):
        # R o a o ch1 = 0 holds because odd Chern classes are closed: a
        # degree-1 class with dbar != 0 added to them must break it
        alg = make_fixture("M2")
        planted = next(cls for cls in
                       (project_ab(UForm.word(alg, w))
                        for w in abelianization(alg, 1).quotient_words)
                       if not ab_d(cls).is_zero())
        real = suites.odd_chern
        monkeypatch.setattr(
            suites, "odd_chern",
            lambda k1, k_max: [c + planted if i == 0 else c
                               for i, c in enumerate(real(k1, k_max))])
        rep = hexagon_suite(alg, 7, 2)
        status = {e["name"]: e["status"] for e in rep["identities"]}
        assert status["R o a o ch1 = 0"] == "fail"
        assert rep["status"] == "fail"
