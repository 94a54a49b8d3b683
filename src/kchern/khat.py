"""Differential K-theory layer: generators (p, D, omega), witness-checked
KCS-equivalence, the maps R, I, a, odd Chern character on automorphism
pairs, and the hexagon identity suite.

Everything here is a verifier: witnesses are supplied, never searched for.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Algebra
from .connections import (Connection, ConnectionError_, Idempotent, Mat,
                          ModuleIso, chern, compose_iso, direct_sum,
                          grassmann, pullback, random_automorphism,
                          random_connection, random_idempotent, sum_iso,
                          swap_iso)
from .exactmath import Q0
from .uforms import (AbClass, UForm, ab_d, enumerate_words, is_exact_in_ab,
                     project_ab)
from .transgression import (kcs, kcs_between, straight_line)


class KHatGen:
    """A differential K-theory generator (p, D, omega).

    omega is a graded form representative, expected odd (degrees 1, 3, ...);
    even components are tolerated at construction so the KCS-equivalence
    verifier (not the constructor) is the gatekeeper that rejects them.
    """

    __slots__ = ("p", "conn", "omega")

    def __init__(self, p: Idempotent, conn: Connection, omega: UForm):
        if conn.p != p:
            raise ConnectionError_("connection does not live on p")
        if omega.algebra != p.algebra:
            raise ConnectionError_("omega algebra mismatch")
        self.p = p
        self.conn = conn
        self.omega = omega

    @property
    def algebra(self):
        return self.p.algebra


class KCSWitness:
    """Stabilizer (N, D_N) plus iso Im(p0 + N) -> Im(p1 + N)."""

    __slots__ = ("stab_p", "stab_conn", "iso")

    def __init__(self, stab_p: Idempotent, stab_conn: Connection,
                 iso: ModuleIso):
        if stab_conn.p != stab_p:
            raise ConnectionError_("stabilizer connection mismatch")
        self.stab_p = stab_p
        self.stab_conn = stab_conn
        self.iso = iso


class K1Pair:
    """A pair (M, phi): idempotent plus automorphism of Im(p)."""

    __slots__ = ("p", "aut")

    def __init__(self, p: Idempotent, aut: ModuleIso):
        if aut.p0 != p or aut.p1 != p:
            raise ConnectionError_("automorphism must fix p")
        self.p = p
        self.aut = aut


# ---------------------------------------------------------------------------
# The maps
# ---------------------------------------------------------------------------

def map_R(g: KHatGen, k_max: int) -> AbClass:
    """R(p, D, omega) = ch(D) + dbar(omega), a closed even graded class."""
    total = AbClass(g.algebra)
    for cls in chern(g.conn, k_max):
        total = total + cls
    total = total + ab_d(project_ab(g.omega))
    return total


def map_I(g: KHatGen) -> Idempotent:
    """Forget to the underlying formal K0 representative."""
    return g.p


def zero_generator(alg: Algebra, omega: UForm = None) -> KHatGen:
    """(O, 0, omega) on the 1x1 zero idempotent."""
    p = Idempotent.zero(alg, 1)
    return KHatGen(p, grassmann(p),
                   omega if omega is not None else UForm.zero(alg))


def map_a(omega: UForm):
    """a([omega]) = [(O, 0, omega)] - [(O, 0, 0)], as a generator pair."""
    alg = omega.algebra
    return zero_generator(alg, omega), zero_generator(alg)


def verify_kcs_equivalence(g0: KHatGen, g1: KHatGen, w: KCSWitness,
                           k_max: int) -> dict:
    """Check KCS(D0 + D, phi*(D1 + D)) = (omega0 - omega1) mod Im(d).

    Compares per degree in every degree where either side is nonzero (the
    KCS side vanishes in even degrees, so a nonexact even omega perturbation
    is rejected here).  Returns a verdict dict with primitives as the
    certificate on acceptance.
    """
    d0 = direct_sum(g0.conn, w.stab_conn)
    d1 = direct_sum(g1.conn, w.stab_conn)
    if w.iso.p0 != d0.p:
        raise ConnectionError_("witness iso source does not match g0 + stab")
    if w.iso.p1 != d1.p:
        raise ConnectionError_("witness iso target does not match g1 + stab")
    d1p = pullback(d1, w.iso)
    kcs_list = kcs_between(d0, d1p, k_max)
    omega_diff = project_ab(g0.omega) - project_ab(g1.omega)
    degrees = sorted(set(range(1, 2 * k_max, 2)) | set(omega_diff.degrees()))
    result = {"accepted": True, "degrees": {}, "k_max": k_max}
    for n in degrees:
        side = AbClass(g0.algebra)
        if n % 2 == 1 and n <= 2 * k_max - 1:
            side = kcs_list[(n + 1) // 2 - 1].component(n)
        delta = side - omega_diff.component(n)
        ok, primitive = is_exact_in_ab(delta, n)
        entry = {"exact": ok}
        if ok:
            entry["primitive"] = primitive
        result["degrees"][n] = entry
        if not ok:
            result["accepted"] = False
    return result


def chain_witnesses(g1: KHatGen, w01: KCSWitness,
                    w12: KCSWitness) -> KCSWitness:
    """Composite witness for transitivity.

    With phi01: M0+N01 -> M1+N01 and phi12: M1+N12 -> M2+N12, the composite
    stabilizer is N = N01+M1+N12 (connection D_N01 + D_1 + D_N12) and the
    iso M0+N -> M2+N is assembled from block sums and swaps:

        M0+N01+M1+N12 --phi01+id+id--> M1+N01+M1+N12
                      --swap(M1,N01)+id+id--> N01+M1+M1+N12
                      --id+id+phi12--> N01+M1+M2+N12
                      --swap(N01+M1, M2)+id--> M2+N01+M1+N12
    """
    n01, n12 = w01.stab_p, w12.stab_p
    m1 = g1.p
    alg = g1.algebra
    id_m1 = ModuleIso.identity(m1)
    id_n12 = ModuleIso.identity(n12)
    id_n01 = ModuleIso.identity(n01)
    s1 = sum_iso(w01.iso, sum_iso(id_m1, id_n12))
    s2 = sum_iso(swap_iso(m1, n01), sum_iso(id_m1, id_n12))
    s3 = sum_iso(id_n01, sum_iso(id_m1, w12.iso))
    # after s3 the blocks read N01 + M1 + M2 + N12; bring M2 to the front
    n01m1 = Idempotent(alg, _take_block(s3.p1.mat, 0, n01.size + m1.size))
    m2_size = w12.iso.p1.size - n12.size
    m2 = Idempotent(alg, _take_block(s3.p1.mat, n01.size + m1.size, m2_size))
    s4 = sum_iso(swap_iso(n01m1, m2), id_n12)
    iso = compose_iso(compose_iso(compose_iso(s1, s2), s3), s4)
    stab_conn = direct_sum(direct_sum(w01.stab_conn, g1.conn),
                           w12.stab_conn)
    return KCSWitness(stab_conn.p, stab_conn, iso)


def _take_block(m: Mat, start: int, size: int) -> Mat:
    return Mat([[m.entries[start + i][start + j] for j in range(size)]
                for i in range(size)])


def odd_chern(k1: K1Pair, k_max: int):
    """ch1(M, phi) = KCS of the straight line from the Grassmann D to
    phi*D; a graded odd class list, well defined mod Im(d)."""
    d = grassmann(k1.p)
    dphi = pullback(d, k1.aut)
    return kcs(straight_line(d, dphi), k_max)


# ---------------------------------------------------------------------------
# Hexagon suite
# ---------------------------------------------------------------------------

def _random_odd_form(alg: Algebra, rng: random.Random,
                     max_degree: int) -> UForm:
    terms = {}
    for n in range(1, max_degree + 1, 2):
        words = enumerate_words(alg, n)
        if not words:
            continue
        for _ in range(rng.randint(0, 2)):
            w = words[rng.randrange(len(words))]
            c = Fraction(rng.randint(-2, 2))
            if c:
                terms[w] = terms.get(w, Q0) + c
    return UForm(alg, terms)


def hexagon_suite(alg: Algebra, seed, k_max: int = 2) -> dict:
    """Check the hexagon-diagram identities on random data.

    Identities: R o a = d (exact equality); Pr o R = ch o I (difference
    exact per degree); R o a o ch1 = 0 on the lifted odd Chern classes of a
    random automorphism (exact equality).  Returns a JSON-ready report.
    """
    rng = random.Random(seed)
    report = {"algebra": list(alg.names), "seed": seed, "k_max": k_max,
              "identities": []}

    def record(name, status, detail=None):
        entry = {"name": name, "status": "pass" if status else "fail"}
        if detail is not None:
            entry["detail"] = detail
        report["identities"].append(entry)
        return status

    # R o a = d, exactly
    ok_all = True
    for _ in range(3):
        omega = _random_odd_form(alg, rng, 2 * k_max - 1)
        gplus, gminus = map_a(omega)
        lhs = map_R(gplus, k_max) - map_R(gminus, k_max)
        rhs = ab_d(project_ab(omega))
        if lhs != rhs:
            ok_all = False
    record("R o a = d", ok_all,
           {"degrees": list(range(2, 2 * k_max + 1, 2))})

    # Pr o R = ch o I: difference of R(g) and ch(grassmann(I(g))) is exact
    ok_all = True
    degs = list(range(2, 2 * k_max + 1, 2))
    for i in range(2):
        p = random_idempotent(alg, 2, rng)
        conn = random_connection(p, rng)
        g = KHatGen(p, conn, _random_odd_form(alg, rng, 2 * k_max - 1))
        diff = map_R(g, k_max) - sum(chern(grassmann(map_I(g)), k_max),
                                     AbClass(alg))
        for n in degs:
            ok, _ = is_exact_in_ab(diff.component(n), n)
            if not ok:
                ok_all = False
    record("Pr o R = ch o I", ok_all, {"degrees": degs})

    # R o a o ch1 = 0: odd Chern classes are closed, so a of their lift
    # has R = dbar(omega_rep) = 0
    p = random_idempotent(alg, 2, rng)
    aut = random_automorphism(p, rng)
    omega_rep = UForm(alg)
    for cls in odd_chern(K1Pair(p, aut), k_max):
        omega_rep = omega_rep + cls.lift()
    gplus, gminus = map_a(omega_rep)
    record("R o a o ch1 = 0",
           (map_R(gplus, k_max) - map_R(gminus, k_max)).is_zero())

    report["status"] = ("pass" if all(e["status"] == "pass"
                                      for e in report["identities"])
                        else "fail")
    return report
