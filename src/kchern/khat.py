"""Differential K-theory layer: generators (p, D, omega), witness-checked
KCS-equivalence and chained witnesses, the maps R, I, a, and the odd Chern
character on automorphism pairs.

Everything here is a verifier: witnesses are supplied, never searched for,
and nothing is drawn at random (the seeded hexagon identities live in
`suites`).
A `KCSWitness` keeps, in its slot `_kcs`, the KCS side of the last pair of
generators it verified, so that a second omega against the same witness and
connections skips the direct sums, the pullback and the transgression; the
witness checks, the omega comparison and the exactness solves run on every
call.  A chained witness reads its KCS side from its links (`_kcs_side`).
"""

from __future__ import annotations

from .algebra import Algebra
from .connections import (Connection, ConnectionError_, Idempotent,
                          ModuleIso, block_diag, check_k_max, chern,
                          compose_iso, direct_sum, grassmann, permute_blocks,
                          pullback, sum_iso)
from .uforms import AbClass, UForm, ab_d, is_exact_in_ab, project_ab
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
        _require_single(conn)
        if omega.algebra != p.algebra:
            raise ConnectionError_("omega algebra mismatch")
        self.p = p
        self.conn = conn
        self.omega = omega

    @property
    def algebra(self):
        return self.p.algebra


def _require_single(conn: Connection):
    """Refuse a connection family (R != 0): K-hat objects carry single
    connections, whose Chern forms have rational scalars."""
    if conn.R != 0:
        raise ConnectionError_("expected a single connection (R = 0), not "
                               "a family with R = %d" % conn.R)


class KCSWitness:
    """Stabilizer (N, D_N) plus iso Im(p0 + N) -> Im(p1 + N).

    The slot `_kcs` holds one memo entry of `verify_kcs_equivalence`, the
    KCS side of the last pair it verified with this witness, keyed by the
    objects it was computed from; it stays unset until the first
    verification, and a witness made without `__init__` has none.  The
    slot `_links` is set by `chain_witnesses` alone (see `_kcs_side`).
    """

    __slots__ = ("stab_p", "stab_conn", "iso", "_kcs", "_links")

    def __init__(self, stab_p: Idempotent, stab_conn: Connection,
                 iso: ModuleIso):
        if stab_conn.p != stab_p:
            raise ConnectionError_("stabilizer connection mismatch")
        _require_single(stab_conn)
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
    return (sum(chern(g.conn, k_max), AbClass(g.algebra))
            + ab_d(project_ab(g.omega)))


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

    Compares per degree in every odd degree 1..2k_max-1, where the KCS side
    lives, and in every degree of omega0 - omega1 (the KCS side vanishes in
    even degrees, so a nonexact even omega perturbation is rejected here).
    Returns a verdict dict with primitives as the certificate on acceptance;
    k_max >= 1.

    The KCS side comes from `_kcs_side`: the witness's memo, the sum of a
    chain's two links' sides, or the direct transgression.  Both witness
    checks, the omega comparison and every exactness solve run on every
    call, so each report is built fresh; the witness checks read only the
    block sums of the idempotents, so the direct sums, thetas included,
    are built only where the KCS side is transgressed.
    """
    check_k_max(k_max)
    stab = w.stab_conn
    # direct_sum's refusals of both pairs come before the witness checks
    for g in (g0, g1):
        if g.conn.algebra != stab.algebra:
            raise ConnectionError_("algebra mismatch")
        if g.conn.R != stab.R:
            raise ConnectionError_("families with different parameters")
    if w.iso.p0.mat != block_diag(g0.conn.p.mat, stab.p.mat):
        raise ConnectionError_("witness iso source does not match g0 + stab")
    if w.iso.p1.mat != block_diag(g1.conn.p.mat, stab.p.mat):
        raise ConnectionError_("witness iso target does not match g1 + stab")
    kcs_list = _kcs_side(w, g0.conn, g1.conn, k_max)
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


def _kcs_side(w: KCSWitness, c0: Connection, c1: Connection, k_max: int):
    """KCS(D0 + D_N, phi*(D1 + D_N)) for c0 = D0, c1 = D1 and w = (N, D_N,
    phi), whose iso the caller has checked to run from D0 + N to D1 + N.

    It is a function of (D0, D1, D_N, phi, k_max) alone, and neither a
    `Connection` nor a `ModuleIso` is mutated after construction, so it is
    kept on the witness (`w._kcs`, one entry) and read back while c0, c1,
    w.stab_conn and w.iso are the very objects it was computed from and
    k_max is equal; a reassigned field fails that identity test.

    On a miss, a chain w02 of w01 and w12 through D1 whose `_links` (D1,
    both links, and the `stab_conn` and `iso` of both links and of w02, as
    `chain_witnesses` recorded them) are all still in place gets the sum,
    entry by entry, of side(w01, D0, D1) and side(w12, D1, D2), each read
    from or kept in its link's memo (a chain of chains recurses).  This is
    the direct value, exactly: with the stabilizer N01 + M1 + N12 of
    connection D_N01 + D1 + D_N12 and the iso (block permutation) o
    (phi01 + phi12), pulling D2 + N01 + D1 + N12 back along the permutation
    (u = s p, v = p s^T: v du = p dp, and v theta u moves theta's blocks)
    gives (D1 + N01) + (D2 + N12) on the blocks of phi01 + phi12, and a
    pullback along a composite is the composite of pullbacks
    (v1 p dp u1 = 0 for p = v2 u2 = u1 v1), so the pulled-back end is
    phi01*(D1 + N01) + phi12*(D2 + N12), and the start is
    (D0 + N01) + (D1 + N12).  The straight line between two block sums
    is the block sum of the straight lines, so every power of its
    curvature and every trace splits by block, and the fibre integral and
    `project_ab` are linear.  The checks of w02 against (D0, D2) imply
    both links' checks against (D0, D1) and (D1, D2), since
    `chain_witnesses` checked where the links meet.  Otherwise the side
    is the direct transgression of the block sums.
    """
    key = (c0, c1, w.stab_conn, w.iso)
    memo = getattr(w, "_kcs", None)
    if (memo is not None and memo[1] == k_max
            and all(a is b for a, b in zip(memo[0], key))):
        return memo[2]
    mid, w01, w12, kept = getattr(w, "_links", (None,) * 4)
    if mid is not None and all(a is b for a, b in zip(kept, (
            w01.stab_conn, w01.iso, w12.stab_conn, w12.iso, w.stab_conn,
            w.iso))):
        side = [a + b for a, b in zip(_kcs_side(w01, c0, mid, k_max),
                                      _kcs_side(w12, mid, c1, k_max))]
    else:
        d0, d1 = (direct_sum(c, w.stab_conn) for c in (c0, c1))
        side = kcs_between(d0, pullback(d1, w.iso), k_max)
    w._kcs = (key, k_max, side)
    return side


def chain_witnesses(g1: KHatGen, w01: KCSWitness,
                    w12: KCSWitness) -> KCSWitness:
    """Composite witness for transitivity.

    With phi01: M0+N01 -> M1+N01 and phi12: M1+N12 -> M2+N12, the composite
    stabilizer is N = N01+M1+N12 (connection D_N01 + D_1 + D_N12) and the
    iso M0+N -> M2+N is one block sum followed by one block permutation:

        M0+N01+M1+N12 --phi01+phi12--> M1+N01+M2+N12
                      --blocks (2, 1, 0, 3)--> M2+N01+M1+N12

    The witnesses must meet at g1: phi01 ends on M1+N01, phi12 starts on
    M1+N12 and ends on some M2+N12.  M1, N01 and N12 are read from the
    connections it records in `_links`, whence `_kcs_side` reads the
    chain's KCS side as the sum of its links' sides.
    """
    mid = g1.conn
    m1, n01, n12 = mid.p, w01.stab_conn.p, w12.stab_conn.p
    k = m1.size
    corner = {(i - k, j - k, a): c for (i, j, a), c
              in w12.iso.p1.mat.data.items() if i >= k and j >= k}
    if (w01.iso.p1.mat != block_diag(m1.mat, n01.mat)
            or w12.iso.p0.mat != block_diag(m1.mat, n12.mat)
            or corner != n12.mat.data):
        raise ConnectionError_("the witnesses do not meet at g1")
    pair = sum_iso(w01.iso, w12.iso)
    iso = compose_iso(pair, permute_blocks(pair.p1,
                                           (k, n01.size, k, n12.size),
                                           (2, 1, 0, 3)))
    stab_conn = direct_sum(direct_sum(w01.stab_conn, mid), w12.stab_conn)
    chain = KCSWitness(stab_conn.p, stab_conn, iso)
    chain._links = (mid, w01, w12, (w01.stab_conn, w01.iso, w12.stab_conn,
                                    w12.iso, stab_conn, iso))
    return chain


def odd_chern(k1: K1Pair, k_max: int):
    """ch1(M, phi) = KCS of the straight line from the Grassmann D to
    phi*D; a graded odd class list, well defined mod Im(d)."""
    d = grassmann(k1.p)
    dphi = pullback(d, k1.aut)
    return kcs(straight_line(d, dphi), k_max)

