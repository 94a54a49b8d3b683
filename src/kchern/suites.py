"""Property-verification suites over the builtin fixtures: every check that
draws seeded random data lives here.

Each suite runs a family of identity checks with seeded randomness and
returns a JSON-ready report; the CLI `verify` command and the acceptance
tests drive the same code.  All comparisons are exact rational equalities.
`CHECKS` lists each suite's checks, and `run_suite` is the one loop that
runs them; `hexagon_suite` checks the hexagon diagram on one algebra.  The
checks share one draw of an idempotent and its connections (`_draw`), one
exactness requirement (`_require_exact`) and one pass/fail rule
(`_status`).
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .algebra import Algebra, AlgebraHom
from .connections import (Mat, ModuleIso, apply_operator, check_k_max, chern,
                          compose_iso, curvature, direct_sum, extend_scalars,
                          grassmann, pullback, random_automorphism,
                          random_connection, random_idempotent, random_iso,
                          sum_iso, trace_ab)
from .exactmath import Poly, Q0, Q1
from .fixtures import FIXTURE_NAMES, make_fixture
from .khat import (K1Pair, KCSWitness, KHatGen, map_I, map_R, map_a,
                   odd_chern, verify_kcs_equivalence)
from .transgression import (BiForm, TForm, bigon_straight, chern_tform,
                            constant_path, homotopy_K, kcs, kcs_between,
                            kcs_closed_form, reverse_path,
                            secondary_transgression, straight_line,
                            three_point_path, tilde_curvature, tform_operator)
from .uforms import (AbClass, UForm, ab_d, dimension, enumerate_words,
                     extend_hom, is_exact_in_ab, project_ab, random_form)


# Sample sizes per fixture: random forms per DGA check and their top
# degree, connections per Chern check, and paths, bigons, triangles and
# closed-form paths per transgression check.
N_FORMS = 200
MAX_DEGREE = 5
N_CONN = 25
N_PATHS = 5
N_PAIRS = 10
N_TRIPLES = 10
N_CLOSED = 25


def _random_cylform(cls, alg: Algebra, rng: random.Random, max_degree: int,
                    poly_degree: int):
    """A random cls form: each part a random form whose coefficients are
    multiplied by random polynomials of degree poly_degree in each
    parameter."""
    exps = list(itertools.product(range(poly_degree + 1), repeat=cls.R))

    def part():
        degs = (rng.randint(0, max_degree) for _ in range(3))
        return random_form(alg, rng, degs, 1, 3).map_scalars(
            lambda c: c * Poly.TYPES[cls.R]({e: rng.randint(-2, 2)
                                             for e in exps}))
    return cls(*(part() for _ in range(1 << cls.R)))


class PropertyFailure(AssertionError):
    """An identity check found a counterexample."""


def require(cond, msg):
    """Fail the running check unless `cond` holds, also under `-O`."""
    if not cond:
        raise PropertyFailure(msg)


def _require_exact(pairs, msg):
    """Fail the running check unless each class of the (degree, class)
    pairs is exact in its degree."""
    for n, cls in pairs:
        require(is_exact_in_ab(cls, n)[0], msg)


def _draw(alg, rng, count, size=2):
    """A random size x size idempotent p and `count` random connections on
    it, drawn from rng in that order: (p, c1, ..., c_count)."""
    p = random_idempotent(alg, size, rng)
    return (p, *(random_connection(p, rng) for _ in range(count)))


def _status(entries):
    """"pass" if every entry's status is "pass", else "fail"."""
    return ("pass" if all(e["status"] == "pass" for e in entries)
            else "fail")


class _Check:
    """Collects named results with timings: "pass", "fail" (a check's
    `require` failed) or "error" (a check raised anything else); `run`
    calls fn(*args)."""

    def __init__(self):
        self.items = []

    def run(self, name, fixture, fn, *args):
        t0 = time.perf_counter()
        try:
            detail = fn(*args)
            status = "pass"
        except AssertionError as exc:
            detail = {"error": str(exc)}
            status = "fail"
        except Exception as exc:
            detail = {"error": "%s: %s" % (type(exc).__name__, exc)}
            status = "error"
        ms = int((time.perf_counter() - t0) * 1000)
        entry = {"name": name, "fixture": fixture, "status": status,
                 "time_ms": ms}
        if detail:
            entry["detail"] = detail
        self.items.append(entry)

    def report(self, suite, seed):
        return {"suite": suite, "seed": seed, "status": _status(self.items),
                "checks": self.items}


# ---------------------------------------------------------------------------
# DGA checks
# ---------------------------------------------------------------------------

def _dd(alg, rng, seed, k_max):
    for _ in range(N_FORMS):
        degs = (rng.randint(0, MAX_DEGREE) for _ in range(3))
        u = random_form(alg, rng, degs, 1, 3)
        require(u.d().d().is_zero(), "d(d(u)) != 0")
    return {"count": N_FORMS}


def _leibniz(alg, rng, seed, k_max):
    count = 0
    for _ in range(N_FORMS):
        du = rng.randint(0, MAX_DEGREE - 1)
        dv = rng.randint(0, MAX_DEGREE - 1 - du) \
            if du < MAX_DEGREE - 1 else 0
        u = random_form(alg, rng, (du,), 2, 3)
        v = random_form(alg, rng, (dv,), 2, 3)
        sign = -Q1 if du % 2 else Q1
        lhs = (u * v).d()
        rhs = u.d() * v + (u * v.d()).scale(sign)
        require(lhs == rhs, "Leibniz fails")
        count += 1
    return {"count": count}


def _associativity(alg, rng, seed, k_max):
    count = 0
    for _ in range(N_FORMS):
        degs = [rng.randint(0, 2) for _ in range(3)]
        while sum(degs) > MAX_DEGREE:
            degs[rng.randrange(3)] = 0
        u, v, w = (random_form(alg, rng, (d,), 2, 3) for d in degs)
        require((u * v) * w == u * (v * w), "associativity fails")
        count += 1
    return {"count": count}


def _dimension_law(alg, rng, seed, k_max):
    m = alg.dim
    for n in range(0, 7):
        require(dimension(alg, n) == m * (m - 1) ** n ==
                len(enumerate_words(alg, n)), "dimension law fails")
    return {"degrees": 7}


# ---------------------------------------------------------------------------
# Chern checks
# ---------------------------------------------------------------------------

def _cyclicity(alg, rng, seed, k_max):
    for _ in range(10):
        da = rng.randint(0, 2)
        db = rng.randint(0, 2)
        a = Mat([[random_form(alg, rng, (da,), 2, 3)
                  for _ in range(2)] for _ in range(2)])
        b = Mat([[random_form(alg, rng, (db,), 2, 3)
                  for _ in range(2)] for _ in range(2)])
        sign = -Q1 if (da * db) % 2 else Q1
        require(trace_ab(a * b) == trace_ab(b * a).scale(sign),
                "trace cyclicity fails")
    return {"count": 10}


def _chern_identities(alg, rng, seed, k_max):
    ops = 0
    for _ in range(N_CONN):
        p, c, c2 = _draw(alg, rng, 2)
        # operator oracle for the curvature formula
        r = curvature(c)
        pf = p.to_form()
        require(r * pf == apply_operator(c, apply_operator(c, pf)),
                "curvature operator oracle fails")
        chs = chern(c, k_max)
        # ch0 of the Grassmann connection is the class of sum p_ii
        require(chern(grassmann(p), k_max)[0] ==
                trace_ab(p.to_form()), "ch0 mismatch")
        # closedness in the abelianization
        for k, cls in enumerate(chs):
            require(ab_d(cls).is_zero(), "d(ch_%d) != 0 in ab" % k)
        # additivity under direct sum
        both = direct_sum(c, c2)
        chs2 = chern(c2, k_max)
        chsb = chern(both, k_max)
        for k in range(k_max + 1):
            require(chsb[k] == chs[k] + chs2[k], "ch not additive")
        # connection independence in homology
        _require_exact(((2 * k, chs[k] - chs2[k])
                        for k in range(1, k_max + 1)),
                       "ch difference not exact")
        ops += 1
    return {"count": ops}


# ---------------------------------------------------------------------------
# Transgression checks
# ---------------------------------------------------------------------------

def _naturality_homs(degree_cap):
    """Validated homs between fixtures used for naturality checks."""
    dual = make_fixture("dual", degree_cap)
    x3 = make_fixture("x3", degree_cap)
    q = make_fixture("Q", degree_cap)
    qq = make_fixture("QxQ", degree_cap)
    # x3 -> dual, x -> x (truncation)
    trunc = AlgebraHom(x3, dual, [[Q1, Q0, Q0], [Q0, Q1, Q0]])
    # Q -> QxQ, diagonal
    diag = AlgebraHom(q, qq, [[Q1], [Q0]])
    # QxQ -> Q, first-factor projection: 1 -> 1, eL -> 1
    proj = AlgebraHom(qq, q, [[Q1, Q1]])
    return [("x3->dual", trunc), ("Q->QxQ", diag), ("QxQ->Q", proj)]


def _random_path(alg, rng, quadratic=False):
    _, c0, c1, *cm = _draw(alg, rng, 3 if quadratic else 2)
    return three_point_path(c0, *cm, c1) if cm else straight_line(c0, c1)


def _homotopy(alg, rng, seed, k_max):
    for _ in range(20):
        w = _random_cylform(TForm, alg, rng, 3, 2)
        lhs = homotopy_K(w.d()) + homotopy_K(w).d()
        rhs = w.restrict(0, 1) - w.restrict(0, 0)
        require(lhs == rhs, "homotopy formula fails")
    return {"count": 20}


def _tform_associativity(alg, rng, seed, k_max):
    for _ in range(10):
        a = _random_cylform(TForm, alg, rng, 2, 2)
        b = _random_cylform(TForm, alg, rng, 2, 2)
        c = _random_cylform(TForm, alg, rng, 1, 2)
        require((a * b) * c == a * (b * c), "TForm assoc fails")
    return {"count": 10}


def _path_identities(alg, rng, seed, k_max):
    for _ in range(N_PATHS):
        p, c0, c1 = _draw(alg, rng, 2)
        path = straight_line(c0, c1)
        # curvature family certified by the operator oracle
        r, s = tilde_curvature(path)
        rt = Mat([[TForm(a, b) for a, b in zip(ra, sa)]
                  for ra, sa in zip(r.entries, s.entries)])
        pf = p.to_form().map(TForm)
        require(rt * pf == tform_operator(
            path, tform_operator(path, pf)),
            "cylinder curvature oracle fails")
        # transgression: d KCS = ch(c1) - ch(c0), exactly in ab
        kcs_list = kcs(path, k_max)
        ch0 = chern(c0, k_max)
        ch1 = chern(c1, k_max)
        for k in range(1, k_max + 1):
            require(ab_d(kcs_list[k - 1]) == ch1[k] - ch0[k],
                    "d KCS != delta ch")
        # reversal is an exact sign flip
        rev = kcs(reverse_path(path), k_max)
        for k in range(k_max):
            require(rev[k] == -kcs_list[k], "reversal sign fails")
        # ev-compatibility of ch along the path
        chs_t = chern_tform(path, k_max)
        for tval in (0, Fraction(1, 2), 1):
            cht = chern(path.restrict(0, tval), k_max)
            for k in range(k_max + 1):
                require(project_ab(chs_t[k].restrict(0, tval))
                        == cht[k],
                        "ev compatibility fails")
        # constant path vanishes
        const = kcs(constant_path(c0), k_max)
        require(all(x.is_zero() for x in const),
                "constant KCS != 0")
        # direct sum additivity
        _, d0, d1 = _draw(alg, rng, 2, size=1)
        path2 = straight_line(d0, d1)
        kcs2 = kcs(path2, k_max)
        kcsb = kcs(direct_sum(path, path2), k_max)
        for k in range(k_max):
            require(kcsb[k] == kcs_list[k] + kcs2[k],
                    "KCS not additive")
        # pullback invariance along a module isomorphism
        p1, iso = random_iso(p, rng)
        c1a = random_connection(p1, rng)
        c1b = random_connection(p1, rng)
        other = straight_line(c1a, c1b)
        require(kcs(pullback(other, iso), k_max) ==
                kcs(other, k_max), "KCS not pullback invariant")
    return {"count": N_PATHS}


def _secondary(alg, rng, seed, k_max):
    for _ in range(N_PAIRS):
        _, c0, c1, cm = _draw(alg, rng, 3)
        path1 = straight_line(c0, c1)
        path2 = three_point_path(c0, cm, c1)
        bigon = bigon_straight(path1, path2)
        pots = secondary_transgression(bigon, k_max)
        k1 = kcs(path1, k_max)
        k2 = kcs(path2, k_max)
        for k in range(1, k_max + 1):
            require(ab_d(pots[k - 1]) == k1[k - 1] - k2[k - 1],
                    "secondary transgression fails")
    return {"count": N_PAIRS}


def _kk(alg, rng, seed, k_max):
    for _ in range(50):
        b = _random_cylform(BiForm, alg, rng, 2, 1)
        require(homotopy_K(b.integrate(0)) ==
                homotopy_K(b.integrate(1)),
                "K K1 != K K2")
    return {"count": 50}


def _triangle(alg, rng, seed, k_max):
    count = 0
    for _ in range(N_TRIPLES):
        _, c1, c2, c3 = _draw(alg, rng, 3)
        k13 = kcs_between(c1, c3, k_max)
        k12 = kcs_between(c1, c2, k_max)
        k23 = kcs_between(c2, c3, k_max)
        for k in range(1, k_max + 1):
            resid = k13[k - 1] - k12[k - 1] - k23[k - 1]
            ok, prim = is_exact_in_ab(resid, 2 * k - 1)
            require(ok, "triangle residual not exact")
            # the emitted primitive certifies exactness
            require(project_ab(prim.d()) ==
                    resid.component(2 * k - 1),
                    "triangle primitive does not certify")
        count += 1
    return {"count": count}


def _closed_form(alg, rng, seed, k_max):
    for i in range(N_CLOSED):
        path = _random_path(alg, rng, quadratic=(i % 3 == 0))
        require(kcs_closed_form(path, k_max) == kcs(path, k_max),
                "closed form disagrees")
    return {"count": N_CLOSED}


def _naturality(rng, degree_cap):
    """The cross-fixture check of the transgression suite: KCS commutes
    with extension of scalars along each hom of `_naturality_homs`."""
    for hom_name, psi in _naturality_homs(degree_cap):
        f = extend_hom(psi)
        for _ in range(3):
            path = _random_path(psi.source, rng)
            ind = extend_scalars(path, psi)
            lhs = kcs(ind, 2)
            rhs = [project_ab(f(cls.lift())) for cls in kcs(path, 2)]
            require(lhs == rhs,
                    "KCS naturality fails for %s" % hom_name)
    return {"homs": 3}


# ---------------------------------------------------------------------------
# Hexagon checks
# ---------------------------------------------------------------------------

def hexagon_suite(alg: Algebra, seed, k_max: int = 2) -> dict:
    """Check the hexagon-diagram identities on random data from an rng
    seeded by `seed` alone.

    Identities: R o a = d (exact equality, on 3 random odd forms);
    Pr o R = ch o I (the difference of R(g) and ch(grassmann(I(g))) exact
    per even degree, on 2 random generators); R o a o ch1 = 0 on the lifted
    odd Chern classes of one random automorphism (exact equality).  The
    last one compares zero forms: every automorphism `random_automorphism`
    draws is a scalar multiple of p, so its odd Chern forms vanish
    (ROADMAP F1), and this identity cannot fail until a generator of
    non-scalar automorphisms is drawn here (ROADMAP item 1).  Returns a
    JSON-ready report; k_max >= 1.
    """
    check_k_max(k_max)
    rng = random.Random(seed)
    odd = range(1, 2 * k_max, 2)
    degs = list(range(2, 2 * k_max + 1, 2))

    def r_of_a(omega):
        gplus, gminus = map_a(omega)
        return map_R(gplus, k_max) - map_R(gminus, k_max)

    def ch_of_i_exact():
        p, conn = _draw(alg, rng, 1)
        g = KHatGen(p, conn, random_form(alg, rng, odd, (0, 2), 2))
        diff = map_R(g, k_max) - sum(chern(grassmann(map_I(g)), k_max),
                                     AbClass(alg))
        return all(is_exact_in_ab(diff.component(n), n)[0] for n in degs)

    # every draw is made, in order, whatever an earlier identity gave
    omegas = [random_form(alg, rng, odd, (0, 2), 2) for _ in range(3)]
    r_a_d = all([r_of_a(om) == ab_d(project_ab(om)) for om in omegas])
    pr_r = all([ch_of_i_exact() for _ in range(2)])
    # odd Chern classes are closed, so a of their lift has R = dbar = 0
    p = random_idempotent(alg, 2, rng)
    aut = random_automorphism(p, rng)
    lift = sum((cls.lift() for cls in odd_chern(K1Pair(p, aut), k_max)),
               UForm(alg))

    def entry(name, ok, **detail):
        return {"name": name, "status": "pass" if ok else "fail", **detail}

    identities = [entry("R o a = d", r_a_d, detail={"degrees": degs}),
                  entry("Pr o R = ch o I", pr_r, detail={"degrees": degs}),
                  entry("R o a o ch1 = 0", r_of_a(lift).is_zero())]
    return {"algebra": list(alg.names), "seed": seed, "k_max": k_max,
            "identities": identities, "status": _status(identities)}


def _hexagon(alg, rng, seed, k_max):
    rep = hexagon_suite(alg, seed, k_max)
    require(rep["status"] == "pass", "hexagon identities fail")
    return {"identities": [e["name"] for e in rep["identities"]]}


def _witnesses(alg, rng, seed, k_max):
    p, d = _draw(alg, rng, 1)
    g0 = KHatGen(p, d, UForm.zero(alg))
    # reflexivity with a trivial stabilizer
    stab_p = random_idempotent(alg, 1, rng)
    stab = grassmann(stab_p)
    sum_p = direct_sum(d, stab).p
    wit = KCSWitness(stab_p, stab, ModuleIso.identity(sum_p))
    require(verify_kcs_equivalence(g0, g0, wit, k_max)["accepted"],
            "reflexive witness rejected")
    # constructed omega
    d2 = random_connection(p, rng)
    omega1 = sum(kcs_between(d, d2, k_max), AbClass(alg))
    g1 = KHatGen(p, d2, (-omega1).lift())
    wit2 = KCSWitness(stab_p, stab, ModuleIso.identity(sum_p))
    require(verify_kcs_equivalence(g0, g1, wit2, k_max)["accepted"],
            "constructed omega rejected")
    # symmetry with the inverse iso
    require(verify_kcs_equivalence(g1, g0, wit2, k_max)["accepted"],
            "symmetric witness rejected")
    return {"count": 3}


def _odd_chern_laws(alg, rng, seed, k_max):
    p = random_idempotent(alg, 2, rng)
    u1 = random_automorphism(p, rng)
    u2 = random_automorphism(p, rng)
    comp = compose_iso(u2, u1)
    ch_comp = odd_chern(K1Pair(p, comp), k_max)
    ch1 = odd_chern(K1Pair(p, u1), k_max)
    ch2 = odd_chern(K1Pair(p, u2), k_max)
    odd = range(1, 2 * k_max, 2)
    _require_exact(zip(odd, (a - b - c for a, b, c
                             in zip(ch_comp, ch1, ch2))),
                   "odd chern composition law fails")
    # block sum law
    p2 = random_idempotent(alg, 2, rng)
    v = random_automorphism(p2, rng)
    chb = odd_chern(K1Pair(direct_sum(grassmann(p),
                                      grassmann(p2)).p,
                           sum_iso(u1, v)), k_max)
    chv = odd_chern(K1Pair(p2, v), k_max)
    _require_exact(zip(odd, (a - b - c for a, b, c in zip(chb, ch1, chv))),
                   "odd chern block-sum law fails")
    # connection independence mod Im(d)
    dth = random_connection(p, rng)
    alt = kcs(straight_line(dth, pullback(dth, u1)), k_max)
    _require_exact(zip(odd, (a - b for a, b in zip(alt, ch1))),
                   "odd chern depends on connection")
    return {"count": 3}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# suite -> its checks in report order, each fn(alg, rng, seed, k_max) on one
# fixture algebra and the fixture's rng of that suite
CHECKS = {
    "dga": (("d o d = 0", _dd), ("graded Leibniz", _leibniz),
            ("associativity", _associativity),
            ("dimension law", _dimension_law)),
    "chern": (("trace cyclicity", _cyclicity),
              ("chern identities", _chern_identities)),
    "transgression": (("homotopy formula", _homotopy),
                      ("TForm associativity", _tform_associativity),
                      ("path identities", _path_identities),
                      ("secondary transgression", _secondary),
                      ("K K1 = K K2", _kk), ("triangle law", _triangle),
                      ("closed-form agreement", _closed_form)),
    "hexagon": (("hexagon identities", _hexagon),
                ("kcs equivalence witnesses", _witnesses),
                ("odd chern laws", _odd_chern_laws)),
}
SUITES = tuple(CHECKS)


def run_suite(suite: str, seed: int, fixtures=None, degree_cap: int = 8,
              k_max: int = 2) -> dict:
    """The report of one suite, or of each of `SUITES` for "all".  Per
    fixture of `fixtures` (default `FIXTURE_NAMES`), in the order given,
    the suite's `CHECKS` run on one algebra with one rng seeded by (seed,
    suite, fixture); the transgression suite then checks hom naturality
    on its own (seed, "naturality") rng.  An empty `fixtures` raises
    ValueError: a verify of nothing neither passes nor runs all six."""
    check_k_max(k_max)
    if fixtures is None:
        fixtures = FIXTURE_NAMES
    elif not fixtures:
        raise ValueError("no fixtures to verify")
    if suite == "all":
        reports = [run_suite(s, seed, fixtures, degree_cap, k_max)
                   for s in SUITES]
        return {"suite": "all", "seed": seed, "status": _status(reports),
                "reports": reports}
    if suite not in CHECKS:
        raise ValueError("unknown suite %r" % suite)
    checks = _Check()
    for name in fixtures:
        alg = make_fixture(name, degree_cap)
        rng = random.Random((seed, suite, name).__repr__())
        for check, fn in CHECKS[suite]:
            checks.run(check, name, fn, alg, rng, seed, k_max)
    if suite == "transgression":
        checks.run("hom naturality", "cross-fixture", _naturality,
                   random.Random((seed, "naturality").__repr__()), degree_cap)
    return checks.report(suite, seed)
