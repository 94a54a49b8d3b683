"""Property-verification suites over the builtin fixtures.

Each suite runs a family of identity checks with seeded randomness and
returns a JSON-ready report; the CLI `verify` command and the acceptance
tests drive the same code.  All comparisons are exact rational equalities.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .algebra import Algebra, AlgebraHom
from .connections import (Mat, ModuleIso, apply_operator, chern,
                          compose_iso, curvature, direct_sum, extend_scalars,
                          grassmann, pullback, random_automorphism,
                          random_connection, random_idempotent, random_iso,
                          sum_iso, trace_ab)
from .exactmath import Poly, Q0, Q1
from .fixtures import FIXTURE_NAMES, make_fixture
from .khat import (K1Pair, KCSWitness, KHatGen, hexagon_suite, odd_chern,
                   verify_kcs_equivalence)
from .transgression import (BiForm, TForm, bigon_straight, chern_tform,
                            constant_path, homotopy_K, kcs, kcs_between,
                            kcs_closed_form, reverse_path,
                            secondary_transgression, straight_line,
                            three_point_path, tilde_curvature, tform_operator)
from .uforms import (AbClass, UForm, ab_d, dimension, enumerate_words,
                     extend_hom, is_exact_in_ab, project_ab)


def _random_form(alg: Algebra, rng: random.Random, max_degree: int,
                 terms: int = 3) -> UForm:
    out = {}
    for _ in range(terms):
        n = rng.randint(0, max_degree)
        words = enumerate_words(alg, n)
        if not words:
            continue
        w = words[rng.randrange(len(words))]
        c = Fraction(rng.randint(-3, 3))
        if c:
            out[w] = out.get(w, Q0) + c
    return UForm(alg, out)


def _random_homogeneous(alg: Algebra, rng: random.Random, degree: int,
                        terms: int = 2) -> UForm:
    words = enumerate_words(alg, degree)
    out = {}
    if not words:
        return UForm(alg)
    for _ in range(terms):
        w = words[rng.randrange(len(words))]
        c = Fraction(rng.randint(-3, 3))
        if c:
            out[w] = out.get(w, Q0) + c
    return UForm(alg, out)


def _random_cylform(cls, alg: Algebra, rng: random.Random, max_degree: int,
                    poly_degree: int):
    """A random cls form: each part a random form whose coefficients are
    multiplied by random polynomials of degree poly_degree in each
    parameter."""
    exps = list(itertools.product(range(poly_degree + 1), repeat=cls.R))

    def part():
        return _random_form(alg, rng, max_degree).map_scalars(
            lambda c: c * Poly.TYPES[cls.R]({e: rng.randint(-2, 2)
                                             for e in exps}))
    return cls(*(part() for _ in range(1 << cls.R)))


class PropertyFailure(AssertionError):
    """An identity check found a counterexample."""


def require(cond, msg):
    """Fail the running check unless `cond` holds, also under `-O`."""
    if not cond:
        raise PropertyFailure(msg)


class _Check:
    """Collects named results with timings: "pass", "fail" (a check's
    `require` failed) or "error" (a check raised anything else)."""

    def __init__(self):
        self.items = []

    def run(self, name, fixture, fn):
        t0 = time.perf_counter()
        try:
            detail = fn()
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
        status = ("pass" if all(i["status"] == "pass" for i in self.items)
                  else "fail")
        return {"suite": suite, "seed": seed, "status": status,
                "checks": self.items}


def _fixture_algebras(fixtures, degree_cap):
    names = fixtures or FIXTURE_NAMES
    return [(n, make_fixture(n, degree_cap)) for n in names]


# ---------------------------------------------------------------------------
# DGA suite
# ---------------------------------------------------------------------------

def run_dga_suite(seed: int, fixtures=None, degree_cap: int = 8,
                  n_forms: int = 200, max_degree: int = 5) -> dict:
    checks = _Check()
    for name, alg in _fixture_algebras(fixtures, degree_cap):
        rng = random.Random((seed, "dga", name).__repr__())

        def check_dd(alg=alg, rng=rng):
            for _ in range(n_forms):
                u = _random_form(alg, rng, max_degree)
                require(u.d().d().is_zero(), "d(d(u)) != 0")
            return {"count": n_forms}

        def check_leibniz(alg=alg, rng=rng):
            count = 0
            for _ in range(n_forms):
                du = rng.randint(0, max_degree - 1)
                dv = rng.randint(0, max_degree - 1 - du) \
                    if du < max_degree - 1 else 0
                u = _random_homogeneous(alg, rng, du)
                v = _random_homogeneous(alg, rng, dv)
                sign = -Q1 if du % 2 else Q1
                lhs = (u * v).d()
                rhs = u.d() * v + (u * v.d()).scale(sign)
                require(lhs == rhs, "Leibniz fails")
                count += 1
            return {"count": count}

        def check_assoc(alg=alg, rng=rng):
            count = 0
            for _ in range(n_forms):
                degs = [rng.randint(0, 2) for _ in range(3)]
                while sum(degs) > max_degree:
                    degs[rng.randrange(3)] = 0
                u, v, w = (_random_homogeneous(alg, rng, d) for d in degs)
                require((u * v) * w == u * (v * w), "associativity fails")
                count += 1
            return {"count": count}

        def check_dims(alg=alg):
            m = alg.dim
            for n in range(0, 7):
                require(dimension(alg, n) == m * (m - 1) ** n ==
                        len(enumerate_words(alg, n)), "dimension law fails")
            return {"degrees": 7}

        checks.run("d o d = 0", name, check_dd)
        checks.run("graded Leibniz", name, check_leibniz)
        checks.run("associativity", name, check_assoc)
        checks.run("dimension law", name, check_dims)
    return checks.report("dga", seed)


# ---------------------------------------------------------------------------
# Chern suite
# ---------------------------------------------------------------------------

def run_chern_suite(seed: int, fixtures=None, degree_cap: int = 8,
                    n_conn: int = 25, k_max: int = 2) -> dict:
    checks = _Check()
    for name, alg in _fixture_algebras(fixtures, degree_cap):
        rng = random.Random((seed, "chern", name).__repr__())

        def check_cyclicity(alg=alg, rng=rng):
            for _ in range(10):
                da = rng.randint(0, 2)
                db = rng.randint(0, 2)
                a = Mat([[_random_homogeneous(alg, rng, da)
                          for _ in range(2)] for _ in range(2)])
                b = Mat([[_random_homogeneous(alg, rng, db)
                          for _ in range(2)] for _ in range(2)])
                sign = -Q1 if (da * db) % 2 else Q1
                require(trace_ab(a * b) == trace_ab(b * a).scale(sign),
                        "trace cyclicity fails")
            return {"count": 10}

        def check_connections(alg=alg, rng=rng):
            ops = 0
            for i in range(n_conn):
                p = random_idempotent(alg, 2, rng)
                c = random_connection(p, rng)
                # operator oracle for the curvature formula
                r = curvature(c)
                pf = p.to_form()
                require((r * pf).entries ==
                        apply_operator(c, apply_operator(c, pf)).entries,
                        "curvature operator oracle fails")
                chs = chern(c, k_max)
                # ch0 of the Grassmann connection is the class of sum p_ii
                require(chern(grassmann(p), k_max)[0] ==
                        trace_ab(p.to_form()), "ch0 mismatch")
                # closedness in the abelianization
                for k, cls in enumerate(chs):
                    require(ab_d(cls).is_zero(), "d(ch_%d) != 0 in ab" % k)
                # additivity under direct sum
                c2 = random_connection(p, rng)
                both = direct_sum(c, c2)
                chs2 = chern(c2, k_max)
                chsb = chern(both, k_max)
                for k in range(k_max + 1):
                    require(chsb[k] == chs[k] + chs2[k], "ch not additive")
                # connection independence in homology
                for k in range(1, k_max + 1):
                    diff = chs[k] - chs2[k]
                    ok, _prim = is_exact_in_ab(diff, 2 * k)
                    require(ok, "ch difference not exact")
                ops += 1
            return {"count": ops}

        checks.run("trace cyclicity", name, check_cyclicity)
        checks.run("chern identities", name, check_connections)
    return checks.report("chern", seed)


# ---------------------------------------------------------------------------
# Transgression suite
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


def _random_path(alg, rng, size=2, quadratic=False):
    p = random_idempotent(alg, size, rng)
    c0 = random_connection(p, rng)
    c1 = random_connection(p, rng)
    if quadratic:
        cm = random_connection(p, rng)
        return three_point_path(c0, cm, c1)
    return straight_line(c0, c1)


def run_transgression_suite(seed: int, fixtures=None, degree_cap: int = 8,
                            k_max: int = 2, n_paths: int = 5,
                            n_pairs: int = 10, n_triples: int = 10,
                            n_closed: int = 25) -> dict:
    checks = _Check()
    for name, alg in _fixture_algebras(fixtures, degree_cap):
        rng = random.Random((seed, "transgression", name).__repr__())

        def check_homotopy(alg=alg, rng=rng):
            for _ in range(20):
                w = _random_cylform(TForm, alg, rng, 3, 2)
                lhs = homotopy_K(w.d()) + homotopy_K(w).d()
                rhs = w.restrict(0, 1) - w.restrict(0, 0)
                require(lhs == rhs, "homotopy formula fails")
            return {"count": 20}

        def check_tform_ring(alg=alg, rng=rng):
            for _ in range(10):
                a = _random_cylform(TForm, alg, rng, 2, 2)
                b = _random_cylform(TForm, alg, rng, 2, 2)
                c = _random_cylform(TForm, alg, rng, 1, 2)
                require((a * b) * c == a * (b * c), "TForm assoc fails")
            return {"count": 10}

        def check_paths(alg=alg, rng=rng):
            for _ in range(n_paths):
                p = random_idempotent(alg, 2, rng)
                c0 = random_connection(p, rng)
                c1 = random_connection(p, rng)
                path = straight_line(c0, c1)
                # curvature family certified by the operator oracle
                r, s = tilde_curvature(path)
                n = p.size
                rt = Mat([[TForm(r.entries[i][j], s.entries[i][j])
                           for j in range(n)] for i in range(n)])
                pf = p.to_form().map(TForm)
                require((rt * pf).entries == tform_operator(
                    path, tform_operator(path, pf)).entries,
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
                p2 = random_idempotent(alg, 1, rng)
                d0 = random_connection(p2, rng)
                d1 = random_connection(p2, rng)
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
            return {"count": n_paths}

        def check_secondary(alg=alg, rng=rng):
            for _ in range(n_pairs):
                p = random_idempotent(alg, 2, rng)
                c0 = random_connection(p, rng)
                c1 = random_connection(p, rng)
                cm = random_connection(p, rng)
                path1 = straight_line(c0, c1)
                path2 = three_point_path(c0, cm, c1)
                bigon = bigon_straight(path1, path2)
                pots = secondary_transgression(bigon, k_max)
                k1 = kcs(path1, k_max)
                k2 = kcs(path2, k_max)
                for k in range(1, k_max + 1):
                    require(ab_d(pots[k - 1]) == k1[k - 1] - k2[k - 1],
                            "secondary transgression fails")
            return {"count": n_pairs}

        def check_kk(alg=alg, rng=rng):
            for _ in range(50):
                b = _random_cylform(BiForm, alg, rng, 2, 1)
                require(homotopy_K(b.integrate(0)) ==
                        homotopy_K(b.integrate(1)),
                        "K K1 != K K2")
            return {"count": 50}

        def check_triangle(alg=alg, rng=rng):
            count = 0
            for _ in range(n_triples):
                p = random_idempotent(alg, 2, rng)
                c1 = random_connection(p, rng)
                c2 = random_connection(p, rng)
                c3 = random_connection(p, rng)
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

        def check_closed_form(alg=alg, rng=rng):
            for i in range(n_closed):
                path = _random_path(alg, rng, quadratic=(i % 3 == 0))
                require(kcs_closed_form(path, k_max) == kcs(path, k_max),
                        "closed form disagrees")
            return {"count": n_closed}

        checks.run("homotopy formula", name, check_homotopy)
        checks.run("TForm associativity", name, check_tform_ring)
        checks.run("path identities", name, check_paths)
        checks.run("secondary transgression", name, check_secondary)
        checks.run("K K1 = K K2", name, check_kk)
        checks.run("triangle law", name, check_triangle)
        checks.run("closed-form agreement", name, check_closed_form)

    # hom naturality across fixtures
    rng = random.Random((seed, "naturality").__repr__())

    def check_naturality(rng=rng):
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

    checks.run("hom naturality", "cross-fixture", check_naturality)
    return checks.report("transgression", seed)


# ---------------------------------------------------------------------------
# Hexagon suite
# ---------------------------------------------------------------------------

def run_hexagon_suite(seed: int, fixtures=None, degree_cap: int = 8,
                      k_max: int = 2) -> dict:
    checks = _Check()
    for name, alg in _fixture_algebras(fixtures, degree_cap):
        rng = random.Random((seed, "hexagon", name).__repr__())

        def check_core(alg=alg):
            rep = hexagon_suite(alg, seed, k_max)
            require(rep["status"] == "pass", "hexagon identities fail")
            return {"identities": [e["name"] for e in rep["identities"]]}

        def check_witnesses(alg=alg, rng=rng):
            p = random_idempotent(alg, 2, rng)
            d = random_connection(p, rng)
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
            omega1 = AbClass(alg)
            for cls in kcs_between(d, d2, k_max):
                omega1 = omega1 + cls
            g1 = KHatGen(p, d2, (-omega1).lift())
            wit2 = KCSWitness(stab_p, stab, ModuleIso.identity(sum_p))
            require(verify_kcs_equivalence(g0, g1, wit2, k_max)["accepted"],
                    "constructed omega rejected")
            # symmetry with the inverse iso
            require(verify_kcs_equivalence(g1, g0, wit2, k_max)["accepted"],
                    "symmetric witness rejected")
            return {"count": 3}

        def check_odd_chern(alg=alg, rng=rng):
            p = random_idempotent(alg, 2, rng)
            u1 = random_automorphism(p, rng)
            u2 = random_automorphism(p, rng)
            comp = compose_iso(u2, u1)
            ch_comp = odd_chern(K1Pair(p, comp), k_max)
            ch1 = odd_chern(K1Pair(p, u1), k_max)
            ch2 = odd_chern(K1Pair(p, u2), k_max)
            for k in range(1, k_max + 1):
                diff = ch_comp[k - 1] - ch1[k - 1] - ch2[k - 1]
                ok, _ = is_exact_in_ab(diff, 2 * k - 1)
                require(ok, "odd chern composition law fails")
            # block sum law
            p2 = random_idempotent(alg, 2, rng)
            v = random_automorphism(p2, rng)
            chb = odd_chern(K1Pair(direct_sum(grassmann(p),
                                              grassmann(p2)).p,
                                   sum_iso(u1, v)), k_max)
            chv = odd_chern(K1Pair(p2, v), k_max)
            for k in range(1, k_max + 1):
                diff = chb[k - 1] - ch1[k - 1] - chv[k - 1]
                ok, _ = is_exact_in_ab(diff, 2 * k - 1)
                require(ok, "odd chern block-sum law fails")
            # connection independence mod Im(d)
            dth = random_connection(p, rng)
            alt = kcs(straight_line(dth, pullback(dth, u1)), k_max)
            for k in range(1, k_max + 1):
                diff = alt[k - 1] - ch1[k - 1]
                ok, _ = is_exact_in_ab(diff, 2 * k - 1)
                require(ok, "odd chern depends on connection")
            return {"count": 3}

        checks.run("hexagon identities", name, check_core)
        checks.run("kcs equivalence witnesses", name, check_witnesses)
        checks.run("odd chern laws", name, check_odd_chern)
    return checks.report("hexagon", seed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

SUITES = ("dga", "chern", "transgression", "hexagon")


def run_suite(suite: str, seed: int, fixtures=None, degree_cap: int = 8,
              k_max: int = 2) -> dict:
    if suite == "dga":
        return run_dga_suite(seed, fixtures, degree_cap)
    if suite == "chern":
        return run_chern_suite(seed, fixtures, degree_cap, k_max=k_max)
    if suite == "transgression":
        return run_transgression_suite(seed, fixtures, degree_cap,
                                       k_max=k_max)
    if suite == "hexagon":
        return run_hexagon_suite(seed, fixtures, degree_cap, k_max=k_max)
    if suite == "all":
        reports = [run_suite(s, seed, fixtures, degree_cap, k_max)
                   for s in SUITES]
        status = ("pass" if all(r["status"] == "pass" for r in reports)
                  else "fail")
        return {"suite": "all", "seed": seed, "status": status,
                "reports": reports}
    raise ValueError("unknown suite %r" % suite)
