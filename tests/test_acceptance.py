"""Acceptance gate: nine criteria, exact rational arithmetic throughout.

Each criterion is one test function that prints a single PASS line on
success; any assertion failure is a criterion failure.  Time bounds are
asserted with wall-clock measurements.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from kchern.connections import (ModuleIso, direct_sum, pullback,
                                random_automorphism, random_connection,
                                random_idempotent)
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.khat import (KCSWitness, KHatGen, chain_witnesses,
                         verify_kcs_equivalence)
from kchern.suites import hexagon_suite, run_suite
from kchern.transgression import kcs_between
from kchern.uforms import (AbClass, UForm, de_rham_homology, dimension,
                           enumerate_words, is_exact_in_ab, project_ab)

SEED = 7

_cache = {}


def transgression_report():
    """Criteria 4, 5, 6 and 8 share one suite run (degree cap 6)."""
    if "transgression" not in _cache:
        t0 = time.perf_counter()
        rep = run_suite("transgression", SEED, degree_cap=6, k_max=2)
        _cache["transgression"] = (rep, time.perf_counter() - t0)
    return _cache["transgression"]


def checks_by_name(report, name):
    out = [c for c in report["checks"] if c["name"] == name]
    assert out, "missing check %r" % name
    return out


def announce(num, detail):
    print("CRITERION %d: PASS — %s" % (num, detail))


def test_criterion_1_dga_suite():
    t0 = time.perf_counter()
    rep = run_suite("dga", SEED)
    elapsed = time.perf_counter() - t0
    assert rep["status"] == "pass"
    for name in ("d o d = 0", "graded Leibniz", "associativity"):
        for c in checks_by_name(rep, name):
            assert c["status"] == "pass"
            assert c["detail"]["count"] >= 200
    assert elapsed < 30
    announce(1, "DGA identities on 200 random forms x %d fixtures in %.1fs"
             % (len(FIXTURE_NAMES), elapsed))


def test_criterion_2_dimension_law():
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        m = alg.dim
        for n in range(0, 7):
            assert dimension(alg, n) == m * (m - 1) ** n
            assert len(enumerate_words(alg, n)) == dimension(alg, n)
    q = make_fixture("Q")
    for n in range(1, 7):
        assert dimension(q, n) == 0
    assert de_rham_homology(q, 0)[0] == 1
    for n in range(1, 5):
        assert de_rham_homology(q, n)[0] == 0
    announce(2, "dim law m(m-1)^n for n<=6 on all fixtures; base field "
                "trivial with H_0 = 1")


def test_criterion_3_chern_suite():
    t0 = time.perf_counter()
    rep = run_suite("chern", SEED, k_max=2)
    elapsed = time.perf_counter() - t0
    assert rep["status"] == "pass"
    for c in checks_by_name(rep, "chern identities"):
        assert c["detail"]["count"] >= 25
    assert elapsed < 120
    announce(3, "trace/Chern suite, 25 connections per fixture, k_max=2, "
                "in %.1fs" % elapsed)


def test_criterion_4_transgression_suite():
    rep, elapsed = transgression_report()
    assert rep["status"] == "pass"
    for name in ("homotopy formula", "path identities", "hom naturality"):
        for c in checks_by_name(rep, name):
            assert c["status"] == "pass"
    assert elapsed < 180
    announce(4, "transgression laws (homotopy formula, d KCS = delta ch, "
                "reversal, constant, sums, pullback/hom naturality, "
                "ev-compat) in %.1fs" % elapsed)


def test_criterion_5_secondary_transgression():
    rep, elapsed = transgression_report()
    for c in checks_by_name(rep, "secondary transgression"):
        assert c["status"] == "pass"
        assert c["detail"]["count"] >= 10
    for c in checks_by_name(rep, "K K1 = K K2"):
        assert c["status"] == "pass"
    assert elapsed < 180
    announce(5, "secondary transgression on 10 path pairs per fixture and "
                "K K1 = K K2 on random two-parameter forms")


def test_criterion_6_triangle_law():
    rep, _ = transgression_report()
    for c in checks_by_name(rep, "triangle law"):
        assert c["status"] == "pass"
        assert c["detail"]["count"] >= 10
    announce(6, "triangle residuals exact with verified primitive "
                "certificates, 10 triples per fixture")


def test_criterion_7_khat_layer():
    t0 = time.perf_counter()
    # hexagon suite on all fixtures, three seeds
    for name in FIXTURE_NAMES:
        alg = make_fixture(name)
        for seed in (1, 7, 42):
            assert hexagon_suite(alg, seed, 2)["status"] == "pass"
    # full hexagon check battery (R o a = d, Pr o R = ch o I, odd chern
    # composition and block-sum laws, witness checks)
    hex_rep = run_suite("hexagon", SEED, k_max=2)
    assert hex_rep["status"] == "pass"

    # explicit witness chain on the product fixture, where the class of
    # e de de is certified nonzero in H_2
    alg = make_fixture("QxQ")
    assert de_rham_homology(alg, 2)[0] >= 1
    e = UForm.from_element(alg.basis(1))
    pert = e * e.d() * e.d()
    assert not project_ab(pert).is_zero()
    assert not is_exact_in_ab(pert, 2)[0]

    rng = random.Random(SEED)
    p = random_idempotent(alg, 2, rng)
    d0, d1, d2 = (random_connection(p, rng) for _ in range(3))

    def cls_sum(classes):
        total = AbClass(alg)
        for c in classes:
            total = total + c
        return total

    stab_p = random_idempotent(alg, 1, rng)
    stab = random_connection(stab_p, rng)
    s0 = direct_sum(d0, stab)
    s1 = direct_sum(d1, stab)
    g0 = KHatGen(p, d0, UForm.zero(alg))

    # reflexive
    w_id = KCSWitness(stab_p, stab, ModuleIso.identity(s0.p))
    assert verify_kcs_equivalence(g0, g0, w_id, 2)["accepted"]
    # constructed omega
    om01 = cls_sum(kcs_between(d0, d1, 2))
    g1 = KHatGen(p, d1, (-om01).lift())
    assert verify_kcs_equivalence(g0, g1, w_id, 2)["accepted"]
    # stabilized with a nontrivial automorphism witness
    phi = random_automorphism(s1.p, rng)
    om_tw = cls_sum(kcs_between(s0, pullback(s1, phi), 2))
    g1tw = KHatGen(p, d1, (-om_tw).lift())
    assert verify_kcs_equivalence(g0, g1tw, KCSWitness(stab_p, stab, phi),
                                  2)["accepted"]
    # chained transitivity
    om12 = cls_sum(kcs_between(d1, d2, 2))
    g2 = KHatGen(p, d2, (-om01 - om12).lift())
    w12 = KCSWitness(stab_p, stab, ModuleIso.identity(s1.p))
    assert verify_kcs_equivalence(g1, g2, w12, 2)["accepted"]
    w02 = chain_witnesses(g1, w_id, w12)
    assert verify_kcs_equivalence(g0, g2, w02, 2)["accepted"]
    # rejection of the nonexact perturbation
    gbad = KHatGen(p, d1, g1.omega + pert)
    rep = verify_kcs_equivalence(g0, gbad, w_id, 2)
    assert not rep["accepted"]
    assert not rep["degrees"][2]["exact"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 180
    announce(7, "differential K-theory layer: hexagon seeds {1,7,42}, "
                "witness verifier accepts/rejects correctly, in %.1fs"
             % elapsed)


def test_criterion_8_closed_form():
    rep, _ = transgression_report()
    for c in checks_by_name(rep, "closed-form agreement"):
        assert c["status"] == "pass"
        assert c["detail"]["count"] >= 25
    announce(8, "closed-form KCS agrees with the homotopy-operator "
                "definition on 25 paths per fixture")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k != "time_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


# sha256 of the timing-stripped `verify --suite all --seed 7` report: a
# change of scalar representation or of an algorithm must leave every
# reported value as it is
VERIFY_ALL_SEED7_SHA256 = (
    "a36238b19b63b92114b1e1885da0a7ad2d1a97d7684f9a9d14c6beb4ed23fbe1")


def test_criterion_9_cli_reproducibility(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for i in range(2):
        out = tmp_path / ("all%d.json" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "kchern.cli", "verify", "--suite", "all",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(out.read_text())
        assert rep["status"] == "pass"
        outputs.append(json.dumps(_strip_timing(rep), sort_keys=True))
    elapsed = time.perf_counter() - t0
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == \
        VERIFY_ALL_SEED7_SHA256
    assert elapsed < 600
    announce(9, "verify --suite all --seed 7 deterministic (two runs, "
                "timing-stripped reports identical and pinned) in %.1fs total"
             % elapsed)


def test_m2_homology_rung_10_wall_clock(tmp_path):
    """A rung of the M2 homology ladder (ROADMAP aim 1) as a gate: a cold
    `kchern homology --fixture M2 --degree 10 --degree-cap 11` finishes,
    with H_10 = 0, in under 5 s."""
    out = tmp_path / "h10.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kchern.cli", "homology", "--fixture", "M2",
         "--degree", "10", "--degree-cap", "11", "--out", str(out)],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == {
        "degree": 10, "dim": 0, "representatives": []}
    assert elapsed < 5
    print("GATE: PASS — M2 homology at degree 10 in %.2fs" % elapsed)
