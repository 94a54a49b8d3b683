"""Planted defects: each suite check named here must fail when the code it
exercises is made wrong, or its "pass" would show nothing."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest

import kchern
from kchern import (connections, exactmath, khat, suites, transgression,
                    uforms)
from kchern.connections import (Connection, Idempotent, Mat, ModuleIso,
                                direct_sum, pullback, random_automorphism,
                                random_connection, random_idempotent, sum_iso)
from kchern.exactmath import Poly, accumulate
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.khat import (KCSWitness, KHatGen, chain_witnesses,
                         verify_kcs_equivalence)
from kchern.suites import SUITES, run_suite
from kchern.transgression import kcs_between
from kchern.uforms import UForm
from tests.test_connections import _sum_iso_swapped_u
from tests.test_khat import sum_classes, trivial_witness


def _self_sum(a, b):
    return connections.direct_sum(a, a)


def _doubled_hom(psi):
    f = uforms.extend_hom(psi)
    return lambda u: f(u).scale(2)


def _zero_primitive(w, n):
    ok, prim = uforms.is_exact_in_ab(w, n)
    return ok, uforms.UForm.zero(w.algebra) if ok else prim


def _negated_kcs(c0, c1, k_max):
    return [-cls for cls in transgression.kcs_between(c0, c1, k_max)]


def _self_sum_iso(a, b):
    return connections.sum_iso(a, a)


@pytest.mark.parametrize("name, suite, fixture, target, plant, status", [
    ("chern identities", "chern", "M2", "direct_sum", _self_sum, "fail"),
    ("hom naturality", "transgression", "Q", "extend_hom", _doubled_hom,
     "fail"),
    ("triangle law", "transgression", "dual", "is_exact_in_ab",
     _zero_primitive, "fail"),
    ("kcs equivalence witnesses", "hexagon", "M2", "kcs_between",
     _negated_kcs, "fail"),
    # the block sum of u1 with itself lives on p (+) p, not p (+) p2, so
    # K1Pair refuses it: the check errors rather than fails
    ("odd chern laws", "hexagon", "M2", "sum_iso", _self_sum_iso, "error"),
])
def test_planted_defect_fails_the_check(monkeypatch, name, suite, fixture,
                                        target, plant, status):
    monkeypatch.setattr(suites, target, plant)
    for count in ("N_PATHS", "N_PAIRS", "N_CLOSED"):
        monkeypatch.setattr(suites, count, 1)
    rep = run_suite(suite, 7, fixtures=[fixture])
    assert rep["status"] == "fail"
    assert [c["status"] for c in rep["checks"] if c["name"] == name] == [
        status]


def test_empty_fixture_list_is_refused(monkeypatch):
    # a verify of nothing neither passes nor runs all six fixtures: an empty
    # list raises before any check builds an algebra
    built = []
    monkeypatch.setattr(suites, "make_fixture", lambda *a: built.append(a))
    for suite in SUITES + ("all",):
        with pytest.raises(ValueError, match="no fixtures"):
            run_suite(suite, 7, fixtures=[])
    assert not built


def test_short_word_list_fails_the_dimension_law(monkeypatch):
    # `dimension law` compares `dimension` with the formula and with the
    # words `enumerate_words` lists: one word short in every degree must
    # fail it on every fixture, and the real list passes
    def law(rep):
        return {c["fixture"]: c["status"] for c in rep["checks"]
                if c["name"] == "dimension law"}

    assert law(run_suite("dga", 7)) == dict.fromkeys(FIXTURE_NAMES, "pass")
    real = suites.enumerate_words
    monkeypatch.setattr(suites, "enumerate_words",
                        lambda alg, n: real(alg, n)[:-1])
    assert law(run_suite("dga", 7)) == dict.fromkeys(FIXTURE_NAMES, "fail")


# ---------------------------------------------------------------------------
# L0 integral mutants: weights 1/(k + 2) where the integral of x^k over
# [0, 1] is 1/(k + 1)
# ---------------------------------------------------------------------------

def _shifted_integrate01(self, i):
    return self._drop(accumulate((e[:i] + e[i + 1:], Fraction(c, e[i] + 2))
                                 for e, c in self.coeffs.items()))


def _shifted_integral_weights(bounds):
    den = prod(lcm(*range(1, b + 3)) for b in bounds)
    return den, {
        e1: {e2: den // prod(x + y + 2 for x, y in zip(e1, e2))
             for e2 in product(*(range(b - x + 1)
                                 for b, x in zip(bounds, e1)))}
        for e1 in product(*(range(b + 1) for b in bounds))}


def _patch_integrate01(monkeypatch):
    monkeypatch.setattr(Poly, "integrate01", _shifted_integrate01)


def _patch_integral_weights(monkeypatch):
    # every module that binds the name: transgression imports it
    for module in (exactmath, transgression):
        monkeypatch.setattr(module, "integral_weights",
                            _shifted_integral_weights)


def _pairs(*checks):
    return {(check, name) for check, names in checks for name in names}


# (check, fixture) pairs of the transgression suite at seed 7, with
# N_PATHS, N_PAIRS, N_CLOSED and N_TRIPLES at 1, that each mutant fails
INTEGRAL_MUTANTS = {
    "integrate01": (_patch_integrate01, _pairs(
        ("homotopy formula", FIXTURE_NAMES),
        ("closed-form agreement", ("M2", "dual", "x3")),
        ("path identities", ("M2",)),
        ("secondary transgression", ("M2", "x3")))),
    "integral_weights": (_patch_integral_weights, _pairs(
        ("closed-form agreement", ("M2", "dual", "x3")),
        ("path identities", ("M2", "x3")),
        ("secondary transgression", ("x3",)),
        ("triangle law", ("M2", "x3")))),
}


class TestIntegralMutants:
    @pytest.fixture
    def few(self, monkeypatch):
        for count in ("N_PATHS", "N_PAIRS", "N_CLOSED", "N_TRIPLES"):
            monkeypatch.setattr(suites, count, 1)

    @staticmethod
    def failed(rep):
        return {(c["name"], c["fixture"]) for c in rep["checks"]
                if c["status"] == "fail"}

    def test_unpatched_suite_passes(self, few):
        rep = run_suite("transgression", 7)
        assert rep["status"] == "pass"

    @pytest.mark.parametrize("mutant", sorted(INTEGRAL_MUTANTS))
    def test_mutant_fails_its_checks(self, monkeypatch, few, mutant):
        patch, pairs = INTEGRAL_MUTANTS[mutant]
        patch(monkeypatch)
        rep = run_suite("transgression", 7)
        assert pairs <= self.failed(rep), pairs - self.failed(rep)


# F6's survivors: odd_chern mutants that no check can see yet, because every
# automorphism the hexagon suite draws is a scalar multiple of p (F1) and no
# fixture has an odd class (F2).  A fixture or generator that gives the odd
# checks content turns these into passes; then drop the marker.
ODD_CHERN_SURVIVORS = {
    "odd_chern_x2": lambda real: lambda k1, k_max: [
        c.scale(2) for c in real(k1, k_max)],
    "odd_chern_zero": lambda real: lambda k1, k_max: [
        c.scale(0) for c in real(k1, k_max)],
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "F1/F2: every drawn automorphism is a scalar multiple of p, so its odd "
    "Chern forms vanish and no odd-degree check can tell the mutant"))
@pytest.mark.parametrize("mutant", sorted(ODD_CHERN_SURVIVORS))
def test_odd_chern_survivor_fails_the_hexagon_suite(monkeypatch, mutant):
    calls = []
    mutated = ODD_CHERN_SURVIVORS[mutant](khat.odd_chern)

    def plant(k1, k_max):
        calls.append(1)
        return mutated(k1, k_max)

    for module in (khat, suites):
        monkeypatch.setattr(module, "odd_chern", plant)
    rep = run_suite("hexagon", 7, fixtures=["dual", "x3"])
    if not calls:
        # not an AssertionError, so a plant that never runs fails the test
        # instead of xfailing
        pytest.fail("the mutant was never called")
    assert rep["status"] == "fail"


# F1's survivors: sum_iso mutants that `odd chern laws` cannot see, because
# the odd Chern forms of the scalar automorphisms it draws vanish, so a block
# sum with a wrong second block changes no form.  A generator of non-scalar
# automorphisms turns these into passes; then drop the marker.
SUM_ISO_SURVIVORS = {
    "sum_iso_b_inverse": lambda a, b: sum_iso(a, b.inverse()),
    "sum_iso_b_identity": lambda a, b: sum_iso(
        a, ModuleIso.identity(b.p0)),
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "F1: every drawn automorphism is a scalar multiple of p, so its odd "
    "Chern forms vanish and the block-sum law cannot tell the mutant"))
@pytest.mark.parametrize("mutant", sorted(SUM_ISO_SURVIVORS))
def test_sum_iso_survivor_fails_odd_chern_laws(monkeypatch, mutant):
    calls = []

    def plant(a, b):
        calls.append(1)
        return SUM_ISO_SURVIVORS[mutant](a, b)

    monkeypatch.setattr(suites, "sum_iso", plant)
    rep = run_suite("hexagon", 7, fixtures=["dual", "x3"])
    if not calls:
        # not an AssertionError, so a plant that never runs fails the test
        # instead of xfailing
        pytest.fail("the mutant was never called")
    assert "fail" in [c["status"] for c in rep["checks"]
                      if c["name"] == "odd chern laws"]


# ---------------------------------------------------------------------------
# Closure operations with the checked constructors swapped back in
# ---------------------------------------------------------------------------

def _checked_new(monkeypatch):
    """Every `_new` runs its class's checked constructor instead."""
    for kind in (Idempotent, Connection, ModuleIso):
        monkeypatch.setattr(kind, "_new", classmethod(
            lambda cls, *args: cls(*args)))


def _timeless(x):
    if isinstance(x, dict):
        return {k: _timeless(v) for k, v in x.items() if k != "time_ms"}
    if isinstance(x, list):
        return [_timeless(v) for v in x]
    return x


# sha256 of the timing-stripped report of every suite on a fixture subset in
# non-canonical order, a non-default cap and k_max = 3, whose middle Chern
# power k = 2 no default `verify` reaches
NON_DEFAULT_ALL_SHA256 = (
    "1dd842fbeb09b08a80de1e7266ed77b0fe05ad3abce1452db8035320dc44e91d")


def test_non_default_report_is_pinned():
    rep = run_suite("all", 3, fixtures=["C2", "dual"], degree_cap=7,
                    k_max=3)
    assert rep["status"] == "pass"
    text = json.dumps(_timeless(rep), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == NON_DEFAULT_ALL_SHA256


def _khat_round(name):
    """A stabilized, twisted witness verified, the same with a planted
    even perturbation of omega, and a chain of two trivial witnesses
    verified: the closure operations of the K-hat verifier."""
    alg = make_fixture(name)
    rng = random.Random("khat-round/" + name)
    p = random_idempotent(alg, 2, rng)
    d0, d1, d2 = (random_connection(p, rng) for _ in range(3))
    stab_p = random_idempotent(alg, 1, rng)
    stab = random_connection(stab_p, rng)
    phi = random_automorphism(direct_sum(d1, stab).p, rng)
    twisted = sum_classes(kcs_between(
        direct_sum(d0, stab), pullback(direct_sum(d1, stab), phi), 2), alg)
    om01 = sum_classes(kcs_between(d0, d1, 2), alg)
    om12 = sum_classes(kcs_between(d1, d2, 2), alg)
    g0 = KHatGen(p, d0, UForm.zero(alg))
    g1 = KHatGen(p, d1, (-twisted).lift())
    g1_bad = KHatGen(p, d1, g1.omega + UForm.unit(alg))
    h1 = KHatGen(p, d1, (-om01).lift())
    h2 = KHatGen(p, d2, (-om01 - om12).lift())
    w = KCSWitness(stab_p, stab, phi)
    chain = chain_witnesses(h1, trivial_witness(g0, rng),
                            trivial_witness(h1, rng))
    reports = [verify_kcs_equivalence(g0, g1, w, 2),
               verify_kcs_equivalence(g0, g1_bad, w, 2),
               verify_kcs_equivalence(g0, h2, chain, 2)]
    return reports, (chain.iso.u, chain.iso.v, chain.stab_conn.theta)


class TestCheckedConstructorOracle:
    """The closure operations skip the identity checks; with the checked
    constructors swapped back in, no check refuses what they build, and
    every report is the same."""

    @pytest.fixture
    def few(self, monkeypatch):
        for count in ("N_PATHS", "N_PAIRS", "N_CLOSED"):
            monkeypatch.setattr(suites, count, 1)

    def test_suites_and_khat_round_agree(self, monkeypatch, few):
        fast = ([_timeless(run_suite(s, 7)) for s in SUITES],
                [_khat_round(name) for name in ("M2", "x3")])
        _checked_new(monkeypatch)
        checked = ([_timeless(run_suite(s, 7)) for s in SUITES],
                   [_khat_round(name) for name in ("M2", "x3")])
        assert checked == fast
        assert all(r["status"] == "pass" for r in fast[0])
        for reports, _ in fast[1]:
            assert [r["accepted"] for r in reports] == [True, False, True]
            assert not reports[1]["degrees"][0]["exact"]

    def test_planted_closure_defect_is_caught(self, monkeypatch, few):
        # the odd Chern forms of scalar automorphisms vanish, so the block
        # sum law passes with the u blocks swapped; the checked
        # ModuleIso refuses them
        monkeypatch.setattr(suites, "sum_iso", _sum_iso_swapped_u)
        rep = run_suite("hexagon", 7, fixtures=["M2"])
        assert rep["status"] == "pass"
        _checked_new(monkeypatch)
        rep = run_suite("hexagon", 7, fixtures=["M2"])
        odd = [c for c in rep["checks"] if c["name"] == "odd chern laws"]
        assert [c["status"] for c in odd] == ["error"]
        assert "ConnectionError_" in odd[0]["detail"]["error"]


# the seeded generators whose draws `test_seeded_draws_are_pinned` records
GENERATORS = ("random_idempotent", "random_connection", "random_form",
              "random_automorphism", "random_iso")


def _canon(obj):
    """A drawn object as the sorted items of the `data` or `terms` dicts it
    is made of."""
    if isinstance(obj, tuple):
        return [_canon(x) for x in obj]
    if isinstance(obj, ModuleIso):
        return [_canon(m) for m in (obj.p0, obj.p1, obj.u, obj.v)]
    if isinstance(obj, Connection):
        return [_canon(obj.p), _canon(obj.theta)]
    if isinstance(obj, Idempotent):
        return _canon(obj.mat)
    items = obj.data if isinstance(obj, Mat) else obj.terms
    return sorted((repr(k), repr(v)) for k, v in items.items())


# sha256 of every object the seeded generators return, in draw order, during
# `run_suite("all", 7)` and the hexagon suite on the six fixtures at seeds
# 1, 7 and 42.  The verify pins cannot see what the checks draw, since every
# check's detail is a count or a list of names or degrees, so a reordered
# draw that still passes leaves them unchanged.  A change that adds or
# reorders draws re-pins this, as it re-pins criterion 9.
SEEDED_DRAWS_SHA256 = (
    "b23668233cab2da6b73846b6fa4d7fdf02a244039b5ebdd5bd0ef8c631fae01c")


def test_seeded_draws_are_pinned(monkeypatch):
    drawn = []

    def recording(name, real):
        def draw(*args):
            obj = real(*args)
            drawn.append((name, _canon(obj)))
            return obj
        return draw

    # every kchern module that binds a generator, so a draw is recorded
    # whichever module calls it
    modules = [m for n, m in sys.modules.items() if n.startswith("kchern.")]
    for module in modules:
        for name in GENERATORS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(name, getattr(module, name)))
    assert run_suite("all", 7)["status"] == "pass"
    for name in FIXTURE_NAMES:
        for seed in (1, 7, 42):
            rep = kchern.hexagon_suite(make_fixture(name), seed, 2)
            assert rep["status"] == "pass"
    digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
    assert digest == SEEDED_DRAWS_SHA256
