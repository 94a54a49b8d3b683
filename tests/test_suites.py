"""Planted defects: each suite check named here must fail when the code it
exercises is made wrong, or its "pass" would show nothing."""

import pytest

from kchern import connections, suites, transgression, uforms
from kchern.suites import (run_chern_suite, run_hexagon_suite,
                           run_transgression_suite)


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
    ("chern identities", run_chern_suite, "M2", "direct_sum", _self_sum,
     "fail"),
    ("hom naturality", run_transgression_suite, "Q", "extend_hom",
     _doubled_hom, "fail"),
    ("triangle law", run_transgression_suite, "dual", "is_exact_in_ab",
     _zero_primitive, "fail"),
    ("kcs equivalence witnesses", run_hexagon_suite, "M2", "kcs_between",
     _negated_kcs, "fail"),
    # the block sum of u1 with itself lives on p (+) p, not p (+) p2, so
    # K1Pair refuses it: the check errors rather than fails
    ("odd chern laws", run_hexagon_suite, "M2", "sum_iso", _self_sum_iso,
     "error"),
])
def test_planted_defect_fails_the_check(monkeypatch, name, suite, fixture,
                                        target, plant, status):
    monkeypatch.setattr(suites, target, plant)
    for count in ("N_PATHS", "N_PAIRS", "N_CLOSED"):
        monkeypatch.setattr(suites, count, 1)
    rep = suite(7, fixtures=[fixture])
    assert rep["status"] == "fail"
    assert [c["status"] for c in rep["checks"] if c["name"] == name] == [
        status]
