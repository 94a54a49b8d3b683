"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys

import pytest

from kchern.algebra import algebra_to_json
from kchern.cli import main
from kchern.connections import random_connection, random_idempotent
from kchern.fixtures import make_fixture
from kchern.serialize import (connection_to_json, idempotent_to_json,
                              _theta_to_json)


@pytest.fixture()
def m2_file(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(algebra_to_json(make_fixture("M2"))))
    return str(path)


def run(args):
    return main(args)


class TestAlgebraCheck:
    def test_valid(self, m2_file, tmp_path):
        out = tmp_path / "report.json"
        assert run(["algebra-check", m2_file, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "pass"
        assert rep["form_dimensions"]["1"] == 12

    def test_nonassociative_names_triple(self, tmp_path, capsys):
        z, o = "0", "1"
        bad = {"dim": 3, "names": ["1", "x", "y"], "mul": [
            [[o, z, z], [z, o, z], [z, z, o]],
            [[z, o, z], [z, z, o], [o, z, z]],
            [[z, z, o], [z, z, z], [z, z, z]]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        out = tmp_path / "rep.json"
        assert run(["algebra-check", str(f), "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert "associativity" in rep["message"]
        assert "(x, x, x)" in rep["message"]

    def test_misplaced_unit_hint(self, tmp_path):
        z, o = "0", "1"
        rebased = {"dim": 2, "names": ["x", "1"], "mul": [
            [[z, z], [o, z]],
            [[o, z], [z, o]]]}
        f = tmp_path / "rebase.json"
        f.write_text(json.dumps(rebased))
        out = tmp_path / "rep.json"
        assert run(["algebra-check", str(f), "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert "index 1" in rep["hint"]

    def test_parse_error(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        assert run(["algebra-check", str(f)]) == 2

    def test_missing_file(self):
        assert run(["algebra-check", "/nonexistent/nowhere.json"]) == 2


class TestHomology:
    def test_golden(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["homology", "--fixture", "QxQ", "--degree", "2",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["dim"] == 1

    def test_cap_exceeded(self):
        assert run(["homology", "--fixture", "Q", "--degree", "9"]) == 3

    def test_degree_at_cap_needs_one_more(self, capsys):
        # H_n reads the complex in degree n + 1, so n = cap is refused up
        # front with that reason
        assert run(["homology", "--fixture", "Q", "--degree", "8"]) == 3
        err = capsys.readouterr().err
        assert "H_8 needs degree 9, which exceeds cap 8" in err
        assert run(["homology", "--fixture", "Q", "--degree", "7"]) == 0


class TestChern:
    def test_from_file(self, tmp_path):
        alg = make_fixture("QxQ")
        rng = random.Random(70)
        p = random_idempotent(alg, 2, rng)
        c = random_connection(p, rng)
        f = tmp_path / "conn.json"
        f.write_text(json.dumps(connection_to_json(c)))
        out = tmp_path / "ch.json"
        assert run(["chern", "--fixture", "QxQ", "--connection", str(f),
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [c["degree"] for c in rep["classes"]] == [0, 2, 4]

    def test_random_seeded(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["chern", "--fixture", "dual", "--seed", "5",
                        "--out", str(out)]) == 0
        assert a.read_text() == b.read_text()


class TestKcs:
    def _pair_file(self, tmp_path):
        alg = make_fixture("QxQ")
        rng = random.Random(71)
        p = random_idempotent(alg, 2, rng)
        c0 = random_connection(p, rng)
        c1 = random_connection(p, rng)
        payload = {"idempotent": idempotent_to_json(p),
                   "theta0": _theta_to_json(c0.theta),
                   "theta1": _theta_to_json(c1.theta)}
        f = tmp_path / "pair.json"
        f.write_text(json.dumps(payload))
        return str(f)

    def test_two_connection_mode(self, tmp_path):
        f = self._pair_file(tmp_path)
        out = tmp_path / "kcs.json"
        assert run(["kcs", "--fixture", "QxQ", "--path", f,
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [c["degree"] for c in rep["kcs"]] == [1, 3]
        assert all(r["zero"] for r in rep["transgression_residuals"])

    def test_reverse_negates(self, tmp_path):
        f = self._pair_file(tmp_path)
        fwd = tmp_path / "f.json"
        rev = tmp_path / "r.json"
        assert run(["kcs", "--fixture", "QxQ", "--path", f,
                    "--out", str(fwd)]) == 0
        assert run(["kcs", "--fixture", "QxQ", "--path", f, "--reverse",
                    "--out", str(rev)]) == 0
        a = json.loads(fwd.read_text())
        b = json.loads(rev.read_text())
        from kchern.serialize import form_from_json
        alg = make_fixture("QxQ")
        for ca, cb in zip(a["kcs"], b["kcs"]):
            fa = form_from_json(alg, ca["class"])
            fb = form_from_json(alg, cb["class"])
            assert fa == -fb

    def test_path_potential_of_degree_two_is_rejected(self, tmp_path,
                                                       capsys):
        # theta(t) = t * e1 de1 de1 is not a connection potential at any t
        payload = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                   "theta": [[[{"degree": 2, "word": [1, 1, 1],
                                "coeff": {"t^1": "1"}}]]]}
        f = tmp_path / "path.json"
        f.write_text(json.dumps(payload))
        assert run(["kcs", "--fixture", "dual", "--path", str(f)]) == 3
        assert "theta must be of degree 1" in capsys.readouterr().err


class TestVerify:
    def test_suite_pass(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--suite", "dga", "--seed", "7",
                    "--fixture", "dual", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "pass"

    def test_deterministic_modulo_timing(self, tmp_path):
        reports = []
        for i in range(2):
            out = tmp_path / ("d%d.json" % i)
            assert run(["verify", "--suite", "hexagon", "--seed", "3",
                        "--fixture", "QxQ", "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            for c in rep["checks"]:
                c.pop("time_ms", None)
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    def test_check_error_is_reported(self, capsys):
        # a check that raises something other than AssertionError is an
        # "error" entry; the report is still printed and the suite fails
        assert run(["verify", "--suite", "chern", "--fixture", "QxQ",
                    "--degree-cap", "3"]) == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "fail"
        assert [c["name"] for c in rep["checks"]] == \
            ["trace cyclicity", "chern identities"]
        for c in rep["checks"]:
            assert c["status"] == "error"
            assert c["detail"]["error"].startswith("DegreeCapError: ")

    def test_planted_failure_fails_under_optimize(self):
        # checks must not be asserts that `python -O` strips: a planted
        # wrong dimension law must still fail the suite there
        script = ("import kchern.suites as s\n"
                  "s.dimension = lambda alg, n: -1\n"
                  "print(s.run_suite('dga', 7, ['Q'])['status'])\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "fail"

    def test_unknown_suite_is_parse_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2
