"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import copy
import json
import os
import random
import subprocess
import sys
import time

import pytest

from kchern.algebra import algebra_to_json
from kchern.cli import build_parser, main
from kchern.connections import random_connection, random_idempotent
from kchern.fixtures import make_fixture
from kchern.serialize import (MAX_T_EXPONENT, connection_to_json,
                              idempotent_to_json, _theta_to_json)
from kchern.transgression import straight_line


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

    def test_huge_exponent_is_a_parse_error(self, tmp_path, capsys):
        # "1e10000000" would make Fraction compute 10^10^7 before the
        # table is read further: refused at once, as a 5,001-digit literal
        payload = algebra_to_json(make_fixture("dual"))
        payload["mul"][1][1][0] = "1e10000000"
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(payload))
        assert run(["algebra-check", str(f)]) == 2
        assert "digits" in capsys.readouterr().err

    def test_boolean_dim_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "bool.json"
        f.write_text(json.dumps({"dim": True, "mul": [[["1"]]]}))
        assert run(["algebra-check", str(f)]) == 2
        assert capsys.readouterr().out == ""

    def test_names_must_be_a_list_of_strings(self, tmp_path, capsys):
        data = algebra_to_json(make_fixture("dual"))
        for i, names in enumerate(("1x", ["1", 3], None, {"1": "x"})):
            f = _write(tmp_path, "n%d.json" % i, dict(data, names=names))
            assert run(["algebra-check", f]) == 2, names
            captured = capsys.readouterr()
            assert captured.out == "" and "names" in captured.err
        # a list of strings of the wrong length is a validation failure
        for i, names in enumerate((["1"], [])):
            f = _write(tmp_path, "w%d.json" % i, dict(data, names=names))
            assert run(["algebra-check", f]) == 3, names
            assert "wrong number of basis names" in capsys.readouterr().out


def _numeric_table(tmp_path):
    # M2 with its structure constants as JSON numbers, not "num/den"
    data = algebra_to_json(make_fixture("M2"))
    data["mul"] = [[[float(c) for c in entry] for entry in row]
                   for row in data["mul"]]
    f = tmp_path / "numeric.json"
    f.write_text(json.dumps(data))
    return str(f)


class TestHomology:
    def test_golden(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["homology", "--fixture", "QxQ", "--degree", "2",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["dim"] == 1

    def test_cap_exceeded(self):
        assert run(["homology", "--fixture", "Q", "--degree", "9"]) == 3

    def test_numeric_rationals_are_parse_errors(self, tmp_path):
        f = _numeric_table(tmp_path)
        assert run(["homology", "--algebra", f, "--degree", "1"]) == 2
        assert run(["algebra-check", f]) == 2

    def test_degree_at_cap_needs_one_more(self, capsys):
        # H_n reads the complex in degree n + 1, so n = cap is refused up
        # front with that reason
        assert run(["homology", "--fixture", "Q", "--degree", "8"]) == 3
        err = capsys.readouterr().err
        assert "H_8 needs degree 9, which exceeds cap 8" in err
        assert run(["homology", "--fixture", "Q", "--degree", "7"]) == 0

    def test_negative_degree_is_refused(self, capsys, tmp_path):
        # on M2 too, where homology first reads the E11 lift: a negative
        # degree is a validation error, never an answer
        out = tmp_path / "h.json"
        for name in ("M2", "x3"):
            assert run(["homology", "--fixture", name, "--degree", "-1",
                        "--out", str(out)]) == 3, name
            assert "negative degree" in capsys.readouterr().err
            assert not out.exists()


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

    def test_word_out_of_range_under_optimize(self, tmp_path):
        # the word-range check must not hang on __debug__: under
        # `python -O` a theta word outside the algebra still exits 3
        conn = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                "theta": [[[{"degree": 1, "word": [0, 5], "coeff": "1"}]]]}
        f = tmp_path / "conn.json"
        f.write_text(json.dumps(conn))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-m", "kchern.cli",
                              "chern", "--fixture", "dual",
                              "--connection", str(f)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 3, out.stderr
        assert "word index out of range" in out.stderr

    def test_random_seeded(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["chern", "--fixture", "dual", "--seed", "5",
                        "--out", str(out)]) == 0
        assert a.read_text() == b.read_text()


def _pair_file(tmp_path):
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


class TestKcs:
    def test_two_connection_mode(self, tmp_path):
        f = _pair_file(tmp_path)
        out = tmp_path / "kcs.json"
        assert run(["kcs", "--fixture", "QxQ", "--path", f,
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [c["degree"] for c in rep["kcs"]] == [1, 3]
        assert all(r["zero"] for r in rep["transgression_residuals"])

    def test_reverse_negates(self, tmp_path):
        f = _pair_file(tmp_path)
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


    def test_path_term_degree_must_be_an_integer(self, tmp_path, capsys):
        # "degree": true equals 1 and 1.0 equals 1, but a degree is an int
        for degree in (True, 1.0):
            payload = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                       "theta": [[[{"degree": degree, "word": [1, 1],
                                    "coeff": {"t^1": "1"}}]]]}
            f = tmp_path / "path.json"
            f.write_text(json.dumps(payload))
            assert run(["kcs", "--fixture", "dual", "--path", str(f)]) == 2
            assert "degree is an integer" in capsys.readouterr().err


def _write(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return str(f)


class TestMalformedInput:
    def test_kmax_below_one_refused_by_suites(self, capsys):
        for suite, kmax in (("transgression", "0"), ("transgression", "-3"),
                            ("hexagon", "-1"), ("chern", "-1")):
            assert run(["verify", "--suite", suite, "--fixture", "dual",
                        "--kmax", kmax]) == 2, (suite, kmax)
            assert capsys.readouterr().out == ""

    def test_kmax_below_one_refused_before_any_suite(self, monkeypatch,
                                                     capsys):
        from kchern import suites
        built = []
        monkeypatch.setattr(suites, "make_fixture",
                            lambda *args, **kw: built.append(args))
        for suite in ("dga", "all"):
            assert run(["verify", "--suite", suite, "--fixture", "dual",
                        "--kmax", "0"]) == 2, suite
            assert capsys.readouterr().out == ""
        assert built == []

    def test_kmax_below_one_refused_by_kcs(self, tmp_path, capsys):
        f = _pair_file(tmp_path)
        assert run(["kcs", "--fixture", "QxQ", "--path", f,
                    "--kmax", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_degree_cap_below_one_refused_before_any_file(self, m2_file,
                                                          capsys):
        missing = "/nonexistent/nowhere.json"
        for argv in (["algebra-check", m2_file],
                     ["algebra-check", missing],
                     ["homology", "--fixture", "Q", "--degree", "0"],
                     ["homology", "--algebra", missing, "--degree", "0"],
                     ["verify", "--suite", "dga", "--fixture", "Q"]):
            for cap in ("0", "-1"):
                assert run(argv + ["--degree-cap", cap]) == 2, (argv, cap)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: --degree-cap")

    def test_chern_kmax_range(self, capsys):
        assert run(["chern", "--fixture", "dual", "--seed", "1",
                    "--kmax", "-3"]) == 2
        assert capsys.readouterr().out == ""
        assert run(["chern", "--fixture", "dual", "--seed", "1",
                    "--kmax", "0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert [c["degree"] for c in rep["classes"]] == [0]

    def test_empty_idempotent_is_a_validation_error(self, tmp_path, capsys):
        for size in ("0", "-2"):
            assert run(["chern", "--fixture", "dual", "--seed", "1",
                        "--size", size]) == 3
            assert "idempotent matrix is empty" in capsys.readouterr().err
        f = _write(tmp_path, "empty.json",
                   {"idempotent": {"size": 0, "entries": []}, "theta": []})
        assert run(["chern", "--fixture", "dual", "--connection", f]) == 3

    def test_idempotent_size_must_match_its_rows(self, tmp_path, capsys):
        theta = [[[]]]
        for i, size in enumerate((2, 0, True, "1")):
            conn = {"idempotent": {"size": size, "entries": [[["1", "0"]]]},
                    "theta": theta}
            f = _write(tmp_path, "s%d.json" % i, conn)
            assert run(["chern", "--fixture", "dual", "--connection", f]) \
                == 2, size
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "does not match its 1 rows" in captured.err
        # "size" is optional
        f = _write(tmp_path, "nosize.json",
                   {"idempotent": {"entries": [[["1", "0"]]]},
                    "theta": theta})
        assert run(["chern", "--fixture", "dual", "--connection", f]) == 0

    def test_single_connection_refuses_polynomial_scalars(self, tmp_path,
                                                          capsys):
        # a t-dependent theta is a path, not a connection: as the theta of
        # `chern` or as theta1 of a two-connection payload it exits 3
        poly = [[[{"degree": 1, "word": [0, 1], "coeff": {"t^1": "1"}}]]]
        zero = [[[]]]
        idem = {"size": 1, "entries": [[["1", "0"]]]}
        f = _write(tmp_path, "conn.json", {"idempotent": idem,
                                           "theta": poly})
        assert run(["chern", "--fixture", "dual", "--connection", f]) == 3
        assert "rational scalars" in capsys.readouterr().err
        f = _write(tmp_path, "pair.json", {"idempotent": idem,
                                           "theta0": zero, "theta1": poly})
        assert run(["kcs", "--fixture", "dual", "--path", f]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rational scalars" in captured.err

    def test_unwritable_out_is_a_parse_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert run(["homology", "--fixture", "Q", "--degree", "1",
                    "--out", out]) == 2
        assert "cannot write %s" % out in capsys.readouterr().err

    def test_malformed_word_is_a_parse_error(self, tmp_path, capsys):
        # an empty word (with no degree key to catch it) and a bool inside a
        # word (which would pass for the integer 1) are refused
        for i, word in enumerate(([], [1, True], [0, 1.0], "01", None)):
            conn = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                    "theta": [[[{"word": word, "coeff": "1"}]]]}
            f = _write(tmp_path, "w%d.json" % i, conn)
            assert run(["chern", "--fixture", "dual", "--connection", f]) \
                == 2, word
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "non-empty list of integers" in captured.err

    def test_every_malformed_coefficient_is_a_parse_error(self, tmp_path):
        for i, coeff in enumerate((1, 0.5, None, ["1"], {"x^1": "1"},
                                   {"t^-1": "1"}, {"t^x": "1"}, {"t^": "1"},
                                   {"t^1": 1})):
            path = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                    "theta": [[[{"degree": 1, "word": [0, 1],
                                 "coeff": coeff}]]]}
            f = _write(tmp_path, "c%d.json" % i, path)
            assert run(["kcs", "--fixture", "dual", "--path", f]) == 2, coeff

    def test_two_keys_of_one_exponent_are_a_parse_error(self, tmp_path,
                                                        capsys):
        # "t^01" and "t^\u0661" (an Arabic-Indic one) would both name t^1:
        # read as t^1, the path would differ from the one in the file
        for i, coeff in enumerate(({"t^1": "1", "t^01": "2"},
                                   {"t^\u0661": "1"})):
            path = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                    "theta": [[[{"degree": 1, "word": [0, 1],
                                 "coeff": coeff}]]]}
            f = _write(tmp_path, "k%d.json" % i, path)
            assert run(["kcs", "--fixture", "dual", "--path", f]) == 2, coeff
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "ASCII digits" in captured.err

    def test_t_exponent_has_a_limit(self, tmp_path, capsys):
        # the fibre integrals' weight tables grow with a path's degree, so
        # an exponent past MAX_T_EXPONENT is refused, at once and with exit 3
        for k, code in ((MAX_T_EXPONENT, 0), (MAX_T_EXPONENT + 1, 3),
                        (10_000_000, 3)):
            path = {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                    "theta": [[[{"degree": 1, "word": [0, 1],
                                 "coeff": {"t^%d" % k: "1"}}]]]}
            f = _write(tmp_path, "t%d.json" % k, path)
            start = time.perf_counter()
            got = run(["kcs", "--fixture", "dual", "--kmax", "2", "--path", f])
            elapsed = time.perf_counter() - start
            assert got == code, k
            err = capsys.readouterr().err
            if code:
                assert elapsed < 0.05, (k, elapsed)
                assert "exponent limit %d" % MAX_T_EXPONENT in err, k


class _Reads:
    """An argparse namespace that records which of its values are read."""

    def __init__(self, namespace):
        self._values = vars(namespace)
        self.read = set()

    def __getattr__(self, name):
        if name not in self._values:
            raise AttributeError(name)
        self.read.add(name)
        return self._values[name]


def test_every_option_is_read(m2_file, tmp_path):
    # an option its command never reads is a setting that silently does
    # nothing; run each command on valid input and record what it reads
    conn = _write(tmp_path, "conn.json",
                  {"idempotent": {"size": 1, "entries": [[["1", "0"]]]},
                   "theta": [[[]]]})
    pair = _pair_file(tmp_path)
    qxq = _write(tmp_path, "qxq.json", algebra_to_json(make_fixture("QxQ")))
    argvs = {
        "algebra-check": [[m2_file]],
        "homology": [["--fixture", "Q", "--degree", "0"],
                     ["--algebra", m2_file, "--degree", "0"]],
        "chern": [["--fixture", "dual", "--seed", "1"],
                  ["--algebra", qxq, "--connection", conn]],
        "kcs": [["--fixture", "QxQ", "--path", pair],
                ["--algebra", qxq, "--path", pair, "--reverse"]],
        "verify": [["--suite", "dga", "--fixture", "Q"]],
    }
    out = str(tmp_path / "out.json")
    for command, variants in argvs.items():
        dests, read = set(), set()
        for argv in variants:
            ns = build_parser().parse_args([command] + argv + ["--out", out])
            dests |= set(vars(ns)) - {"command", "fn"}
            args = _Reads(ns)
            assert ns.fn(args) == 0, (command, argv)
            read |= args.read
        assert dests - read == set(), command


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


class TestParser:
    def test_main_calls_share_one_parser(self, monkeypatch, tmp_path):
        seen = []
        parse = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kw):
            seen.append(parser)
            return parse(parser, *args, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        out = str(tmp_path / "h.json")
        for _ in range(2):
            assert run(["homology", "--fixture", "Q", "--degree", "0",
                        "--out", out]) == 0
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_refusal_then_valid_call_keeps_exit_codes(self, tmp_path):
        out = tmp_path / "h.json"
        with pytest.raises(SystemExit) as exc:
            run(["homology", "--fixture", "Q", "--degree", "x"])
        assert exc.value.code == 2
        assert run(["homology", "--fixture", "Q", "--degree", "0",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 1
        assert run(["homology", "--fixture", "Q", "--degree", "0",
                    "--degree-cap", "0"]) == 2
        assert run(["homology", "--fixture", "Q", "--degree", "3",
                    "--degree-cap", "3"]) == 3


# ---------------------------------------------------------------------------
# The input contract under seeded structural mutation
# ---------------------------------------------------------------------------

FUZZ_ATOMS = ("1/0", "0/0", "1e400", "1e5000", float("nan"), True, False,
              [], [[]], [[[]]], 10 ** 300, "\u0661\u0662", "\u0663/\u0664")


def _nodes(tree, path=()):
    """The paths of every node of a JSON tree, the root () first."""
    yield path
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(payload, rng):
    """(a mutated deep copy of payload, what was done): one node replaced by
    an atom of FUZZ_ATOMS, deleted, duplicated in its list, wrapped in a
    list, or given an extra key."""
    tree = copy.deepcopy(payload)
    paths = list(_nodes(tree))
    op = rng.choice(("atom", "delete", "duplicate", "wrap", "add key"))

    def at(path):
        node = tree
        for key in path:
            node = node[key]
        return node

    if op == "delete":
        paths = paths[1:]
    elif op == "duplicate":
        paths = [q for q in paths if q and isinstance(at(q[:-1]), list)]
    elif op == "add key":
        paths = [q for q in paths if isinstance(at(q), dict)]
    path = rng.choice(paths)
    atom = copy.deepcopy(rng.choice(FUZZ_ATOMS))
    node = at(path)
    if op == "atom":
        node = atom
    elif op == "wrap":
        node = [node]
    elif op == "add key":
        node["fuzz"] = atom
    if path:
        parent, key = at(path[:-1]), path[-1]
        if op == "delete":
            del parent[key]
        elif op == "duplicate":
            parent.insert(key, copy.deepcopy(node))
        else:
            parent[key] = node
    else:
        tree = node
    return tree, (op, path, atom if op in ("atom", "add key") else None)


class TestInputFuzz:
    """Aim 3's input contract as a standing gate: seeded structural
    mutations of valid payloads of every input kind go through `main` in
    process, and each must return an exit code of the contract (0, 2, 3 or
    4), never raise."""

    SEED, CASES = 1729, 100

    @staticmethod
    def requests():
        """(kind, valid payload, argv with None for the payload's file)."""
        alg = make_fixture("dual")
        p = random_idempotent(alg, 2, 3)
        c0, c1 = random_connection(p, 4), random_connection(p, 5)
        pair = {"idempotent": idempotent_to_json(p),
                "theta0": _theta_to_json(c0.theta),
                "theta1": _theta_to_json(c1.theta)}
        kcs = ["kcs", "--fixture", "dual", "--kmax", "1", "--path", None]
        return (("algebra", algebra_to_json(alg),
                 ["homology", "--degree", "1", "--algebra", None]),
                ("connection", connection_to_json(c0),
                 ["chern", "--fixture", "dual", "--kmax", "1",
                  "--connection", None]),
                ("polynomial path", connection_to_json(straight_line(c0, c1)),
                 kcs),
                ("two-connection pair", pair, kcs))

    def test_mutated_payloads_exit_cleanly(self, tmp_path, capsys):
        rng = random.Random(self.SEED)
        f, out = tmp_path / "payload.json", str(tmp_path / "out.json")
        codes, escapes = {}, []
        for kind, payload, argv in self.requests():
            for _ in range(self.CASES):
                tree, what = _mutate(payload, rng)
                f.write_text(json.dumps(tree))
                try:
                    rc = main([str(f) if a is None else a for a in argv]
                              + ["--out", out])
                except Exception as exc:
                    escapes.append((kind, what, repr(exc)[:200]))
                    continue
                if type(rc) is not int or rc not in (0, 2, 3, 4):
                    escapes.append((kind, what, rc))
                codes[rc] = codes.get(rc, 0) + 1
        capsys.readouterr()
        assert escapes == []
        # the cases reach acceptance, parse errors and validation failures
        assert {0, 2, 3} <= set(codes), codes
