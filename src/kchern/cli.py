"""Command-line interface.

Subcommands: algebra-check, homology, chern, kcs, verify.  All input and
output is JSON with rationals as "num/den" strings.  Exit codes: 0 success,
2 parse error, 3 validation failure, 4 property failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError, algebra_from_json
from .connections import (Connection, ConnectionError_, chern,
                          random_connection, random_idempotent)
from .exactmath import Q0, Q1, rat_from_str
from .fixtures import FIXTURE_NAMES, make_fixture
from .serialize import (abclass_to_json, connection_from_json, form_to_json,
                        path_from_json)
from .suites import SUITES, run_suite
from .transgression import kcs as kcs_forms
from .transgression import reverse_path, straight_line
from .uforms import (AbClass, DegreeCapError, FormError, ab_d, abelianization,
                     de_rham_homology, dimension)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PROPERTY = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc), EXIT_PARSE)
    except json.JSONDecodeError as exc:
        raise CliError("invalid JSON in %s: %s" % (path, exc), EXIT_PARSE)


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_algebra_payload(data):
    """Structural (parse-level) checks before semantic validation."""
    if not isinstance(data, dict) or "dim" not in data or "mul" not in data:
        raise CliError("algebra JSON must be an object with 'dim' and 'mul'",
                       EXIT_PARSE)
    dim = data["dim"]
    mul = data["mul"]
    if not isinstance(dim, int) or dim < 1:
        raise CliError("'dim' must be a positive integer", EXIT_PARSE)
    if not isinstance(mul, list) or len(mul) != dim:
        raise CliError("'mul' must be a dim x dim table", EXIT_PARSE)
    for row in mul:
        if not isinstance(row, list) or len(row) != dim:
            raise CliError("'mul' must be a dim x dim table", EXIT_PARSE)
        for entry in row:
            if not isinstance(entry, list) or len(entry) != dim:
                raise CliError("each product must be a length-dim vector",
                               EXIT_PARSE)
            for c in entry:
                try:
                    rat_from_str(c)
                except (ValueError, TypeError) as exc:
                    raise CliError("bad rational %r: %s" % (c, exc),
                                   EXIT_PARSE)


def _find_unit_index(data):
    """Look for a basis index acting as a two-sided unit in a raw table."""
    dim = data["dim"]
    mul = [[[rat_from_str(c) for c in entry] for entry in row]
           for row in data["mul"]]
    for u in range(dim):
        ok = True
        for j in range(dim):
            ej = [Q1 if k == j else Q0 for k in range(dim)]
            if mul[u][j] != ej or mul[j][u] != ej:
                ok = False
                break
        if ok:
            return u
    return None


def _resolve_algebra(args):
    if getattr(args, "fixture", None):
        return make_fixture(args.fixture, args.degree_cap)
    if getattr(args, "algebra", None):
        data = _load_json(args.algebra)
        _check_algebra_payload(data)
        return algebra_from_json(data, degree_cap=args.degree_cap)
    raise CliError("provide --fixture or --algebra", EXIT_PARSE)


def _legend(alg, n):
    ab = abelianization(alg, n)
    return [list(w) for w in ab.quotient_words]


def _class_json(cls: AbClass):
    return abclass_to_json(cls)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_algebra_check(args):
    data = _load_json(args.file)
    _check_algebra_payload(data)
    try:
        alg = algebra_from_json(data, degree_cap=args.degree_cap)
    except AlgebraError as exc:
        report = {"status": "fail", "message": str(exc)}
        if "unit is not basis element 0" in str(exc):
            u = _find_unit_index(data)
            if u is not None:
                report["hint"] = ("a two-sided unit exists at basis index %d;"
                                  " reorder the basis so it is element 0" % u)
        _emit(report, args.out)
        return EXIT_VALIDATION
    report = {
        "status": "pass",
        "dim": alg.dim,
        "names": list(alg.names),
        "form_dimensions": {str(n): dimension(alg, n)
                            for n in range(0, min(args.degree_cap, 6) + 1)},
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_homology(args):
    alg = _resolve_algebra(args)
    if args.degree + 1 > alg.degree_cap:
        raise CliError("H_%d needs degree %d, which exceeds cap %d" % (
            args.degree, args.degree + 1, alg.degree_cap), EXIT_VALIDATION)
    dim_h, reps = de_rham_homology(alg, args.degree)
    report = {
        "degree": args.degree,
        "dim": dim_h,
        "representatives": [form_to_json(r) for r in reps],
    }
    _emit(report, args.out)
    return EXIT_OK


def _load_connection(alg, args):
    if args.connection:
        return connection_from_json(alg, _load_json(args.connection))
    if args.seed is not None:
        p = random_idempotent(alg, args.size, args.seed)
        return random_connection(p, args.seed + 1)
    raise CliError("provide --connection FILE or --seed for a random one",
                   EXIT_PARSE)


def cmd_chern(args):
    alg = _resolve_algebra(args)
    conn = _load_connection(alg, args)
    classes = chern(conn, args.kmax)
    report = {
        "k_max": args.kmax,
        "classes": [
            {"k": k, "degree": 2 * k, "class": _class_json(cls),
             "legend": _legend(alg, 2 * k)}
            for k, cls in enumerate(classes)
        ],
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_kcs(args):
    alg = _resolve_algebra(args)
    data = _load_json(args.path)
    two_mode = "theta0" in data and "theta1" in data
    if two_mode:
        from .serialize import _theta_from_json, idempotent_from_json
        p = idempotent_from_json(alg, data["idempotent"])
        c0 = Connection(p, _theta_from_json(alg, data["theta0"]))
        c1 = Connection(p, _theta_from_json(alg, data["theta1"]))
        path = straight_line(c0, c1)
    else:
        path = path_from_json(alg, data)
    if args.reverse:
        path = reverse_path(path)
    classes = kcs_forms(path, args.kmax)
    report = {
        "k_max": args.kmax,
        "kcs": [
            {"k": k + 1, "degree": 2 * k + 1, "class": _class_json(cls),
             "legend": _legend(alg, 2 * k + 1)}
            for k, cls in enumerate(classes)
        ],
    }
    if two_mode:
        c_start = path.ev(0)
        c_end = path.ev(1)
        ch0 = chern(c_start, args.kmax)
        ch1 = chern(c_end, args.kmax)
        residuals = []
        for k in range(1, args.kmax + 1):
            resid = ab_d(classes[k - 1]) - (ch1[k] - ch0[k])
            residuals.append({"k": k, "zero": resid.is_zero()})
        report["transgression_residuals"] = residuals
        if not all(r["zero"] for r in residuals):
            _emit(report, args.out)
            return EXIT_PROPERTY
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args):
    fixtures = args.fixture if args.fixture else None
    report = run_suite(args.suite, args.seed, fixtures,
                       degree_cap=args.degree_cap, k_max=args.kmax)
    _emit(report, args.out)
    return EXIT_OK if report["status"] == "pass" else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, fixture=True):
    p.add_argument("--degree-cap", type=int, default=8, dest="degree_cap")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    if fixture:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--fixture", choices=FIXTURE_NAMES)
        group.add_argument("--algebra", help="algebra JSON file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kchern",
        description="Exact Chern character and Chern-Simons transgression "
                    "calculus for finite-dimensional rational algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra-check",
                       help="validate a structure-constant table")
    p.add_argument("file")
    _add_common(p, fixture=False)
    p.set_defaults(fn=cmd_algebra_check)

    p = sub.add_parser("homology", help="de Rham homology of the "
                                        "abelianized form complex")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("chern", help="Chern character classes of a "
                                     "connection")
    p.add_argument("--connection", help="connection JSON file")
    p.add_argument("--size", type=int, default=2,
                   help="matrix size for --seed random connections")
    _add_common(p)
    p.set_defaults(fn=cmd_chern)

    p = sub.add_parser("kcs", help="Chern-Simons transgression forms of a "
                                   "path of connections")
    p.add_argument("--path", required=True,
                   help="path JSON file (polynomial path, or a two-"
                        "connection payload with theta0/theta1)")
    p.add_argument("--reverse", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_kcs)

    p = sub.add_parser("verify", help="run a property-verification suite "
                                      "on builtin fixtures")
    p.add_argument("--suite", required=True,
                   choices=SUITES + ("all",))
    p.add_argument("--fixture", action="append", choices=FIXTURE_NAMES,
                   help="restrict to a fixture (repeatable)")
    p.add_argument("--degree-cap", type=int, default=8, dest="degree_cap")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except DegreeCapError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (AlgebraError, ConnectionError_, FormError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, ValueError, TypeError) as exc:
        print("error: malformed input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
