"""Command-line interface.

Subcommands: algebra-check, homology, chern, kcs, verify.  All input and
output is JSON with rationals as "num/den" strings.  Exit codes: 0 success,
2 parse error, 3 validation failure, 4 property failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import Algebra, AlgebraError, table_from_json, unit_index
from .connections import (ConnectionError_, chern, random_connection,
                          random_idempotent)
from .fixtures import FIXTURE_NAMES, make_fixture
from .serialize import (abclass_to_json, connection_from_json, form_to_json,
                        is_connection_pair, path_from_json)
from .suites import SUITES, run_suite
from .transgression import kcs as kcs_forms
from .transgression import reverse_path
from .uforms import (DegreeCapError, FormError, ab_d, abelianization,
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
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (out_path, exc),
                           EXIT_PARSE)
    else:
        print(text)


def _load_table(path):
    """The parsed (mul, names) of an algebra file.  Any fault so far is a
    parse error; Algebra(mul, ...) then validates what parsed."""
    data = _load_json(path)
    try:
        return table_from_json(data)
    except (ValueError, TypeError) as exc:
        raise CliError(exc, EXIT_PARSE)


def _resolve_algebra(args):
    if args.fixture:
        return make_fixture(args.fixture, args.degree_cap)
    if args.algebra:
        mul, names = _load_table(args.algebra)
        return Algebra(mul, names=names, degree_cap=args.degree_cap)
    raise CliError("provide --fixture or --algebra", EXIT_PARSE)


def _legend(alg, n):
    ab = abelianization(alg, n)
    return [list(w) for w in ab.quotient_words]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_algebra_check(args):
    mul, names = _load_table(args.file)
    try:
        alg = Algebra(mul, names=names, degree_cap=args.degree_cap)
    except AlgebraError as exc:
        report = {"status": "fail", "message": str(exc)}
        u = unit_index(mul)
        if u:
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
            {"k": k, "degree": 2 * k, "class": abclass_to_json(cls),
             "legend": _legend(alg, 2 * k)}
            for k, cls in enumerate(classes)
        ],
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_kcs(args):
    alg = _resolve_algebra(args)
    data = _load_json(args.path)
    path = path_from_json(alg, data)
    if args.reverse:
        path = reverse_path(path)
    classes = kcs_forms(path, args.kmax)
    report = {
        "k_max": args.kmax,
        "kcs": [
            {"k": k + 1, "degree": 2 * k + 1, "class": abclass_to_json(cls),
             "legend": _legend(alg, 2 * k + 1)}
            for k, cls in enumerate(classes)
        ],
    }
    if is_connection_pair(data):
        ch0, ch1 = (chern(path.restrict(0, t), args.kmax) for t in (0, 1))
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

def _add_common(p, kmax=True, algebra=True):
    p.add_argument("--degree-cap", type=int, default=8, dest="degree_cap")
    if kmax:
        p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--out", default=None)
    if algebra:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--fixture", choices=FIXTURE_NAMES)
        group.add_argument("--algebra", help="algebra JSON file")


@functools.cache
def build_parser():
    """The argument parser, built once per process: building it costs more
    than a small request; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kchern",
        description="Exact Chern character and Chern-Simons transgression "
                    "calculus for finite-dimensional rational algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra-check",
                       help="validate a structure-constant table")
    p.add_argument("file")
    _add_common(p, kmax=False, algebra=False)
    p.set_defaults(fn=cmd_algebra_check)

    p = sub.add_parser("homology", help="de Rham homology of the "
                                        "abelianized form complex")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p, kmax=False)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("chern", help="Chern character classes of a "
                                     "connection")
    p.add_argument("--connection", help="connection JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of a random connection")
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
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, algebra=False)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.degree_cap < 1:
            raise CliError("--degree-cap must be at least 1", EXIT_PARSE)
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (AlgebraError, ConnectionError_, DegreeCapError, FormError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, ValueError, TypeError) as exc:
        print("error: malformed input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
