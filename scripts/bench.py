"""Write a BENCH_<PR>.json: the benchmark of a change against its parent.

    python3 scripts/bench.py --parent REV --pr N [--seed S]
                             [--change "one line"] [--claim W:METRIC]

Run from the root of the repository.  The parent is exported with
``git archive REV`` into ``.bench_build/parent/``, and the change, this
checkout as it stands (the files git tracks or would add, as they are on
disk), is copied beside it into ``.bench_build/change/``, so both sides run
from trees at the same depth.  For each workload,
``perfbench/run.py --trace 0`` runs for BENCHMARK.json's ``run_seconds`` in
PAIRS alternating pairs, one process at a time: even pairs start with the
parent, odd pairs with the change.  Per metric the file holds both sides'
runs, medians and quartiles (``statistics.quantiles(n=4,
method="inclusive")``), the parent's interquartile range, the relative
change of the medians and the number of pairs the change wins (ties count
for neither).  It also holds, per side, the wall time of ``kchern verify
--suite all --seed 7`` (VERIFY_RUNS alternating runs); per side and per
run, the sha256 of that report, of the cold ``kchern homology`` reports of
the six fixtures at n = 0..HOMOLOGY_DEGREE and of M2 at n = M2_DEGREES,
and of the L3/L4 reports: ``kchern chern --seed s --kmax 3`` (``--kmax 2``
on M2) for s = 0..CHERN_SEEDS - 1 and ``kchern kcs --path P``, forward
and ``--reverse``, on the six fixtures, each with every ``time_ms``
removed (the digest criterion 9 pins), of the K-hat verdicts of
KHAT_FIXTURES (``KHAT_REPORTS``: a twisted witness with a matched and a
planted omega, a chain of links never verified, a chain of links verified
first and a chain of chains, so that a chain's KCS side, however it is
reached, is compared between the trees), and of the homology of graded
algebras that no fixture is (``GRADED_REPORTS``); and ``outputs_identical``,
whether every run of both sides gave the same five digests.  The kcs
payloads P are two-connection paths that the parent tree writes once under
``.bench_build/payloads/`` and both sides read: the connections
``random_connection(random_idempotent(A, 2, s), 10 + s)`` and
``20 + s`` for s = 0..PAYLOAD_SEEDS - 1, and one more path per fixture,
with s = PAYLOAD_SEEDS and the second theta scaled by 3/7, so that the
kcs reports cover non-integral coefficients too.  It also holds the wall
time and exit status of one Tier-1 pytest run and of one under
``python -O`` (the parent first), the ``wc -l src/kchern/*.py`` total,
the code lines of those modules, in total and per module (lines that are
not blank, not comment-only and not inside a module, class or function
docstring, which ``ast`` finds), the homology ladder of ROADMAP's north
star: cold runs of
``kchern homology --fixture M2 --degree n --degree-cap max(8, n + 1)`` for
n = 0, 1, ... until a rung fails or passes LADDER_LIMIT seconds of raw wall
time, where it is killed, the two sides' rungs of one degree run one after
the other (the parent first at even n), with each rung's raw wall time,
the host slowness read just before it, the wall time divided by that
slowness (``scaled_seconds``), exit status and peak RSS (the
``ru_maxrss`` that ``os.wait4`` reports for that child alone) and the
top, the highest n that finished in time; the median of each per-layer
metric over TRACE_RUNS alternating ``run.py --trace 1`` runs per side at
TRACE_SEED for TRACE_SECONDS, with the side's min-max spread beside it
(``<side>_spread``); and the host's slowness (``perfbench/hostspeed.py``)
read before and after the runs.
"""

from __future__ import annotations

import argparse
import ast
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("khat", "transgression", "homology")
PAIRS = 10
TRACE_SEED, TRACE_SECONDS, TRACE_RUNS = 7, 10, 5
VERIFY_RUNS = 3
FIXTURES = ("Q", "dual", "x3", "QxQ", "M2", "C2")
HOMOLOGY_DEGREE = 5
M2_DEGREES = (4, 5, 6, 7, 8)
CHERN_SEEDS, PAYLOAD_SEEDS = 4, 3
KHAT_FIXTURES = ("dual", "x3", "M2", "QxQ")
LADDER_LIMIT = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent")
    parser.add_argument("--pr", required=True, type=int,
                        help="number N of the BENCH_N.json to write")
    parser.add_argument("--seed", type=int, default=1501)
    parser.add_argument("--change", default="",
                        help="one line saying what the change does")
    parser.add_argument("--claim", default=None,
                        help="the claimed metric, as WORKLOAD:METRIC")
    return parser.parse_args(argv)


def _fresh(side: str) -> str:
    """An empty .bench_build/<side>/; its path."""
    path = os.path.join(BUILD, side)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def export(rev: str) -> str:
    """A fresh `git archive` of rev in .bench_build/parent/; its path."""
    path = _fresh("parent")
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(path)
    return path


def export_worktree() -> str:
    """A fresh copy in .bench_build/change/ of the files of this checkout
    that `git add -A` would commit, as they are on disk; its path."""
    path = _fresh("change")
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in names:
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):
            dst = os.path.join(path, name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return path


def run_json(tree: str, args) -> dict:
    """The JSON line that `perfbench/run.py args` prints in tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit("run.py %s failed in %s:\n%s"
                         % (" ".join(args), tree, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def strip_timing(obj):
    """obj without its `time_ms` keys, at every depth."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "time_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def digest(report) -> str:
    """The sha256 of a timing-stripped report, as criterion 9 pins it."""
    return hashlib.sha256(json.dumps(strip_timing(report), sort_keys=True)
                          .encode()).hexdigest()


def verify_run(tree: str, who: str) -> tuple:
    """Wall time of `kchern verify --suite all --seed 7` in tree, and the
    digest of its report."""
    out = os.path.join(BUILD, "verify-all-%s.json" % who)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "kchern.cli", "verify", "--suite",
                    "all", "--seed", "7", "--out", out], cwd=tree, env=env,
                   check=True, capture_output=True)
    seconds = round(time.perf_counter() - t0, 3)
    with open(out) as fh:
        return seconds, digest(json.load(fh))


def cli_digest(tree: str, requests) -> str:
    """The sha256 of the digests of the `kchern` reports of `requests`,
    lists of CLI arguments, run in that order in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    digests = []
    for argv in requests:
        proc = subprocess.run([sys.executable, "-m", "kchern.cli", *argv],
                              cwd=tree, env=env, check=True,
                              capture_output=True, text=True)
        digests.append(digest(json.loads(proc.stdout)))
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def homology_digest(tree: str) -> str:
    """The digest of the cold `kchern homology` reports of the six fixtures
    at degrees 0..HOMOLOGY_DEGREE, in that order, then of M2 at the degrees
    M2_DEGREES, each with ``--degree-cap max(8, n + 1)`` as the ladder runs
    it."""
    requests = [(fixture, n) for fixture in FIXTURES
                for n in range(HOMOLOGY_DEGREE + 1)]
    return cli_digest(tree, [
        ["homology", "--fixture", fixture, "--degree", str(n),
         "--degree-cap", str(max(8, n + 1))]
        for fixture, n in requests + [("M2", n) for n in M2_DEGREES]])


# Run in the parent tree: one two-connection path payload per fixture and
# seed, {"idempotent", "theta0", "theta1"} as `kchern kcs --path` reads it,
# and per fixture one more, <fixture>-fraction, whose theta1 is scaled by 3/7.
PAYLOAD_WRITER = """
import json, os, sys
from fractions import Fraction
from kchern.connections import (Connection, random_connection,
                                random_idempotent)
from kchern.fixtures import make_fixture
from kchern.serialize import connection_to_json
out, seeds, fixtures = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
for name in fixtures:
    alg = make_fixture(name)
    for s in range(seeds + 1):
        p = random_idempotent(alg, 2, s)
        c0, c1 = (random_connection(p, seed) for seed in (10 + s, 20 + s))
        if s == seeds:
            c1 = Connection(p, c1.theta.map_scalars(
                lambda q: q * Fraction(3, 7)))
        c0, c1 = connection_to_json(c0), connection_to_json(c1)
        fname = "%s-%s.json" % (name, "fraction" if s == seeds else s)
        with open(os.path.join(out, fname), "w") as fh:
            json.dump({"idempotent": c0["idempotent"],
                       "theta0": c0["theta"], "theta1": c1["theta"]}, fh)
"""


def write_payloads(tree: str) -> list:
    """The paths of the kcs payloads, written once by the code in tree."""
    out = os.path.join(BUILD, "payloads")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-c", PAYLOAD_WRITER, out,
                    str(PAYLOAD_SEEDS), *FIXTURES], cwd=tree, env=env,
                   check=True, capture_output=True)
    return [os.path.join(out, "%s-%s.json" % (fixture, s))
            for fixture in FIXTURES
            for s in [*range(PAYLOAD_SEEDS), "fraction"]]


def transgression_digest(tree: str, payloads) -> str:
    """The digest of the L3/L4 reports: `kchern chern --seed s` on the six
    fixtures for s = 0..CHERN_SEEDS - 1 (k_max 3, and 2 on M2), then
    `kchern kcs --path P` for each payload, forward and reversed."""
    requests = [["chern", "--fixture", fixture, "--seed", str(s), "--kmax",
                 "2" if fixture == "M2" else "3"]
                for fixture in FIXTURES for s in range(CHERN_SEEDS)]
    for path in payloads:
        fixture = os.path.basename(path).rsplit("-", 1)[0]
        for extra in ([], ["--reverse"]):
            requests.append(["kcs", "--fixture", fixture, "--path", path,
                             *extra])
    return cli_digest(tree, requests)


# Run in each tree: per fixture, the seeded generators and witnesses of
# tests/test_suites.py's `_khat_round`, verified as verify, planted (the
# unit 0-form added to omega1), verify again on the same witness, then the
# chain; then two more trivially witnessed links g0 ~ h1 ~ h2, verified,
# the chain of those verified links, and a chain of a new chain of them and
# a third link h2 ~ h3 (so a chain's KCS side is digested however it is
# reached: from links never verified, verified, or a chain); prints the
# list of verdicts, each with accepted and, per degree, exact and the
# primitive's terms, as JSON.
KHAT_REPORTS = """
import json, random, sys
from kchern.connections import (ModuleIso, direct_sum, grassmann, pullback,
                                random_automorphism, random_connection,
                                random_idempotent)
from kchern.fixtures import make_fixture
from kchern.khat import (KCSWitness, KHatGen, chain_witnesses,
                         verify_kcs_equivalence)
from kchern.serialize import form_to_json
from kchern.transgression import kcs_between
from kchern.uforms import AbClass, UForm


def total(classes, alg):
    out = AbClass(alg)
    for cls in classes:
        out = out + cls
    return out


def trivial(g, rng):
    stab_p = random_idempotent(g.algebra, 1, rng)
    stab = grassmann(stab_p)
    return KCSWitness(stab_p, stab,
                      ModuleIso.identity(direct_sum(g.conn, stab).p))


verdicts = []
for name in sys.argv[1:]:
    alg = make_fixture(name)
    rng = random.Random("khat-round/" + name)
    p = random_idempotent(alg, 2, rng)
    d0, d1, d2 = (random_connection(p, rng) for _ in range(3))
    stab_p = random_idempotent(alg, 1, rng)
    stab = random_connection(stab_p, rng)
    phi = random_automorphism(direct_sum(d1, stab).p, rng)
    twisted = total(kcs_between(
        direct_sum(d0, stab), pullback(direct_sum(d1, stab), phi), 2), alg)
    om01 = total(kcs_between(d0, d1, 2), alg)
    om12 = total(kcs_between(d1, d2, 2), alg)
    g0 = KHatGen(p, d0, UForm.zero(alg))
    g1 = KHatGen(p, d1, (-twisted).lift())
    g1_bad = KHatGen(p, d1, g1.omega + UForm.unit(alg))
    h1 = KHatGen(p, d1, (-om01).lift())
    h2 = KHatGen(p, d2, (-om01 - om12).lift())
    w = KCSWitness(stab_p, stab, phi)
    chain = chain_witnesses(h1, trivial(g0, rng), trivial(h1, rng))
    d3 = random_connection(p, rng)
    om23 = total(kcs_between(d2, d3, 2), alg)
    h3 = KHatGen(p, d3, (-om01 - om12 - om23).lift())
    w01, w12, w23 = trivial(g0, rng), trivial(h1, rng), trivial(h2, rng)
    after = chain_witnesses(h1, w01, w12)
    of_chains = chain_witnesses(h2, chain_witnesses(h1, w01, w12), w23)
    for a, b, wit in ((g0, g1, w), (g0, g1_bad, w), (g0, g1, w),
                      (g0, h2, chain), (g0, h1, w01), (h1, h2, w12),
                      (g0, h2, after), (g0, h3, of_chains)):
        rep = verify_kcs_equivalence(a, b, wit, 2)
        verdicts.append({"fixture": name, "accepted": rep["accepted"],
                         "degrees": {str(n): {
                             "exact": e["exact"],
                             "primitive": form_to_json(e["primitive"])
                             if "primitive" in e else None}
                             for n, e in rep["degrees"].items()}})
print(json.dumps(verdicts))
"""


def khat_digest(tree: str) -> str:
    """The digest of the K-hat verdicts that KHAT_REPORTS prints in tree
    on KHAT_FIXTURES."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", KHAT_REPORTS,
                           *KHAT_FIXTURES], cwd=tree, env=env, check=True,
                          capture_output=True, text=True)
    return digest(json.loads(proc.stdout))


# Run in each tree: `de_rham_homology` on graded algebras that no fixture
# is, x3 x dual and dual x dual for n <= 4, M3 for n <= 2 and Q[x]/(x^4)
# for n <= 4; prints per algebra and degree the dimension and the
# representatives' terms, as JSON.
GRADED_REPORTS = """
import json
from kchern.algebra import (make_matrix_algebra, make_product,
                            make_truncated_poly)
from kchern.fixtures import make_fixture
from kchern.serialize import form_to_json
from kchern.uforms import de_rham_homology

x3, dual = make_fixture("x3"), make_fixture("dual")
cases = (("x3xdual", make_product(x3, dual), 4),
         ("dualxdual", make_product(dual, dual), 4),
         ("M3", make_matrix_algebra(3), 2),
         ("Q[x]/(x^4)", make_truncated_poly(4), 4))
reports = []
for name, alg, top in cases:
    for n in range(top + 1):
        dim, reps = de_rham_homology(alg, n)
        reports.append({"algebra": name, "degree": n, "dimension": dim,
                        "representatives": [form_to_json(r) for r in reps]})
print(json.dumps(reports))
"""


def graded_digest(tree: str) -> str:
    """The digest of the homology reports that GRADED_REPORTS prints in
    tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", GRADED_REPORTS], cwd=tree,
                          env=env, check=True, capture_output=True, text=True)
    return digest(json.loads(proc.stdout))


def tier1(tree: str, flags=()) -> dict:
    """Wall time and exit status of the Tier-1 pytest run in tree, with the
    interpreter flags `flags`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"], cwd=tree,
                          env=env, capture_output=True)
    return {"seconds": round(time.perf_counter() - t0, 3),
            "exit": proc.returncode}


def src_lines(tree: str) -> int:
    """The `wc -l src/kchern/*.py` total in tree: the newlines of the
    package's modules."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "kchern", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def src_code_lines(tree: str) -> dict:
    """The code lines of src/kchern/*.py in tree, in total and by module: the
    lines that are not blank, not comment-only and not inside a module,
    class or function docstring."""
    modules = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "kchern",
                                              "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        docs = set()
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if (isinstance(first, ast.Expr)
                        and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docs.update(range(first.lineno, first.end_lineno + 1))
        modules[os.path.basename(path)] = sum(
            1 for i, line in enumerate(text.splitlines(), 1)
            if i not in docs and line.strip()
            and not line.lstrip().startswith("#"))
    return {"total": sum(modules.values()), "modules": modules}


def rung(tree: str, n: int) -> dict:
    """Wall time, host slowness, scaled time, exit status and peak RSS of
    one cold `kchern homology` run at degree n of M2 in tree, killed at
    LADDER_LIMIT seconds of raw wall time; the slowness is read just before
    the run.  The child is watched through a pidfd and reaped with
    `os.wait4`, whose rusage covers that child alone (RUSAGE_CHILDREN would
    also count the earlier runs); Linux gives `ru_maxrss` in KiB."""
    slow = slowness()
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "kchern.cli", "homology",
                             "--fixture", "M2", "--degree", str(n),
                             "--degree-cap", str(max(8, n + 1))], cwd=tree,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    pidfd, ready = os.pidfd_open(proc.pid), []
    try:
        ready = select.select([pidfd], [], [], LADDER_LIMIT)[0]
    finally:
        os.close(pidfd)
        if not ready:
            proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"degree": n, "seconds": round(seconds, 3), "slowness": slow,
            "scaled_seconds": round(seconds / slow, 3),
            "exit": proc.returncode,
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}


def ladders(trees: dict) -> dict:
    """Per side, the rungs n = 0, 1, ... of the M2 homology ladder in its
    tree, up to the first that fails or passes LADDER_LIMIT raw seconds,
    and the top: the highest n that finished with status 0 in time (None
    if none did).  The sides' rungs of one degree run one after the other,
    in the order `alternating(n)` gives, while both sides climb."""
    out = {who: {"rungs": [], "top": None} for who in trees}
    climbing, n = set(trees), 0
    while climbing:
        for who in alternating(n):
            if who in climbing:
                got = rung(trees[who], n)
                out[who]["rungs"].append(got)
                if got["exit"] or got["seconds"] > LADDER_LIMIT:
                    climbing.discard(who)
                else:
                    out[who]["top"] = n
        n += 1
    return out


def alternating(k: int):
    """The order of the sides in the k-th pair: the parent first when k is
    even."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def slowness(samples: int = 15) -> float:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import hostspeed
    return round(statistics.median(hostspeed.slowness()
                                   for _ in range(samples)), 4)


def summary(better: str, parent: list, change: list) -> dict:
    def quartiles(xs):
        return [round(q, 4) for q in statistics.quantiles(
            xs, n=4, method="inclusive")] if len(xs) > 1 else [xs[0]] * 3

    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    qp = quartiles(parent)
    return {
        "better": better,
        "parent": round(mp, 4),
        "change": round(mc, 4),
        "parent_quartiles": qp,
        "change_quartiles": quartiles(change),
        "parent_iqr": round(qp[2] - qp[0], 4),
        "change_wins": sum(1 for p, c in zip(parent, change)
                           if sign * (c - p) > 0),
        "median_change": round((mc - mp) / mp, 4) if mp else 0.0,
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = {"parent": export(args.parent), "change": export_worktree()}
    before = slowness()
    command = ["--seed", str(args.seed), "--seconds",
               str(bench["run_seconds"]), "--trace", "0"]
    runs = {}
    for workload in WORKLOADS:
        got = {"parent": [], "change": []}
        for k in range(PAIRS):
            for who in alternating(k):
                result = run_json(trees[who], ["--workload", workload]
                                  + command)
                got[who].append(result)
                print("%s pair %d %s: %s" % (workload, k, who, {
                    m: round(v["value"], 4)
                    for m, v in result["metrics"].items()}), flush=True)
        runs[workload] = {
            "pairs": PAIRS,
            "seeds": [args.seed] * PAIRS,
            "failed": {who: [r["failed"] for r in got[who]] for who in got},
            "metrics": {m: summary(better[m], *(
                [r["metrics"][m]["value"] for r in got[who]]
                for who in ("parent", "change"))) for m in better},
        }
    verify = {"parent": [], "change": []}
    digests = {"verify": {"parent": [], "change": []},
               "homology": {"parent": [], "change": []},
               "transgression": {"parent": [], "change": []},
               "khat": {"parent": [], "change": []},
               "graded": {"parent": [], "change": []}}
    payloads = write_payloads(trees["parent"])
    for k in range(VERIFY_RUNS):
        for who in alternating(k):
            seconds, verify_digest = verify_run(trees[who], who)
            verify[who].append(seconds)
            digests["verify"][who].append(verify_digest)
            digests["homology"][who].append(homology_digest(trees[who]))
            digests["transgression"][who].append(
                transgression_digest(trees[who], payloads))
            digests["khat"][who].append(khat_digest(trees[who]))
            digests["graded"][who].append(graded_digest(trees[who]))
    tier1_run = {who: tier1(trees[who]) for who in alternating(0)}
    tier1_opt = {who: tier1(trees[who], ["-O"]) for who in alternating(0)}
    ladder_run = ladders(trees)
    trace = {}
    for workload in runs:
        got = {"parent": [], "change": []}
        for k in range(TRACE_RUNS):
            for who in alternating(k):
                got[who].append(run_json(trees[who], [
                    "--workload", workload, "--seed", str(TRACE_SEED),
                    "--seconds", str(TRACE_SECONDS), "--trace",
                    "1"])["metrics"])
        trace[workload] = {}
        for m in got["parent"][0]:
            row = trace[workload][m] = {}
            for who in got:
                xs = [r[m]["value"] for r in got[who]]
                row[who] = round(statistics.median(xs), 6)
                row[who + "_spread"] = [round(min(xs), 6), round(max(xs), 6)]
    report = {
        "change": args.change,
        "parent": args.parent,
        "host": "%d cores, Python %s" % (os.cpu_count(),
                                         platform.python_version()),
        "command": "python3 perfbench/run.py --workload W " + " ".join(
            command),
        "method": __doc__.split("\n\n", 2)[2].strip().replace("\n", " "),
        "claim": args.claim,
        "runs": runs,
        "hostspeed_slowness": {"before": before, "after": slowness()},
        "verify_all_seed7_s": {who: {"runs": xs,
                                     "median": statistics.median(xs)}
                               for who, xs in verify.items()},
        "output_sha256": {"commands": {
            "verify": "kchern verify --suite all --seed 7",
            "homology": "kchern homology --fixture F --degree n, F in %s, "
                        "n = 0..%d, then F = M2, n = %s"
                        % (", ".join(FIXTURES), HOMOLOGY_DEGREE,
                           ", ".join(map(str, M2_DEGREES))),
            "transgression": "kchern chern --fixture F --seed s --kmax 3 "
                             "(2 on M2), s = 0..%d, then kchern kcs "
                             "--fixture F --path P [--reverse], P the "
                             "payloads of seeds 0..%d and the 3/7-scaled "
                             "one, F in %s"
                             % (CHERN_SEEDS - 1, PAYLOAD_SEEDS - 1,
                                ", ".join(FIXTURES)),
            "khat": "verify, planted, verify again and verify_chain on the "
                    "seeded data of tests/test_suites.py::_khat_round, then "
                    "two verified links, their chain and a chain of that "
                    "chain and a third link, on %s"
                    % ", ".join(KHAT_FIXTURES),
            "graded": "de_rham_homology on x3 x dual and dual x dual, n "
                      "<= 4, M3, n <= 2, and Q[x]/(x^4), n <= 4"},
            **digests},
        "outputs_identical": all(len({d for xs in runs.values() for d in xs})
                                 == 1 for runs in digests.values()),
        "tier1_pytest": tier1_run,
        "tier1_pytest_O": tier1_opt,
        "src_lines": {who: src_lines(trees[who]) for who in trees},
        "src_code_lines": {who: src_code_lines(trees[who]) for who in trees},
        "ladder": {"command": "kchern homology --fixture M2 --degree n "
                   "--degree-cap max(8, n + 1)", "limit_s": LADDER_LIMIT,
                   **ladder_run},
        "trace": {"seed": TRACE_SEED, "seconds": TRACE_SECONDS,
                  "runs": TRACE_RUNS, "per_pass": trace},
    }
    path = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
