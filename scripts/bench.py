"""Write a BENCH_<PR>.json: the benchmark of a change against its parent.

    python3 scripts/bench.py --parent REV --pr N [--seed S]
                             [--change "one line"] [--claim W:METRIC]

Run from the root of the repository.  The parent is exported with
``git archive REV`` into ``.bench_build/parent-REV/``; the change is this
checkout as it stands.  For each workload, ``perfbench/run.py --trace 0``
runs for BENCHMARK.json's ``run_seconds`` in PAIRS alternating pairs, one
process at a time: even pairs start with the parent, odd pairs with the
change.  Per metric the file holds both sides'
runs, medians and quartiles (``statistics.quantiles(n=4,
method="inclusive")``), the parent's interquartile range, the relative
change of the medians and the number of pairs the change wins (ties count
for neither).  It also holds, per side, the wall time of
``kchern verify --suite all --seed 7`` (VERIFY_RUNS alternating runs), the
wall time and exit status of one Tier-1 pytest run and of one under
``python -O`` (the parent first), the ``wc -l src/kchern/*.py`` total, the
homology ladder of ROADMAP's north star (the parent first): cold runs of
``kchern homology --fixture M2 --degree n --degree-cap max(8, n + 1)`` for
n = 0, 1, ... until a rung fails or passes LADDER_LIMIT seconds, where it
is killed, with each rung's wall time, exit status and peak RSS (the
``ru_maxrss`` that ``os.wait4`` reports for that child alone) and the top,
the highest n that finished in time; the median of each per-layer metric
over TRACE_RUNS alternating ``run.py --trace 1`` runs per side at
TRACE_SEED for TRACE_SECONDS; and the host's slowness
(``perfbench/hostspeed.py``) read before and after the runs.
"""

from __future__ import annotations

import argparse
import glob
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
TRACE_SEED, TRACE_SECONDS, TRACE_RUNS = 7, 10, 3
VERIFY_RUNS = 3
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


def export(rev: str) -> str:
    """A fresh `git archive` of rev under .bench_build/; its path."""
    path = os.path.join(BUILD, "parent-%s" % rev)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(path)
    return path


def run_json(tree: str, args) -> dict:
    """The JSON line that `perfbench/run.py args` prints in tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit("run.py %s failed in %s:\n%s"
                         % (" ".join(args), tree, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify_seconds(tree: str) -> float:
    out = os.path.join(BUILD, "verify-all.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "kchern.cli", "verify", "--suite",
                    "all", "--seed", "7", "--out", out], cwd=tree, env=env,
                   check=True, capture_output=True)
    return round(time.perf_counter() - t0, 3)


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


def rung(tree: str, n: int) -> dict:
    """Wall time, exit status and peak RSS of one cold `kchern homology`
    run at degree n of M2 in tree, killed at LADDER_LIMIT seconds.  The
    child is watched through a pidfd and reaped with `os.wait4`, whose
    rusage covers that child alone (RUSAGE_CHILDREN would also count the
    earlier runs); Linux gives `ru_maxrss` in KiB."""
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
    return {"degree": n, "seconds": round(seconds, 3),
            "exit": proc.returncode,
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}


def ladder(tree: str) -> dict:
    """The rungs n = 0, 1, ... of the M2 homology ladder in tree, up to the
    first that fails or passes LADDER_LIMIT seconds, and the top: the
    highest n that finished with status 0 in time (None if none did)."""
    rungs, top = [], None
    for n in itertools.count():
        rungs.append(rung(tree, n))
        if rungs[-1]["exit"] or rungs[-1]["seconds"] > LADDER_LIMIT:
            break
        top = n
    return {"rungs": rungs, "top": top}


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
    trees = {"parent": export(args.parent), "change": ROOT}
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
    for k in range(VERIFY_RUNS):
        for who in alternating(k):
            verify[who].append(verify_seconds(trees[who]))
    tier1_run = {who: tier1(trees[who]) for who in alternating(0)}
    tier1_opt = {who: tier1(trees[who], ["-O"]) for who in alternating(0)}
    ladder_run = {who: ladder(trees[who]) for who in alternating(0)}
    trace = {}
    for workload in runs:
        got = {"parent": [], "change": []}
        for k in range(TRACE_RUNS):
            for who in alternating(k):
                got[who].append(run_json(trees[who], [
                    "--workload", workload, "--seed", str(TRACE_SEED),
                    "--seconds", str(TRACE_SECONDS), "--trace",
                    "1"])["metrics"])
        trace[workload] = {m: {who: round(statistics.median(
            r[m]["value"] for r in got[who]), 6) for who in got}
            for m in got["parent"][0]}
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
        "tier1_pytest": tier1_run,
        "tier1_pytest_O": tier1_opt,
        "src_lines": {who: src_lines(trees[who]) for who in trees},
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
