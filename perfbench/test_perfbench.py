"""Self-test of the benchmark: seeded inputs repeat byte for byte, every
oracle rejects a planted wrong result, host-speed scaling undoes a uniform
slowdown, and the span recorder restores every binding it replaced.

    python3 perfbench/test_perfbench.py       (also under python3 -O)
    python3 -m pytest perfbench/test_perfbench.py

Checks raise explicitly instead of using ``assert``, so ``-O`` keeps them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kchern import connections, transgression, uforms  # noqa: E402

SELFTEST_DIR = os.path.join(ROOT, ".bench_build", "perfbench-selftest")


def require(cond, message):
    if not cond:
        raise AssertionError(message)


def _workdir(name):
    path = os.path.join(SELFTEST_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _only(group, fixture):
    return [op for op in group if "/%s/" % fixture in op.key
            or op.key.split("/")[1] == fixture]


def _run(ops):
    tally = run.Tally()
    run.run_group(ops, tally)
    return tally


def test_same_seed_same_inputs():
    a = workloads.setup_homology(11, _workdir("a"))
    b = workloads.setup_homology(11, _workdir("b"))
    c = workloads.setup_homology(12, _workdir("c"))
    require(a.digest == b.digest, "same seed gave different tables")
    require(a.digest != c.digest, "another seed gave the same tables")
    for name in sorted(os.listdir(os.path.join(SELFTEST_DIR, "a"))):
        with open(os.path.join(SELFTEST_DIR, "a", name), "rb") as fa, \
                open(os.path.join(SELFTEST_DIR, "b", name), "rb") as fb:
            require(fa.read() == fb.read(), "%s differs" % name)
    for setup in (workloads.setup_transgression, workloads.setup_khat):
        first = setup(11, _workdir("d")).digest
        require(first == setup(11, _workdir("d")).digest,
                "%s inputs are not reproducible" % setup.__name__)


def test_homology_oracles():
    plan = workloads.setup_homology(3, _workdir("h"))
    ops = [op for op in plan.groups[0]
           if op.key.split("/")[1] in ("QxQ", "C2", "dense-x3-0")]
    require(_run(ops).failed == 0, "correct homology output was rejected")
    saved = workloads.REFERENCE_DIMS["QxQ"]
    workloads.REFERENCE_DIMS["QxQ"] = (2, 0, 1, 0, 2, 0)
    try:
        tally = _run(ops)
    finally:
        workloads.REFERENCE_DIMS["QxQ"] = saved
    require(tally.failed == 1, "a wrong reference dimension went unseen")


def test_transgression_oracles():
    plan = workloads.setup_transgression(3, _workdir("t"))
    ops = _only(plan.groups[1], "x3")
    require(_run(ops).failed == 0, "correct transgression was rejected")
    real = workloads.kcs
    calls = []

    def flipped(path, k_max):
        out = real(path, k_max)
        calls.append(1)
        if len(calls) == 1:
            out[0] = -out[0]
        return out

    workloads.kcs = flipped
    try:
        tally = _run(ops)
    finally:
        workloads.kcs = real
    # the flipped class fails its own check and the closed-form comparison
    require(tally.failed >= 2, "a sign-flipped KCS class went unseen")
    require(tally.failed / tally.attempted > 0, "failed_share stayed 0")


def test_khat_oracles():
    plan = workloads.setup_khat(3, _workdir("k"))
    ops = _only(plan.groups[1], "QxQ")
    require(_run(ops).failed == 0, "correct K-hat output was rejected")
    real = workloads.verify_kcs_equivalence

    def always_accept(*args):
        report = real(*args)
        report["accepted"] = True
        return report

    workloads.verify_kcs_equivalence = always_accept
    try:
        tally = _run(ops)
    finally:
        workloads.verify_kcs_equivalence = real
    require(tally.failed == 1, "accepting the planted perturbation "
                               "went unseen")

    def boom(*args):
        raise RuntimeError("planted")

    real_odd = workloads.odd_chern
    workloads.odd_chern = boom
    try:
        tally = _run(ops)
    finally:
        workloads.odd_chern = real_odd
    require(tally.failed == workloads.KHAT_ODD,
            "a raising op was not counted")


def test_fixed_request_list():
    """A run times a number of groups set by --seconds alone, however fast
    the calls return."""
    ok = workloads.Op("op", lambda results: 1, lambda out, results: True)
    plan = workloads.Plan([[ok, ok]] * 2, "", 1, groups_per_s=0.3)
    require(run.measure(plan, 10).attempted == 6, "wrong number of ops")
    require(run.measure(plan, 0.1).attempted == 2, "a run timed nothing")


def test_host_speed_scaling():
    """A stretch where the reference kernels ran twice as slow counts its
    ops at half their measured time."""
    times = [0.01] * 30 + [0.02] * 30
    slow = [1.0] * 30 + [2.0] * 30
    got = hostspeed.scaled(times, slow)
    require(all(abs(t - 0.01) < 1e-12 for t in got),
            "a uniform slowdown was not scaled away")
    sample = hostspeed.slowness()
    require(0 < sample < 100, "implausible slowness %r" % sample)


def test_recorder_restores_bindings():
    originals = (uforms.project_ab, transgression.project_ab,
                 connections.Mat.__mul__, workloads.kcs)
    plan = workloads.setup_transgression(5, _workdir("r"))
    rec = spans.Recorder()
    with rec:
        require(transgression.project_ab is not originals[1],
                "imported binding was not rebound")
        rec.active = True
        tally = _run(_only(plan.groups[0], "x3"))
        rec.active = False
    require(tally.failed == 0, "traced run failed its checks")
    require((uforms.project_ab, transgression.project_ab,
             connections.Mat.__mul__, workloads.kcs) == originals,
            "a binding was not restored")
    per_name, roots = rec.aggregate()
    require(per_name["transgression.kcs"][0] == 2, "kcs spans missing")
    self_total = sum(s for _, s in per_name.values())
    require(abs(self_total - roots) < 1e-6 * max(1.0, roots),
            "self times do not add up to the root spans")


def test_refuses_without_sources():
    bare = _workdir("bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            "ran without kchern sources")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
