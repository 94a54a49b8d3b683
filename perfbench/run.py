"""kchern benchmark runner.

    python3 perfbench/run.py --workload {homology,transgression,khat}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; kchern is imported from ``src/``.
One client, closed loop: each request is one call into kchern's public API,
timed from outside, and the next starts only after the previous returned and
its output was checked exactly.  Set-up (import, algebra construction,
seeded input generation, warm-up) is repeated from a fresh import and its
median reported.

``--trace 0`` runs a fixed list of whole request groups and reports the
end-to-end metrics, with times scaled to a reference host speed (see
hostspeed.py).  The list's length depends on ``--seconds`` and the workload
only, never on how fast the calls return, so two versions of kchern time
the same requests; it is sized so that the code this benchmark was written
against takes about ``--seconds`` on the host described in README.md.
``--trace 1`` repeats passes over a fixed prefix of the request groups, each
group untraced and then traced, until ``--seconds`` have passed, and reports
per-layer metrics, unscaled; the spans of the first traced pass are written
under ``.bench_build/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("homology", "transgression", "khat")
# Set-ups per --trace 0 run, whose median is setup_s: more where set-up is
# short and its timing noisiest.
SETUP_REPEATS = {"homology": 7, "transgression": 3, "khat": 3}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Outcome of every attempted op; latencies in seconds, and when
    calibrating, the host's slowness sampled after each op."""

    def __init__(self):
        self.latencies = []
        self.slow = []
        self.failed = 0
        self.failures = []

    @property
    def attempted(self):
        return len(self.latencies)

    def fail(self, op, reason):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append("%s: %s" % (op.key, reason))


def run_group(group, tally, probe=None, calibrate=False):
    """Run one group of ops in order; time each call, then check it.

    `probe`, if given, is told when each call begins and ends, so that the
    traced pass records the calls only, not the checks.  With `calibrate`
    the host's slowness is sampled after each call."""
    results = {}
    for op in group:
        if probe is not None:
            probe.begin()
        error = None
        t0 = time.perf_counter()
        try:
            out = op.call(results)
        except Exception:
            error = traceback.format_exc(limit=1).strip()
        tally.latencies.append(time.perf_counter() - t0)
        if probe is not None:
            probe.end()
        if calibrate:
            tally.slow.append(hostspeed.slowness())
        if error is not None:
            tally.fail(op, error)
            continue
        try:
            ok = op.check(out, results) is True
        except Exception:
            ok = False
        if not ok:
            tally.fail(op, "output failed its exactness check")
        results[op.key] = out


def fixed_groups(plan, seconds):
    """The number of whole groups a run of `seconds` times."""
    return max(1, round(seconds * plan.groups_per_s))


def measure(plan, seconds):
    """A fixed number of whole groups, cycling through the plan."""
    tally = Tally()
    for i in range(fixed_groups(plan, seconds)):
        run_group(plan.groups[i % len(plan.groups)], tally, calibrate=True)
    return tally


def fresh_setup(workload, seed, workdir):
    """Import kchern and the workloads afresh and set the workload up;
    returns the plan, the seconds taken and the host's median slowness
    around the set-up."""
    for name in [name for name in sys.modules
                 if name in ("kchern", "workloads")
                 or name.startswith("kchern.")]:
        del sys.modules[name]
    gc.collect()
    slow = hostspeed.around()
    t0 = time.perf_counter()
    import workloads    # imports kchern
    plan = workloads.SETUPS[workload](seed, workdir)
    took = time.perf_counter() - t0
    return plan, took, statistics.median(slow + hostspeed.around())


def end_to_end(workload, workdir, seed, seconds):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS[workload]):
        plan = None     # free the previous set-up before timing the next
        plan, took, slow = fresh_setup(workload, seed, workdir)
        setups.append(took / slow)
        raw_setups.append(took)
    gc.collect()
    tally = measure(plan, seconds)
    lat = hostspeed.scaled(tally.latencies, tally.slow)
    raw = _summary(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "op/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * _p90(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_share": (1 - tally.failed / tally.attempted, "ratio"),
    }
    notes = ["samples %d in %d groups" % (len(lat),
                                          fixed_groups(plan, seconds)),
             "failed_share %.6f" % (tally.failed / tally.attempted),
             "set-ups with import %s s, raw %s s"
             % (", ".join("%.4f" % s for s in setups),
                ", ".join("%.4f" % s for s in raw_setups)),
             "host slowness after ops: median %.4f, range %.4f-%.4f"
             % (statistics.median(tally.slow), min(tally.slow),
                max(tally.slow)),
             "raw, unscaled: ops_per_s %.4f, latency_p50_ms %.4f, "
             "latency_p90_ms %.4f, setup_s %.4f" % (
                 raw + (statistics.median(raw_setups),)),
             "input digest %s" % plan.digest]
    return tally, metrics, notes


def _p90(lat):
    return statistics.quantiles(lat, n=10, method="inclusive")[8] \
        if len(lat) > 1 else lat[0]


def _summary(lat):
    return (len(lat) / sum(lat), 1000 * statistics.median(lat),
            1000 * _p90(lat))


def traced(workload, workdir, seed, seconds):
    """Per-layer metrics.  Passes over the plan's trace prefix repeat until
    `seconds` have elapsed; in each pass every group runs untraced, then
    traced, so the overhead is measured on the same requests at nearly the
    same time.  Counts repeat exactly from pass to pass; times come from the
    pass with the median traced wall time, so they still add up."""
    plan = fresh_setup(workload, seed, workdir)[0]
    import spans
    prefix = plan.groups[:plan.trace_groups]
    span_path = os.path.join(ROOT, ".bench_build", "perfbench",
                             "spans-%s-seed%d.bin" % (workload, seed))
    both = Tally()
    passes = []
    first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        rec = spans.Recorder()
        plain, tally, wall = _trace_pass(rec, prefix)
        if first is None:
            rec.write(span_path)
            first = rec.counts()
        passes.append((wall, rec.aggregate(), len(rec.sid),
                       sum(tally.latencies) - sum(plain.latencies)))
        for t in (plain, tally):
            both.latencies += t.latencies
            both.failed += t.failed
            both.failures += t.failures

    wall, (per_name, roots), n_spans, _ = sorted(
        passes, key=lambda p: p[0])[(len(passes) - 1) // 2]
    metrics = {}
    module_self = dict.fromkeys(spans.MODULES, 0.0)
    for name, (calls, self_s) in per_name.items():
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (self_s, "s")
        module_self[name.split(".")[0]] += self_s
    metrics.update(first)
    for module, self_s in module_self.items():
        metrics[module + ".self_s"] = (self_s, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.harness_s"] = (wall - roots, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p[3] for p in passes), "s")
    metrics["trace.spans"] = (n_spans, "count")
    notes = ["%d passes over %d groups (%d ops each way per pass)"
             % (len(passes), len(prefix), both.attempted // 2 // len(passes)),
             "median pass: module self times %.6f s + harness %.6f s = "
             "traced wall %.6f s" % (sum(module_self.values()), wall - roots,
                                     wall),
             "spans of the first pass written to %s"
             % os.path.relpath(span_path, ROOT)]
    return both, metrics, notes


def _trace_pass(rec, prefix):
    """Each group untraced, then traced; returns both tallies and the
    traced wall time."""
    plain, tally = Tally(), Tally()
    wall = 0.0
    for group in prefix:
        gc.collect()
        run_group(group, plain)
        gc.collect()
        with rec:
            t0 = time.perf_counter()
            run_group(group, tally, rec)
            wall += time.perf_counter() - t0
    return plain, tally, wall


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kchern", "__init__.py")):
        print("error: no kchern sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        if args.trace:
            tally, metrics, notes = traced(args.workload, workdir, args.seed,
                                           args.seconds)
        else:
            tally, metrics, notes = end_to_end(args.workload, workdir,
                                               args.seed, args.seconds)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s, seed %d, trace %d, wall %.1f s"
          % (args.workload, args.seed, args.trace, wall))
    for line in notes + tally.failures:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-48s %14.6g %s" % (name, value, unit))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
