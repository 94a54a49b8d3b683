"""Span recorder for the traced benchmark pass.

Public kchern functions and methods are wrapped from outside by rebinding
module and class attributes; nothing under ``src/`` changes.  A function
imported with ``from .uforms import project_ab`` has a separate binding in
every importing module, so every attribute of a ``kchern.*`` module (and of
the benchmark's ``workloads`` module) that is the original function object is
rebound, and all bindings are restored on exit.

Each span is (name id, start, end, parent span, op id), kept in flat arrays
while the pass runs and written to one binary file at the end.  Self time of
a span is its duration minus the durations of its direct children, so the
self times of all spans add up to the time covered by root spans; the rest
of the traced wall time is the benchmark harness's own time.  A wrapper
reads the clock as its first and last action, so its bookkeeping is booked
to its own span; only the call into the wrapper and the return from it fall
to the parent.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from kchern.exactmath import Poly1, Poly2

# (module, qualified name) of every wrapped function or method.
WRAPPED = (
    ("exactmath", "Echelon.add"),
    ("exactmath", "Echelon.reduce"),
    ("exactmath", "TrackedEchelon.add"),
    ("exactmath", "TrackedEchelon.solve"),
    ("uforms", "abelianization"),
    ("uforms", "project_ab"),
    ("uforms", "is_exact_in_ab"),
    ("uforms", "de_rham_homology"),
    ("uforms", "multiply"),
    ("algebra", "AlgElement.__mul__"),
    ("algebra", "AlgElement.__add__"),
    ("connections", "Mat.__mul__"),
    ("connections", "curvature"),
    ("connections", "chern"),
    ("connections", "pullback"),
    ("connections", "ModuleIso.__init__"),
    ("transgression", "tilde_curvature"),
    ("transgression", "chern_tform"),
    ("transgression", "homotopy_K"),
    ("transgression", "kcs"),
    ("transgression", "kcs_closed_form"),
    ("transgression", "bigon_curvature"),
    ("transgression", "chern_biform"),
    ("transgression", "secondary_transgression"),
    ("transgression", "TForm.__mul__"),
    ("transgression", "BiForm.__mul__"),
    ("khat", "verify_kcs_equivalence"),
    ("khat", "chain_witnesses"),
    ("khat", "odd_chern"),
    ("cli", "main"),
    ("cli", "_emit"),
    ("serialize", "form_to_json"),
)
MODULES = tuple(dict.fromkeys(module for module, _ in WRAPPED))
SCALAR_KINDS = ("fraction", "poly1", "poly2")
MAX_DEGREE = 6      # ranks are reported for degrees 0..MAX_DEGREE


def span_names():
    """Every span name, in metric order; multiply is split by scalar kind."""
    names = []
    for module, qual in WRAPPED:
        if qual == "multiply":
            names += ["uforms.multiply.%s" % k for k in SCALAR_KINDS]
        else:
            names.append("%s.%s" % (module, qual))
    return names


def _scalar_kind(u, v):
    kind = 0
    for form in (u, v):
        for c in form.terms.values():
            if isinstance(c, Poly2):
                kind = max(kind, 2)
            elif isinstance(c, Poly1):
                kind = max(kind, 1)
            break
    return SCALAR_KINDS[kind]


class Recorder:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.sid = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = 0
        self.active = False   # wrappers record only while active
        # counters read inside wrappers
        self.useful_adds = 0
        self.builds = 0
        self.built_rank = {}  # degree -> rank of the projections built
        self.term_pairs = dict.fromkeys(SCALAR_KINDS, 0)
        self.touched = {}     # id -> AbProjection seen during the current op
        # structure counters, read after each op
        self.row_nnz = 0
        self.max_bits = 0
        self.wordmul = 0
        self._echelons = {}   # id -> (projection, rank, nnz, bits)
        self._saved = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, sid, t0):
        idx = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.t0.append(t0)
        self.t1.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.t1[idx] = time.perf_counter()

    def _wrap(self, fn, name):
        sid = self.name_id[name]
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec._open(sid, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx)

        return wrapper

    def _wrap_multiply(self, fn):
        sids = {k: self.name_id["uforms.multiply.%s" % k]
                for k in SCALAR_KINDS}
        rec = self

        def multiply(u, v):
            if not rec.active:
                return fn(u, v)
            t0 = time.perf_counter()
            kind = _scalar_kind(u, v)
            rec.term_pairs[kind] += len(u.terms) * len(v.terms)
            idx = rec._open(sids[kind], t0)
            try:
                return fn(u, v)
            finally:
                rec._close(idx)

        return multiply

    def _wrap_abelianization(self, fn):
        sid = self.name_id["uforms.abelianization"]
        rec = self

        def abelianization(algebra, n):
            if not rec.active:
                return fn(algebra, n)
            idx = rec._open(sid, time.perf_counter())
            try:
                cold = n not in algebra._ab
                proj = fn(algebra, n)
                if cold:
                    rec.builds += 1
                    rec.built_rank[n] = (rec.built_rank.get(n, 0)
                                         + proj.echelon.rank)
                rec.touched[id(proj)] = proj
                return proj
            finally:
                rec._close(idx)

        return abelianization

    def _wrap_echelon_add(self, fn):
        sid = self.name_id["exactmath.Echelon.add"]
        rec = self

        def add(ech, vec):
            if not rec.active:
                return fn(ech, vec)
            idx = rec._open(sid, time.perf_counter())
            try:
                grew = fn(ech, vec)
                if grew:
                    rec.useful_adds += 1
                return grew
            finally:
                rec._close(idx)

        return add

    # -- per-op hooks -----------------------------------------------------
    def begin(self):
        self.active = True

    def end(self):
        self.active = False
        self._read_structure()
        self.op_id += 1

    def _read_structure(self):
        """Add the echelon size, entry bits and word-cache size of the
        abelianization projections the last op touched to the counters."""
        nnz, bits, algebras = 0, 0, {}
        for key, proj in self.touched.items():
            rank = proj.echelon.rank
            hit = self._echelons.get(key)
            if hit is None or hit[0] is not proj or hit[1] != rank:
                rows = proj.echelon.pivots.values()
                hit = (proj, rank, sum(len(r) for r in rows),
                       max((max(abs(c.numerator).bit_length(),
                                c.denominator.bit_length())
                            for r in rows for c in r.values()), default=0))
            self._echelons[key] = hit
            nnz += hit[2]
            bits = max(bits, hit[3])
            algebras[id(proj.algebra)] = proj.algebra
        for key in set(self._echelons) - set(self.touched):
            del self._echelons[key]
        self.touched.clear()
        self.row_nnz += nnz
        self.max_bits = max(self.max_bits, bits)
        self.wordmul = max(self.wordmul, sum(len(a._wordmul)
                                             for a in algebras.values()))

    # -- installation -----------------------------------------------------
    def install(self):
        """Rebind every wrapped function in every kchern module and in the
        benchmark's workloads module."""
        mods = [mod for name, mod in sys.modules.items()
                if name in ("kchern", "workloads")
                or name.startswith("kchern.")]
        for module, qual in WRAPPED:
            mod = sys.modules["kchern." + module]
            name = "%s.%s" % (module, qual)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                if name == "exactmath.Echelon.add":
                    new = self._wrap_echelon_add(orig)
                else:
                    new = self._wrap(orig, name)
                self._saved.append((cls, attr, orig))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, qual)
            if qual == "multiply":
                new = self._wrap_multiply(orig)
            elif qual == "abelianization":
                new = self._wrap_abelianization(orig)
            else:
                new = self._wrap(orig, name)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------
    def aggregate(self):
        """Per span name: (calls, self seconds); plus the root-span total."""
        n = len(self.sid)
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            dur = self.t1[i] - self.t0[i]
            p = self.parent[i]
            if p < 0:
                roots += dur
            else:
                child[p] += dur
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            s = self.sid[i]
            calls[s] += 1
            self_s[s] += self.t1[i] - self.t0[i] - child[i]
        return ({name: (calls[i], self_s[i])
                 for i, name in enumerate(self.names)}, roots)

    def counts(self):
        """The counters that repeat exactly for a given request list."""
        calls = self.sid.tolist().count(self.name_id["exactmath.Echelon.add"])
        out = {"uforms.multiply.%s.term_pairs" % k: (self.term_pairs[k],
                                                      "count")
               for k in SCALAR_KINDS}
        out["exactmath.Echelon.add.useful_ratio"] = (
            self.useful_adds / calls if calls else 0.0, "ratio")
        out["exactmath.echelon.row_nnz"] = (self.row_nnz, "count")
        out["exactmath.echelon.max_entry_bits"] = (self.max_bits, "bits")
        out["uforms.abelianization.builds"] = (self.builds, "count")
        out["uforms.abelianization.rank"] = (sum(self.built_rank.values()),
                                             "count")
        for n in range(MAX_DEGREE + 1):
            out["uforms.abelianization.rank.deg%d" % n] = (
                self.built_rank.get(n, 0), "count")
        out["uforms.wordmul_cache.entries"] = (self.wordmul, "count")
        return out

    def write(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.sid),
                  "arrays": [["sid", "l"], ["t0", "d"], ["t1", "d"],
                             ["parent", "l"], ["op", "l"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)
