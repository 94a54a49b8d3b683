"""Seeded inputs, request lists and exactness oracles of the three workloads.

A workload's ``setup(seed, workdir)`` builds its algebras, generates every
input from the seed, and (for the warm workloads) runs one group of
requests, drawn from a fixed generator, once so that abelianization
projections, exactness solvers and word-product caches are filled as they
would be in a long session.  It returns a ``Plan``: groups of ``Op``s that
run.py runs in order, one at a time.  An op's ``call`` is the one timed call
into kchern's public API; its ``check`` runs afterwards, untimed, and
returns True only when the output is exactly right.  Checks are explicit
comparisons, so they also run under ``python -O``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from kchern import cli
from kchern.algebra import Algebra, algebra_from_json, algebra_to_json
from kchern.connections import (Connection, Idempotent, Mat, ModuleIso, chern,
                                direct_sum, grassmann, pullback,
                                random_automorphism)
from kchern.fixtures import make_fixture
from kchern.khat import (K1Pair, KCSWitness, KHatGen, chain_witnesses,
                         odd_chern, verify_kcs_equivalence)
from kchern.serialize import (connection_to_json, elem_to_json,
                              form_from_json, form_to_json)
from kchern.transgression import (bigon_straight, kcs, kcs_between,
                                  kcs_closed_form, secondary_transgression,
                                  straight_line, three_point_path)
from kchern.uforms import (AbClass, UForm, ab_d, de_rham_homology,
                           enumerate_words, is_exact_in_ab, project_ab)

K_MAX = 2


class Op:
    """One timed request: ``call(results)`` returns the output that
    ``check(output, results)`` verifies; ``results`` maps the keys of the
    group's earlier ops to their outputs."""

    __slots__ = ("key", "call", "check")

    def __init__(self, key, call, check):
        self.key = key
        self.call = call
        self.check = check


class Plan:
    """`groups_per_s` sets how many groups a run of given length times (see
    run.fixed_groups); it was fixed once, from the speed of the kchern code
    this benchmark was written against, and must not follow kchern."""

    def __init__(self, groups, digest, trace_groups, groups_per_s):
        self.groups = groups
        self.digest = digest
        self.trace_groups = trace_groups
        self.groups_per_s = groups_per_s


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _warm_up(group):
    """Run a group once, checks included, as a long session would have.
    The warm-up group is drawn from a fixed generator, not from the seed,
    so that what set-up pays for it does not change with the seed."""
    results = {}
    for op in group:
        out = op.call(results)
        op.check(out, results)
        results[op.key] = out


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def _inverse(rows):
    """Inverse of a small invertible rational matrix (Gauss-Jordan)."""
    m = len(rows)
    a = [[Fraction(c) for c in row] + [Fraction(int(i == j))
                                       for j in range(m)]
         for i, row in enumerate(rows)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[m:] for row in a]


def sign_deck(alg: Algebra, rng):
    """Endless seeded draws of the signs s_ij (0 < i, j < i) of a dense
    basis, dealt from a shuffled deck of all 2^(m(m-1)/2) sign patterns
    that is reshuffled when spent.  The cost of a dense copy depends on
    its signs; dealing them without repeats keeps that cost from swinging
    with the seed."""
    m = alg.dim
    width = m * (m - 1) // 2
    patterns = [tuple(1 - 2 * ((k >> b) & 1) for b in range(width))
                for k in range(2 ** width)]
    while True:
        rng.shuffle(patterns)
        yield from patterns


def dense_copy(alg: Algebra, signs) -> dict:
    """Structure constants of `alg` in a unit-fixing basis.

    The new basis is f_0 = e_0 and f_i = e_i + sum_{j<i} s_ij e_j with the
    s_ij in {-1, 1} taken from `signs` row by row: unitriangular, so always
    invertible, and dense below the diagonal, which is what makes exact
    elimination swell.
    """
    m = alg.dim
    it = iter(signs)
    basis = [[Fraction(next(it)) if j < i else Fraction(int(i == j))
              for j in range(m)] for i in range(m)]
    inv = _inverse(basis)
    table = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = alg.elem_mul(tuple(basis[i]), tuple(basis[j]))
            row.append([sum((prod[k] * inv[k][c] for k in range(m)),
                            Fraction(0)) for c in range(m)])
        table.append(row)
    return algebra_to_json(Algebra(table, names=list(alg.names)))


def first_summand(alg, size=2) -> Idempotent:
    """diag(1, 0, ...): the projection onto the first free summand."""
    z, one = alg.zero(), alg.unit()
    return Idempotent(alg, Mat([[one if i == j == 0 else z
                                 for j in range(size)] for i in range(size)]))


def conjugated_summand(alg) -> Idempotent:
    """g diag(1, 0) g^-1 for the fixed g = [[1, 0], [b, 1]] [[1, a], [0, 1]]
    with a = e_1 and b = e_(m-1): a rank-1 idempotent with dp dp != 0, so
    the p dp dp p term of the curvature is not zero."""
    one = alg.unit()
    a, b = (alg.element([Fraction(int(k == i)) for k in range(alg.dim)])
            for i in (1, alg.dim - 1))
    return Idempotent(alg, Mat([[one + a * b, -a],
                                [b + b * a * b, -(b * a)]]))


def word_deck(alg, rng, terms):
    """Endless seeded draws of `terms` degree-1 words each.

    The words are dealt from a shuffled deck that is reshuffled when spent,
    so within a pass every word appears exactly once.  The cost of a request
    depends strongly on which words its connections carry; dealing them
    evenly keeps that cost from swinging with the seed.
    """
    words = enumerate_words(alg, 1)
    while True:
        rng.shuffle(words)
        for i in range(0, len(words) - terms + 1, terms):
            yield tuple(words[i:i + terms])


def connection(p: Idempotent, rng, deck) -> Connection:
    """theta = p Theta p with Theta zero but for its corner entry: a dealt
    set of degree-1 words with random coefficients.  On the first summand
    that corner is all that survives the compression."""
    alg = p.algebra
    z = UForm.zero(alg)
    corner = UForm(alg, {w: Fraction(rng.choice((-2, -1, 1, 2)))
                         for w in next(deck)})
    big = Mat([[corner if i == j == 0 else z for j in range(p.size)]
               for i in range(p.size)])
    pf = p.to_form()
    return Connection(p, pf * big * pf)


def _class_sum(classes, alg):
    total = AbClass(alg)
    for cls in classes:
        total = total + cls
    return total


def _mat_json(m: Mat):
    return [[elem_to_json(e) for e in row] for row in m.entries]


# ---------------------------------------------------------------------------
# homology: cold CLI requests, sparse fixtures and dense copies
# ---------------------------------------------------------------------------

# dim H_n of the builtin fixtures, n = 0, 1, ...; a change of basis keeps it.
REFERENCE_DIMS = {
    "Q": (1, 0, 0, 0, 0, 0),
    "M2": (1, 0, 0, 0, 0),
    "x3": (1, 0, 0, 0, 0, 0),
    "QxQ": (2, 0, 1, 0, 1, 0),
    "C2": (2, 0, 1, 0, 1, 0),
    "dual": (1, 0, 0, 0, 0, 0),
}
# Requests per round: (fixture, degree) ladders, dense copies up to DENSE_TOP.
# The mix puts both percentiles inside runs of one kind of request rather
# than on a step between kinds, whose order flips with timing noise: the
# cheap Q, QxQ, C2 and dual rungs are over half of a round, so p50 falls
# among them, and M2 n = 3 is asked four times, so with dense M2 n = 2
# above it p90 falls among its repeats.  M2 n = 4 (about 3 s, half of a
# round's time) is left out: a run would hold too few samples of it.
SPARSE_LADDERS = ([("M2", n) for n in (0, 1, 2, 3, 3, 3, 3)]
                  + [("x3", n) for n in range(5)]
                  + [(name, n) for name in ("Q", "QxQ", "C2", "dual")
                     for n in range(6)])
DENSE_TOP = {"x3": 2, "M2": 2}
HOMOLOGY_ROUNDS = 16    # rounds before the dense copies repeat
HOMOLOGY_ROUNDS_PER_S = 0.36


def setup_homology(seed, workdir) -> Plan:
    rng = _rng("homology", seed)
    out_path = os.path.join(workdir, "homology-out.json")
    checkers = {name: make_fixture(name) for name in REFERENCE_DIMS}
    decks = {name: sign_deck(checkers[name], rng) for name in DENSE_TOP}
    tables = []
    groups = []
    for r in range(HOMOLOGY_ROUNDS):
        requests = [(name, n, ["--fixture", name], name)
                    for name, n in SPARSE_LADDERS]
        for name, top in DENSE_TOP.items():
            data = dense_copy(checkers[name], next(decks[name]))
            tables.append(data)
            path = os.path.join(workdir, "dense-%s-%d.json" % (name, r))
            with open(path, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            key = "dense-%s-%d" % (name, r)
            checkers[key] = algebra_from_json(data)
            requests += [(name, n, ["--algebra", path], key)
                         for n in range(top + 1)]
        groups.append([
            Op("%d/%s/%d/%d" % (r, key, n, i),
               _homology_call(argv + ["--degree", str(n), "--out", out_path]),
               _homology_check(checkers[key], name, n, out_path))
            for i, (name, n, argv, key) in enumerate(requests)])
    return Plan(groups, _digest(tables), trace_groups=1,
                groups_per_s=HOMOLOGY_ROUNDS_PER_S)


def _homology_call(argv):
    argv = ["homology"] + argv
    return lambda results: cli.main(argv)


def _homology_check(alg, fixture, n, out_path):
    def check(code, results):
        if code != 0:
            return False
        with open(out_path) as fh:
            report = json.load(fh)
        os.remove(out_path)
        reps = report["representatives"]
        if report["dim"] != REFERENCE_DIMS[fixture][n] or len(reps) != \
                report["dim"]:
            return False
        for data in reps:
            rep = form_from_json(alg, data)
            if rep.is_zero() or not project_ab(rep.d()).is_zero():
                return False
            if is_exact_in_ab(rep, n)[0]:
                return False
        return True

    return check


# ---------------------------------------------------------------------------
# transgression: warm KCS, closed form and secondary transgression
# ---------------------------------------------------------------------------

# Pairs of paths per group: (label, fixture, idempotent, pairs).  Two M2
# pairs per x3 pair keep the M2 secondary transgressions above the top tenth
# of the ops, so p90 falls inside one kind of op rather than on the step
# between two kinds.  The x3-dp pair lives on a fixed idempotent with
# dp != 0, so the idempotent-dependent terms are measured too.
TRANSGRESSION_MIX = (("M2", "M2", first_summand, 2),
                     ("x3", "x3", first_summand, 1),
                     ("x3-dp", "x3", conjugated_summand, 1))
# A request's cost depends on the words its connections carry; more distinct
# groups per run keep its percentiles from following the seed.
TRANSGRESSION_GROUPS = 48   # cycled; 96 distinct M2 pairs per seed
TRANSGRESSION_GROUPS_PER_S = 2.1


def setup_transgression(seed, workdir) -> Plan:
    algs = {name: make_fixture(name) for _, name, _, _ in TRANSGRESSION_MIX}
    _warm_up(_transgression_groups(algs, _rng("transgression/warm-up", 0),
                                   1)[0][0])
    groups, inputs = _transgression_groups(algs, _rng("transgression", seed),
                                           TRANSGRESSION_GROUPS)
    return Plan(groups, _digest(inputs), trace_groups=2,
                groups_per_s=TRANSGRESSION_GROUPS_PER_S)


def _transgression_groups(algs, rng, count):
    mix = [(label, make_p(algs[name]), word_deck(algs[name], rng, 1), pairs)
           for label, name, make_p, pairs in TRANSGRESSION_MIX]
    inputs = []
    groups = []
    for i in range(count):
        group = []
        for label, p, deck, pairs in mix:
            for j in range(pairs):
                c0, cm, c1 = (connection(p, rng, deck) for _ in range(3))
                inputs.append([connection_to_json(c) for c in (c0, cm, c1)])
                group += _transgression_ops("%d/%s/%d" % (i, label, j),
                                            c0, cm, c1)
        groups.append(group)
    return groups, inputs


def _transgression_ops(tag, c0, cm, c1):
    lin = straight_line(c0, c1)
    quad = three_point_path(c0, cm, c1)
    k_lin, k_quad = tag + "/kcs_lin", tag + "/kcs_quad"
    delta_ch = []

    def transgresses(classes, results):
        if not delta_ch:
            ch0, ch1 = chern(c0, K_MAX), chern(c1, K_MAX)
            delta_ch.extend(ch1[k] - ch0[k] for k in range(1, K_MAX + 1))
        return (len(classes) == K_MAX
                and all(ab_d(classes[k]) == delta_ch[k]
                        for k in range(K_MAX)))

    def closed_form_of(key):
        return lambda classes, results: classes == results[key]

    def secondary_ok(pots, results):
        a, b = results[k_lin], results[k_quad]
        return (len(pots) == K_MAX
                and all(ab_d(pots[k]) == a[k] - b[k] for k in range(K_MAX)))

    return [
        Op(k_lin, lambda r: kcs(lin, K_MAX), transgresses),
        Op(k_quad, lambda r: kcs(quad, K_MAX), transgresses),
        Op(tag + "/closed_lin", lambda r: kcs_closed_form(lin, K_MAX),
           closed_form_of(k_lin)),
        Op(tag + "/closed_quad", lambda r: kcs_closed_form(quad, K_MAX),
           closed_form_of(k_quad)),
        Op(tag + "/secondary",
           lambda r: secondary_transgression(bigon_straight(lin, quad),
                                             K_MAX),
           secondary_ok),
    ]


# ---------------------------------------------------------------------------
# khat: warm witness verification, exactness solves and odd Chern
# ---------------------------------------------------------------------------

KHAT_FIXTURES = ("M2", "x3", "QxQ")
KHAT_SETS = 8
# Per algebra and data set: 4 sub-millisecond Chern and exactness ops, 3
# odd Chern ops of about 1 ms, 3 verifications, and chain_witnesses twice.
# Over a group of 36 ops the median then falls among the odd Chern ops and
# p90 among the chain_witnesses calls, not on a step between two kinds.
KHAT_ODD = 3
KHAT_SETS_PER_S = 0.95


def setup_khat(seed, workdir) -> Plan:
    algs = {name: make_fixture(name) for name in KHAT_FIXTURES}
    planted = {name: _planted_perturbation(alg) for name, alg in algs.items()}
    _warm_up(_khat_groups(algs, planted, _rng("khat/warm-up", 0), 1)[0][0])
    groups, inputs = _khat_groups(algs, planted, _rng("khat", seed),
                                  KHAT_SETS)
    return Plan(groups, _digest(inputs), trace_groups=4,
                groups_per_s=KHAT_SETS_PER_S)


def _khat_groups(algs, planted, rng, count):
    decks = {name: word_deck(alg, rng, 1) for name, alg in algs.items()}
    inputs = []
    groups = []
    for j in range(count):
        group = []
        for name, alg in algs.items():
            ops, payload = _khat_ops("%d/%s" % (j, name), alg, rng,
                                     decks[name], planted[name])
            group += ops
            inputs.append(payload)
        groups.append(group)
    return groups, inputs


def _planted_perturbation(alg):
    """A non-exact even form: a class of H_2 if there is one, else of H_0."""
    for n in (2, 0):
        dim, reps = de_rham_homology(alg, n)
        if dim:
            return n, reps[0]
    raise ValueError("no even homology to plant")


def _random_even_form(alg, rng):
    terms = {}
    for n in (0, 2):
        words = enumerate_words(alg, n)
        for w in rng.sample(words, 2):
            terms[w] = Fraction(rng.choice((-2, -1, 1, 2)))
    return UForm(alg, terms)


def _shear(p: Idempotent, rng) -> ModuleIso:
    """u = p + a E_0k, v = p - a E_0k for p = diag(1, ..., 1) in its first
    and last slots k: an automorphism of Im(p) mixing those two summands by
    one seeded basis element a = +-e_i.  (kchern's random_automorphism fills
    a dense unipotent, whose cost swings widely from seed to seed.)"""
    alg = p.algebra
    k = p.size - 1
    vec = [Fraction(0)] * alg.dim
    vec[rng.randrange(alg.dim)] = Fraction(rng.choice((-1, 1)))
    a = alg.element(vec)
    shear = Mat([[a if (i, j) == (0, k) else alg.zero()
                  for j in range(p.size)] for i in range(p.size)])
    return ModuleIso(p, p, p.mat + shear, p.mat - shear)


def _trivial_witness(conn):
    stab_p = first_summand(conn.algebra, size=1)
    stab = grassmann(stab_p)
    return KCSWitness(stab_p, stab,
                      ModuleIso.identity(direct_sum(conn, stab).p))


def _deltas(side, omega_diff, alg):
    """Per degree, the difference the verifier must certify as exact:
    the KCS side minus (omega0 - omega1)."""
    out = {}
    for n in set(range(1, 2 * K_MAX, 2)) | set(omega_diff.degrees()):
        s = (side[(n + 1) // 2 - 1].component(n) if n % 2 == 1
             else AbClass(alg))
        out[n] = s - omega_diff.component(n)
    return out


def _khat_ops(tag, alg, rng, deck, planted):
    p = first_summand(alg)
    d0, d1, d2 = (connection(p, rng, deck) for _ in range(3))
    # a stabilized, twisted witness and the omega that makes it hold
    stab_p = first_summand(alg, size=1)
    stab = connection(stab_p, rng, deck)
    phi = _shear(direct_sum(d1, stab).p, rng)
    twisted = kcs_between(direct_sum(d0, stab),
                          pullback(direct_sum(d1, stab), phi), K_MAX)
    beta = _random_even_form(alg, rng)
    omega1 = (-_class_sum(twisted, alg)).lift() - beta.d()
    g0 = KHatGen(p, d0, UForm.zero(alg))
    g1 = KHatGen(p, d1, omega1)
    w = KCSWitness(stab_p, stab, phi)
    expected = _deltas(twisted, -project_ab(omega1), alg)
    planted_degree, pert = planted
    g1_bad = KHatGen(p, d1, omega1 + pert)
    # a chain g0 ~ h1 ~ h2 of trivially witnessed equivalences
    om01 = _class_sum(kcs_between(d0, d1, K_MAX), alg)
    om12 = _class_sum(kcs_between(d1, d2, K_MAX), alg)
    h1 = KHatGen(p, d1, (-om01).lift())
    h2 = KHatGen(p, d2, (-om01 - om12).lift())
    w01 = _trivial_witness(d0)
    w12 = _trivial_witness(d1)
    auts = [random_automorphism(p, rng) for _ in range(KHAT_ODD)]
    payload = {
        "connections": [connection_to_json(c) for c in (d0, d1, d2, stab)],
        "phi": [_mat_json(phi.u), _mat_json(phi.v)],
        "aut": [[_mat_json(a.u), _mat_json(a.v)] for a in auts],
        "omega1": form_to_json(omega1),
        "stabilizers": [connection_to_json(x.stab_conn) for x in (w01, w12)],
    }

    keys = {name: "%s/%s" % (tag, name) for name in
            ("chern0", "chern1", "chain")}

    def closed_classes(classes, results):
        # ch_0 is the rank class; ch_1 is closed.  The top class is left to
        # the exactness ops: its differential would need the degree-5
        # abelianization, which only some seeds' checks would then build.
        return (classes[0] == project_ab(UForm.unit(alg))
                and ab_d(classes[1]).is_zero())

    def chern_diff(results, k):
        return (results[keys["chern1"]][k]
                - results[keys["chern0"]][k]).component(2 * k)

    def exact_call(k):
        return lambda results: is_exact_in_ab(chern_diff(results, k), 2 * k)

    def exact_check(k):
        def check(out, results):
            ok, prim = out
            return ok and project_ab(prim.d()) == chern_diff(results, k)
        return check

    def certified(report, results):
        return (report["accepted"] and set(report["degrees"]) == set(expected)
                and all(project_ab(report["degrees"][n]["primitive"].d())
                        == expected[n] for n in expected))

    def rejected(report, results):
        entry = report["degrees"].get(planted_degree)
        return (not report["accepted"] and entry is not None
                and not entry["exact"])

    def chain_fits(wit, results):
        return (wit.iso.p0 == direct_sum(d0, wit.stab_conn).p
                and wit.iso.p1 == direct_sum(d2, wit.stab_conn).p)

    ops = [
        Op(keys["chern0"], lambda r: chern(d0, K_MAX), closed_classes),
        Op(keys["chern1"], lambda r: chern(d1, K_MAX), closed_classes),
    ]
    ops += [Op("%s/exact%d" % (tag, k), exact_call(k), exact_check(k))
            for k in range(1, K_MAX + 1)]
    ops += [
        Op(tag + "/verify",
           lambda r: verify_kcs_equivalence(g0, g1, w, K_MAX), certified),
        Op(tag + "/planted",
           lambda r: verify_kcs_equivalence(g0, g1_bad, w, K_MAX), rejected),
        Op(keys["chain"], lambda r: chain_witnesses(h1, w01, w12),
           chain_fits),
        Op(tag + "/chain_again", lambda r: chain_witnesses(h1, w01, w12),
           chain_fits),
        Op(tag + "/verify_chain",
           lambda r: verify_kcs_equivalence(g0, h2, r[keys["chain"]], K_MAX),
           lambda report, r: report["accepted"]),
    ]
    ops += [Op("%s/odd_chern%d" % (tag, i),
               lambda r, aut=aut: odd_chern(K1Pair(p, aut), K_MAX),
               lambda classes, r: all(ab_d(c).is_zero() for c in classes))
            for i, aut in enumerate(auts)]
    return ops, payload


SETUPS = {
    "homology": setup_homology,
    "transgression": setup_transgression,
    "khat": setup_khat,
}
