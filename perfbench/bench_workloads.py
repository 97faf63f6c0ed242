"""Seeded workloads for the gptlab benchmark.

Each workload turns (seed, round number) into a round spec of plain data,
then materialises the spec into library objects and operations ("ops")
against a set of theories. A round has a fixed composition of op kinds and
input sizes, in a fixed order; the seed picks everything else (wire orders,
gate choices, outcome strings, weights, machines, and in cli-bundled the
command order). Fixed composition keeps a round's cost nearly independent of
the seed, so runs on different seeds are comparable, and percentiles land at
fixed positions in the op mix. Fixed order makes the garbage collector's
passes, which the ops pay for, fall at the same points of every round.

Every op has an output check. Checks that compare two ops of one round
(a prob against its distribution, two invocations of one CLI command) run
when the later op has returned.

Ops call library functions as module attributes at call time, so the traced
run can swap them for recording wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gptlab import afftm, circuits, cli, tomography
from gptlab.afftm import AffineMachine, Branch
from gptlab.circuits import Acceptor, CircuitDAG
from gptlab.theories import classical_theory, quantum_theory, real_quantum_theory

GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli.json"


@dataclass
class Op:
    name: str  # unique within its round
    kind: str
    size: int  # orders ops of one kind; the largest of each kind is the warm-up op
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: Callable[[Any], dict] = lambda result: {}


@dataclass
class Round:
    ops: list[Op]
    # (op a, op b, check(result a, result b)); a runs before b, and a failure
    # is charged to op b
    pair_checks: list[tuple[str, str, Callable[[Any, Any], str | None]]] = field(
        default_factory=list)


def _close(got: float, want: float, tol: float, what: str) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what}: got {got!r}, want {want!r} (tol {tol:g})"


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


# ---------------------------------------------------------------------------
# circuit-enum


QUBIT_PREPS = ("prep_0", "prep_1", "prep_plus", "prep_mixed")
# P(measure 0), P(measure 1) per prep, without and with an h gate
_QUBIT_P = {
    False: {"prep_0": (1.0, 0.0), "prep_1": (0.0, 1.0), "prep_plus": (0.5, 0.5),
            "prep_mixed": (0.5, 0.5)},
    True: {"prep_0": (0.5, 0.5), "prep_1": (0.5, 0.5), "prep_plus": (1.0, 0.0),
           "prep_mixed": (0.5, 0.5)},
}


class CircuitEnum:
    """Coin->read and qubit prep->(h)->measure circuits of width 5-7.

    Per round, nine circuits: coin and qubit at widths 5, 6, 7 and three more
    coin circuits of width 7. Each gets four enumeration ops (distribution,
    acceptance_prob with two acceptors, the affine-program bridge); all but
    the three extra circuits also get eight prob ops. Of the 84 ops the
    sixteen width-7 coin enumerations are the slowest, and op_p90_ms falls in
    the middle of that group, among its distribution and first-outcome ops;
    op_p50_ms falls among the width-6 coin prob ops.
    """

    name = "circuit-enum"
    trace_rounds = 1
    # (family, width, prob ops)
    CLASSES = (("coin", 5, 8), ("coin", 6, 8), ("coin", 7, 8), ("coin", 7, 0), ("coin", 7, 0),
               ("coin", 7, 0), ("qubit", 5, 8), ("qubit", 6, 8), ("qubit", 7, 8))

    def theories(self) -> dict:
        return {"classical": classical_theory(2), "qubit": quantum_theory(2)}

    def round_spec(self, seed: int, r: int) -> list:
        rng = _rng(seed, r)
        spec = []
        for fam, w, n_prob in self.CLASSES:
            if fam == "coin":
                layout = tuple(int(i) for i in rng.permutation(w))
                strings = []
                for j in range(n_prob):
                    coins = rng.integers(0, 2, size=w)
                    reads = coins if j % 2 == 0 else rng.integers(0, 2, size=w)
                    strings.append((tuple(int(b) for b in coins), tuple(int(b) for b in reads)))
            else:
                layout = (tuple(QUBIT_PREPS[int(i)] for i in rng.integers(0, 4, size=w)),
                          frozenset(int(i) for i in rng.choice(w, size=2, replace=False)))
                strings = [tuple(int(b) for b in rng.integers(0, 2, size=w))
                           for _ in range(n_prob)]
            first = int(rng.integers(0, w))
            spec.append((fam, w, layout, first, strings))
        return spec

    @staticmethod
    def _build(env, fam, w, layout) -> CircuitDAG:
        if fam == "coin":
            th = env["classical"]
            c = CircuitDAG(th)
            for i in layout:
                c.add(f"c{i}", th.gates["coin"])
                c.add(f"r{i}", th.gates["read"])
                c.connect((f"c{i}", 0), (f"r{i}", 0))
            return c
        th = env["qubit"]
        preps, hs = layout
        c = CircuitDAG(th)
        for i, prep in enumerate(preps):
            c.add(f"p{i}", th.gates[prep])
            last = f"p{i}"
            if i in hs:
                c.add(f"h{i}", th.gates["h"])
                c.connect((last, 0), (f"h{i}", 0))
                last = f"h{i}"
            c.add(f"m{i}", th.gates["measure"])
            c.connect((last, 0), (f"m{i}", 0))
        return c

    def materialize(self, circuits_spec, env) -> Round:
        ops: list[Op] = []
        pairs = []
        for k, (fam, w, layout, first, strings) in enumerate(circuits_spec):
            cid = f"{fam}{w}.{k}"
            c = self._build(env, fam, w, layout)
            n_strings = c.n_outcome_strings()
            if fam == "coin":
                wire_p = [(0.5, 0.5)] * w
                p_parity = 1.0  # every nonzero string has coin label == read label
                first_id = f"r{first}"
                assignments = [
                    {**{f"c{i}": str(cb[i]) for i in range(w)},
                     **{f"r{i}": str(rb[i]) for i in range(w)}}
                    for cb, rb in strings
                ]
                p_strings = [2.0**-w if cb == rb else 0.0 for cb, rb in strings]
                check_dist = self._coin_dist_check(w)
            else:
                preps, hs = layout
                wire_p = [_QUBIT_P[i in hs][prep] for i, prep in enumerate(preps)]
                p_parity = (1.0 + math.prod(p0 - p1 for p0, p1 in wire_p)) / 2.0
                first_id = f"m{first}"
                assignments = []
                for bits in strings:
                    a = {f"p{i}": "0" for i in range(w)}
                    a.update({f"h{i}": "0" for i in hs})
                    a.update({f"m{i}": str(b) for i, b in enumerate(bits)})
                    assignments.append(a)
                p_strings = [math.prod(wire_p[i][b] for i, b in enumerate(bits))
                             for bits in strings]
                check_dist = self._qubit_dist_check(wire_p)
            p_first = wire_p[first][0]
            parity = Acceptor("parity-of-labels")
            first0 = Acceptor("first-outcome-is-0", instance=first_id)
            enum_counts = (lambda n: lambda res: {"circuits.outcome_strings": n})(n_strings)

            ops.append(Op(f"{cid}.distribution", "distribution", n_strings,
                          (lambda c=c: circuits.distribution(c)), check_dist,
                          lambda res: {"circuits.outcome_strings": len(res)}))
            ops.append(Op(f"{cid}.acc_parity", "acceptance_prob", n_strings,
                          (lambda c=c: circuits.acceptance_prob(c, parity)),
                          (lambda res, p=p_parity: _close(res, p, 1e-9, "parity acceptance")),
                          enum_counts))
            ops.append(Op(f"{cid}.acc_first", "acceptance_prob", n_strings,
                          (lambda c=c, a=first0: circuits.acceptance_prob(c, a)),
                          (lambda res, p=p_first: _close(res, p, 1e-9, "first-outcome acceptance")),
                          enum_counts))
            ops.append(Op(f"{cid}.bridge", "bridge", n_strings,
                          (lambda c=c: afftm.circuit_to_affine_program(c, parity)
                           .acceptance_weight()),
                          (lambda res, p=p_parity: _close(res, p, 1e-9, "bridge weight"))))
            pairs.append((f"{cid}.acc_parity", f"{cid}.bridge",
                          lambda acc, bridge: _close(bridge, acc, 1e-9, "bridge vs acceptance_prob")))
            for j, (a, p) in enumerate(zip(assignments, p_strings)):
                ops.append(Op(f"{cid}.prob{j}", "prob", n_strings,
                              (lambda c=c, a=a: circuits.prob(c, a)),
                              (lambda res, p=p: _close(res, p, 1e-9, "prob")),
                              lambda res: {"circuits.outcome_strings": 1}))
                z = c.outcome_string(a)
                pairs.append((f"{cid}.distribution", f"{cid}.prob{j}",
                              lambda dist, pz, z=z: _close(pz, dist[z], 1e-9, "prob vs distribution")))
        return Round(ops, pairs)

    @staticmethod
    def _coin_dist_check(w: int):
        def check(dist) -> str | None:
            if len(dist) != 4**w:
                return f"{len(dist)} outcome strings, want {4**w}"
            values = np.fromiter(dist.values(), float, len(dist))
            err = _close(float(values.sum()), 1.0, 1e-9, "distribution total")
            if err:
                return err
            nonzero = [(z, p) for z, p in dist.items() if abs(p) > 1e-12]
            if len(nonzero) != 2**w:
                return f"{len(nonzero)} nonzero strings, want {2**w}"
            for z, p in nonzero:
                labels = z.as_dict()
                if any(labels[f"c{i}"] != labels[f"r{i}"] for i in range(w)):
                    return f"nonzero probability on inconsistent string {z}"
                err = _close(p, 2.0**-w, 1e-12, f"p({z})")
                if err:
                    return err
            return None
        return check

    @staticmethod
    def _qubit_dist_check(wire_p):
        w = len(wire_p)

        def check(dist) -> str | None:
            if len(dist) != 2**w:
                return f"{len(dist)} outcome strings, want {2**w}"
            err = _close(sum(dist.values()), 1.0, 1e-9, "distribution total")
            if err:
                return err
            for z, p in dist.items():
                labels = z.as_dict()
                want = math.prod(wire_p[i][int(labels[f"m{i}"])] for i in range(w))
                err = _close(p, want, 1e-9, f"p({z})")
                if err:
                    return err
            return None
        return check


# ---------------------------------------------------------------------------
# rebit-compose


# Gate multisets with a fixed product of Kraus counts (t1: 2, t2: 4, h and x: 1),
# which sets the cost of a rebit layer's parallel_matrix.
_KRAUS16 = (("t1", "t1", "t2", "h"), ("t1", "t1", "t2", "x"), ("t2", "t2", "h", "x"),
            ("t2", "t2", "x", "x"), ("t2", "t2", "h", "h"), ("t1", "t1", "t1", "t1"))
_KRAUS4 = (("t2", "h", "x"), ("t2", "x", "x"), ("t2", "h", "h"), ("t1", "t1", "h"),
           ("t1", "t1", "x"))
_REBIT_SINGLE_PREPS = ("prep_0", "prep_plus", "prep_mixed")


class RebitCompose:
    """Rebit circuits on shuffled wires, plus the t1/t2 tomography example.

    Per round: two 4-rebit circuits and nine 3-rebit circuits, each run
    through distribution and prob (the 4-rebit ops are 4 of 28, the slowest
    seventh); n_local_span at N=3 and N=4 with n=1 and n=2; and
    distinguish_search for t1 against t2, local and global.
    """

    name = "rebit-compose"
    trace_rounds = 1
    N_SMALL = 9
    N_RANDOM = 1000

    def theories(self) -> dict:
        return {"rebit": real_quantum_theory(2)}

    def round_spec(self, seed: int, r: int) -> list:
        rng = _rng(seed, r)
        circs = []
        for j, close in enumerate([("m", "m", "m", "m"), ("joint", "m", "m")]):
            gates = _KRAUS16[int(rng.integers(0, len(_KRAUS16)))]
            circs.append((4, (), tuple(str(g) for g in rng.permutation(gates)),
                          tuple(int(i) for i in rng.permutation(4)),
                          tuple(str(x) for x in rng.permutation(close))))
        for j in range(self.N_SMALL):
            close = ("m", "m", "m") if j < 5 else ("joint", "m")
            gates = _KRAUS4[int(rng.integers(0, len(_KRAUS4)))]
            circs.append((3, (_REBIT_SINGLE_PREPS[int(rng.integers(0, 3))],),
                          tuple(str(g) for g in rng.permutation(gates)),
                          tuple(int(i) for i in rng.permutation(3)),
                          tuple(str(x) for x in rng.permutation(close))))
        choices = [tuple(int(b) for b in rng.integers(0, 2, size=4)) for _ in circs]
        search_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        return [circs, choices, search_seeds]

    @staticmethod
    def _build(th, n, singles, gates, perm, close) -> CircuitDAG:
        c = CircuitDAG(th)
        ports = []
        for k in range((n - len(singles)) // 2):
            c.add(f"b{k}", th.gates["prep_phi_plus"])
            ports += [(f"b{k}", 0), (f"b{k}", 1)]
        for k, prep in enumerate(singles):
            c.add(f"s{k}", th.gates[prep])
            ports.append((f"s{k}", 0))
        ports = [ports[i] for i in perm]
        for j, g in enumerate(gates):
            c.add(f"g{j}", th.gates[g])
            c.connect(ports[j], (f"g{j}", 0))
            ports[j] = (f"g{j}", 0)
        j = 0
        for k, kind in enumerate(close):
            if kind == "joint":
                c.add(f"m{k}", th.gates["joint_measure"])
                c.connect(ports[j], (f"m{k}", 0))
                c.connect(ports[j + 1], (f"m{k}", 1))
                j += 2
            else:
                c.add(f"m{k}", th.gates["measure"])
                c.connect(ports[j], (f"m{k}", 0))
                j += 1
        return c

    def materialize(self, spec, env) -> Round:
        circs, choices, search_seeds = spec
        th = env["rebit"]
        ops: list[Op] = []
        pairs = []
        for k, ((n, singles, gates, perm, close), bits) in enumerate(zip(circs, choices)):
            c = self._build(th, n, singles, gates, perm, close)
            n_strings = c.n_outcome_strings()
            cid = f"rebit{n}.{k}"
            assignment = {iid: "0" for iid, _ in c.instances}
            for m, kind in enumerate(close):
                labels = ("first", "second") if kind == "joint" else ("0", "1")
                assignment[f"m{m}"] = labels[bits[m]]
            z = c.outcome_string(assignment)
            ops.append(Op(f"{cid}.distribution", "distribution", n,
                          (lambda c=c: circuits.distribution(c)),
                          (lambda res, n=n_strings: self._check_dist(res, n)),
                          lambda res: {"circuits.outcome_strings": len(res)}))
            ops.append(Op(f"{cid}.prob", "prob", n,
                          (lambda c=c, z=z: circuits.prob(c, z)),
                          lambda res: None if -1e-9 <= res <= 1 + 1e-9 else f"prob {res!r}",
                          lambda res: {"circuits.outcome_strings": 1}))
            pairs.append((f"{cid}.distribution", f"{cid}.prob",
                          lambda dist, pz, z=z: _close(pz, dist[z], 1e-9, "prob vs distribution")))
        for n_sys, loc in ((3, 1), (3, 2), (4, 1), (4, 2)):
            ops.append(Op(f"span{n_sys}.{loc}", "n_local_span", n_sys * 10 + loc,
                          (lambda n_sys=n_sys, loc=loc: tomography.n_local_span(th, n_sys, loc)),
                          (lambda res, n_sys=n_sys, loc=loc: self._check_span(res, n_sys, loc))))
        t1, t2 = th.gates["t1"].outcomes["0"], th.gates["t2"].outcomes["0"]
        for loc, s in zip(("local", "global"), search_seeds):
            ops.append(Op(f"search.{loc}", "distinguish_search", 1,
                          (lambda loc=loc, s=s: tomography.distinguish_search(
                              th, t1, t2, loc, seed=s, n_random=self.N_RANDOM)),
                          self._check_search,
                          lambda res: {"tomography.evaluations": res.evaluations}))
        return Round(ops, pairs)

    @staticmethod
    def _check_dist(dist, n_strings: int) -> str | None:
        if len(dist) != n_strings:
            return f"{len(dist)} outcome strings, want {n_strings}"
        if any(not (-1e-9 <= p <= 1 + 1e-9) for p in dist.values()):
            return "probability outside [0, 1]"
        return _close(sum(dist.values()), 1.0, 1e-9, "distribution total")

    @staticmethod
    def _check_span(rep, n_sys: int, loc: int) -> str | None:
        h = 2**n_sys
        dim = h * (h + 1) // 2
        want = dim - 3**n_sys if loc == 1 else 0
        if rep.composite_dim != dim or rep.defect != want:
            return f"N={n_sys} n={loc}: dim {rep.composite_dim} defect {rep.defect}, want {dim} {want}"
        return None

    @staticmethod
    def _check_search(rep) -> str | None:
        if rep.locality == "local":
            return None if rep.separation <= 1e-12 else f"local separation {rep.separation!r}"
        return _close(rep.separation, 0.5, 1e-12, "global separation")


# ---------------------------------------------------------------------------
# afftm-frontier


# (a, 1 - a) weight pairs for the writer's two branches
_WRITER_WEIGHTS = (2.0, 0.5, -1.0, 0.25, 1.5, 0.8)


def writer_machine(k: int, a: float) -> AffineMachine:
    """Writes one branching bit per step for k steps: the frontier doubles each step."""
    states = [f"q{i}" for i in range(k)] + ["acc", "rej"]
    transitions = {}
    for i in range(k):
        nxt = f"q{i + 1}" if i + 1 < k else "acc"
        transitions[(f"q{i}", "_")] = (Branch(nxt, "0", "R", a), Branch(nxt, "1", "R", 1.0 - a))
    return AffineMachine(frozenset(states), "q0", "acc", "rej", "_", frozenset("01_"), transitions)


_SYMBOLS = ("0", "1", "_")
_MOVES = ("L", "R", "S")


def _random_machines_spec(rng: np.random.Generator, n: int) -> list:
    """Specs of n random machines with 1-3 work states and weights summing to 1.

    Weight patterns: 1; (0.5, 0.5); (2, -1); (w, 1 - w) with w in [-1, 2];
    and a Dirichlet triple.
    """
    n_work = rng.integers(1, 4, size=n)
    kinds = rng.integers(0, 5, size=(n, 9))
    uni = rng.uniform(-1.0, 2.0, size=(n, 9))
    dirichlet = rng.dirichlet(np.ones(3), size=(n, 9))
    targets = rng.integers(0, 1 << 30, size=(n, 9, 3))
    writes = rng.integers(0, 3, size=(n, 9, 3))
    moves = rng.integers(0, 3, size=(n, 9, 3))
    out = []
    for m in range(n):
        nw = int(n_work[m])
        rows = []
        for row in range(3 * nw):
            kind = kinds[m, row]
            if kind == 0:
                weights = (1.0,)
            elif kind == 1:
                weights = (0.5, 0.5)
            elif kind == 2:
                weights = (2.0, -1.0)
            elif kind == 3:
                w = float(uni[m, row])
                weights = (w, 1.0 - w)
            else:
                weights = tuple(float(x) for x in dirichlet[m, row])
            rows.append(tuple((int(targets[m, row, b] % (nw + 2)), int(writes[m, row, b]),
                               int(moves[m, row, b]), weights[b]) for b in range(len(weights))))
        out.append((nw, tuple(rows)))
    return out


def random_machine(spec) -> AffineMachine:
    nw, rows = spec
    work = [f"w{i}" for i in range(nw)]
    states = work + ["acc", "rej"]
    transitions = {}
    for row, branches in enumerate(rows):
        transitions[(work[row // 3], _SYMBOLS[row % 3])] = tuple(
            Branch(states[t], _SYMBOLS[s], _MOVES[mv], w) for t, s, mv, w in branches)
    return AffineMachine(frozenset(states), "w0", "acc", "rej", "_", frozenset(_SYMBOLS),
                         transitions)


class AfftmFrontier:
    """Branching writers of 10-14 steps, plus batches of small random machines.

    Per round: a writer of each length k = 10..14 through acceptance_weight
    and through norm_trace (frontier up to 2^k), and twenty batches of 200
    random machines, each stepped twice with direct `step` calls, two after
    each writer. The batches are two thirds of the ops; the k = 13 and 14
    writers are the slowest seventh.
    """

    name = "afftm-frontier"
    trace_rounds = 2
    KS = (10, 11, 12, 13, 14)
    N_BATCHES = 20
    BATCH = 200

    def theories(self) -> dict:
        return {}

    def round_spec(self, seed: int, r: int) -> list:
        rng = _rng(seed, r)
        writers = [(k, fn, _WRITER_WEIGHTS[int(rng.integers(0, len(_WRITER_WEIGHTS)))])
                   for k in self.KS for fn in ("acceptance_weight", "norm_trace")]
        batches = [_random_machines_spec(rng, self.BATCH) for _ in range(self.N_BATCHES)]
        return [writers, batches]

    def materialize(self, spec, env) -> Round:
        writers, batches = spec
        ops: list[Op] = []
        for k, fn, a in writers:
            m = writer_machine(k, a)
            counts = (lambda k: lambda res: {"afftm.configurations": 2 ** (k + 1) - 1,
                                             "afftm.peak_frontier": 2**k})(k)
            if fn == "acceptance_weight":
                # the 2^k branch weights have absolute values summing to (|a| + |1-a|)^k
                tol = 1e-9 * (abs(a) + abs(1.0 - a)) ** k
                ops.append(Op(f"writer{k}.{fn}", fn, k,
                              (lambda m=m, k=k: afftm.acceptance_weight(m, "", k)),
                              (lambda res, tol=tol: _close(res, 1.0, tol, "writer acceptance weight")),
                              counts))
            else:
                ops.append(Op(f"writer{k}.{fn}", fn, k,
                              (lambda m=m, k=k: afftm.norm_trace(m, "", k)),
                              (lambda res, k=k, a=a: self._check_norms(res, k, a)),
                              counts))
        batch_ops = []
        for j, batch in enumerate(batches):
            machines = [random_machine(s) for s in batch]
            batch_ops.append(Op(f"batch{j}", "step", 1, (lambda ms=machines: self._run_batch(ms)),
                                self._check_batch, self._batch_counts))
        # each writer is followed by two batches
        pairs = zip(batch_ops[::2], batch_ops[1::2])
        return Round([op for w, pair in zip(ops, pairs) for op in (w, *pair)])

    @staticmethod
    def _run_batch(machines) -> list:
        out = []
        for m in machines:
            v = {afftm.initial_configuration(m, ""): 1.0}
            for _ in range(2):
                v = afftm.step(m, v)
                out.append((len(v), sum(v.values())))
        return out

    @staticmethod
    def _check_batch(res) -> str | None:
        for size, total in res:
            err = _close(total, 1.0, 1e-12, "conserved weight")
            if err:
                return err
        return None

    @staticmethod
    def _batch_counts(res) -> dict:
        return {"afftm.configurations": sum(size for size, _ in res),
                "afftm.peak_frontier": max(size for size, _ in res)}

    @staticmethod
    def _check_norms(trace, k: int, a: float) -> str | None:
        if len(trace.norms) != k + 1:
            return f"{len(trace.norms)} norms, want {k + 1}"
        base = a * a + (1.0 - a) ** 2
        for i, got in enumerate(trace.norms):
            want = base ** (i / 2)
            if abs(got - want) > 1e-9 * want:
                return f"norm at step {i}: got {got!r}, want {want!r}"
        return None


# ---------------------------------------------------------------------------
# cli-bundled


DATA = "src/gptlab/data/"

# Every README command, plus `afftm check` and `interfere decompose`.
CLI_COMMANDS = {
    "theory-info": ["theory", "info", "--theory", DATA + "theory_rebit.json"],
    "circuit-eval": ["circuit", "eval", "--circuit", DATA + "circuit_rebit_bell.json"],
    "circuit-accept": ["circuit", "accept", "--circuit", DATA + "circuit_coin.json"],
    "afftm-run": ["afftm", "run", "--machine", DATA + "machine_branch.json", "--input", "",
                  "--max-steps", "5"],
    "afftm-norms": ["afftm", "norms", "--machine", DATA + "machine_branch.json", "--input", "",
                    "--max-steps", "5"],
    "afftm-check": ["afftm", "check", "--machine", DATA + "machine_parity.json",
                    "--inputs", "0,1,0110,111", "--max-steps", "10"],
    "interfere-order": ["interfere", "order", "--family", DATA + "family_qutrit.json"],
    "interfere-decompose": ["interfere", "decompose", "--family", DATA + "family_qutrit.json",
                            "--vector", "[1,0,0,0,0,0,0,0,0.5]", "--order", "2"],
    "tomo-check": ["tomo", "check", "--theory", DATA + "theory_rebit.json", "--systems", "2",
                   "--locality", "1"],
    "tomo-count": ["tomo", "count", "--k", "3", "--systems", "4", "--locality", "2"],
    "query-parity": ["query", "parity", "--table", "0110"],
    "query-grover": ["query", "grover", "--n", "16", "--marked", "3"],
    "query-bounds": ["query", "bounds", "--problem", "search", "--n", "100", "--k", "2"],
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`gptlab --json <argv>` in-process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", *argv])
    return code, out.getvalue()


def _queries(report: dict) -> int:
    total = 0
    for key, value in report.items():
        if key == "queries":
            total += value
        elif isinstance(value, dict):
            total += _queries(value)
    return total


class CliBundled:
    """Every README command on the bundled data, in-process through cli.main.

    Per round, each of the 13 commands runs twice, in seeded order. Outputs
    must keep every value of the stored golden output byte for byte, and the
    two invocations of a command must print the same bytes.
    """

    name = "cli-bundled"
    trace_rounds = 8

    def __init__(self) -> None:
        self.golden = json.loads(GOLDEN_CLI.read_text())

    def theories(self) -> dict:
        return {}

    def round_spec(self, seed: int, r: int) -> list:
        names = sorted(CLI_COMMANDS) * 2
        return [names[int(i)] for i in _rng(seed, r).permutation(len(names))]

    def materialize(self, spec, env) -> Round:
        ops = []
        seen: dict[str, str] = {}
        pairs = []
        for name in spec:
            op_name = f"{name}#{int(name in seen)}"
            if name in seen:
                pairs.append((seen[name], op_name,
                              lambda a, b: None if a == b else "two invocations differ"))
            seen[name] = op_name
            ops.append(Op(op_name, name, 1, (lambda argv=CLI_COMMANDS[name]: run_cli(argv)),
                          (lambda res, name=name: self._check(name, res)),
                          lambda res: {"querylab.queries": _queries(json.loads(res[1]))}))
        return Round(ops, pairs)

    def _check(self, name: str, res) -> str | None:
        code, stdout = res
        want = self.golden[name]
        if code != want["exit_code"]:
            return f"{name}: exit code {code}, want {want['exit_code']}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{name}: stdout is not one JSON document"
        for key, value in want["output"].items():
            if key not in got:
                return f"{name}: key {key!r} missing"
            if json.dumps(got[key], sort_keys=True) != json.dumps(value, sort_keys=True):
                return f"{name}: value of {key!r} changed"
        return None


WORKLOADS = {w.name: w for w in (CircuitEnum, RebitCompose, AfftmFrontier, CliBundled)}
