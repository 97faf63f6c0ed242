"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's transfer-matrix path:
``operator_distribution`` evaluates circuits by direct complex operator
algebra on the gates' Kraus data, and ``classical_path_distribution`` sums
over explicit basis-state trajectories. The ``kraus_*`` references build
rebit composites in the orthonormal carriers by conjugating with Kronecker
products of operators. ``reference_step`` steps an affine machine by
rebuilding and re-sorting the whole tape for every branch, and
``reference_run`` runs one on dict frontiers alone, however large they grow.
``reference_parallel_stack``, ``reference_n_local_span`` and
``reference_distinguish_search`` build their Kronecker products one ``np.kron``
chain per combination, row or sample, and ``reference_strategy_value`` so
evaluates the one strategy a search report names; ``reference_stack_contract``
applies a layer by multiplying a frontier by its whole
``reference_parallel_stack``, the stack walk the rules' per-wire contraction
is held to; ``reference_layer_stack`` builds a
circuit layer's stack one ``parallel_matrix`` call per outcome combination,
and ``reference_walk`` evaluates a circuit by multiplying its frontier by
those stacks: the Kronecker walk the engine's per-wire contraction is held to.
``reference_contract_wires`` is the per-wire contraction as it was before
factors held their stacks: it stacks each factor's outcome matrices and tests
one-outcome factors against ``np.eye`` on every call; ``reference_theory``
swaps in a composite rule that contracts through it, the reference the held
stacks are held to bit for bit.
``reference_accept`` weighs a built-in acceptor's layers on that rule with
weight arrays built per gate, layer and call, the reference the gates' held
weight rows are held to bit for bit.
``reference_draws`` keeps the one-sample bodies of the strategy samplers that
draw in bulk, and ``reference_rebit_states`` and ``reference_rebit_effects``
the rebit samplers as they drew with ``rng.uniform``'s array bounds.
``bit_oracle_unitary`` writes the oracle's dense permutation
matrix one basis state (x, y) at a time, and ``oracle_unitary`` adds its
transfer matrix; ``defect_direction_overlap`` measures a vector against a
tomography report's defect basis. Random corpus builders are seeded.
``operator_of`` reads a carrier's coordinates back as an operator, and
``rebit_carrier`` is the held carrier of n rebits the rebit rule's
composites are written in.
``reference_builtin_arrays`` computes every array a built-in theory's build
holds from scratch, by the formulas the theories were written with, and
``builtin_arrays`` reads the same from a build: the reference the arrays the
builds share are held to byte for byte.
``reference_validate`` validates and foliates a circuit in three passes over
its wires, ``reference_check_foliation`` checks an explicit foliation in a
pass of its own before it is laid out, and ``reference_spans`` decides which
wires a matrix side spans by unpacking composite factors itself: the
references the engine's one pass over the wiring is held to.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import itertools
import math
import signal
from collections.abc import Mapping
from functools import partial, reduce

import numpy as np
import pytest

from gptlab import (
    CircuitDAG,
    boxworld_gbit,
    classical_theory,
    quantum_theory,
    real_quantum_theory,
)
from gptlab.afftm import AffineMachine, Branch, Configuration, initial_configuration
from gptlab.circuits import ValidationReport, _compile, _walk, foliate
from gptlab.core import (PHYSICAL_TOL, UNIT, CompositeType, EffectVector, Factor, KroneckerRule,
                         StateVector, SystemType, TransformationMatrix, _rotate, kron_rows)
from gptlab.errors import (CircuitValidationError, GptLabError, HaltingViolationError,
                           MachineValidationError)
from gptlab.interference import subsets
from gptlab.querylab import OracleFunction
from gptlab.theories import (DensityCarrier, RebitRule, StrategyHooks, _bloch_coords,
                             _symmetric_carrier, even_y_index, hermitian_basis, pr_box_coords,
                             symmetric_pauli_basis)
from gptlab.tomography import SeparationReport, TomographyReport, _partitions


@pytest.fixture(scope="session")
def classical2():
    return classical_theory(2)


@pytest.fixture(scope="session")
def qubit():
    return quantum_theory(2)


@pytest.fixture(scope="session")
def rebit():
    return real_quantum_theory(2)


@pytest.fixture(scope="session")
def boxworld():
    return boxworld_gbit()


def all_theories():
    return [classical_theory(2), quantum_theory(2), real_quantum_theory(2), boxworld_gbit()]


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the block with ``TimeoutError`` once it has run ``seconds``, rather
    than hang the suite; a timer signal, so it bounds the main thread only."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def product_state(theory, states) -> StateVector:
    """The product of ``states`` on the theory's composite of their systems."""
    rule = theory.composite_rule
    return StateVector(rule.composite([s.system for s in states]), rule.product_state_coords(states))


# ---------------------------------------------------------------------------
# independent circuit oracles


def _wire_hilbert_dim(system) -> int:
    # quantum systems carry dim d^2, rebits dim 3; both sit on a 2-dim space here
    if system.dim in (3, 4):
        return 2
    raise AssertionError(f"oracle only handles two-level wires, got dim {system.dim}")


def _perm_unitary(dims, perm):
    n = int(np.prod(dims)) if dims else 1
    idx = np.arange(n).reshape(dims).transpose(perm).ravel()
    p = np.zeros((n, n))
    p[np.arange(n), idx] = 1.0
    return p


def operator_distribution(circuit: CircuitDAG) -> dict:
    """Outcome distribution by direct density-operator evolution.

    Uses only the wiring and each outcome's Kraus operators: no transfer
    matrices, no composite rule. Works for the quantum and rebit corpora.
    """
    layers = foliate(circuit, "singletons")
    in_wire = {w.dst: w for w in circuit.wires}
    order = {iid: k for k, iid in enumerate(circuit.instance_ids)}
    out: dict = {}

    def walk(depth, live, rho, chosen):
        if depth == len(layers):
            key = tuple(sorted(chosen, key=lambda p: order[p[0]]))
            out[key] = out.get(key, 0.0) + float(rho[0, 0].real)
            return
        iid = layers[depth][0]
        gate = circuit.gate(iid)
        wires_in = [in_wire[(iid, p)] for p in range(len(gate.inputs))]
        rest = [w for w in live if w not in wires_in]
        target = wires_in + rest
        dims = [2] * len(live)
        if live and target != live:
            perm = [live.index(w) for w in target]
            u = _perm_unitary(dims, perm)
            rho = u @ rho @ u.T
        rest_dim = 2 ** len(rest)
        produced = [next(w for w in circuit.wires if w.src == (iid, p))
                    for p in range(len(gate.outputs))]
        for label, tm in gate.outcomes.items():
            assert tm.kraus is not None, "oracle needs Kraus data"
            branch = np.zeros((tm.kraus[0].shape[0] * rest_dim,) * 2, dtype=complex)
            for k in tm.kraus:
                big = np.kron(k, np.eye(rest_dim))
                branch += big @ rho @ big.conj().T
            walk(depth + 1, produced + rest, branch, chosen + ((iid, label),))

    walk(0, [], np.ones((1, 1), dtype=complex), ())
    return out


def operator_of(carrier: DensityCarrier, coords) -> np.ndarray:
    """The operator sum_a coords[a] B_a: ``carrier.to_vector`` inverted."""
    return np.einsum("a,aij->ij", np.asarray(coords, dtype=float), carrier.basis)


def rebit_carrier(n_rebits: int) -> DensityCarrier:
    """The carrier of n rebits, held once per process: the symmetric Pauli basis."""
    return _symmetric_carrier(n_rebits)


def _conjugation_matrix(b_out, b_in, kraus) -> np.ndarray:
    """M_ab = Tr(B_a sum_k K B_b K^dag) between two orthonormal operator bases."""
    moved = sum(k @ b_in @ k.conj().T for k in kraus)
    return (b_out.conj().reshape(len(b_out), -1) @ moved.reshape(len(moved), -1).T).real


def kraus_parallel_matrix(rule, pieces) -> np.ndarray:
    """Rebit transfer matrix of pieces in parallel, summed over every Kraus product."""
    kraus = [reduce(np.kron, combo) for combo in itertools.product(*(p.kraus for p in pieces))]
    k_out, k_in = (h.bit_length() - 1 for h in kraus[0].shape)
    return _conjugation_matrix(rebit_carrier(k_out).basis, rebit_carrier(k_in).basis, kraus)


def kraus_permutation_matrix(rule, leaves, perm) -> np.ndarray:
    """Conjugation by the qubit permutation unitary moving factor perm[i] to slot i."""
    offsets = np.cumsum([0] + list(leaves))
    order = [j for i in perm for j in range(offsets[i], offsets[i] + leaves[i])]
    basis = rebit_carrier(len(order)).basis
    return _conjugation_matrix(basis, basis, [_perm_unitary([2] * len(order), order)])


def kraus_product_coords(rule, pieces, leaves) -> np.ndarray:
    """Carrier coordinates of the Kronecker product of the pieces' operators."""
    ops = [operator_of(rebit_carrier(k), p.coords) for p, k in zip(pieces, leaves)]
    return rebit_carrier(sum(leaves)).to_vector(reduce(np.kron, ops))


def reference_parallel_stack(rule, pieces) -> np.ndarray:
    """The ``(prod K_i, out, in)`` stack of every outcome combination's
    ``rule.parallel_matrix``, in itertools.product order over ``pieces[i]``,
    factor i's outcome matrices: an np.kron chain from [[1.0]] over the chosen
    outcomes' matrices; for rebits, over their Pauli transfer matrices,
    computed per call and restricted to the even-Y strings at the end."""
    mats = []
    for combo in itertools.product(*pieces):
        if not isinstance(rule, RebitRule):
            mats.append(reduce(np.kron, [p.matrix for p in combo], np.eye(1)))
            continue
        full = reduce(np.kron, [rule._transfer_matrix(p.kraus) for p in combo], np.eye(1))
        k_out, k_in = (n.bit_length() // 2 for n in full.shape)  # 4^k_out x 4^k_in
        mats.append(full[np.ix_(even_y_index(k_out), even_y_index(k_in))])
    return np.stack(mats)


def reference_stack_contract(rule, pieces, front, weights=None) -> np.ndarray:
    """``rule.contract(pieces, front, weights)`` as a walk over the layer's
    whole ``reference_parallel_stack``: each row times every combination's
    matrix or, with weights, times the matrices' sum under the row's
    Kronecker product of the factors' weights (``np.tensordot``'s own
    ``np.dot``)."""
    stack = reference_parallel_stack(rule, pieces)
    if weights is None:
        return np.matmul(stack, front[:, None, :, None]).reshape(-1, stack.shape[1])
    w = kron_rows(weights)
    summed = np.dot(w, stack.reshape(len(stack), -1)).reshape(len(w), *stack.shape[1:])
    return np.matmul(summed, front[:, :, None])[:, :, 0]


def reference_layer_stack(layer) -> np.ndarray:
    """A compiled layer's stack as the engine once built it: one
    ``parallel_matrix`` call per outcome combination of its pieces, in
    ``itertools.product`` order."""
    return np.stack([layer.rule.parallel_matrix(list(combo))
                     for combo in itertools.product(*layer.pieces)])


def reference_walk(circuit: CircuitDAG, foliation=None) -> np.ndarray:
    """``distribution(circuit, foliation=foliation)``'s values in leaf order,
    from every layer's ``reference_layer_stack`` times every prefix of the
    frontier, one matrix-vector product per (prefix, combination)."""
    front = np.ones((1, 1))
    for layer in _compile(circuit, foliation):
        if layer.perm is not None:
            front = front[:, layer.perm]
        stack = reference_layer_stack(layer)
        front = np.matmul(stack, front[:, None, :, None]).reshape(-1, stack.shape[1])
    return front[:, 0]


def reference_contract_wires(factors, front, weights=None) -> np.ndarray:
    """``core.contract_wires`` where ``factors[i]`` lists factor i's outcome
    matrices: ``np.stack`` per factor and per call, and a one-outcome factor
    is skipped (without weights) when ``np.array_equal`` finds it equal to
    ``np.eye``."""
    x, moved = front, 1
    for i, mats in enumerate(factors):
        m = mats[0]
        if weights is None and len(mats) == 1 and np.array_equal(m, np.eye(len(m))):
            moved *= len(m)
            continue
        x, moved = _rotate(x, moved), 1
        mats = np.stack(mats)
        if weights is not None:
            mats = np.tensordot(weights[i], mats, axes=1)[:, None]
        y = np.matmul(x.reshape(len(x), 1, m.shape[1], -1).swapaxes(2, 3),
                      mats.swapaxes(-1, -2))
        x = y.reshape(-1, y.shape[2] * y.shape[3])
    return _rotate(x, moved)


class ReferenceKroneckerRule(KroneckerRule):
    """The tensor-product rule contracting through ``reference_contract_wires``,
    with a fresh ``np.eye`` passthrough per wire and compile."""

    def identity(self, system):
        return TransformationMatrix(system, system, np.eye(system.dim))

    def passthrough(self, system):
        return Factor((self.identity(system),))

    def contract(self, pieces, front, weights=None):
        return reference_contract_wires([[p.matrix for p in piece] for piece in pieces],
                                        front, weights)


class ReferenceRebitRule(RebitRule):
    """The rebit rule contracting layers of two or more factors through
    ``reference_contract_wires``, on transfer matrices computed per call; a
    layer of one factor is ``reference_stack_contract``."""

    def contract(self, pieces, front, weights=None):
        if len(pieces) == 1:
            return reference_stack_contract(self, pieces, front, weights)
        factors = [[self._transfer_matrix(p.kraus) for p in piece] for piece in pieces]
        k_out, k_in = (sum(f[0].shape[axis].bit_length() - 1 for f in factors) // 2
                       for axis in (0, 1))
        full = np.zeros((len(front), 4**k_in))
        full[:, even_y_index(k_in)] = front
        return reference_contract_wires(factors, full, weights)[:, even_y_index(k_out)]


def reference_theory(theory):
    """``theory`` with its composite rule replaced by the matching reference rule."""
    rule = theory.composite_rule
    ref = (ReferenceRebitRule if isinstance(rule, RebitRule) else ReferenceKroneckerRule)(rule.theory)
    return dataclasses.replace(theory, composite_rule=ref)


def reference_accept(circuit: CircuitDAG, acceptor, foliation=None) -> float:
    """``acceptance_prob`` of a built-in acceptor as it was before gates held
    their weight rows, on ``reference_theory``'s rule: every layer builds one
    ``np.array`` of outcome weights per gate and one ``np.ones`` per
    passthrough factor, and the result is the ``.mean()`` of the rows."""
    ref = copy.copy(circuit)
    ref.theory = reference_theory(circuit.theory)
    layers = _compile(ref, foliation)
    kind, target = acceptor.kind, None
    if kind == "reject-all":
        return 0.0
    if kind == "first-outcome-is-0":
        target = acceptor.instance or circuit.instance_ids[0]
    rows = 2 if kind == "parity-of-labels" else 1

    def weigh(layer):
        weights = []
        for iid, gate in layer.gates:
            w = [[1.0] * len(gate.outcomes)]
            if kind == "parity-of-labels":
                w.append([-1.0 if lab == "1" else 1.0 for lab in gate.outcomes])
            elif iid == target:
                w = [[float(lab == "0") for lab in gate.outcomes]]
            weights.append(np.array(w))
        return weights + [np.ones((rows, 1))] * (len(layer.pieces) - len(weights))

    return float(_walk(layers, weigh=weigh, rows=rows)[:, 0].mean())


def reference_product_coords(rule, pieces) -> np.ndarray:
    """Joint coordinates of one product by an np.kron chain over the pieces'
    coordinates; for rebits, over their zero-padded Pauli string coordinates,
    restricted to the even-Y strings at the end."""
    if not isinstance(rule, RebitRule):
        return reduce(np.kron, [p.coords for p in pieces], np.ones(1))
    full, k = np.ones(1), 0
    for p in pieces:
        k_p = len(p.coords).bit_length() // 2  # 2^k(2^k+1)/2 coordinates
        padded = np.zeros(4**k_p)
        padded[even_y_index(k_p)] = p.coords
        full, k = np.kron(full, padded), k + k_p
    return full[even_y_index(k)]


def classical_path_distribution(circuit: CircuitDAG) -> dict:
    """Outcome distribution by summing over basis-state trajectories.

    Handles single-wire classical gates, which is all the classical corpus
    uses; probabilities come from explicit path products, not layer matrices.
    """
    layers = foliate(circuit, "singletons")
    in_wire = {w.dst: w for w in circuit.wires}
    order = {iid: k for k, iid in enumerate(circuit.instance_ids)}
    out: dict = {}

    def walk(depth, live, table, chosen):
        if depth == len(layers):
            key = tuple(sorted(chosen, key=lambda p: order[p[0]]))
            out[key] = out.get(key, 0.0) + sum(table.values())
            return
        iid = layers[depth][0]
        gate = circuit.gate(iid)
        assert len(gate.inputs) <= 1 and len(gate.outputs) <= 1
        for label, tm in gate.outcomes.items():
            m = tm.matrix
            if not gate.inputs:  # preparation
                new_live = live + [next(w for w in circuit.wires if w.src == (iid, 0))]
                new_table = {}
                for key, w in table.items():
                    for j in range(m.shape[0]):
                        if m[j, 0] != 0.0:
                            new_table[key + (j,)] = new_table.get(key + (j,), 0.0) + w * m[j, 0]
            elif not gate.outputs:  # effect
                pos = live.index(in_wire[(iid, 0)])
                new_live = live[:pos] + live[pos + 1:]
                new_table = {}
                for key, w in table.items():
                    nk = key[:pos] + key[pos + 1:]
                    val = w * m[0, key[pos]]
                    if val != 0.0:
                        new_table[nk] = new_table.get(nk, 0.0) + val
            else:  # transformation
                pos = live.index(in_wire[(iid, 0)])
                new_live = live[:pos] + [next(w for w in circuit.wires if w.src == (iid, 0))] + live[pos + 1:]
                new_table = {}
                for key, w in table.items():
                    for j in range(m.shape[0]):
                        if m[j, key[pos]] != 0.0:
                            nk = key[:pos] + (j,) + key[pos + 1:]
                            new_table[nk] = new_table.get(nk, 0.0) + w * m[j, key[pos]]
            walk(depth + 1, new_live, new_table, chosen + ((iid, label),))

    walk(0, [], {(): 1.0}, ())
    return out


# ---------------------------------------------------------------------------
# random corpora


_CATALOG = {
    "classical": dict(prep1=["prep_0", "prep_uniform", "coin"], prep2=[],
                      trans=["id", "not"], close1=["read", "sink"], close2=[]),
    "quantum": dict(prep1=["prep_0", "prep_plus", "prep_mixed"], prep2=["prep_bell"],
                    trans=["h", "x", "z", "t"], close1=["measure", "sink"], close2=[]),
    "real-quantum": dict(prep1=["prep_0", "prep_plus", "prep_mixed"], prep2=["prep_phi_plus"],
                         trans=["t1", "t2", "x", "h"], close1=["measure", "sink"],
                         close2=["joint_measure"]),
    "boxworld": dict(prep1=["prep_mixed", "prep_v00", "prep_v11", "prep_v01"], prep2=["prep_pr"],
                     trans=["id"], close1=["measure_x0", "measure_x1", "sink"], close2=[]),
}


def random_circuit(theory, rng: np.random.Generator, max_gates: int = 5) -> CircuitDAG:
    """A small random closed circuit: preparations, a few transformations,
    then a measurement or sink on every open wire."""
    cat = _CATALOG[theory.meta["builtin"]]
    c = CircuitDAG(theory)
    counter = itertools.count()
    open_ports: list = []

    def place(gname: str) -> None:
        iid = f"g{next(counter)}"
        gate = theory.gate(gname)
        c.add(iid, gate)
        for p in range(len(gate.inputs)):
            k = int(rng.integers(0, len(open_ports)))
            c.connect(open_ports.pop(k), (iid, p))
        for p in range(len(gate.outputs)):
            open_ports.append((iid, p))

    if cat["prep2"] and rng.random() < 0.4:
        place(str(rng.choice(cat["prep2"])))
    else:
        place(str(rng.choice(cat["prep1"])))
        if rng.random() < 0.5:
            place(str(rng.choice(cat["prep1"])))
    budget = max_gates - len(c.instances) - len(open_ports)
    for _ in range(int(rng.integers(0, max(1, budget + 1)))):
        place(str(rng.choice(cat["trans"])))
    if cat["close2"] and len(open_ports) == 2 and rng.random() < 0.5:
        place(str(rng.choice(cat["close2"])))
    while open_ports:
        place(str(rng.choice(cat["close1"])))
    return c


def rebuilt(circuit: CircuitDAG) -> CircuitDAG:
    """A fresh circuit with the same theory, instances and wires, built by
    ``add`` and ``connect``, so it holds no compilation."""
    c = CircuitDAG(circuit.theory)
    for iid, gate in circuit.instances:
        c.add(iid, gate)
    for w in circuit.wires:
        c.connect(w.src, w.dst)
    return c


def reference_spans(t: SystemType, wires: tuple[SystemType, ...]) -> bool:
    """Whether a matrix side of type ``t`` is the joint system of ``wires``:
    any type spans itself, a composite its factors, and ``UNIT`` no wires."""
    if (t,) == wires:
        return True
    if isinstance(t, CompositeType) and t.factors:
        return t.factors == wires
    return not wires and (t is UNIT or t == UNIT)


def reference_validate(circuit: CircuitDAG, style: str = "greedy") -> tuple[ValidationReport, list]:
    """The validation report and the foliation of ``style``, from three passes
    over the wires: ports, then types, then the dependency edges."""
    errors: list[str] = []
    ids = {iid for iid, _ in circuit.instances}

    out_seen: dict = {}
    in_seen: dict = {}
    for w in circuit.wires:
        for end, role, seen in ((w.src, "source", out_seen), (w.dst, "target", in_seen)):
            iid, port = end
            if iid not in ids:
                errors.append(f"wire {role} references unknown instance '{iid}'")
                continue
            gate = circuit.gate(iid)
            ports = gate.outputs if role == "source" else gate.inputs
            if not (0 <= port < len(ports)):
                errors.append(f"wire {role} ('{iid}', {port}): port index out of range")
                continue
            seen[end] = seen.get(end, 0) + 1

    for iid, gate in circuit.instances:
        for role, n, seen in (("output", len(gate.outputs), out_seen),
                              ("input", len(gate.inputs), in_seen)):
            for p in range(n):
                count = seen.get((iid, p), 0)
                if count == 0:
                    errors.append(f"open port: {role} {p} of '{iid}' is not connected")
                elif count > 1:
                    errors.append(f"{role} {p} of '{iid}' connected {count} times")

    for w in circuit.wires:
        (si, sp), (di, dp) = w.src, w.dst
        if si in ids and di in ids:
            sg, dg = circuit.gate(si), circuit.gate(di)
            if 0 <= sp < len(sg.outputs) and 0 <= dp < len(dg.inputs):
                if sg.outputs[sp] != dg.inputs[dp]:
                    errors.append(
                        f"type mismatch on wire ('{si}',{sp})->('{di}',{dp}): "
                        f"{sg.outputs[sp].label} vs {dg.inputs[dp].label}"
                    )

    order = {iid: k for k, (iid, _) in enumerate(circuit.instances)}
    succ: dict[str, set[str]] = {iid: set() for iid in order}
    indeg = dict.fromkeys(order, 0)
    for w in circuit.wires:
        si, di = w.src[0], w.dst[0]
        if si in ids and di in ids and di not in succ[si]:
            succ[si].add(di)
            indeg[di] += 1
    ready = [iid for iid in order if indeg[iid] == 0]
    layers: list[list[str]] = []
    while ready:
        layer = ready if style == "greedy" else ready[:1]
        next_ready = ready[len(layer):]
        for iid in layer:
            for nxt in succ[iid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    next_ready.append(nxt)
        layers.append(list(layer))
        ready = sorted(next_ready, key=order.get)
    if sum(map(len, layers)) != len(ids):
        stuck = sorted(iid for iid in ids if indeg[iid] > 0)
        errors.append(f"cycle detected involving instances {stuck}")

    return ValidationReport(not errors, errors), layers


def reference_check_foliation(circuit: CircuitDAG, layers: list[list[str]]) -> list[list[str]]:
    """``layers``, once they cover every instance once and put every wire's
    source in an earlier layer than its target; else ``CircuitValidationError``."""
    seen: dict[str, int] = {}
    for k, layer in enumerate(layers):
        for iid in layer:
            if iid in seen:
                raise CircuitValidationError(f"instance '{iid}' appears in two layers")
            seen[iid] = k
    if set(seen) != set(circuit.instance_ids):
        raise CircuitValidationError("foliation does not cover every instance exactly once")
    for w in circuit.wires:
        if seen[w.src[0]] >= seen[w.dst[0]]:
            raise CircuitValidationError(
                f"foliation violates wire order ('{w.src[0]}' before '{w.dst[0]}')"
            )
    return layers


def random_machine(rng: np.random.Generator, n_work: int | None = None) -> AffineMachine:
    """A random validated machine; weight patterns include negative weights."""
    if n_work is None:
        n_work = int(rng.integers(1, 4))
    work = [f"w{i}" for i in range(n_work)]
    states = work + ["acc", "rej"]
    alphabet = ["0", "1", "_"]
    moves = ["L", "R", "S"]
    transitions = {}
    for s in work:
        for sym in alphabet:
            kind = rng.integers(0, 5)
            if kind == 0:
                weights = [1.0]
            elif kind == 1:
                weights = [0.5, 0.5]
            elif kind == 2:
                weights = [2.0, -1.0]
            elif kind == 3:
                w = float(rng.uniform(-1.0, 2.0))
                weights = [w, 1.0 - w]
            else:
                weights = list(rng.dirichlet(np.ones(3)))
            # list[rng.integers(len(list))] draws what rng.choice(list) draws,
            # without converting the list to an array each time
            branches = tuple(
                Branch(next_state=states[rng.integers(len(states))],
                       write=alphabet[rng.integers(len(alphabet))],
                       move=moves[rng.integers(len(moves))],
                       weight=w)
                for w in weights
            )
            transitions[(s, sym)] = branches
    return AffineMachine(states=frozenset(states), initial="w0", accept="acc",
                         reject="rej", blank="_", alphabet=frozenset(alphabet),
                         transitions=transitions)


# ---------------------------------------------------------------------------
# affine machine references


REFERENCE_MOVES = {"L": -1, "R": 1, "S": 0}


def reference_write(tape, pos: int, sym: str, blank: str) -> tuple:
    """The tape with `sym` at `pos`: every other cell copied, then sorted."""
    items = [(p, s) for p, s in tape if p != pos]
    if sym != blank:
        items.append((pos, sym))
    items.sort()
    return tuple(items)


def reference_step(machine: AffineMachine, vector: dict) -> dict:
    """One step with a linear-scan read and a full tape rebuild per branch."""
    out: dict = {}
    for cfg, weight in vector.items():
        if machine.is_halting(cfg.state):
            out[cfg] = out.get(cfg, 0.0) + weight
            continue
        symbol = next((s for p, s in cfg.tape if p == cfg.head), machine.blank)
        branches = machine.transitions.get((cfg.state, symbol))
        if not branches:
            raise MachineValidationError(
                f"no transition for non-halting ({cfg.state!r}, {symbol!r})"
            )
        for b in branches:
            tape = reference_write(cfg.tape, cfg.head, b.write, machine.blank)
            nxt = Configuration(b.next_state, tape, cfg.head + REFERENCE_MOVES[b.move])
            out[nxt] = out.get(nxt, 0.0) + weight * b.weight
    return {cfg: w for cfg, w in out.items() if w != 0.0}


def reference_run(machine: AffineMachine, x: str, max_steps: int) -> list[dict]:
    """Every frontier of a run by ``reference_step``, with the library's halting rule."""
    vectors = [{initial_configuration(machine, x): 1.0}]
    for _ in range(max_steps):
        if all(machine.is_halting(c.state) for c in vectors[-1]):
            return vectors
        vectors.append(reference_step(machine, vectors[-1]))
    running = sorted({c.state for c in vectors[-1] if not machine.is_halting(c.state)})
    if running:
        raise HaltingViolationError(
            f"branches still running after {max_steps} steps (states {running})")
    return vectors


def reference_merge(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows merged through a dict keyed on each row's tuple, in first-seen
    order; each group's weights are added in row order starting from 0.0."""
    out: dict = {}
    for row, w in zip(map(tuple, rows.tolist()), weights.tolist()):
        out[row] = out.get(row, 0.0) + w
    merged = np.array(list(out), dtype=rows.dtype).reshape(len(out), rows.shape[1])
    return merged, np.array(list(out.values()), dtype=float)


def writer_machine(k: int, a: float, move: str = "R", last: str = "acc") -> AffineMachine:
    """Writes one branching bit per step for k steps, then enters `last`.

    The frontier doubles each step: 2^k configurations at the end.
    """
    states = [f"q{i}" for i in range(k)] + ["acc", "rej"]
    transitions = {}
    for i in range(k):
        nxt = f"q{i + 1}" if i + 1 < k else last
        transitions[(f"q{i}", "_")] = (Branch(nxt, "0", move, a), Branch(nxt, "1", move, 1.0 - a))
    return AffineMachine(frozenset([*states, last]), "q0", "acc", "rej", "_", frozenset("01_"),
                         transitions)


def fanout(machine: AffineMachine, k: int, a: float) -> AffineMachine:
    """`machine` behind k branching steps that write a bit and move right.

    A run starts with up to 2^k configurations on distinct tapes, all in the
    machine's initial state.
    """
    fan = [f"fan{i}" for i in range(k)] + [machine.initial]
    transitions = dict(machine.transitions)
    for here, nxt in zip(fan, fan[1:]):
        for symbol in machine.alphabet:
            transitions[(here, symbol)] = (Branch(nxt, "0", "R", a), Branch(nxt, "1", "R", 1.0 - a))
    return AffineMachine(machine.states | set(fan), fan[0], machine.accept, machine.reject,
                         machine.blank, machine.alphabet, transitions)


def monte_carlo_acceptance(machine: AffineMachine, x: str, shots: int,
                           rng: np.random.Generator, max_steps: int = 200) -> float:
    """Sample a probabilistic machine (all weights nonnegative) by direct runs."""
    accepted = 0
    for _ in range(shots):
        cfg = initial_configuration(machine, x)
        for _ in range(max_steps):
            if machine.is_halting(cfg.state):
                break
            symbol = next((s for p, s in cfg.tape if p == cfg.head), machine.blank)
            branches = machine.transitions[(cfg.state, symbol)]
            weights = np.array([b.weight for b in branches])
            assert np.all(weights >= 0)
            b = branches[rng.choice(len(branches), p=weights / weights.sum())]
            tape = reference_write(cfg.tape, cfg.head, b.write, machine.blank)
            cfg = Configuration(b.next_state, tape, cfg.head + REFERENCE_MOVES[b.move])
        else:
            raise AssertionError("sampled branch did not halt")
        if cfg.state == machine.accept:
            accepted += 1
    return accepted / shots


# ---------------------------------------------------------------------------
# tomography references


def reference_n_local_span(theory, n_systems: int, locality: int) -> TomographyReport:
    """n_local_span with one effect product, and one permutation, per row."""
    sys_type = theory.system()
    rule = theory.composite_rule
    types = [sys_type] * n_systems
    composite = rule.composite(types)
    rows = []
    for partition in _partitions(list(range(n_systems)), locality):
        flat = [i for block in partition for i in block]
        perm_matrix = None if flat == sorted(flat) else rule.permutation_matrix(types, flat)
        block_types = [rule.composite([sys_type] * len(block)) for block in partition]
        for choice in itertools.product(*(range(bt.dim) for bt in block_types)):
            effs = [EffectVector(bt, np.eye(bt.dim)[i]) for bt, i in zip(block_types, choice)]
            cov = reference_product_coords(rule, effs)
            rows.append(cov if perm_matrix is None else cov @ perm_matrix)
    stacked = np.asarray(rows)
    _, svals, vt = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    rank = int(np.sum(svals > PHYSICAL_TOL * svals[0]))
    return TomographyReport(theory.name, n_systems, locality, composite.dim, rank,
                            composite.dim - rank, vt[rank:])


def reference_distinguish_search(theory, t, u, locality: str, seed: int,
                                 n_random: int) -> SeparationReport:
    """distinguish_search with one product per grid pair and per random sample."""
    sys_type = theory.system()
    rule = theory.composite_rule
    pair_type = rule.composite([sys_type, sys_type])
    ident = rule.identity(sys_type)
    diff = rule.parallel_matrix([t, ident]) - rule.parallel_matrix([u, ident])
    hooks = theory.strategies
    rng = np.random.default_rng(seed)

    def vectors(grid, vector):
        """The grid's rows as named vectors, checked again as vectors."""
        names, rows = grid
        return [(name, vector(sys_type, row)) for name, row in zip(names, rows, strict=True)]

    state_cols, state_names = [], []
    for (na, sa), (nb, sb) in itertools.product(vectors(hooks.state_grid(), StateVector),
                                                repeat=2):
        state_cols.append(reference_product_coords(rule, [sa, sb]))
        state_names.append(f"{na}⊗{nb}")
    effect_rows, effect_names = [], []
    for (na, ea), (nb, eb) in itertools.product(vectors(hooks.effect_grid(), EffectVector),
                                                repeat=2):
        effect_rows.append(reference_product_coords(rule, [ea, eb]))
        effect_names.append(f"{na}⊗{nb}")
    if locality == "global":
        for name, s in theory.states.items():
            if s.system == pair_type:
                state_cols.append(s.coords)
                state_names.append(name)
        for name, e in theory.effects.items():
            if e.system == pair_type:
                effect_rows.append(e.coords)
                effect_names.append(name)

    grid_vals = np.abs(np.vstack(effect_rows) @ diff @ np.column_stack(state_cols))
    best = float(grid_vals.max())
    ei, si = np.unravel_index(int(grid_vals.argmax()), grid_vals.shape)
    best_state, best_effect = state_names[si], effect_names[ei]

    def one(sampler, vector):
        """One sample per sampler call, checked again as a vector."""
        return vector(sys_type, sampler(rng, 1)[0])

    states = [reference_product_coords(rule, [one(hooks.random_states, StateVector),
                                              one(hooks.random_states, StateVector)])
              for _ in range(n_random)]
    effects = [reference_product_coords(rule, [one(hooks.random_effects, EffectVector),
                                               one(hooks.random_effects, EffectVector)])
               for _ in range(n_random)]
    rs = np.column_stack(states) if states else np.zeros((pair_type.dim, 0))
    re = np.vstack(effects) if effects else np.zeros((0, pair_type.dim))
    rand_vals = np.abs(np.einsum("ij,ji->i", re @ diff, rs))
    if rand_vals.size and float(rand_vals.max()) > best:
        i = int(rand_vals.argmax())
        best = float(rand_vals.max())
        best_state, best_effect = f"random[{i}]", f"random[{i}]"
    return SeparationReport(best, best_state, best_effect, locality,
                            grid_vals.size + rand_vals.size)


def reference_strategy_value(theory, t, u, state: str, effect: str, seed: int,
                             n_random: int) -> float:
    """|e((T x I)s) - e((U x I)s)| for the strategy a search report names, on the
    per-product path of ``reference_distinguish_search``: a grid pair ``a⊗b``, a
    library vector on the pair, or the search's sample ``random[i]``."""
    sys_type = theory.system()
    rule = theory.composite_rule
    pair_type = rule.composite([sys_type, sys_type])
    ident = rule.identity(sys_type)
    diff = rule.parallel_matrix([t, ident]) - rule.parallel_matrix([u, ident])
    hooks = theory.strategies

    def named(name, grid, library, vector):
        if name in library and library[name].system == pair_type:
            return library[name].coords
        grid_rows = dict(zip(*grid, strict=True))
        a, b = name.split("⊗")
        return reference_product_coords(rule, [vector(sys_type, grid_rows[a]),
                                               vector(sys_type, grid_rows[b])])

    if state.startswith("random["):
        assert effect == state
        i = int(state[len("random["):-1])
        rng = np.random.default_rng(seed)
        states = [StateVector(sys_type, hooks.random_states(rng, 1)[0])
                  for _ in range(2 * n_random)]
        effects = [EffectVector(sys_type, hooks.random_effects(rng, 1)[0])
                   for _ in range(2 * n_random)]
        s = reference_product_coords(rule, states[2 * i:2 * i + 2])
        e = reference_product_coords(rule, effects[2 * i:2 * i + 2])
    else:
        s = named(state, hooks.state_grid(), theory.states, StateVector)
        e = named(effect, hooks.effect_grid(), theory.effects, EffectVector)
    return abs(float(e @ diff @ s))


def defect_direction_overlap(report: TomographyReport, candidate: np.ndarray) -> float:
    """Squared cosine between a composite-space vector and the defect subspace."""
    if report.defect < 1:
        raise GptLabError("the report has no defect subspace")
    candidate = np.asarray(candidate, dtype=float)
    norm = float(np.linalg.norm(candidate))
    if norm == 0.0:
        raise ValueError("candidate vector is zero")
    projected = report.defect_basis @ candidate
    return float(projected @ projected) / (norm * norm)


# ---------------------------------------------------------------------------
# oracle references


def bit_oracle_unitary(f: OracleFunction) -> np.ndarray:
    """Permutation on control (x) tensor target (y): maps (x, y) to (x, y xor f(x)).

    The control register is padded to a power of two; padded items read 0.
    """
    size = 2 * f.padded_size
    u = np.zeros((size, size))
    for x in range(f.padded_size):
        fx = f.table[x] if x < f.n_items else 0
        for y in (0, 1):
            u[2 * x + (y ^ fx), 2 * x + y] = 1.0
    return u


def oracle_unitary(f: OracleFunction) -> TransformationMatrix:
    """The controlled oracle as a transformation.

    ``matrix`` is the transfer representation on the padded control-target
    register; ``kraus[0]`` is the permutation unitary.
    """
    u = bit_oracle_unitary(f)
    d = u.shape[0]
    carrier = DensityCarrier(hermitian_basis(d))
    sys = SystemType(f"q{d}", d * d, theory=f"quantum-{d}")
    return TransformationMatrix(sys, sys, carrier.channel_matrix([u]), kraus=(u,))


# ---------------------------------------------------------------------------
# projector family references


def reference_family_violations(n: int, projectors) -> list[str]:
    """The intersection law on every pair of subsets (4^n products), with
    idempotence and a zero empty projector, each to PHYSICAL_TOL: the
    violations, as the family check once listed them."""
    keys = subsets(n)
    mats = [projectors[key] for key in keys]
    violations = []
    for key, p in zip(keys, mats):
        if not np.max(np.abs(p @ p - p)) <= PHYSICAL_TOL:
            violations.append(f"P_{sorted(key)} is not idempotent")
    for a, pa in zip(keys, mats):
        for b, pb in zip(keys, mats):
            if not np.max(np.abs(pa @ pb - projectors[a & b])) <= PHYSICAL_TOL:
                violations.append(f"P_{sorted(a)} P_{sorted(b)} != P_{sorted(a & b)}")
    if not np.max(np.abs(projectors[frozenset()])) <= PHYSICAL_TOL:
        violations.append("P_emptyset is not zero")
    return violations


# ---------------------------------------------------------------------------
# strategy sampler references


def reference_draws(theory):
    """(state draw, effect draw): one sample per call, as scalar draws from the
    generator in turn, for each strategy sampler that draws in bulk; None for a
    sampler that draws one sample at a time itself."""
    builtin, dim = theory.meta["builtin"], theory.system().dim
    if builtin == "classical":
        return (lambda rng: rng.dirichlet(np.ones(dim)),
                lambda rng: rng.uniform(0.0, 1.0, size=dim))
    if builtin == "real-quantum":
        sqrt2, unit = math.sqrt(2.0), theory.effects["u"].coords

        def rebit_state(rng):
            theta = rng.uniform(0.0, 2 * math.pi)
            r = rng.uniform(0.0, 1.0)
            return np.array([1.0, r * math.cos(theta), r * math.sin(theta)]) / sqrt2

        def rebit_effect(rng):
            theta = rng.uniform(0.0, 2 * math.pi)
            alpha, beta = rng.uniform(0.0, 1.0, size=2)
            proj = np.array([1.0, math.cos(theta), math.sin(theta)]) / sqrt2
            return alpha * proj + beta * (unit - proj)

        return rebit_state, rebit_effect
    if builtin == "boxworld":

        def gbit_state(rng):
            p0, p1 = rng.uniform(), rng.uniform()
            return np.array([1.0, p0, 1.0 - p0, p1, 1.0 - p1])

        return gbit_state, None
    return None, None


def reference_rebit_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """The rebit state sampler as it drew with ``rng.uniform``'s array bounds."""
    theta, r = rng.uniform([0.0, 0.0], [2 * math.pi, 1.0], size=(n, 2)).T
    return _bloch_coords(theta, r)


def reference_rebit_effects(unit: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """The rebit effect sampler as it drew with ``rng.uniform``'s array bounds."""
    theta, alpha, beta = rng.uniform([0.0, 0.0, 0.0], [2 * math.pi, 1.0, 1.0], size=(n, 3)).T
    p_coords = _bloch_coords(theta)
    return alpha[:, None] * p_coords + beta[:, None] * (unit - p_coords)


# ---------------------------------------------------------------------------
# built-in theory arrays


def _ref_to_vector(basis, op) -> np.ndarray:
    return np.einsum("aij,ji->a", basis, np.asarray(op, dtype=complex)).real


def _ref_transfer(basis, kraus) -> np.ndarray:
    moved = sum(np.einsum("ij,bjk,lk->bil", k, basis, k.conj()) for k in np.asarray(kraus, complex))
    return np.einsum("aij,bji->ab", basis, moved).real


def reference_builtin_arrays(builtin: str, d: int | None = None) -> dict:
    """Every array a build of a built-in theory holds, computed from scratch on
    each call by the formulas the theories were written with, before their
    builds shared arrays: ``{"states": {name: coords}, "effects": {name:
    coords}, "gates": {name: {label: (matrix, kraus or None)}}, "carrier":
    basis or None}``, each dict in the build's order. :func:`builtin_arrays`
    reads the same from a build."""
    sqrt2 = math.sqrt(2.0)
    pauli = {"I": np.eye(2, dtype=complex), "X": np.array([[0, 1], [1, 0]], dtype=complex),
             "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
             "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
    bell_kets = {"phi_plus": np.array([[1], [0], [0], [1]], dtype=complex) / sqrt2,
                 "phi_minus": np.array([[1], [0], [0], [-1]], dtype=complex) / sqrt2,
                 "psi_plus": np.array([[0], [1], [1], [0]], dtype=complex) / sqrt2,
                 "psi_minus": np.array([[0], [1], [-1], [0]], dtype=complex) / sqrt2}
    bells = {n: np.outer(v, v.conj()) for n, v in bell_kets.items()}
    states, effects, gates, basis = {}, {}, {}, None

    def prep(name, outs):  # outs: {label: (coords, kraus)}
        gates[name] = {k: (c.reshape(-1, 1), kr) for k, (c, kr) in outs.items()}

    def measure(name, outs):
        gates[name] = {k: (c.reshape(1, -1), kr) for k, (c, kr) in outs.items()}

    def channel(name, b, kraus):
        gates[name] = {"0": (_ref_transfer(b, kraus), kraus)}

    if builtin == "classical":
        eye = np.eye(d)
        states.update({f"s{j}": eye[:, j] for j in range(d)}, uniform=np.full(d, 1.0 / d))
        effects.update({f"p{j}": eye[j] for j in range(d)}, u=np.ones(d))
        for j in range(d):
            prep(f"prep_{j}", {"0": (states[f"s{j}"], None)})
        prep("prep_uniform", {"0": (states["uniform"], None)})
        if d == 2:
            prep("coin", {"0": (np.array([0.5, 0.0]), None), "1": (np.array([0.0, 0.5]), None)})
            gates["not"] = {"0": (np.array([[0.0, 1.0], [1.0, 0.0]]), None)}
        gates["id"] = {"0": (eye, None)}
        measure("read", {str(k): (effects[f"p{k}"], None) for k in range(d)})
        measure("sink", {"0": (effects["u"], None)})
    elif builtin == "quantum":
        basis = np.stack(hermitian_basis(d))
        kets = list(np.eye(d, dtype=complex).reshape(d, d, 1))
        projs = [_ref_to_vector(basis, k @ k.conj().T) for k in kets]
        states.update({f"basis_{j}": projs[j] for j in range(d)},
                      mixed=_ref_to_vector(basis, np.eye(d) / d))
        effects.update({f"p{j}": projs[j] for j in range(d)}, u=_ref_to_vector(basis, np.eye(d)))
        for j in range(d):
            prep(f"prep_{j}", {"0": (projs[j], (kets[j],))})
        prep("prep_mixed", {"0": (states["mixed"], tuple(k / math.sqrt(d) for k in kets))})
        pair_gates = {}
        if d == 2:
            plus_coords = _ref_to_vector(basis, np.full((2, 2), 0.5, dtype=complex))
            states["plus"] = effects["p_plus"] = plus_coords
            pair = np.stack([np.kron(a, b) for a in basis for b in basis])
            states.update({n: _ref_to_vector(pair, op) for n, op in bells.items()})
            plus = np.full((2, 1), 1 / sqrt2, dtype=complex)
            prep("prep_plus", {"0": (_ref_to_vector(basis, plus @ plus.conj().T), (plus,))})
            for gname, u in (("h", np.array([[1, 1], [1, -1]], dtype=complex) / sqrt2),
                             ("x", pauli["X"]), ("z", pauli["Z"]),
                             ("s", np.diag([1, 1j]).astype(complex)),
                             ("t", np.diag([1, np.exp(1j * math.pi / 4)]))):
                channel(gname, basis, (u,))
            cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
            pair_gates = {"cnot": {"0": (_ref_transfer(pair, (cnot,)), (cnot,))},
                          "prep_bell": {"0": (states["phi_plus"].reshape(-1, 1),
                                              (bell_kets["phi_plus"],))}}
        gates["id"] = {"0": (np.eye(d * d), (np.eye(d, dtype=complex),))}
        bras = [k.conj().T for k in kets]
        measure("measure", {str(k): (projs[k], (bras[k],)) for k in range(d)})
        measure("sink", {"0": (effects["u"], tuple(bras))})
        gates.update(pair_gates)
    elif builtin == "real-quantum":
        basis = np.stack(symmetric_pauli_basis(1))
        pair = np.stack(symmetric_pauli_basis(2))
        e0, e1 = np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)
        plus = (e0 + e1) / sqrt2
        zero, one = (_ref_to_vector(basis, e @ e.conj().T) for e in (e0, e1))
        states.update(zero=zero, plus=_ref_to_vector(basis, plus @ plus.conj().T),
                      mixed=_ref_to_vector(basis, np.eye(2) / 2))
        states.update({n: _ref_to_vector(pair, op) for n, op in bells.items()})
        effects.update(p0=zero, p1=one, u=_ref_to_vector(basis, np.eye(2)),
                       joint_first=_ref_to_vector(pair, bells["phi_plus"] + bells["psi_minus"]),
                       joint_second=_ref_to_vector(pair, bells["phi_minus"] + bells["psi_plus"]))
        channel("id", basis, (pauli["I"],))
        channel("x", basis, (pauli["X"],))
        channel("h", basis, (np.array([[1, 1], [1, -1]], dtype=complex) / sqrt2,))
        channel("t1", basis, (pauli["I"] / sqrt2, pauli["Y"] / sqrt2))
        channel("t2", basis, tuple((a @ b.conj().T) / sqrt2 for a in (e0, e1) for b in (e0, e1)))
        prep("prep_0", {"0": (zero, (e0,))})
        prep("prep_plus", {"0": (states["plus"], (plus,))})
        prep("prep_mixed", {"0": (states["mixed"], (e0 / sqrt2, e1 / sqrt2))})
        measure("measure", {"0": (zero, (e0.conj().T,)), "1": (one, (e1.conj().T,))})
        measure("sink", {"0": (effects["u"], (e0.conj().T, e1.conj().T))})
        prep("prep_phi_plus", {"0": (states["phi_plus"], (bell_kets["phi_plus"],))})
        bras = {n: k.conj().T for n, k in bell_kets.items()}
        measure("joint_measure", {
            "first": (effects["joint_first"], (bras["phi_plus"], bras["psi_minus"])),
            "second": (effects["joint_second"], (bras["phi_minus"], bras["psi_plus"]))})
    elif builtin == "boxworld":
        def gbit(p0, p1):
            return np.stack(np.broadcast_arrays(1.0, p0, 1.0 - p0, p1, 1.0 - p1), axis=-1)

        effects["u"] = np.eye(5)[0]
        effects.update({f"e{a}x{x}": np.eye(5)[1 + 2 * x + a] for x in range(2) for a in range(2)})
        states["mixed"] = gbit(0.5, 0.5)
        states.update({f"v{p0}{p1}": gbit(float(p0), float(p1)) for p0 in (0, 1) for p1 in (0, 1)})
        states["pr_box"] = pr_box_coords()
        for sname in ("mixed", "v00", "v01", "v10", "v11"):
            prep(f"prep_{sname}", {"0": (states[sname], None)})
        prep("prep_pr", {"0": (states["pr_box"], None)})
        for x in range(2):
            measure(f"measure_x{x}", {str(a): (effects[f"e{a}x{x}"], None) for a in range(2)})
        measure("sink", {"0": (effects["u"], None)})
        gates["id"] = {"0": (np.eye(5), None)}
    return {"states": states, "effects": effects, "gates": gates, "carrier": basis}


def builtin_arrays(theory) -> dict:
    """:func:`reference_builtin_arrays`, as a build of the theory holds them."""
    return {"states": {n: v.coords for n, v in theory.states.items()},
            "effects": {n: e.coords for n, e in theory.effects.items()},
            "gates": {n: {k: (t.matrix, t.kraus) for k, t in g.outcomes.items()}
                      for n, g in theory.gates.items()},
            "carrier": None if theory.carrier is None else theory.carrier.basis}


def arrays_in(tree):
    """Every array in a nest of dicts, tuples and lists, in order."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for v in tree.values():
            yield from arrays_in(v)
    elif isinstance(tree, (tuple, list)):
        for v in tree:
            yield from arrays_in(v)


def same_bytes(got, want) -> bool:
    """Whether two nests of dicts (keys in the same order), tuples and arrays
    hold the same arrays byte for byte: dtype, shape and bits."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape and got.tobytes() == want.tobytes())
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(same_bytes(got[k], want[k]) for k in want))
    if isinstance(want, (tuple, list)):
        return (isinstance(got, (tuple, list)) and len(got) == len(want)
                and all(same_bytes(g, w) for g, w in zip(got, want)))
    return got is want is None


def reachable(obj):
    """``obj`` and every object it reaches, each once: through dataclass
    fields, mapping keys and values, the items of tuples, lists and sets, the
    attributes of other gptlab objects (composite rules, circuits) and, from
    strategy hooks, what each grid returns; the arguments a hook binds are not
    entered."""
    seen, todo = {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen[id(o)] = o  # held, so that no later object reuses its id
        yield o
        if isinstance(o, StrategyHooks):
            todo += [o.state_grid(), o.effect_grid()]
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            todo += [getattr(o, f.name) for f in dataclasses.fields(o)]
        elif isinstance(o, Mapping):
            todo += [*o.keys(), *o.values()]
        elif isinstance(o, (tuple, list, set, frozenset)):
            todo += o
        elif type(o).__module__.startswith("gptlab.") and hasattr(o, "__dict__"):
            todo += vars(o).values()


def same_value(a, b) -> bool:
    """Whether two objects hold the same values: arrays byte for byte (dtype
    and shape too), dataclasses field by field, mappings key by key in order,
    bound hooks by function and arguments, other gptlab objects attribute by
    attribute, and anything else by ``==``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return same_bytes(a, b)
    if dataclasses.is_dataclass(a):
        return all(same_value(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, Mapping):
        return list(a) == list(b) and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, partial):
        return a.func is b.func and same_value((a.args, a.keywords), (b.args, b.keywords))
    if type(a).__module__.startswith("gptlab.") and hasattr(a, "__dict__"):
        return same_value(vars(a), vars(b))
    return a == b
