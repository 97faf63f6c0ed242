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
chain per combination, row or sample; ``reference_layer_stack`` builds a
circuit layer's stack one ``parallel_matrix`` call per outcome combination,
and ``reference_walk`` evaluates a circuit by multiplying its frontier by
those stacks: the Kronecker walk the engine's per-wire contraction is held to.
``reference_draws`` keeps the one-sample bodies of the strategy samplers that
draw in bulk. ``bit_oracle_unitary`` writes the oracle's dense permutation
matrix one basis state (x, y) at a time, and ``oracle_unitary`` adds its
transfer matrix; ``defect_direction_overlap`` measures a vector against a
tomography report's defect basis. Random corpus builders are seeded.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

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
from gptlab.circuits import _compile, foliate
from gptlab.core import PHYSICAL_TOL, EffectVector, StateVector, SystemType, TransformationMatrix
from gptlab.errors import GptLabError, HaltingViolationError, MachineValidationError
from gptlab.interference import subsets
from gptlab.querylab import OracleFunction
from gptlab.theories import DensityCarrier, RebitRule, even_y_index, hermitian_basis
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


def _conjugation_matrix(b_out, b_in, kraus) -> np.ndarray:
    """M_ab = Tr(B_a sum_k K B_b K^dag) between two orthonormal operator bases."""
    moved = sum(k @ b_in @ k.conj().T for k in kraus)
    return (b_out.conj().reshape(len(b_out), -1) @ moved.reshape(len(moved), -1).T).real


def kraus_parallel_matrix(rule, pieces) -> np.ndarray:
    """Rebit transfer matrix of pieces in parallel, summed over every Kraus product."""
    kraus = [reduce(np.kron, combo) for combo in itertools.product(*(p.kraus for p in pieces))]
    k_out, k_in = (h.bit_length() - 1 for h in kraus[0].shape)
    return _conjugation_matrix(rule.carrier(k_out).basis, rule.carrier(k_in).basis, kraus)


def kraus_permutation_matrix(rule, leaves, perm) -> np.ndarray:
    """Conjugation by the qubit permutation unitary moving factor perm[i] to slot i."""
    offsets = np.cumsum([0] + list(leaves))
    order = [j for i in perm for j in range(offsets[i], offsets[i] + leaves[i])]
    basis = rule.carrier(len(order)).basis
    return _conjugation_matrix(basis, basis, [_perm_unitary([2] * len(order), order)])


def kraus_product_coords(rule, pieces, leaves) -> np.ndarray:
    """Carrier coordinates of the Kronecker product of the pieces' operators."""
    ops = [rule.carrier(k).from_vector(p.coords) for p, k in zip(pieces, leaves)]
    return rule.carrier(sum(leaves)).to_vector(reduce(np.kron, ops))


def reference_parallel_stack(rule, pieces) -> np.ndarray:
    """``rule.parallel_stack(pieces)`` one combination at a time, in
    itertools.product order: an np.kron chain from [[1.0]] over the chosen
    outcomes' matrices; for rebits, over their Pauli transfer matrices,
    restricted to the even-Y strings at the end."""
    mats = []
    for combo in itertools.product(*pieces):
        if not isinstance(rule, RebitRule):
            mats.append(reduce(np.kron, [p.matrix for p in combo], np.eye(1)))
            continue
        full = reduce(np.kron, [rule._transfer_matrix(p.kraus) for p in combo], np.eye(1))
        k_out, k_in = (n.bit_length() // 2 for n in full.shape)  # 4^k_out x 4^k_in
        mats.append(full[np.ix_(even_y_index(k_out), even_y_index(k_in))])
    return np.stack(mats)


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
