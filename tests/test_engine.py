"""The compile-once circuit engine against its reference paths.

Property tests draw small random circuits over the classical, qubit and
rebit theories, with crossing wires, and check each fast path against the
leaf-by-leaf reference: contracted built-in acceptors and the affine bridge
against sums over ``distribution``, ``prob`` against ``distribution``, and
``distribution`` against the independent oracles in ``conftest`` and against
the Kronecker stack walk ``conftest.reference_walk``, and gathered selections
against ``conftest.reference_contract_wires``, which always multiplies.
"""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import (
    Acceptor,
    CircuitDAG,
    Distribution,
    OutcomeString,
    acceptance_prob,
    boxworld_gbit,
    classical_theory,
    distribution,
    foliate,
    prob,
    quantum_theory,
    real_quantum_theory,
)
from gptlab import core
from gptlab.afftm import circuit_to_affine_program
from gptlab.circuits import Gate, _compile
from gptlab.cli import main
from gptlab.core import UNIT, Factor, KroneckerRule, SystemType, TransformationMatrix
from gptlab.errors import CircuitValidationError, GptLabError, ParseError
from gptlab.serialization import circuit_to_json, parse_circuit

from conftest import (
    classical_path_distribution,
    operator_distribution,
    random_circuit,
    rebuilt,
    reference_accept,
    reference_contract_wires,
    reference_theory,
    reference_walk,
)

THEORIES = {
    "classical": classical_theory(2),
    "qubit": quantum_theory(2),
    "rebit": real_quantum_theory(2),
}
# (preparations, transformations, closing effects); joint effects close two wires
GATES = {
    "classical": (["prep_0", "prep_uniform", "coin"], ["id", "not"], ["read", "sink"], []),
    "qubit": (["prep_0", "prep_plus", "prep_mixed", "prep_bell"], ["h", "x", "t", "cnot"],
              ["measure", "sink"], []),
    "rebit": (["prep_0", "prep_plus", "prep_mixed", "prep_phi_plus"], ["t1", "t2", "x", "h"],
              ["measure", "sink"], ["joint_measure"]),
}
BUILT_IN = ("accept-all", "reject-all", "first-outcome-is-0", "parity-of-labels")
MAX_WIRES = 3

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def circuits(draw):
    """A closed circuit: up to three wires, a few gates on randomly chosen wires."""
    name = draw(st.sampled_from(sorted(THEORIES)))
    theory = THEORIES[name]
    preps, trans, close1, close2 = GATES[name]
    c = CircuitDAG(theory)
    open_ports: list = []

    def place(gname: str) -> None:
        iid = f"g{len(c.instances)}"
        gate = theory.gate(gname)
        c.add(iid, gate)
        for p in range(len(gate.inputs)):
            k = draw(st.integers(0, len(open_ports) - 1))
            c.connect(open_ports.pop(k), (iid, p))
        open_ports.extend((iid, p) for p in range(len(gate.outputs)))

    place(draw(st.sampled_from(preps)))
    for _ in range(draw(st.integers(0, 2))):
        fits = [g for g in preps
                if len(open_ports) + len(theory.gate(g).outputs) <= MAX_WIRES]
        if fits:
            place(draw(st.sampled_from(fits)))
    for _ in range(draw(st.integers(0, 3))):
        fits = [g for g in trans if len(theory.gate(g).inputs) <= len(open_ports)]
        place(draw(st.sampled_from(fits)))
    while open_ports:
        place(draw(st.sampled_from(close1 + (close2 if len(open_ports) >= 2 else []))))
    return c


def reference_acceptance(dist, acceptor) -> float:
    return sum(p for z, p in dist.items() if acceptor.accepts(z))


def acceptors_for(c: CircuitDAG, data) -> list[Acceptor]:
    target = data.draw(st.sampled_from([None, *c.instance_ids]))
    out = [Acceptor(kind, instance=target if kind == "first-outcome-is-0" else None)
           for kind in BUILT_IN]
    strings = [z.pairs for z in distribution(c)]
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(strings), max_size=len(strings)))
    out.append(Acceptor("table", table=dict(zip(strings, bits))))
    return out


@PROPERTY
@given(circuits(), st.sampled_from(["greedy", "singletons"]), st.data())
def test_contracted_acceptors_match_enumeration(c, style, data):
    fol = foliate(c, style)
    dist = distribution(c, foliation=fol)
    for acceptor in acceptors_for(c, data):
        want = reference_acceptance(dist, acceptor)
        assert abs(acceptance_prob(c, acceptor, foliation=fol) - want) <= 1e-12, acceptor.kind


@PROPERTY
@given(circuits(), st.sampled_from(["greedy", "singletons"]))
def test_prob_matches_distribution_in_product_order(c, style):
    fol = foliate(c, style)
    dist = distribution(c, foliation=fol)
    # leaves come depth first, in itertools.product order over the foliation
    gates = [(iid, c.gate(iid)) for layer in fol for iid in layer]
    order = [c.outcome_string(dict(zip([iid for iid, _ in gates], labels)))
             for labels in itertools.product(*(g.outcome_labels for _, g in gates))]
    assert list(dist) == order
    for z, p in dist.items():
        assert prob(c, z, foliation=fol) == p
    if c.theory.meta["builtin"] == "classical":
        oracle = classical_path_distribution(c)
    else:
        oracle = operator_distribution(c)
    for z, p in dist.items():
        assert abs(p - oracle.get(z.pairs, 0.0)) <= 1e-9


@PROPERTY
@given(circuits(), st.data())
def test_bridge_matches_enumeration(c, data):
    dist = distribution(c)
    for acceptor in acceptors_for(c, data):
        got = circuit_to_affine_program(c, acceptor).acceptance_weight()
        assert abs(got - reference_acceptance(dist, acceptor)) <= 1e-12, acceptor.kind


@PROPERTY
@given(circuits(), st.data())
def test_bridge_is_acceptance_prob(c, data):
    # the program's steps are the compiled layers, run by acceptance_prob's code
    for acceptor in acceptors_for(c, data):
        got = circuit_to_affine_program(c, acceptor).acceptance_weight()
        assert got == acceptance_prob(c, acceptor), acceptor.kind


ALL_THEORIES = [*THEORIES.values(), boxworld_gbit()]


@PROPERTY
@given(st.sampled_from(ALL_THEORIES), st.integers(0, 2**32 - 1),
       st.sampled_from(["greedy", "singletons"]))
def test_distribution_matches_the_kronecker_stack_walk(theory, seed, style):
    """Contracting wire by wire sums in another order than multiplying by
    the layer's Kronecker stack, so values may differ in the last bits: they
    agree with conftest.reference_walk within 1e-12 absolute, rebit values
    (contracted in Pauli string coordinates) included."""
    c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
    fol = foliate(c, style)
    got = np.array(list(distribution(c, foliation=fol).values()))
    want = reference_walk(c, fol)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


REFERENCE_THEORIES = {theory.name: reference_theory(theory) for theory in ALL_THEORIES}


def add_identity_wire(c: CircuitDAG) -> None:
    """One more wire: a preparation, a user gate whose one outcome is exactly
    the identity, and a measurement. On classical bits the preparation is the
    quasi-state (-0.0, 1.0) and the measurement's rows are (1, -0.0) and
    (-0.0, 1)."""
    theory = c.theory
    wire = theory.system()
    kraus = (np.eye(2, dtype=complex),) if theory.meta["builtin"] == "real-quantum" else None
    mine = Gate("mine", (wire,), (wire,), {"0": TransformationMatrix(wire, wire, np.eye(wire.dim),
                                                                     kraus=kraus)})
    if theory.meta["builtin"] == "classical":
        prep = Gate("signed_prep", (), (wire,), {
            "0": TransformationMatrix(UNIT, wire, np.array([[-0.0], [1.0]]))})
        read = Gate("signed_read", (wire,), (), {
            lab: TransformationMatrix(wire, UNIT, np.array([row])) for lab, row
            in (("0", [1.0, -0.0]), ("1", [-0.0, 1.0]))})
    else:
        names = ("prep_v00", "measure_x0") if theory.meta["builtin"] == "boxworld" else (
            "prep_0", "measure")
        prep, read = map(theory.gate, names)
    c.connect((c.add("zp", prep), 0), (c.add("zi", mine), 0))
    c.connect(("zi", 0), (c.add("zm", read), 0))


@PROPERTY
@given(st.sampled_from(ALL_THEORIES), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["greedy", "singletons"]))
def test_held_stacks_keep_the_per_call_bits(theory, seed, identity_wire, style):
    """Every evaluation path, against the same circuit under the rule that
    stacks and compares with np.eye on every call (conftest.reference_theory):
    equal bit for bit, signed zeros included."""
    c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
    if identity_wire:
        add_identity_wire(c)
    ref = copy.copy(c)
    ref.theory = REFERENCE_THEORIES[theory.name]
    fol = foliate(c, style)
    if identity_wire:  # the identity gate alone, right after its preparation, so the
        # layer's other factors are passthrough wires and the whole layer is skipped
        fol = [[iid for iid in layer if iid != "zi"] for layer in fol]
        at = next(k for k, layer in enumerate(fol) if "zp" in layer)
        fol = [layer for layer in fol[:at + 1] + [["zi"]] + fol[at + 1:] if layer]
    # every layer of the walk, on its frontier with each zero made -0.0: a
    # product sums from 0.0, so only a skipped identity keeps that sign
    for weighted in (False, True):
        front = np.ones((1, 1))
        for layer, ref_layer in zip(_compile(c, fol), _compile(ref, fol)):
            if layer.perm is not None:
                front = np.take(front, layer.perm, axis=1)
            w = [np.ones((len(front), len(p))) for p in layer.pieces] if weighted else None
            signed = np.where(front == 0.0, -0.0, front)
            got = layer.rule.contract(layer.pieces, signed, w)
            want = ref_layer.rule.contract(ref_layer.pieces, signed, w)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            front = layer.rule.contract(layer.pieces, front, w)
    got, want = distribution(c, foliation=fol), distribution(ref, foliation=fol)
    assert list(got) == list(want)
    assert [p.hex() for p in got.values()] == [p.hex() for p in want.values()]
    for z in got:
        assert prob(c, z, foliation=fol).hex() == prob(ref, z, foliation=fol).hex()
    for acceptor in (Acceptor(kind) for kind in BUILT_IN if kind != "reject-all"):
        assert (acceptance_prob(c, acceptor, foliation=fol).hex()
                == acceptance_prob(ref, acceptor, foliation=fol).hex()), acceptor.kind
        assert (circuit_to_affine_program(c, acceptor).acceptance_weight().hex()
                == circuit_to_affine_program(ref, acceptor).acceptance_weight().hex())


@PROPERTY
@given(st.sampled_from(ALL_THEORIES), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["greedy", "singletons"]), st.data())
def test_held_weight_rows_keep_the_per_call_bits(theory, seed, identity_wire, style, data):
    """Every built-in acceptor, and the bridge on the greedy layers, against
    weights built per gate, layer and call and their ``.mean()`` on the
    per-call rule (conftest.reference_accept): equal bit for bit."""
    c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
    if identity_wire:
        add_identity_wire(c)
    fol = foliate(c, style)
    target = data.draw(st.sampled_from([None, *c.instance_ids]))
    for kind in BUILT_IN:
        acceptor = Acceptor(kind, instance=target if kind == "first-outcome-is-0" else None)
        want = reference_accept(c, acceptor, fol).hex()
        assert acceptance_prob(c, acceptor, foliation=fol).hex() == want, kind
        if style == "greedy":
            assert circuit_to_affine_program(c, acceptor).acceptance_weight().hex() == want, kind


def every_value(circuit_for, strings, foliation=None) -> list[str]:
    """Every evaluation path, one call each on ``circuit_for()``, as hex:
    ``prob`` on each string first, then ``distribution``, the built-in
    acceptors and the bridge."""
    out = [prob(circuit_for(), z, foliation=foliation).hex() for z in strings]
    out += [p.hex() for p in distribution(circuit_for(), foliation=foliation).values()]
    for kind in BUILT_IN:
        out.append(acceptance_prob(circuit_for(), Acceptor(kind), foliation=foliation).hex())
        if foliation is None:
            bridge = circuit_to_affine_program(circuit_for(), Acceptor(kind))
            out.append(bridge.acceptance_weight().hex())
    return out


@PROPERTY
@given(st.sampled_from(ALL_THEORIES), st.integers(0, 2**32 - 1))
def test_held_compilation_keeps_the_bits_of_a_fresh_circuit(theory, seed):
    """The first call on a circuit compiles it and later calls reuse what it
    holds; every call, first or later, equals bit for bit the same call on a
    freshly rebuilt copy, which compiles again."""
    c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
    strings = list(distribution(rebuilt(c)))
    fresh = every_value(lambda: rebuilt(c), strings)
    for _ in range(3):
        assert every_value(lambda: c, strings) == fresh


@PROPERTY
@given(st.sampled_from(ALL_THEORIES), st.integers(0, 2**32 - 1))
def test_an_explicit_foliation_keeps_the_held_greedy_layout(theory, seed):
    """A foliation passed in is checked on every call, gives what it gives on
    a fresh circuit, and leaves the held greedy layers in place."""
    c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
    strings = list(distribution(rebuilt(c)))
    greedy = _compile(c, None)
    single = foliate(c, "singletons")
    bad = [single[1:] + single[:1], single[:-1], single + single[-1:]]
    if len(single) == 1:
        bad = bad[1:]
    for _ in range(2):
        for fol in bad:
            with pytest.raises(CircuitValidationError):
                distribution(c, foliation=fol)
            with pytest.raises(CircuitValidationError):
                prob(c, strings[0], foliation=fol)
        assert every_value(lambda: c, strings, single) == every_value(
            lambda: rebuilt(c), strings, single)
        assert _compile(c, None) is greedy
    assert every_value(lambda: c, strings) == every_value(lambda: rebuilt(c), strings)


def test_a_new_composite_rule_lays_the_circuit_out_again():
    theory = THEORIES["classical"]
    c = random_circuit(theory, np.random.default_rng(5), max_gates=7)
    want = [p.hex() for p in distribution(c).values()]
    assert {layer.rule for layer in _compile(c, None)} == {theory.composite_rule}
    c.theory = REFERENCE_THEORIES[theory.name]
    assert {layer.rule for layer in _compile(c, None)} == {c.theory.composite_rule}
    assert [p.hex() for p in distribution(c).values()] == want


def test_an_exact_identity_gate_is_skipped_not_multiplied():
    c = CircuitDAG(THEORIES["classical"])
    add_identity_wire(c)
    rule, mine = c.theory.composite_rule, c.gate("zi")
    assert mine.factor.is_identity
    front = np.array([[-0.0, 1.0]])
    assert rule.contract([mine.factor], front).tobytes() == front.tobytes()
    # with weights every factor is multiplied, and the sum from 0.0 drops the sign
    weighted = rule.contract([mine.factor], front, [np.ones((1, 1))])
    assert weighted.tobytes() == np.array([[0.0, 1.0]]).tobytes()


# Built-in gates whose every outcome row is a unit row. A preparation's column
# has zero rows, and the other effects weigh more than one coordinate.
SELECTIONS = {"classical-2": {"id", "not", "read"}, "classical-3": {"id", "read"},
              "quantum-2": {"id"}, "real-quantum-2": set(),
              "boxworld": {"id", "measure_x0", "measure_x1", "sink"}}


@pytest.mark.parametrize("make", [lambda: classical_theory(2), lambda: classical_theory(3),
                                  lambda: quantum_theory(2), lambda: real_quantum_theory(2),
                                  boxworld_gbit], ids=list(SELECTIONS))
def test_selections_are_the_factors_of_unit_rows(make):
    theory = make()
    got = {name for name, gate in theory.gates.items() if gate.factor.select is not None}
    assert got == SELECTIONS[theory.name]
    for name in got:  # the input axis each output row reads
        factor = theory.gate(name).factor
        assert factor.select.tolist() == factor.stack.argmax(axis=-1).tolist()
        with pytest.raises(ValueError):
            factor.select[0, 0] = 0
    if theory.name == "classical-2":
        assert theory.gate("not").factor.select.tolist() == [[1, 0]]
        assert theory.gate("read").factor.select.tolist() == [[0], [1]]
        c = CircuitDAG(theory)
        add_identity_wire(c)  # its read's rows are (1, -0.0) and (-0.0, 1); its prep is not one
        assert c.gate("zm").factor.select.tolist() == [[0], [1]]
        assert c.gate("zp").factor.select is None


# Frontier entries: signed zeros, subnormals, huge values (1.5e308 overflows
# when a factor weighs it by 3) and ordinary ones; matrix entries of the
# factors that are no selections.
FRONT_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300, 1.5e308, 0.5, -1.25, 3.0]
NOT_FINITE = [np.inf, -np.inf, np.nan]
MATRIX_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0]


@st.composite
def selection_factors(draw):
    """One to three selections (K 1-3, out 1-4, in 1-4), some with a factor
    that is no selection after them, each outcome a matrix between labelled
    types; the input dimensions."""
    factors, dims = [], []

    def matrices(k, out, n_in, entries):
        flat = draw(st.lists(st.sampled_from(entries), min_size=k * out * n_in,
                             max_size=k * out * n_in))
        return np.array(flat).reshape(k, out, n_in)

    def factor(mats):
        n_in, out = mats.shape[2], mats.shape[1]
        return Factor(TransformationMatrix(SystemType("a", n_in), SystemType("b", out), m)
                      for m in mats)

    for _ in range(draw(st.integers(1, 3))):
        k, out, n_in = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        mats = matrices(k, out, n_in, [0.0, -0.0])
        axes = np.array(draw(st.lists(st.integers(0, n_in - 1), min_size=k * out,
                                      max_size=k * out))).reshape(k, out)
        mats[np.arange(k)[:, None], np.arange(out), axes] = 1.0
        factors.append(factor(mats))
        dims.append(n_in)
        if draw(st.booleans()):
            n_in = draw(st.integers(1, 3))
            factors.append(factor(matrices(draw(st.integers(1, 2)), draw(st.integers(1, 3)), n_in,
                                           MATRIX_ENTRIES)))
            dims.append(n_in)
    return factors, dims


def contracted(contract, *args):
    """``contract(*args)`` and the numpy warnings it raised."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        got = contract(*args)
    return got, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(selection_factors(), st.data())
def test_gathered_selections_keep_the_matmul_bits(drawn, data):
    """The tensor-product rule, which gathers through a selection once the
    frontier rows times its outcomes reach core._GATHER_FROM, against
    conftest.reference_contract_wires, which always multiplies: the same
    shape, strides, bytes and numpy warnings, also once a value is not finite."""
    factors, dims = drawn
    at = core._GATHER_FROM
    rows = data.draw(st.sampled_from([1, 2, at // 4, at // 3, at // 2 - 1, at // 2, at - 1, at,
                                      at + 1]) | st.integers(1, 2 * at))
    # at most 2^17 values in any frontier along the way
    rows = min(rows, max(1, 2**17 // math.prod(len(f) * max(f[0].matrix.shape) for f in factors)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    front = rng.choice(FRONT_ENTRIES, size=(rows, math.prod(dims)))
    if rng.random() < 0.2:  # values the gather may not copy
        front.flat[rng.integers(0, front.size, size=rng.integers(1, 3))] = rng.choice(NOT_FINITE)
    got, got_warnings = contracted(KroneckerRule().contract, factors, front)
    want, want_warnings = contracted(reference_contract_wires,
                                     [[t.matrix for t in f] for f in factors], front)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert got_warnings == want_warnings


def test_the_size_rule_gathers_finite_frontiers_from_the_constant(monkeypatch):
    """A read of one bit gathers once rows times outcomes reach the constant,
    and multiplies below it and on a frontier that is not finite."""
    read = classical_theory(2).gate("read").factor
    calls = []
    gather = core._gather
    monkeypatch.setattr(core, "_gather", lambda *args: calls.append(args) or gather(*args))
    at = core._GATHER_FROM
    for rows, value, gathers in ((at // 2 - 1, 0.5, False), (at // 2, 0.5, True),
                                 (at // 2, np.nan, False)):
        calls.clear()
        front = np.full((rows, 2), 0.25)
        front[-1, -1] = value
        got = KroneckerRule().contract([read], front)
        want = reference_contract_wires([[t.matrix for t in read]], front)
        assert got.tobytes() == want.tobytes() and bool(calls) == gathers, rows


def wide_classical_circuit(theory, width: int, nots: bool) -> CircuitDAG:
    """coin->read, or coin->not->read, on ``width`` wires, then add_identity_wire's."""
    c = CircuitDAG(theory)
    for i in range(width):
        last = c.add(f"c{i}", theory.gate("coin"))
        if nots:
            c.connect((last, 0), (c.add(f"n{i}", theory.gate("not")), 0))
            last = f"n{i}"
        c.connect((last, 0), (c.add(f"r{i}", theory.gate("read")), 0))
    add_identity_wire(c)
    return c


def held_factors(c: CircuitDAG) -> list:
    """Every factor the circuit's gates and its rule hold so far."""
    held = list(c.theory.composite_rule._passthroughs.values())
    for iid in c.instance_ids:
        built = vars(c.gate(iid))
        held += [built["factor"]] if "factor" in built else []
        held += built.get("_singles", {}).values()
    return held


@pytest.mark.parametrize("style", ["greedy", "singletons"])
@pytest.mark.parametrize("nots", [False, True], ids=["coin-read", "coin-not-read"])
@pytest.mark.parametrize("width", range(5, 10))
def test_wide_classical_circuits_keep_the_matmul_bits(width, nots, style):
    """Enumeration gathers through reads and nots, up to 2^19 leaves, and
    must keep the bits of the rule that always multiplies
    (conftest.reference_theory); prob, one row of one outcome per layer,
    stays below the size rule, never builds a selection, and reads the same bits."""
    theory = classical_theory(2)
    c = wide_classical_circuit(theory, width, nots)
    fol = foliate(c, style)
    rng = np.random.default_rng(width)
    strings = [c.outcome_string({iid: str(rng.choice(c.gate(iid).outcome_labels))
                                 for iid in c.instance_ids}) for _ in range(20)]
    probs = [prob(c, z, foliation=fol) for z in strings]
    assert not any("select" in vars(f) for f in held_factors(c))
    ref = copy.copy(c)
    ref.theory = REFERENCE_THEORIES[theory.name]
    dist = distribution(c, foliation=fol)
    assert [p.hex() for p in dist.values()] == [
        p.hex() for p in distribution(ref, foliation=fol).values()]
    assert [p.hex() for p in probs] == [dist[z].hex() for z in strings]
    assert c.gate("r0").factor.select is not None


def test_gates_hold_read_only_stacks_built_on_first_evaluation():
    for theory in (classical_theory(2), quantum_theory(2), boxworld_gbit()):
        for gate in theory.gates.values():
            assert "factor" not in vars(gate)  # building a theory stacks nothing
        c = random_circuit(theory, np.random.default_rng(3), max_gates=7)
        distribution(c)
        for iid in c.instance_ids:
            gate = c.gate(iid)
            assert "stack" in vars(gate.factor)
        for gate in theory.gates.values():
            stack = gate.factor.stack
            want = np.stack([t.matrix for t in gate.outcomes.values()])
            assert stack.shape == want.shape and stack.tobytes() == want.tobytes()
            assert gate.factor.stack is stack and gate.factor is gate.factor
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 2.0
            assert gate.factor.is_identity == (gate.name == "id")
            with pytest.raises(TypeError):  # a held stack cannot go stale
                gate.outcomes["extra"] = gate.factor[0]
            again = pickle.loads(pickle.dumps(gate))  # built again, read-only again
            assert "factor" not in vars(again) and again.outcome_labels == gate.outcome_labels
            assert again.factor.stack.tobytes() == stack.tobytes()
            assert not again.factor.stack.flags.writeable


def test_gates_hold_read_only_weight_rows_built_on_first_weighing():
    for theory in (classical_theory(2), quantum_theory(2), real_quantum_theory(2), boxworld_gbit()):
        c = random_circuit(theory, np.random.default_rng(5), max_gates=7)
        gates = [c.gate(iid) for iid in c.instance_ids]
        distribution(c)
        assert not any("_weights" in vars(g) for g in gates)  # enumeration weighs nothing
        held = None
        for _ in range(2):
            for kind in BUILT_IN:
                acceptance_prob(c, Acceptor(kind))
                circuit_to_affine_program(c, Acceptor(kind)).acceptance_weight()
            rows = [vars(g)["_weights"] for g in gates]
            assert held is None or all(a is b for r, h in zip(rows, held) for a, b in zip(r, h))
            held = rows
        for gate, (parity, ones, first) in zip(gates, held):
            labels = gate.outcome_labels
            assert parity.tolist() == [[1.0] * len(labels),
                                       [-1.0 if lab == "1" else 1.0 for lab in labels]]
            assert ones.tolist() == [[1.0] * len(labels)]
            assert first.tolist() == [[float(lab == "0") for lab in labels]]
            for a in (parity, ones, first):
                with pytest.raises(ValueError):
                    a.setflags(write=True)
                with pytest.raises(ValueError):
                    a[0, 0] = 2.0


def test_unknown_acceptor_kinds_are_rejected_before_enumerating(monkeypatch):
    theory = classical_theory(2)
    c = CircuitDAG(theory)
    for i in range(10):  # 2^20 outcome strings
        c.connect((c.add(f"c{i}", theory.gate("coin")), 0), (c.add(f"r{i}", theory.gate("read")), 0))
    calls = []
    monkeypatch.setattr("gptlab.circuits._distribution", lambda *args: calls.append(args))
    bogus = Acceptor("bogus")
    with pytest.raises(GptLabError, match=r"^unknown acceptor kind 'bogus'$"):
        acceptance_prob(c, bogus)
    with pytest.raises(GptLabError, match=r"^unknown acceptor kind 'bogus'$"):
        circuit_to_affine_program(c, bogus).acceptance_weight()
    assert calls == []


def test_rebit_evaluation_builds_no_outcome_stacks():
    """The rebit rule reads its own held Pauli transfers, never the gates' stacks."""
    theory = real_quantum_theory(2)
    for seed in range(20):
        c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
        distribution(c)
        prob(c, next(iter(distribution(c))))
        acceptance_prob(c, Acceptor("parity-of-labels"))
    for gate in theory.gates.values():
        assert "stack" not in vars(gate.factor)
        assert not any("stack" in vars(f) for f in gate._singles.values())


@pytest.mark.parametrize("make", [quantum_theory, real_quantum_theory], ids=["qubit", "rebit"])
def test_threads_racing_on_first_evaluations_agree(make):
    """Eight threads evaluate one circuit of a fresh theory at once, so they
    race to build its gates' and its rule's held values: every result keeps
    the bits of the same evaluation on a theory of its own."""
    from concurrent.futures import ThreadPoolExecutor

    def evaluate(c):
        dist = distribution(c)
        return ([p.hex() for p in dist.values()] + [prob(c, z).hex() for z in dist]
                + [acceptance_prob(c, Acceptor("parity-of-labels")).hex()])

    want = evaluate(random_circuit(make(2), np.random.default_rng(5), max_gates=7))
    c = random_circuit(make(2), np.random.default_rng(5), max_gates=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(evaluate, c) for _ in range(16)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(g == want for g in got)


@pytest.mark.parametrize("theory", ALL_THEORIES, ids=lambda t: t.name)
def test_builtin_rules_hold_one_identity_per_system_type(theory):
    rule = theory.composite_rule
    for sys in theory.system_types.values():
        ident = rule.identity(sys)
        assert ident is rule.identity(sys) is rule.passthrough(sys)[0]
        assert rule.passthrough(sys) is rule.passthrough(sys)
        assert ident.matrix.tobytes() == np.eye(sys.dim).tobytes()
    # a pickled rule's factors build their held arrays again, read-only
    for factor in rule._passthroughs.values():
        assert factor.is_identity and factor.stack is not None and factor.select is not None
    again = pickle.loads(pickle.dumps(rule))
    assert set(vars(rule)) == set(vars(again)) == {"theory", "_passthroughs"}
    for sys in theory.system_types.values():
        factor = again.passthrough(sys)
        assert type(factor) is Factor and not vars(factor)
        for held in (factor.stack, factor.select):
            with pytest.raises(ValueError):
                held.setflags(write=True)


def test_a_rule_giving_identity_kraus_holds_them_on_its_passthroughs():
    class KrausRule(KroneckerRule):
        def identity_kraus(self, system):
            return (np.eye(math.isqrt(system.dim), dtype=complex),)

    qubit = quantum_theory(2)
    rule = KrausRule(qubit.name)
    types = [qubit.system(), rule.composite([qubit.system()] * 2)]
    for t in types:
        factor = rule.passthrough(t)
        assert factor is rule.passthrough(t) and rule.identity(t) is factor[0]
        assert factor[0].matrix.tobytes() == np.eye(t.dim).tobytes()
        kraus = np.eye(math.isqrt(t.dim), dtype=complex)
        assert [k.tobytes() for k in factor[0].kraus] == [kraus.tobytes()]
    assert list(rule._passthroughs) == types
    assert KroneckerRule().identity(qubit.system()).kraus is None


def mangled_keys(z: OutcomeString, labels) -> list:
    """Keys naming no outcome string of z's circuit: a label its instance
    lacks, an unknown, an extra or a dropped instance, the pairs reversed,
    and z's pairs as a plain tuple or dict."""
    (iid, _), rest = z.pairs[0], z.pairs[1:]
    lacking = "".join(labels[iid]) + "x"
    return [OutcomeString(((iid, lacking), *rest)), OutcomeString((("nosuch", "0"), *rest)),
            OutcomeString((*z.pairs, ("nosuch", "0"))), OutcomeString(z.pairs[:-1]),
            OutcomeString(z.pairs[::-1]), z.pairs, z.as_dict()]


@PROPERTY
@given(st.sampled_from(ALL_THEORIES), st.integers(0, 2**32 - 1),
       st.sampled_from(["greedy", "singletons"]))
def test_distribution_is_a_read_only_mapping(theory, seed, style):
    """Against dict(dist.items()) as the reference: lookups by leaf index,
    KeyError for every key the reference lacks, dict equality both ways,
    read-only, byte-stable pickles and re-iterable views."""
    c = random_circuit(theory, np.random.default_rng(seed), max_gates=7)
    fol = foliate(c, style)
    dist = distribution(c, foliation=fol)
    ref = dict(dist.items())
    assert type(dist) is Distribution
    assert len(dist) == len(ref) == c.n_outcome_strings()
    assert list(dist) == list(dist.keys()) == list(ref)
    for z, p in ref.items():
        assert type(dist[z]) is float and dist[z].hex() == p.hex()
        assert z in dist and dist.get(z).hex() == p.hex()
    labels = {iid: c.gate(iid).outcome_labels for iid in c.instance_ids}
    for z in ref:
        for key in mangled_keys(z, labels):
            with pytest.raises(KeyError):
                dist[key]
            assert key not in dist and dist.get(key, "absent") == "absent"
            if not isinstance(key, dict):
                assert key not in ref
    assert dist == ref and ref == dist
    z = next(iter(ref))
    assert dist != {**ref, z: ref[z] + 1.0} and {**ref, z: ref[z] + 1.0} != dist
    with pytest.raises(TypeError):
        dist[z] = 0.5
    again = pickle.loads(pickle.dumps(dist))
    assert type(again) is Distribution and again == dist
    assert list(again.items()) == list(dist.items())
    # --trace digests results by pickle, so two evaluations must pickle alike
    assert pickle.dumps(dist) == pickle.dumps(distribution(c, foliation=fol))
    items, values = dist.items(), dist.values()
    assert list(items) == list(items) == list(ref.items())
    assert list(values) == list(values) == list(ref.values())
    assert len(items) == len(values) == len(ref)


@PROPERTY
@given(circuits(), st.data())
def test_json_round_trip_keeps_every_bit(c, data):
    acceptor = data.draw(st.sampled_from(acceptors_for(c, data)))
    again, parsed_acceptor = parse_circuit(json.dumps(circuit_to_json(c, acceptor)))
    assert list(distribution(again).items()) == list(distribution(c).items())
    assert acceptance_prob(again, parsed_acceptor) == acceptance_prob(c, acceptor)


class CountingRule(KroneckerRule):
    """A tensor-product rule that counts its ``contract`` calls, the outcome
    combinations they extend the frontier by, and the composite matrices it
    builds (its ``parallel_matrix`` calls)."""

    def __init__(self, theory):
        super().__init__(theory)
        self.contracts = self.matrices = self.combinations = 0

    def contract(self, pieces, front, weights=None):
        self.contracts += 1
        self.combinations += math.prod(map(len, pieces))
        return super().contract(pieces, front, weights)

    def parallel_matrix(self, pieces):
        self.matrices += 1
        return super().parallel_matrix(pieces)


def counting_coin_circuit() -> tuple[CircuitDAG, CountingRule]:
    """Four coins, each read: two greedy layers, eight singleton layers."""
    base = classical_theory(2)
    rule = CountingRule(base.name)
    theory = dataclasses.replace(base, composite_rule=rule)
    c = CircuitDAG(theory)
    for k in range(4):
        c.add(f"c{k}", theory.gate("coin"))
        c.add(f"r{k}", theory.gate("read"))
        c.connect((f"c{k}", 0), (f"r{k}", 0))
    return c, rule


def test_prob_builds_one_layer_matrix_per_layer():
    c, rule = counting_coin_circuit()
    z = {**{f"c{k}": "1" for k in range(4)}, **{f"r{k}": "1" for k in range(4)}}
    for style in ("greedy", "singletons"):
        fol = foliate(c, style)
        rule.contracts = rule.matrices = rule.combinations = 0
        assert prob(c, z, foliation=fol) == pytest.approx(2.0**-4)
        # the walk of distribution, one contraction of one selected combination
        # per layer, and no Kronecker stack
        assert (rule.contracts, rule.matrices, rule.combinations) == (len(fol), 0, len(fol))


def test_enumeration_and_acceptors_build_one_stack_per_layer():
    c, rule = counting_coin_circuit()
    table = Acceptor("table", table={z.pairs: 0 for z in distribution(c)})
    acceptors = [Acceptor(kind) for kind in BUILT_IN if kind != "reject-all"] + [table]
    for style in ("greedy", "singletons"):
        fol = foliate(c, style)
        rule.contracts = rule.matrices = 0
        distribution(c, foliation=fol)
        assert (rule.contracts, rule.matrices) == (len(fol), 0)
        for acceptor in acceptors:
            rule.contracts = 0
            acceptance_prob(c, acceptor, foliation=fol)
            assert (rule.contracts, rule.matrices) == (len(fol), 0), acceptor.kind
    # the bridge compiles the greedy foliation; running the program contracts
    # each of its layers once
    for acceptor in acceptors:
        rule.contracts = 0
        program = circuit_to_affine_program(c, acceptor)
        assert (rule.contracts, rule.matrices) == (0, 0)
        program.acceptance_weight()
        assert (rule.contracts, rule.matrices) == (len(foliate(c)), 0)


def overfull_circuit() -> CircuitDAG:
    """A classical wire prepared in the non-physical quasi-state (1.5, -0.5), then read."""
    theory = classical_theory(2)
    sys = theory.system()
    quasi = Gate("quasi", (), (sys,), {
        "0": TransformationMatrix(UNIT, sys, np.array([[1.5], [-0.5]]))})
    c = CircuitDAG(theory)
    c.add("q", quasi)
    c.add("r", theory.gate("read"))
    c.connect(("q", 0), ("r", 0))
    return c


def test_every_evaluation_path_is_range_checked():
    c = overfull_circuit()
    first = Acceptor("first-outcome-is-0", instance="r")
    with pytest.raises(GptLabError, match="outside"):
        prob(c, {"q": "0", "r": "0"})
    with pytest.raises(GptLabError, match="outside"):
        distribution(c)
    with pytest.raises(GptLabError, match="outside"):
        acceptance_prob(c, first)
    with pytest.raises(GptLabError, match="outside"):
        circuit_to_affine_program(c, first).acceptance_weight()
    # the quasi-probabilities still total 1
    assert acceptance_prob(c, Acceptor("accept-all")) == pytest.approx(1.0)


def coin_circuit() -> CircuitDAG:
    theory = classical_theory(2)
    c = CircuitDAG(theory)
    c.add("u", theory.gate("prep_uniform"))
    c.add("r", theory.gate("read"))
    c.connect(("u", 0), ("r", 0))
    return c


def test_acceptor_naming_an_unknown_instance():
    c = coin_circuit()
    ghost = Acceptor("first-outcome-is-0", instance="ghost")
    with pytest.raises(GptLabError, match="ghost"):
        acceptance_prob(c, ghost)
    # on an outcome string, too, a missing instance is a GptLabError
    with pytest.raises(GptLabError, match="instance 'ghost', which outcome string 'u=0,r=0'"):
        ghost.value(c.outcome_string({"u": "0", "r": "0"}))
    with pytest.raises(GptLabError, match="no instance to read: outcome string '' has none"):
        Acceptor("first-outcome-is-0").value(OutcomeString(()))
    with pytest.raises(GptLabError, match="no instance to read: the circuit has none"):
        acceptance_prob(CircuitDAG(c.theory), Acceptor("first-outcome-is-0"))
    with pytest.raises(GptLabError, match="ghost"):
        circuit_to_affine_program(c, ghost).acceptance_weight()
    doc = circuit_to_json(c, ghost)
    with pytest.raises(ParseError, match="ghost"):
        parse_circuit(json.dumps(doc))


def test_cli_rejects_acceptor_naming_an_unknown_instance(tmp_path, capsys):
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(circuit_to_json(coin_circuit(),
                                               Acceptor("first-outcome-is-0", instance="ghost"))))
    assert main(["--json", "circuit", "accept", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert "ghost" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
