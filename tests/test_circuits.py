"""Circuit validation, foliation, and outcome distributions."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import (
    Acceptor,
    CircuitDAG,
    Decision,
    OutcomeString,
    acceptance_prob,
    classical_theory,
    decide,
    distribution,
    foliate,
    prob,
    quantum_theory,
    validate,
)
from gptlab.circuits import DEFAULT_ENUMERATION_CAP, Gate, Wire, _compile, _validate
from gptlab.core import UNIT, CompositeType, SystemType, TransformationMatrix
from gptlab.errors import CapacityError, CircuitValidationError, GptLabError

from conftest import (all_theories, classical_path_distribution, operator_distribution,
                      random_circuit, rebuilt, reference_check_foliation, reference_spans,
                      reference_validate)


def coin_circuit(classical2):
    c = CircuitDAG(classical2)
    c.add("u", classical2.gate("prep_uniform"))
    c.add("r", classical2.gate("read"))
    c.connect(("u", 0), ("r", 0))
    return c


def test_validate_ok_and_violations(classical2):
    c = coin_circuit(classical2)
    assert validate(c).ok

    dangling = CircuitDAG(classical2)
    dangling.add("u", classical2.gate("prep_uniform"))
    rep = validate(dangling)
    assert not rep.ok
    assert any("open port" in e for e in rep.errors)


def test_validate_type_mismatch(classical2, qubit):
    c = CircuitDAG(classical2)
    c.add("u", classical2.gate("prep_uniform"))
    c.add("m", qubit.gate("measure"))  # wrong wire type
    c.connect(("u", 0), ("m", 0))
    rep = validate(c)
    assert not rep.ok
    assert any("type mismatch" in e for e in rep.errors)


def test_validate_cycle(classical2):
    c = CircuitDAG(classical2)
    c.add("a", classical2.gate("id"))
    c.add("b", classical2.gate("id"))
    c.connect(("a", 0), ("b", 0))
    c.connect(("b", 0), ("a", 0))
    rep = validate(c)
    assert not rep.ok
    assert any("cycle" in e for e in rep.errors)


def test_foliate_shapes(classical2):
    chain = CircuitDAG(classical2)
    chain.add("p", classical2.gate("prep_0"))
    chain.add("n", classical2.gate("not"))
    chain.add("r", classical2.gate("read"))
    chain.connect(("p", 0), ("n", 0))
    chain.connect(("n", 0), ("r", 0))
    assert foliate(chain) == [["p"], ["n"], ["r"]]

    two = CircuitDAG(classical2)
    for k in range(2):
        two.add(f"p{k}", classical2.gate("prep_uniform"))
        two.add(f"r{k}", classical2.gate("read"))
        two.connect((f"p{k}", 0), (f"r{k}", 0))
    assert foliate(two, "greedy") == [["p0", "p1"], ["r0", "r1"]]
    # singleton layering follows insertion order among ready gates
    assert foliate(two, "singletons") == [["p0"], ["r0"], ["p1"], ["r1"]]

    empty = CircuitDAG(classical2)
    assert foliate(empty) == []


def test_prob_and_distribution_fair_coin(classical2):
    c = coin_circuit(classical2)
    assert prob(c, {"u": "0", "r": "0"}) == pytest.approx(0.5)
    dist = distribution(c)
    assert len(dist) == 2
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_two_independent_coins(classical2):
    c = CircuitDAG(classical2)
    for k in range(2):
        c.add(f"c{k}", classical2.gate("coin"))
        c.add(f"s{k}", classical2.gate("sink"))
        c.connect((f"c{k}", 0), (f"s{k}", 0))
    dist = distribution(c)
    assert len(dist) == 4
    assert all(p == pytest.approx(0.25) for p in dist.values())


def test_prob_deterministic_qubit(qubit):
    c = CircuitDAG(qubit)
    c.add("p", qubit.gate("prep_0"))
    c.add("m", qubit.gate("measure"))
    c.connect(("p", 0), ("m", 0))
    assert prob(c, {"p": "0", "m": "0"}) == pytest.approx(1.0, abs=1e-12)
    assert prob(c, {"p": "0", "m": "1"}) == pytest.approx(0.0, abs=1e-12)


def test_rebit_bell_circuit_branches(rebit):
    def bell(gate_name):
        c = CircuitDAG(rebit)
        c.add("prep", rebit.gate("prep_phi_plus"))
        c.add("t", rebit.gate(gate_name))
        c.add("m", rebit.gate("joint_measure"))
        c.connect(("prep", 0), ("t", 0))
        c.connect(("prep", 1), ("m", 1))
        c.connect(("t", 0), ("m", 0))
        return c

    assert prob(bell("t1"), {"prep": "0", "t": "0", "m": "first"}) == pytest.approx(1.0, abs=1e-12)
    dist = distribution(bell("t2"))
    got = {z.label("m"): p for z, p in dist.items()}
    assert got["first"] == pytest.approx(0.5, abs=1e-12)
    assert got["second"] == pytest.approx(0.5, abs=1e-12)


def test_rebit_crossed_wires_permute_correctly(rebit):
    # t1 acting on the *second* half of the pair, wires crossing into the
    # joint measurement; engine must agree with direct operator evolution
    c = CircuitDAG(rebit)
    c.add("prep", rebit.gate("prep_phi_plus"))
    c.add("t", rebit.gate("t1"))
    c.add("m", rebit.gate("joint_measure"))
    c.connect(("prep", 1), ("t", 0))
    c.connect(("prep", 0), ("m", 1))
    c.connect(("t", 0), ("m", 0))
    engine = {z.pairs: p for z, p in distribution(c).items()}
    oracle = operator_distribution(c)
    for key, p in engine.items():
        assert p == pytest.approx(oracle[key], abs=1e-12)
    # the entangled pair is swap-symmetric, so the branch is still certain
    first = next(p for z, p in engine.items() if dict(z)["m"] == "first")
    assert first == pytest.approx(1.0, abs=1e-12)


def test_incomplete_outcome_string_rejected(classical2):
    c = coin_circuit(classical2)
    with pytest.raises(GptLabError):
        prob(c, {"u": "0"})


def test_unvalidated_circuit_rejected(classical2):
    c = CircuitDAG(classical2)
    c.add("u", classical2.gate("prep_uniform"))
    with pytest.raises(CircuitValidationError):
        foliate(c)
    with pytest.raises(CircuitValidationError):
        prob(c, {"u": "0"})


def test_an_evaluated_circuit_sees_the_gates_added_after(classical2):
    c = coin_circuit(classical2)
    assert len(distribution(c)) == 2 and prob(c, {"u": "0", "r": "1"}) == 0.5
    c.connect((c.add("p", classical2.gate("coin")), 0), (c.add("s", classical2.gate("read")), 0))
    assert c.instance_ids == ["u", "r", "p", "s"]
    assert validate(c).ok and foliate(c) == [["u", "p"], ["r", "s"]]
    dist = distribution(c)
    assert len(dist) == 8 and dist == distribution(rebuilt(c))
    z = {"u": "0", "r": "1", "p": "1", "s": "1"}
    assert prob(c, z) == 0.25 == dist[c.outcome_string(z)]
    assert acceptance_prob(c, Acceptor("first-outcome-is-0", instance="s")) == 0.5


def test_a_gate_added_after_evaluation_is_validated(classical2):
    c = coin_circuit(classical2)
    assert len(distribution(c)) == 2
    c.add("d", classical2.gate("read"))  # its input is open
    fresh = rebuilt(c)
    report = validate(c)
    assert not report.ok and report == validate(fresh)
    assert "open port: input 0 of 'd' is not connected" in report.errors
    for evaluate in (distribution, lambda c: prob(c, {"u": "0", "r": "0", "d": "0"}),
                     lambda c: acceptance_prob(c, Acceptor("accept-all")), foliate):
        with pytest.raises(CircuitValidationError) as got:
            evaluate(c)
        with pytest.raises(CircuitValidationError) as want:
            evaluate(fresh)
        assert str(got.value) == str(want.value)


def test_instances_and_wires_are_read_only(classical2):
    c = coin_circuit(classical2)
    assert c.instances == (("u", c.gate("u")), ("r", c.gate("r")))
    assert c.wires == (Wire(("u", 0), ("r", 0)),)
    with pytest.raises(AttributeError):
        c.instances.append(("x", classical2.gate("coin")))
    with pytest.raises(TypeError):
        c.wires[0] = Wire(("u", 0), ("x", 0))
    with pytest.raises(AttributeError):
        c.wires = []
    assert len(distribution(c)) == 2


def test_returned_foliations_and_reports_are_copies(classical2):
    c = coin_circuit(classical2)
    dist = distribution(c)
    fol = foliate(c)
    fol[0].append("r")
    fol.reverse()
    report = validate(c)
    report.errors.append("not an error")
    assert foliate(c) == [["u"], ["r"]] and validate(c).errors == []
    assert distribution(c) == dist
    c.add("d", classical2.gate("read"))
    validate(c).errors.clear()
    with pytest.raises(CircuitValidationError, match="open port"):
        distribution(c)


def test_copies_hold_no_compilation(classical2):
    c = coin_circuit(classical2)
    dist = distribution(c)
    for again in (copy.copy(c), copy.deepcopy(c)):
        assert again._held is None and distribution(again) == dist
        again.connect((again.add("p", classical2.gate("coin")), 0),
                      (again.add("s", classical2.gate("read")), 0))
        assert len(distribution(again)) == 8
    assert c.instance_ids == ["u", "r"] and distribution(c) == dist


def test_capacity_error(classical2):
    c = CircuitDAG(classical2)
    for k in range(4):
        c.add(f"c{k}", classical2.gate("coin"))
        c.add(f"r{k}", classical2.gate("read"))
        c.connect((f"c{k}", 0), (f"r{k}", 0))
    assert c.n_outcome_strings() == 2**8
    with pytest.raises(CapacityError):
        distribution(c, cap=255)
    assert len(distribution(c, cap=256)) == 256


def test_factorization_over_disjoint_union(classical2, qubit):
    # P(z1 z2) = P(z1) P(z2) when the circuit is two disconnected pieces
    c = CircuitDAG(classical2)
    c.add("u", classical2.gate("prep_uniform"))
    c.add("r", classical2.gate("read"))
    c.connect(("u", 0), ("r", 0))
    c.add("p", classical2.gate("coin"))
    c.add("s", classical2.gate("sink"))
    c.connect(("p", 0), ("s", 0))
    left = coin_circuit(classical2)
    dist = distribution(c)
    ldist = distribution(left)
    for z, p in dist.items():
        lz = {k: v for k, v in z.pairs if k in ("u", "r")}
        lkey = left.outcome_string(lz)
        # the coin piece contributes 1/2 per branch
        assert p == pytest.approx(ldist[lkey] * 0.5, abs=1e-12)


def test_acceptance_prob_and_decide(classical2):
    c = coin_circuit(classical2)
    first = Acceptor("first-outcome-is-0", instance="r")
    assert acceptance_prob(c, first) == pytest.approx(0.5)
    assert acceptance_prob(c, Acceptor("accept-all")) == pytest.approx(1.0)
    assert acceptance_prob(c, Acceptor("reject-all")) == pytest.approx(0.0)

    def family(x):
        c = CircuitDAG(classical2)
        c.add("p", classical2.gate("prep_0" if x == "yes" else "prep_1"))
        c.add("r", classical2.gate("read"))
        c.connect(("p", 0), ("r", 0))
        return c

    acceptor = Acceptor("first-outcome-is-0", instance="r")
    assert decide(family, acceptor, "yes") is Decision.ACCEPT
    assert decide(family, acceptor, "no") is Decision.REJECT
    assert decide(lambda x: coin_circuit(classical2), acceptor, "") is Decision.INCONCLUSIVE
    # the thresholds themselves decide; just inside them is inconclusive
    assert Decision.of(2 / 3) is Decision.ACCEPT
    assert Decision.of(1 / 3) is Decision.REJECT
    assert Decision.of(np.nextafter(2 / 3, 0.0)) is Decision.INCONCLUSIVE
    assert Decision.of(np.nextafter(1 / 3, 1.0)) is Decision.INCONCLUSIVE


def test_table_acceptor_total(classical2):
    c = coin_circuit(classical2)
    table = Acceptor.from_table(
        [({"u": "0", "r": "0"}, 0), ({"u": "0", "r": "1"}, 1)], c
    )
    assert acceptance_prob(c, table) == pytest.approx(0.5)
    partial = Acceptor.from_table([({"u": "0", "r": "0"}, 0)], c)
    with pytest.raises(GptLabError):
        acceptance_prob(c, partial)


def test_an_acceptors_table_is_a_read_only_copy(classical2):
    c = coin_circuit(classical2)
    strings = list(distribution(c))
    table = {z.pairs: 0 for z in strings}
    for acceptor in (Acceptor("table", table=table), Acceptor.from_table(
            {z: 0 for z in strings}, c)):
        table[strings[0].pairs] = 0  # the caller's dict, edited after the build
        assert acceptance_prob(c, acceptor) == 1.0
        table[strings[0].pairs] = 1
        assert acceptance_prob(c, acceptor) == 1.0
        with pytest.raises(TypeError):
            acceptor.table[strings[0].pairs] = 1
        assert acceptance_prob(c, acceptor) == 1.0


def test_table_acceptor_accepting_nothing_returns_a_float(classical2):
    c = coin_circuit(classical2)
    reject = Acceptor.from_table([({"u": "0", "r": "0"}, 1), ({"u": "0", "r": "1"}, 1)], c)
    p = acceptance_prob(c, reject)
    assert type(p) is float and p == 0.0


def test_outcome_string_rejects_unknown_instances(classical2):
    c = coin_circuit(classical2)
    stray = {"u": "0", "r": "0", "typo": "1"}
    with pytest.raises(GptLabError, match="'typo'"):
        c.outcome_string(stray)
    with pytest.raises(GptLabError, match="'typo'"):
        prob(c, stray)
    with pytest.raises(GptLabError, match="'typo'"):
        Acceptor.from_table([(stray, 0)], c)


def coin_read_circuit(classical2):
    c = CircuitDAG(classical2)
    c.add("c0", classical2.gate("coin"))
    c.add("r0", classical2.gate("read"))
    c.connect(("c0", 0), ("r0", 0))
    return c


@pytest.mark.parametrize("pairs, message", [
    ((("c0", "0"),), "missing instance 'r0'"),
    ((("c0", "7"), ("r0", "0")), "instance 'c0' has no outcome '7'"),
    ((("c0", "0"), ("r0", "0"), ("x9", "0")), "names instance 'x9', which the circuit lacks"),
])
def test_prob_checks_both_outcome_string_forms_alike(classical2, pairs, message):
    """A string missing an instance, with a label its gate lacks, or naming an
    extra instance: the same GptLabError as an OutcomeString or a mapping, from
    prob and from a table acceptor's entries."""
    c = coin_read_circuit(classical2)
    for z in (OutcomeString(pairs), dict(pairs)):
        with pytest.raises(GptLabError, match=message):
            prob(c, z)
        with pytest.raises(GptLabError, match=message):
            Acceptor.from_table([(z, 0)], c)


def test_outcome_strings_name_each_instance_once_in_any_order(classical2):
    c = coin_read_circuit(classical2)
    with pytest.raises(GptLabError, match="names instance 'c0' twice"):
        prob(c, OutcomeString((("c0", "0"), ("r0", "0"), ("c0", "1"))))
    # any order of a full string is read by instance, as a mapping is
    z = OutcomeString((("r0", "1"), ("c0", "1")))
    assert prob(c, z) == prob(c, {"c0": "1", "r0": "1"}) == 0.5
    table = Acceptor.from_table([(OutcomeString(pairs[::-1]), int(pairs[0][1]))
                                 for pairs in (z.pairs for z in distribution(c))], c)
    assert acceptance_prob(c, table) == 0.5


def test_gate_outcomes_must_span_its_wires(classical2, qubit):
    """A composite spans its factors and UNIT no wires; any other type only
    itself, whatever its dimension."""
    bit, q = classical2.system(), qubit.system()
    four = classical_theory(4).system()  # the qubit's dimension, not its type
    with pytest.raises(ValueError, match="'wrong' outcome '0' maps"):
        Gate("wrong", (q,), (q,), {"0": TransformationMatrix(four, four, np.eye(4))})
    with pytest.raises(ValueError, match="not its wires"):
        Gate("wrong", (bit, bit), (), {"0": TransformationMatrix(four, UNIT, np.ones((1, 4)))})
    with pytest.raises(ValueError, match="not its wires"):
        Gate("wrong", (), (bit,), {"0": TransformationMatrix(bit, bit, np.eye(2))})
    pair = qubit.composite_rule.composite([q, q])
    for inputs in ((q, q), (pair,)):
        Gate("joint", inputs, (), {"0": TransformationMatrix(pair, UNIT, np.ones((1, 16)))})
    Gate("unit", (), (), {"0": TransformationMatrix(UNIT, UNIT, np.ones((1, 1)))})
    for theory in all_theories():
        for gate in theory.gates.values():  # every built-in gate passes the check
            Gate(gate.name, gate.inputs, gate.outputs, gate.outcomes)


def test_normalization_and_foliation_invariance_random(classical2, qubit, rebit, boxworld):
    for theory in (classical2, qubit, rebit, boxworld):
        rng = np.random.default_rng(hash(theory.name) % 2**32)
        for _ in range(10):
            c = random_circuit(theory, rng)
            greedy = distribution(c, foliation=foliate(c, "greedy"))
            single = distribution(c, foliation=foliate(c, "singletons"))
            assert sum(greedy.values()) == pytest.approx(1.0, abs=1e-9)
            for z, p in greedy.items():
                assert single[z] == pytest.approx(p, abs=1e-12)


def test_quantum_circuits_match_direct_operator_simulation(qubit):
    rng = np.random.default_rng(99)
    for _ in range(25):
        c = random_circuit(qubit, rng)
        engine = {z.pairs: p for z, p in distribution(c).items()}
        oracle = operator_distribution(c)
        assert set(engine) == set(oracle)
        for key, p in engine.items():
            assert p == pytest.approx(oracle[key], abs=1e-9)


def test_rebit_circuits_match_direct_operator_simulation(rebit):
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = random_circuit(rebit, rng)
        engine = {z.pairs: p for z, p in distribution(c).items()}
        oracle = operator_distribution(c)
        for key, p in engine.items():
            assert p == pytest.approx(oracle[key], abs=1e-9)


def test_classical_circuits_match_path_sum(classical2):
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = random_circuit(classical2, rng)
        engine = {z.pairs: p for z, p in distribution(c).items()}
        oracle = classical_path_distribution(c)
        for key, p in engine.items():
            assert p == pytest.approx(oracle.get(key, 0.0), abs=1e-12)


def test_concurrent_prob_calls(classical2, qubit):
    """Threads evaluating circuits that hold no compilation yet race to build
    it; each call still reads the bits of a fresh circuit."""
    import os
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(11)
    circuits = [coin_circuit(classical2)] + [random_circuit(qubit, rng) for _ in range(4)]
    want = [distribution(rebuilt(c)) for c in circuits]
    calls = [(k, z) for _ in range(4) for k, dist in enumerate(want) for z in dist]

    def call(j):
        k, z = calls[j]
        return prob(circuits[k], z) if j % 2 else distribution(circuits[k])[z]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) + 2) as pool:
            futures = [pool.submit(call, j) for j in range(len(calls))]
            values = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert values == [want[k][z] for k, z in calls]


def test_default_cap_is_desk_scale():
    assert DEFAULT_ENUMERATION_CAP == 2**20


# The wiring properties: random circuits of bits or qubits, each wired as a
# random closed circuit and then changed in a few places, so that reports
# list unknown ids, bad ports, double connections, type mismatches, cycles
# and open ports, in every order the wires can come in.
WIRING_THEORIES = (classical_theory(2), quantum_theory(2))
WIRING_CHANGES = ("drop", "extra", "back", "foreign", "retarget", "shuffle")


def wired(theory, gates, wires) -> CircuitDAG:
    c = CircuitDAG(theory)
    for iid, gate in gates:
        c.add(iid, gate)
    for src, dst in wires:
        c.connect(src, dst)
    return c


@st.composite
def wirings(draw) -> CircuitDAG:
    theory, other = draw(st.permutations(WIRING_THEORIES))
    base = random_circuit(theory, np.random.default_rng(draw(st.integers(0, 2**16))))
    gates, wires = list(base.instances), [(w.src, w.dst) for w in base.wires]
    for change in draw(st.lists(st.sampled_from(WIRING_CHANGES), max_size=3)):
        ids = [iid for iid, _ in gates]
        end = st.tuples(st.sampled_from(ids + ["ghost"]), st.integers(-1, 2))
        at = st.integers(0, max(0, len(wires) - 1))
        if change == "drop" and wires:
            del wires[draw(at)]
        elif change == "extra":
            wires.insert(draw(at), (draw(end), draw(end)))
        elif change == "back" and wires:  # the target's output 0 into the source: a cycle
            src, dst = wires[draw(at)]
            wires.append(((dst[0], 0), (src[0], 0)))
        elif change == "foreign" and wires:  # a wire into a gate of another wire type
            gate = other.gate(draw(st.sampled_from(["id", "sink"])))
            gates.append((f"x{len(gates)}", gate))
            k = draw(at)
            wires[k] = (wires[k][0], (gates[-1][0], 0))
        elif change == "retarget" and wires:
            inputs = [(iid, p) for iid, g in gates for p in range(len(g.inputs))]
            if inputs:
                k = draw(at)
                wires[k] = (wires[k][0], draw(st.sampled_from(inputs)))
        elif change == "shuffle":
            wires = draw(st.permutations(wires))
    return wired(theory, gates, wires)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(wirings(), st.sampled_from(["greedy", "singletons"]))
def test_validation_reads_as_the_three_pass_reference(c, style):
    report, layers = _validate(c, style)
    want, want_layers = reference_validate(c, style)
    assert (report.ok, report.errors, layers) == (want.ok, want.errors, want_layers)


FOLIATION_CHANGES = ("shuffle", "scatter", "merge", "drop", "repeat", "unknown")


@st.composite
def explicit_foliations(draw) -> tuple[CircuitDAG, list[list[str]]]:
    theory = draw(st.sampled_from(WIRING_THEORIES))
    c = random_circuit(theory, np.random.default_rng(draw(st.integers(0, 2**16))))
    layers = foliate(c, draw(st.sampled_from(["greedy", "singletons"])))
    for change in draw(st.lists(st.sampled_from(FOLIATION_CHANGES), max_size=2)):
        ids = [iid for layer in layers for iid in layer]
        at = st.integers(0, max(0, len(layers) - 1))
        if change == "shuffle":
            layers = draw(st.permutations(layers))
        elif change == "scatter":  # every instance into a random layer, some left empty
            layers = [[] for _ in ids]
            for iid in draw(st.permutations(ids)):
                layers[draw(st.integers(0, len(ids) - 1))].append(iid)
        elif change == "merge" and len(layers) > 1:
            k = draw(st.integers(0, len(layers) - 2))
            layers = layers[:k] + [layers[k] + layers[k + 1]] + layers[k + 2:]
        elif change == "drop" and ids:
            gone = draw(st.sampled_from(ids))
            layers = [[iid for iid in layer if iid != gone] for layer in layers]
        elif change == "repeat" and ids and layers:
            k = draw(at)
            layers[k] = layers[k] + [draw(st.sampled_from(ids))]
        elif change == "unknown" and layers:
            k = draw(at)
            layers[k] = layers[k] + ["ghost"]
    return c, [list(layer) for layer in layers]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(explicit_foliations())
def test_explicit_foliations_are_checked_as_the_reference_checks(case):
    c, layers = case
    try:
        reference_check_foliation(c, layers)
    except CircuitValidationError as exc:
        with pytest.raises(CircuitValidationError) as got:
            _compile(c, layers)
        assert str(got.value) == str(exc)
        return
    compiled = _compile(c, layers)
    assert [[iid for iid, _ in layer.gates] for layer in compiled] == layers
    dist = distribution(c)
    for z, p in distribution(c, foliation=layers).items():
        assert p == pytest.approx(dist[z], abs=1e-12)


_bit, _q = WIRING_THEORIES[0].system(), WIRING_THEORIES[1].system()
SPAN_TYPES = (UNIT, SystemType("unit", 1), _bit, _q, classical_theory(4).system(),
              WIRING_THEORIES[1].composite_rule.composite([_q, _q]),
              CompositeType("bits", 4, factors=(_bit, _bit)),
              CompositeType("one", 2, factors=(_bit,)), CompositeType("bare", 4),
              CompositeType("nothing", 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SPAN_TYPES), st.lists(st.sampled_from(SPAN_TYPES), max_size=3))
def test_gate_sides_span_the_wires_the_reference_spans(t, wires):
    """Either side of a gate accepts a type on exactly the wires ``reference_spans``
    finds it spans, ``UNIT`` and factorless composites included."""
    wires = tuple(wires)
    sides = ((wires, (), TransformationMatrix(t, UNIT, np.ones((1, t.dim)))),
             ((), wires, TransformationMatrix(UNIT, t, np.ones((t.dim, 1)))))
    for inputs, outputs, outcome in sides:
        if reference_spans(t, wires):
            Gate("g", inputs, outputs, {"0": outcome})
        else:
            with pytest.raises(ValueError, match="not its wires"):
                Gate("g", inputs, outputs, {"0": outcome})
