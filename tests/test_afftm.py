"""Affine machine semantics: weights, halting, norms, and the circuit bridge."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import Acceptor, acceptance_prob
from gptlab.afftm import (
    AffineMachine,
    Branch,
    Configuration,
    acceptance_weight,
    circuit_to_affine_program,
    decides_with_bounded_error,
    initial_configuration,
    is_proper_on,
    norm_trace,
    step,
    validate,
)
from gptlab.errors import HaltingViolationError, MachineValidationError

from conftest import monte_carlo_acceptance, random_circuit, random_machine, reference_step

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def machine(transitions, states=("q0", "q1", "acc", "rej"), initial="q0"):
    return AffineMachine(states=frozenset(states), initial=initial, accept="acc",
                         reject="rej", blank="_", alphabet=frozenset("01_"),
                         transitions=transitions)


def immediate_accept():
    return machine({("q0", "_"): (Branch("acc", "_", "S", 1.0),)})


def coin_machine():
    return machine({("q0", "_"): (Branch("acc", "_", "S", 0.5),
                                  Branch("rej", "_", "S", 0.5))})


def branch_2_minus_1():
    # weight-2 branch accepts at once; weight -1 branch takes one more step
    return machine({
        ("q0", "_"): (Branch("acc", "_", "S", 2.0), Branch("q1", "_", "S", -1.0)),
        ("q1", "_"): (Branch("acc", "_", "S", 1.0),),
    })


def parity_machine():
    return machine({
        ("q0", "0"): (Branch("q0", "0", "R", 1.0),),
        ("q0", "1"): (Branch("q1", "1", "R", 1.0),),
        ("q1", "0"): (Branch("q1", "0", "R", 1.0),),
        ("q1", "1"): (Branch("q0", "1", "R", 1.0),),
        ("q0", "_"): (Branch("rej", "_", "S", 1.0),),
        ("q1", "_"): (Branch("acc", "_", "S", 1.0),),
    })


def test_validate_examples():
    assert validate(immediate_accept()).ok
    assert validate(coin_machine()).ok
    bad = machine({("q0", "_"): (Branch("acc", "_", "S", 2.0),
                                 Branch("rej", "_", "S", -0.5))})
    rep = validate(bad)
    assert not rep.ok and "1.5" in rep.violations[0]

    leaky = machine({("q0", "_"): (Branch("acc", "_", "S", 1.0),),
                     ("acc", "_"): (Branch("rej", "_", "S", 1.0),)})
    rep = validate(leaky)
    assert not rep.ok and any("halting" in v for v in rep.violations)


def test_step_semantics():
    m = branch_2_minus_1()
    v0 = {initial_configuration(m, ""): 1.0}
    v1 = step(m, v0)
    assert sorted(v1.values()) == [-1.0, 2.0]
    v2 = step(m, v1)
    # paths merge: 2 + (-1) on the same accepting configuration
    assert list(v2.values()) == [1.0]
    assert step(m, {}) == {}


def _bits(vector):
    return [(cfg, type(cfg), float.hex(w)) for cfg, w in vector.items()]


@st.composite
def machine_runs(draw):
    """A random machine, an input and a step count. Some transitions may be
    removed, and one may gain two equal branches of weights c and -c, whose
    children cancel to an exact zero."""
    m = random_machine(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    keys = sorted(m.transitions)
    dropped = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    transitions = {k: v for k, v in m.transitions.items() if k not in dropped}
    cancelled = draw(st.sampled_from([None, *keys]))
    if cancelled in transitions:
        c = draw(st.sampled_from([0.5, 2.0, 0.3]))
        transitions[cancelled] += (Branch(m.reject, "1", "L", c), Branch(m.reject, "1", "L", -c))
    m = AffineMachine(m.states, m.initial, m.accept, m.reject, m.blank, m.alphabet, transitions)
    x = draw(st.text(alphabet=sorted(m.alphabet), max_size=4))
    return m, x, draw(st.integers(0, 4))


@PROPERTY
@given(machine_runs())
def test_step_matches_reference(run):
    m, x, steps = run
    v = {initial_configuration(m, x): 1.0}
    for _ in range(steps):
        try:
            want = reference_step(m, v)
        except MachineValidationError as exc:
            with pytest.raises(MachineValidationError) as err:
                step(m, v)
            assert str(err.value) == str(exc)
            return
        got = step(m, v)
        assert _bits(got) == _bits(want)
        v = got


def test_configuration_is_a_tuple():
    cfg = Configuration("q0", ((-1, "1"), (2, "0")), 2)
    assert cfg == ("q0", ((-1, "1"), (2, "0")), 2)
    state, tape, head = cfg
    assert (state, tape, head) == (cfg.state, cfg.tape, cfg.head)
    assert [cfg._replace(head=h).read("_") for h in (-1, 0, 2, 3)] == ["1", "_", "0", "_"]


def _coin_with(next_state="acc", write="_", read="_"):
    return dict(states=frozenset({"q0", "acc", "rej"}), initial="q0", accept="acc",
                reject="rej", blank="_", alphabet=frozenset("01_"),
                transitions={("q0", read): (Branch(next_state, write, "S", 0.5),
                                            Branch("rej", "_", "S", 0.5))})


@pytest.mark.parametrize("run, error, message", [
    (lambda: AffineMachine(**_coin_with(next_state="nowhere")), ValueError, "state 'nowhere'"),
    (lambda: AffineMachine(**_coin_with(write="Q")), ValueError, "symbol 'Q'"),
    (lambda: AffineMachine(**_coin_with(read="Q")), ValueError, "symbol 'Q'"),
    (lambda: AffineMachine(**{**_coin_with(), "transitions": {
        ("q9", "_"): (Branch("acc", "_", "S", 1.0),)}}), ValueError, "state 'q9'"),
    (lambda: initial_configuration(AffineMachine(**_coin_with()), "0a1"),
     MachineValidationError, r"\['a'\] are not in the tape alphabet"),
    (lambda: acceptance_weight(AffineMachine(**_coin_with()), " ", 3),
     MachineValidationError, "not in the tape alphabet"),
])
def test_undeclared_names_are_rejected(run, error, message):
    with pytest.raises(error, match=message):
        run()


def test_step_keeps_halting_configurations():
    m = coin_machine()
    v = step(m, {initial_configuration(m, ""): 1.0})
    v2 = step(m, v)
    assert v == v2


def test_acceptance_weights():
    assert acceptance_weight(immediate_accept(), "", 2) == 1.0
    assert acceptance_weight(coin_machine(), "", 2) == 0.5
    assert acceptance_weight(branch_2_minus_1(), "", 4) == 1.0  # 2 + (-1), exactly


def test_parity_machine_decides():
    m = parity_machine()
    for x in ("", "0", "1", "0110", "111", "10101"):
        expected = 1.0 if x.count("1") % 2 == 1 else 0.0
        assert acceptance_weight(m, x, len(x) + 2) == expected


def test_halting_violation():
    spinner = machine({("q0", "_"): (Branch("q0", "_", "R", 1.0),)})
    with pytest.raises(HaltingViolationError):
        acceptance_weight(spinner, "", 10)


def test_missing_transition_is_reported():
    m = machine({("q0", "_"): (Branch("q1", "_", "S", 1.0),)})
    with pytest.raises(MachineValidationError):
        acceptance_weight(m, "", 5)


def test_properness_reports():
    rep = is_proper_on(coin_machine(), ["", ""], 3)
    assert rep.all_pass

    # only the weight-2 branch accepts: alpha = 2, flagged improper
    m = machine({("q0", "_"): (Branch("acc", "_", "S", 2.0),
                               Branch("rej", "_", "S", -1.0))})
    rep = is_proper_on(m, [""], 3)
    assert not rep.all_pass
    assert rep.entries[0].alpha == 2.0

    vacuous = is_proper_on(coin_machine(), [], 3)
    assert vacuous.all_pass and "vacuous" in vacuous.note


def test_bounded_error_reports():
    m = parity_machine()
    samples = [("1", True), ("11", False), ("101", False)]
    assert decides_with_bounded_error(m, samples, 10).passed
    # a fair coin decides nothing
    assert not decides_with_bounded_error(coin_machine(), [("", True)], 3).passed
    assert not decides_with_bounded_error(coin_machine(), [("", False)], 3).passed


def test_norm_traces():
    trace = norm_trace(parity_machine(), "101", 10)
    assert all(n == pytest.approx(1.0) for n in trace.norms)
    assert trace.within_bound

    trace = norm_trace(branch_2_minus_1(), "", 4)
    assert trace.norms[1] == pytest.approx(np.sqrt(5.0))
    assert 1 in trace.flagged_steps

    trace = norm_trace(coin_machine(), "", 4)
    assert all(n <= 1 + 1e-9 for n in trace.norms)


def test_weight_conservation_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = random_machine(rng)
        assert validate(m).ok
        x = "".join(rng.choice(["0", "1"], size=rng.integers(0, 4)))
        v = {initial_configuration(m, x): 1.0}
        for _ in range(4):
            v = step(m, v)
            assert sum(v.values()) == pytest.approx(1.0, abs=1e-12)


def test_probabilistic_specialization_monte_carlo():
    # two nested coins: alpha = 3/4
    m = AffineMachine(
        states=frozenset({"q0", "q1", "acc", "rej"}), initial="q0", accept="acc",
        reject="rej", blank="_", alphabet=frozenset("01_"),
        transitions={
            ("q0", "_"): (Branch("acc", "_", "S", 0.5), Branch("q1", "_", "S", 0.5)),
            ("q1", "_"): (Branch("acc", "_", "S", 0.5), Branch("rej", "_", "S", 0.5)),
        })
    alpha = acceptance_weight(m, "", 4)
    assert alpha == pytest.approx(0.75)
    rng = np.random.default_rng(5)
    shots = 4000
    estimate = monte_carlo_acceptance(m, "", shots, rng)
    sigma = np.sqrt(alpha * (1 - alpha) / shots)
    assert abs(estimate - alpha) <= 3 * sigma


def test_bridge_examples(classical2):
    from gptlab import CircuitDAG

    c = CircuitDAG(classical2)
    c.add("p", classical2.gate("prep_0"))
    c.add("r", classical2.gate("read"))
    c.connect(("p", 0), ("r", 0))
    acc = Acceptor("first-outcome-is-0", instance="r")
    assert circuit_to_affine_program(c, acc).acceptance_weight() == pytest.approx(1.0)

    coin = CircuitDAG(classical2)
    coin.add("u", classical2.gate("prep_uniform"))
    coin.add("r", classical2.gate("read"))
    coin.connect(("u", 0), ("r", 0))
    assert circuit_to_affine_program(coin, acc).acceptance_weight() == pytest.approx(0.5)

    # the reads take the three wires in the cyclic order c, a, b, so the folded
    # wire permutation is no involution
    cyc = CircuitDAG(classical2)
    for w, prep in zip("abc", ("prep_0", "prep_1", "prep_uniform")):
        cyc.add(f"p{w}", classical2.gate(prep))
    for w in "cab":
        cyc.add(f"r{w}", classical2.gate("read"))
        cyc.connect((f"p{w}", 0), (f"r{w}", 0))
    for w, want in zip("abc", (1.0, 0.0, 0.5)):
        acc = Acceptor("first-outcome-is-0", instance=f"r{w}")
        assert circuit_to_affine_program(cyc, acc).acceptance_weight() == pytest.approx(want)


def test_bridge_random_classical_circuits(classical2):
    rng = np.random.default_rng(12)
    acc = Acceptor("parity-of-labels")
    for _ in range(100):
        c = random_circuit(classical2, rng, max_gates=3)
        got = circuit_to_affine_program(c, acc).acceptance_weight()
        want = acceptance_prob(c, acc)
        assert got == pytest.approx(want, abs=1e-9)
