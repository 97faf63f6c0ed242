"""Affine machine semantics: weights, halting, norms, and the circuit bridge."""

import dataclasses
import math
import pickle
import re
from functools import reduce
from itertools import product
from operator import add
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import Acceptor, acceptance_prob, distribution
from gptlab import afftm
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
)
from gptlab.errors import HaltingViolationError, MachineValidationError

from conftest import (
    crossed_circuit,
    fanout,
    monte_carlo_acceptance,
    random_circuit,
    random_machine,
    reference_merge,
    reference_run,
    reference_step,
    reference_table,
    writer_machine,
)

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
    immediate_accept(), coin_machine()  # valid machines build
    with pytest.raises(MachineValidationError,
                       match=r"^weights from \('q0', '_'\) sum to 1\.5, not 1$"):
        machine({("q0", "_"): (Branch("acc", "_", "S", 2.0), Branch("rej", "_", "S", -0.5))})
    with pytest.raises(MachineValidationError,
                       match="^halting state 'acc' has outgoing transitions$"):
        machine({("q0", "_"): (Branch("acc", "_", "S", 1.0),),
                 ("acc", "_"): (Branch("rej", "_", "S", 1.0),)})
    # every violation, in transition order
    with pytest.raises(MachineValidationError) as err:
        machine({("q0", "_"): (),
                 ("rej", "0"): (Branch("rej", "_", "S", 1.0),),
                 ("q1", "1"): (Branch("acc", "_", "S", 0.25),)})
    assert str(err.value) == ("weights from ('q0', '_') sum to 0, not 1; "
                              "halting state 'rej' has outgoing transitions; "
                              "weights from ('q1', '1') sum to 0.25, not 1")


@pytest.mark.parametrize("weight, message", [
    (float("nan"), "finite, got nan"),
    (float("inf"), "finite, got inf"),
    (np.float64("-inf"), "finite, got -inf"),
    ("0.5", "a real number, got '0.5'"),
    (None, "a real number, got None"),
    (1j, "a real number, got 1j"),
    (True, "a real number, got True"),
])
def test_branch_weights_are_finite_real_numbers(weight, message):
    # a machine with weight [nan] used to pass its checks and run
    with pytest.raises(ValueError, match=f"^weight must be {re.escape(message)}$"):
        Branch("acc", "_", "S", weight)


def test_branches_are_slotted():
    branches = [Branch("acc", "0", move, 0.5) for move in "LRS"]
    for b in branches:
        assert not hasattr(b, "__dict__")
        same = Branch(b.next_state, b.write, b.move, b.weight)
        assert b == same and hash(b) == hash(same) and pickle.loads(pickle.dumps(b)) == b
        assert repr(b) == f"Branch(next_state='acc', write='0', move='{b.move}', weight=0.5)"
    assert branches[0] != branches[1]
    assert dataclasses.replace(branches[1], move="L") == branches[0]
    with pytest.raises(ValueError, match="^move must be one of L/R/S, got 'U'$"):
        dataclasses.replace(branches[0], move="U")
    with pytest.raises(ValueError, match="^weight must be finite, got nan$"):
        dataclasses.replace(branches[0], weight=math.nan)


def test_initial_configurations_are_configurations():
    m = coin_machine()
    for x, tape in (("", ()), ("0_1", ((0, "0"), (2, "1")))):
        cfg = initial_configuration(m, x)
        assert type(cfg) is Configuration and cfg == ("q0", tape, 0)
    with pytest.raises(MachineValidationError,
                       match=r"^input symbols \['a', 'b'\] are not in the tape alphabet$"):
        initial_configuration(m, "b0a")


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
    # the symbol under the head, as step reads it: each symbol leads to its own state
    read = {"1": "acc", "0": "rej", "_": "q1"}
    m = machine({("q0", sym): (Branch(nxt, sym, "S", 1.0),) for sym, nxt in read.items()})
    for h, sym in zip((-1, 0, 2, 3), "1_0_"):
        assert step(m, {Configuration("q0", tape, h): 1.0}) == {Configuration(read[sym], tape, h): 1.0}


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


def test_a_programs_layers_refuse_writes(qubit):
    c = crossed_circuit(qubit)
    want = [(str(z), p.hex()) for z, p in distribution(c).items()]
    perm = circuit_to_affine_program(c, Acceptor("accept-all")).steps[1].perm
    with pytest.raises(ValueError, match="read-only"):
        perm[:] = np.roll(perm, 1)  # this made every later probability 0.0
    with pytest.raises(ValueError):
        perm.setflags(write=True)
    assert [(str(z), p.hex()) for z, p in distribution(c).items()] == want


def test_a_pickled_program_holds_read_only_layers(qubit):
    c = crossed_circuit(qubit)
    for acceptor in (Acceptor("parity-of-labels"), Acceptor("first-outcome-is-0", instance="m1")):
        program = circuit_to_affine_program(c, acceptor)
        again = pickle.loads(pickle.dumps(program))
        perms = [layer.perm for layer in again.steps if layer.perm is not None]
        assert perms and not any(p.flags.writeable for p in perms)
        for p in perms:
            with pytest.raises(ValueError):
                p.setflags(write=True)
        assert again.acceptance_weight().hex() == program.acceptance_weight().hex()


# ---------------------------------------------------------------------------
# rows: the encoding a run steps its frontier in from afftm._ROWS_FROM on


def rows_vector(rows) -> dict:
    """Decode rows back to the affine vector they hold, in row order."""
    t = rows.table
    out = {}
    for (state, head, *cells), w in zip(rows.rows.tolist(), rows.weights.tolist()):
        tape = tuple((rows.origin + j, t.symbols[c]) for j, c in enumerate(cells) if c)
        out[Configuration(t.states[state], tape, rows.origin + head)] = w
    return out


# weights whose sums are edge cases of float addition, mixed into arbitrary floats
_EDGE_WEIGHTS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                 5e-324, -5e-324, 1e-310, 1.0, -1.0])


@st.composite
def merge_inputs(draw):
    """Rows over two or three symbols, so that equal rows are common: as drawn,
    made all distinct (nothing merges), made all equal (everything merges), or
    each followed by a copy that differs in one byte. Rows of 2-24 bytes span
    whole 8-byte words and every tail of 4, 2 and 1 bytes; they come in the
    order drawn, in byte order (as a right-moving writer's do) or shuffled."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    pool = [0, 1, 2, 255] if dtype is np.uint8 else [0, 1, 256, 257, 65535]
    symbols = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True))
    width = draw(st.integers(2, 24 if dtype is np.uint8 else 12))
    row = st.tuples(*[st.sampled_from(symbols)] * width)
    n = draw(st.integers(1, 64))  # above 16 rows, where an unstable sort shows
    rows = draw(st.lists(row, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["drawn", "distinct", "equal", "one byte apart"]))
    if shape == "distinct":
        rows = list(dict.fromkeys(rows))
    elif shape == "equal":
        rows = rows[:1] * len(rows)
    rows = np.array(rows, dtype=dtype)
    if shape == "one byte apart":  # in a word or in the tail, wherever the byte falls
        raw = rows.view(np.uint8).copy()
        byte = st.integers(0, raw.shape[1] - 1)
        for i in range(len(raw)):
            raw[i, draw(byte)] ^= draw(st.integers(1, 255))
        rows = np.stack([rows, raw.view(dtype)], axis=1).reshape(2 * len(rows), width)
    order = draw(st.sampled_from(["drawn", "byte order", "shuffled"]))
    if order == "byte order":
        rows = rows[sorted(range(len(rows)), key=lambda i: rows[i].tobytes())]
    elif order == "shuffled":
        rows = rows[draw(st.permutations(range(len(rows))))]
    weight = st.one_of(_EDGE_WEIGHTS, st.floats())
    weights = draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
    return np.ascontiguousarray(rows), np.array(weights, dtype=float)


@PROPERTY
@given(merge_inputs())
def test_merge_matches_reference(inputs):
    rows, weights = inputs
    got_rows, got_weights = afftm._merge(rows, weights)
    want_rows, want_weights = reference_merge(rows, weights)
    assert got_rows.dtype == rows.dtype
    assert got_rows.tolist() == want_rows.tolist()
    assert list(map(float.hex, got_weights.tolist())) == list(map(float.hex, want_weights.tolist()))
    assert got_weights.tobytes() == want_weights.tobytes()  # nan signs too


@PROPERTY
@given(machine_runs(), st.integers(0, 8), st.sampled_from([0.5, 2.0, 0.3]), st.data())
def test_row_step_matches_reference(run, k, a, data):
    """dict -> rows -> dict round trips of the row step, against reference_step,
    on frontiers of up to 2^k configurations after a fan-out."""
    m, x, steps = run
    m = fanout(m, k, a)
    v = {initial_configuration(m, x): 1.0}
    start = data.draw(st.integers(0, k + steps), label="steps before the hand-off")
    rows = None
    for i in range(k + steps):
        if i == start:
            rows = afftm._Rows.of(m, v)
            assert _bits(rows_vector(rows)) == _bits(v)
        try:
            want = reference_step(m, v)
        except MachineValidationError as exc:
            with pytest.raises(MachineValidationError) as err:
                (rows or afftm._Rows.of(m, v)).step()
            assert str(err.value) == str(exc)
            return
        if rows is not None:
            rows = rows.step()
            assert _bits(rows_vector(rows)) == _bits(want)
        v = want


def _outcome(fn):
    try:
        return fn()
    except (MachineValidationError, HaltingViolationError) as exc:
        return type(exc), str(exc)


def _reference_results(m, x, max_steps):
    """acceptance_weight and norm_trace's norms, from reference_run."""
    vectors = reference_run(m, x, max_steps)
    alpha = sum(w for cfg, w in vectors[-1].items() if cfg.state == m.accept)
    return alpha, [float(np.sqrt(sum(w * w for w in v.values()))) for v in vectors]


def _check_run(m, x, max_steps):
    """Both entry points bit-identical to the reference, errors included."""
    want = _outcome(lambda: _reference_results(m, x, max_steps))
    got = _outcome(lambda: (acceptance_weight(m, x, max_steps), norm_trace(m, x, max_steps).norms))
    if isinstance(want[0], type):
        assert got == want
        return want
    assert (type(got[0]), repr(got[0])) == (type(want[0]), repr(want[0]))
    assert [float.hex(n) for n in got[1]] == [float.hex(n) for n in want[1]]
    return want


@PROPERTY
@given(machine_runs(), st.integers(6, 9), st.sampled_from([0.5, 2.0, -1.0]))
def test_runs_across_the_hand_off_match_reference(run, k, a):
    m, x, steps = run
    _check_run(fanout(m, k, a), x, k + 2 * steps)


def _peak(m, x, max_steps):
    return max(len(v) for v in reference_run(m, x, max_steps))


def _branching(k: int, tail: dict, states=()) -> AffineMachine:
    """writer_machine(k, 0.5) entering q{k}, whose transitions are `tail`."""
    w = writer_machine(k, 0.5, last=f"q{k}")
    return AffineMachine(w.states | {f"q{k}", *states}, w.initial, w.accept, w.reject, w.blank,
                         w.alphabet, {**w.transitions, **tail})


@pytest.mark.parametrize("a", [0.5, 2.0, -1.0, 0.3])
@pytest.mark.parametrize("move", ["L", "R"])
def test_writers_across_the_hand_off(move, a):
    # a left-moving writer widens the window on its left at every step after the hand-off
    m = writer_machine(9, a, move)
    assert _peak(m, "", 9) >= 2 * afftm._ROWS_FROM
    _check_run(m, "", 9)


@pytest.mark.parametrize("a", [0.5, 2.0, 0.3])
@pytest.mark.parametrize("move", ["L", "S", "R"])
def test_moves_across_the_hand_off(move, a):
    # two more branching writes after an 8-bit fan-out; S and L overwrite cells, so rows merge
    def bits(nxt):
        return Branch(nxt, "0", move, a), Branch(nxt, "1", move, 1.0 - a)

    tail = {(q, sym): bits(nxt) for q, nxt in (("q8", "q9"), ("q9", "q10")) for sym in "01_"}
    tail.update({("q10", sym): (Branch("acc", sym, "S", 1.0),) for sym in "01_"})
    m = _branching(8, tail, states={"q9", "q10"})
    assert _peak(m, "", 11) >= afftm._ROWS_FROM
    _check_run(m, "", 11)


def test_cancelling_and_merging_branches_across_the_hand_off():
    # q9 reads the last written bit: a 0's accepting branches cancel to an exact
    # zero; a 1's three equal branches merge, and their sum depends on the order
    m = _branching(8, {
        ("q8", "_"): (Branch("q9", "_", "L", 1.0),),
        ("q9", "0"): (Branch("acc", "0", "S", 2.0), Branch("acc", "0", "S", -2.0),
                      Branch("rej", "1", "S", 1.0)),
        ("q9", "1"): (Branch("acc", "1", "S", 0.1), Branch("acc", "1", "S", 0.7),
                      Branch("acc", "1", "S", 0.2)),
    }, states={"q9"})
    vectors = reference_run(m, "", 12)
    assert max(map(len, vectors)) >= afftm._ROWS_FROM
    assert len(vectors[-1]) == 2**8  # the q9 '0' rows lost their accept branch
    _check_run(m, "", 12)


def test_missing_transition_across_the_hand_off():
    # the first configuration in frontier order that has no transition is named
    m = _branching(8, {("q8", "_"): (Branch("q9", "_", "L", 1.0),),
                       ("q9", "1"): (Branch("acc", "1", "S", 1.0),)}, states={"q9"})
    assert _check_run(m, "", 12) == (MachineValidationError,
                                     "no transition for non-halting ('q9', '0')")


def test_halting_violation_across_the_hand_off():
    # the running states are listed sorted, not in frontier order
    m = _branching(8, {("q8", "_"): (Branch("z", "_", "R", 0.5), Branch("b", "_", "R", 0.5)),
                       ("z", "_"): (Branch("z", "_", "R", 1.0),),
                       ("b", "_"): (Branch("b", "_", "L", 1.0),),
                       ("b", "0"): (Branch("b", "0", "L", 1.0),),
                       ("b", "1"): (Branch("b", "1", "L", 1.0),)}, states={"z", "b"})
    assert _check_run(m, "", 20) == (HaltingViolationError,
                                     "branches still running after 20 steps (states ['b', 'z'])")


def test_nothing_accepting_across_the_hand_off_is_int_zero():
    m = writer_machine(9, 0.5, last="rej")
    assert _peak(m, "", 9) >= afftm._ROWS_FROM
    alpha = acceptance_weight(m, "", 9)
    assert alpha == 0 and type(alpha) is int
    _check_run(m, "", 9)


def test_numpy_weights_become_floats_across_the_hand_off():
    m = writer_machine(9, 0.5)
    m = AffineMachine(m.states, m.initial, m.accept, m.reject, m.blank, m.alphabet,
                      {k: tuple(Branch(b.next_state, b.write, b.move, np.float64(b.weight))
                                for b in bs) for k, bs in m.transitions.items()})
    assert {type(b.weight) for bs in m.transitions.values() for b in bs} == {float}
    assert type(acceptance_weight(m, "", 9)) is float
    _check_run(m, "", 9)


@st.composite
def retyped_runs(draw):
    """machine_runs behind a fan-out of k = 6-9 steps, each weight given as an
    int (where it is one), a numpy float64 or a float."""
    m, x, steps = draw(machine_runs())
    k = draw(st.integers(6, 9))
    m = fanout(m, k, draw(st.sampled_from([0.5, 2.0, -1.0])))

    def retyped(w):
        kinds = [float, np.float64] + ([int] if w == int(w) else [])
        return draw(st.sampled_from(kinds))(w)

    transitions = {key: tuple(Branch(b.next_state, b.write, b.move, retyped(b.weight)) for b in bs)
                   for key, bs in m.transitions.items()}
    m = AffineMachine(m.states, m.initial, m.accept, m.reject, m.blank, m.alphabet, transitions)
    return m, x, k + 2 * steps


@PROPERTY
@given(retyped_runs())
def test_weights_of_any_real_type_are_floats_across_the_hand_off(run):
    m, x, max_steps = run
    assert {type(b.weight) for bs in m.transitions.values() for b in bs} == {float}
    _check_run(m, x, max_steps)


@PROPERTY
@given(machine_runs(), st.integers(0, 3), st.sampled_from([0.5, 2.0, 0.3]))
def test_row_table_matches_reference(run, k, a):
    """Built from the transitions alone, the table is the dense loop's, keys
    with no transition included: tuples, mappings, and arrays by dtype and bytes."""
    m = fanout(run[0], k, a)
    got, want = afftm._table(m), reference_table(m)
    for name, g, w in zip(want._fields, got, want):
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name
        else:
            assert g == w and list(g) == list(w), name


def test_a_machine_builds_its_row_table_once(monkeypatch):
    built, table = [], afftm._table
    monkeypatch.setattr(afftm, "_table", lambda machine: built.append(machine) or table(machine))
    m = writer_machine(9, 0.3)
    assert _peak(m, "", 9) >= afftm._ROWS_FROM
    acceptance_weight(m, "", 9)
    norm_trace(m, "", 9)
    assert built == [m]
    assert pickle.dumps(m) == pickle.dumps(writer_machine(9, 0.3))  # the table is not pickled
    again = pickle.loads(pickle.dumps(m))
    assert norm_trace(again, "", 9) == norm_trace(m, "", 9) and built == [m, again]


def test_a_machines_row_table_holds_nothing_writable():
    m = writer_machine(9, 0.3)
    want = acceptance_weight(m, "", 9)
    assert "_rows_table" in vars(m)  # built by the run's hand-off to rows
    table = m._rows_table
    assert type(table.states) is type(table.symbols) is tuple
    assert type(table.state_index) is type(table.symbol_index) is MappingProxyType
    for a in table[4:]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.5  # on the weights, this moved the next run's weight
        with pytest.raises(ValueError):
            a.setflags(write=True)
    assert acceptance_weight(m, "", 9).hex() == want.hex()


def test_norms_add_the_squares_left_to_right():
    # weights of 0.3 and 0.7 make squares whose sum depends on the order of the additions
    m = writer_machine(12, 0.3)
    vectors = reference_run(m, "", 12)
    assert len(vectors[-1]) == 2**12
    squares = [[w * w for w in v.values()] for v in vectors]
    want = [math.sqrt(reduce(add, s, 0.0)).hex() for s in squares]
    assert [n.hex() for n in norm_trace(m, "", 12).norms] == want
    assert want != [math.sqrt(np.sum(s)).hex() for s in squares]  # pairwise sums differ


def test_writer_window_does_not_scale_with_max_steps():
    m = writer_machine(12, 0.3)
    assert acceptance_weight(m, "", 10**9) == acceptance_weight(m, "", 12)


def test_negative_max_steps_raise_at_once():
    with pytest.raises(HaltingViolationError, match=r"after -1 steps \(states \['q0'\]\)"):
        acceptance_weight(writer_machine(9, 0.5), "", -1)


def _row_widths(monkeypatch) -> list:
    """Record each row step's window width, or None where the run went back to `step`."""
    widths, row_step = [], afftm._Rows.step

    def recording(rows):
        stepped = row_step(rows)
        widths.append(None if stepped is None else stepped.rows.shape[1] - 2)
        return stepped

    monkeypatch.setattr(afftm._Rows, "step", recording)
    return widths


def _blank_fanout(k: int) -> AffineMachine:
    """2^k configurations on blank tapes, one state each, that then move right for ever."""
    transitions = {}
    for depth in range(k + 1):
        for bits in product("01", repeat=depth):
            s = "t" + "".join(bits)
            transitions[(s, "_")] = ((Branch(s + "0", "_", "S", 0.5), Branch(s + "1", "_", "S", 0.5))
                                     if depth < k else (Branch(s, "_", "R", 1.0),))
    states = {s for s, _ in transitions} | {"acc", "rej"}
    return AffineMachine(frozenset(states), "t", "acc", "rej", "_", frozenset("_"), transitions)


def test_rows_moving_over_blanks_keep_a_narrow_window(monkeypatch):
    # the window follows the heads: its width does not grow with the steps taken
    m = _blank_fanout(8)
    widths = _row_widths(monkeypatch)
    with pytest.raises(HaltingViolationError, match="after 5000 steps"):
        acceptance_weight(m, "", 5000)
    h = afftm._ROWS_FROM.bit_length() - 1  # the step the doubling fan-out is handed off at
    assert len(widths) == 5000 - h and max(widths) <= 2


def test_rows_that_turn_mostly_blank_go_back_to_step(monkeypatch):
    # 256 written tapes whose heads then move right for ever: a window over the
    # written cells and the heads would grow with every step, so the run steps
    # the frontier as an affine vector again after a few row steps
    m = _branching(8, {("q8", "_"): (Branch("q8", "_", "R", 1.0),)})
    _check_run(m, "", 80)
    widths = _row_widths(monkeypatch)
    with pytest.raises(HaltingViolationError, match=r"after 2000 steps \(states \['q8'\]\)"):
        acceptance_weight(m, "", 2000)
    h = afftm._ROWS_FROM.bit_length() - 1  # the step the doubling fan-out is handed off at
    assert widths[-1] is None and None not in widths[:-1] and h + len(widths) < 71


def test_a_machines_transitions_are_read_only_and_pickle_so():
    """Scaling a built machine's branch weights would bypass the weight-sum check."""
    m = writer_machine(3, 0.3)
    scaled = tuple(Branch(b.next_state, b.write, b.move, 5 * b.weight)
                   for b in m.transitions[("q0", "_")])
    for machine in (m, pickle.loads(pickle.dumps(m))):
        with pytest.raises(TypeError):
            machine.transitions[("q0", "_")] = scaled
        with pytest.raises(TypeError):
            del machine.transitions[("q0", "_")]
        assert acceptance_weight(machine, "", 10) == acceptance_weight(m, "", 10)
    again = pickle.loads(pickle.dumps(m))
    assert dict(again.transitions) == dict(m.transitions) and again.states == m.states
    with pytest.raises(MachineValidationError, match="sum to"):  # rebuilt through its checks
        AffineMachine(m.states, m.initial, m.accept, m.reject, m.blank, m.alphabet,
                      {**m.transitions, ("q0", "_"): scaled})
