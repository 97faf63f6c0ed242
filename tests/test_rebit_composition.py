"""Rebit composites as the even-Y restriction of Kronecker-composed Pauli
transfer matrices, checked against direct Kraus algebra in the orthonormal
carriers (the ``kraus_*`` references in ``conftest``).
"""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import (
    Acceptor,
    CircuitDAG,
    StateVector,
    TransformationMatrix,
    acceptance_prob,
    distribution,
    foliate,
    prob,
    real_quantum_theory,
    symmetric_pauli_basis,
)
from gptlab.circuits import Gate
from gptlab.errors import GptLabError
from gptlab.theories import PAULI, even_y_index

from conftest import (
    kraus_parallel_matrix,
    kraus_permutation_matrix,
    kraus_product_coords,
    reference_parallel_stack,
    reference_stack_contract,
)

REBIT = real_quantum_theory(2)
RULE = REBIT.composite_rule
SYS = REBIT.system()
PAIR = RULE.composite([SYS, SYS])
MAX_REBITS = 4

# every outcome of every gate in the library, plus the passthrough identity
PIECES = [tm for g in REBIT.gates.values() for tm in g.outcomes.values()] + [RULE.identity(SYS)]
# every gate's outcome list, one-outcome gates included, plus the passthrough identity
FACTORS = [list(g.outcomes.values()) for g in REBIT.gates.values()] + [[RULE.identity(SYS)]]
COORDS = list(REBIT.states.values()) + list(REBIT.effects.values())

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _rebits(p) -> int:
    return max(len(p.kraus[0]), p.kraus[0].shape[1]).bit_length() - 1


def _leaves(system) -> int:
    return {3: 1, 10: 2}[system.dim]


@PROPERTY
@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=MAX_REBITS)
       .filter(lambda ps: sum(map(_rebits, ps)) <= MAX_REBITS))
def test_parallel_matrix_matches_kraus_products(pieces):
    got = RULE.parallel_matrix(pieces)
    want = kraus_parallel_matrix(RULE, pieces)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@PROPERTY
@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=MAX_REBITS)
       .filter(lambda fs: sum(_rebits(f[0]) for f in fs) <= MAX_REBITS))
def test_parallel_matrix_is_the_per_combination_products(factors):
    want = reference_parallel_stack(RULE, factors)
    for m, combo in zip(want, itertools.product(*factors)):
        got = RULE.parallel_matrix(list(combo))
        assert got.shape == m.shape
        assert got.tobytes() == m.tobytes()  # every bit, signed zeros too
        assert np.max(np.abs(got - kraus_parallel_matrix(RULE, combo))) <= 1e-12


@PROPERTY
@given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=MAX_REBITS)
       .filter(lambda ls: sum(ls) <= MAX_REBITS), st.randoms(use_true_random=False))
def test_permutation_matrix_is_the_conjugation_by_a_qubit_permutation(leaves, random):
    perm = list(range(len(leaves)))
    random.shuffle(perm)
    got = RULE.permutation_matrix([SYS if k == 1 else PAIR for k in leaves], perm)
    assert set(np.unique(got)) <= {0.0, 1.0}
    assert np.array_equal(got.sum(axis=0), np.ones(len(got)))
    assert np.array_equal(got.sum(axis=1), np.ones(len(got)))
    assert np.max(np.abs(got - kraus_permutation_matrix(RULE, leaves, perm))) <= 1e-12


@PROPERTY
@given(st.lists(st.sampled_from(COORDS + [SYS, PAIR]), min_size=1, max_size=MAX_REBITS)
       .filter(lambda ps: sum(_leaves(getattr(p, "system", p)) for p in ps) <= MAX_REBITS),
       st.integers(0, 2**32 - 1))
def test_product_coords_match_operator_products(drawn, seed):
    # a bare system type stands for random coordinates on it, which reach
    # every even-Y direction that the library's states and effects leave out
    rng = np.random.default_rng(seed)
    pieces = [p if hasattr(p, "coords") else StateVector(p, rng.normal(size=p.dim))
              for p in drawn]
    want = kraus_product_coords(RULE, pieces, [_leaves(p.system) for p in pieces])
    assert np.max(np.abs(RULE.product_state_coords(pieces) - want)) <= 1e-12
    assert np.max(np.abs(RULE.product_effect_coords(pieces) - want)) <= 1e-12


def test_even_y_order_is_the_carrier_order():
    # the coordinate basis is the even-Y string list, scaled, and its Y-free
    # head lines up with the Kronecker product of single-rebit bases
    for n in (1, 2, 3):
        everything = ["".join(s) for s in itertools.product("IXYZ", repeat=n)]
        strings = [everything[i] for i in even_y_index(n)]
        assert len(strings) == 2**n * (2**n + 1) // 2
        assert strings[:3**n] == sorted(s for s in strings if "Y" not in s)
        assert all(s.count("Y") % 2 == 0 for s in strings)
        for s, b in zip(strings, symmetric_pauli_basis(n)):
            op = np.eye(1)
            for c in s:
                op = np.kron(op, PAULI[c])
            assert np.array_equal(b, op / 2 ** (n / 2))


def test_pieces_without_kraus_data_are_rejected():
    bare = TransformationMatrix(SYS, SYS, np.eye(3), outcome_label="bare")
    with pytest.raises(GptLabError, match="Kraus"):
        RULE.parallel_matrix([bare, RULE.identity(SYS)])


def test_circuits_with_pieces_without_kraus_data_are_rejected():
    bare = Gate("bare", (SYS,), (SYS,), {"0": TransformationMatrix(SYS, SYS, np.eye(3))})
    c = CircuitDAG(REBIT)
    c.add("p", REBIT.gate("prep_0"))
    c.add("b", bare)
    c.add("m", REBIT.gate("measure"))
    c.connect(("p", 0), ("b", 0))
    c.connect(("b", 0), ("m", 0))
    for evaluate in (distribution, lambda c: acceptance_prob(c, Acceptor("accept-all")),
                     lambda c: prob(c, {"p": "0", "b": "0", "m": "0"})):
        with pytest.raises(GptLabError, match="Kraus"):
            evaluate(c)


def _front_dim(factors) -> int:
    k = sum(f[0].kraus[0].shape[1].bit_length() - 1 for f in factors)  # input rebits
    return 2**k * (2**k + 1) // 2


@PROPERTY
@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=MAX_REBITS)
       .filter(lambda fs: sum(_rebits(f[0]) for f in fs) <= MAX_REBITS),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_contract_is_the_stack_walk(factors, rows, seed):
    """RebitRule.contract, wire by wire in Pauli string coordinates, against
    the stack walk within 1e-12, with and without per-row weights;
    passthroughs, pair gates and multi-outcome gates mix freely. A layer of
    one factor keeps the stack walk's bits."""
    rng = np.random.default_rng(seed)
    front = rng.uniform(-1.0, 1.0, (rows, _front_dim(factors)))
    weights = [rng.choice([-1.0, 0.0, 1.0], (rows, len(f))) for f in factors]
    for w in (None, weights):
        got = RULE.contract(factors, front, w)
        want = reference_stack_contract(RULE, factors, front, w)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        if len(factors) == 1:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("factor", FACTORS, ids=lambda f: f[0].outcome_label or str(len(f)))
def test_one_factor_layers_are_the_stack_walk(factor):
    front = np.random.default_rng(0).uniform(-1.0, 1.0, (2, _front_dim([factor])))
    for w in (None, [np.ones((2, len(factor)))]):
        got = RULE.contract([factor], front, w)
        assert got.tobytes() == reference_stack_contract(RULE, [factor], front, w).tobytes()


def test_held_transfers_do_not_grow_with_compiles():
    """Each outcome's transfer matrix is held while the outcome lives, so
    fresh circuits, with fresh gates and passthrough wires, leave the table
    the size one circuit fills it to. The cycle collector is off: reference
    counting alone frees each circuit's outcomes, so a reference cycle that
    keeps one alive fails this."""
    theory = real_quantum_theory(2)
    rule, h = theory.composite_rule, theory.gate("h").outcomes["0"]

    def fresh_circuit() -> CircuitDAG:
        mine = Gate("mine", (SYS,), (SYS,), {"0": TransformationMatrix(
            h.input, h.output, h.matrix, kraus=h.kraus)})
        c = CircuitDAG(theory)
        c.add("b", theory.gate("prep_phi_plus"))
        c.add("g", mine)
        c.add("m0", theory.gate("measure"))
        c.add("m1", theory.gate("measure"))
        c.connect(("b", 0), ("g", 0))
        c.connect(("g", 0), ("m0", 0))
        c.connect(("b", 1), ("m1", 0))
        return c

    sizes = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(101):
            assert sum(distribution(fresh_circuit(), foliation=[["b"], ["g"], ["m0", "m1"]])
                       .values()) == pytest.approx(1.0, abs=1e-12)
            sizes.append(len(rule._transfers))
    finally:
        if enabled:
            gc.enable()
    assert sizes == sizes[:1] * 101
    assert rule.identity(SYS) is rule.identity(SYS)


def test_multi_factor_layers_reject_pieces_without_kraus_data():
    bare = TransformationMatrix(SYS, SYS, np.eye(3), outcome_label="bare")
    with pytest.raises(GptLabError, match="lacks operator \\(Kraus\\) data"):
        RULE.contract([[bare], [RULE.identity(SYS)]], np.ones((1, PAIR.dim)))
    c = CircuitDAG(REBIT)
    c.add("p0", REBIT.gate("prep_0"))
    c.add("p1", REBIT.gate("prep_0"))
    c.add("b", Gate("bare", (SYS,), (SYS,), {"0": bare}))
    c.add("m0", REBIT.gate("measure"))
    c.add("m1", REBIT.gate("measure"))
    c.connect(("p0", 0), ("b", 0))
    c.connect(("b", 0), ("m0", 0))
    c.connect(("p1", 0), ("m1", 0))
    for style in ("greedy", "singletons"):  # [b, m1], and [b] beside a passthrough
        with pytest.raises(GptLabError, match="lacks operator \\(Kraus\\) data"):
            distribution(c, foliation=foliate(c, style))
