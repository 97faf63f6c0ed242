"""Built-in theories: representations, worked rebit example, Boxworld/CHSH."""

import itertools
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gptlab
from gptlab import (
    DensityCarrier,
    EffectVector,
    StateVector,
    TransformationMatrix,
    UNIT,
    apply,
    bell_operators,
    boxworld_gbit,
    chsh_value,
    classical_theory,
    distribution,
    gbit_fiducial_settings,
    hermitian_basis,
    pair,
    quantum_theory,
    real_quantum_theory,
    symmetric_pauli_basis,
    tsirelson_settings,
)
from gptlab.theories import PAULI, pr_box_coords

from conftest import (
    all_theories,
    arrays_in,
    builtin_arrays,
    operator_of,
    product_state,
    random_circuit,
    rebit_carrier,
    reference_builtin_arrays,
    reference_draws,
    reference_parallel_stack,
    reference_stack_contract,
    same_bytes,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# classical


def test_classical_fair_coin_and_readout(classical2):
    assert np.allclose(classical2.state("uniform").coords, [0.5, 0.5])
    for name in ("s0", "s1", "uniform"):
        assert pair(classical2.effect("u"), classical2.state(name)) == pytest.approx(1.0)


def test_classical_degenerate_single_outcome():
    from gptlab import classical_theory

    c1 = classical_theory(1)
    assert pair(c1.effect("u"), c1.state("s0")) == 1.0


def test_classical_constant_channel(classical2):
    sys = classical2.system()
    from gptlab import TransformationMatrix

    constant = TransformationMatrix(sys, sys, [[1.0, 1.0], [0.0, 0.0]])
    for p in (0.0, 0.25, 1.0):
        out = apply(constant, StateVector(sys, [p, 1 - p]))
        assert np.allclose(out.coords, [1.0, 0.0])


# ---------------------------------------------------------------------------
# quantum


def test_qubit_zero_state_coordinates(qubit):
    assert np.allclose(qubit.state("basis_0").coords, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=1e-15)


def test_identity_channel_is_identity_matrix(qubit):
    assert np.allclose(qubit.gate("id").outcomes["0"].matrix, np.eye(4), atol=1e-15)


def test_two_qubit_composite_dim(qubit):
    sys = qubit.system()
    composite = qubit.composite_rule.composite([sys, sys])
    assert composite.dim == 16 == sys.dim * sys.dim


def test_carrier_round_trip_and_orthonormality():
    for d in (2, 3, 4):
        carrier = DensityCarrier(hermitian_basis(d))
        rng = np.random.default_rng(d)
        for _ in range(5):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2
            assert np.allclose(operator_of(carrier, carrier.to_vector(h)), h, atol=1e-12)


def test_carrier_rejects_a_nan_basis():
    # rejected before any arithmetic: inf - inf used to warn on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="carrier basis entries must be finite"):
                DensityCarrier([np.full((2, 2), entry)])


def test_quantum_representation_faithfulness(qubit):
    # pair(to_vector(E), to_vector(rho)) == Tr(E rho) for random density
    # matrices and random POVM elements
    carrier = qubit.carrier
    sys = qubit.system()
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        lo, hi = np.linalg.eigvalsh(h)
        e = (h - lo * np.eye(2)) / max(hi - lo, 1e-9)
        got = pair(EffectVector(sys, carrier.to_vector(e)),
                   StateVector(sys, carrier.to_vector(rho)))
        assert got == pytest.approx(np.trace(e @ rho).real, abs=1e-12)


def test_channel_composition_faithfulness():
    q3 = quantum_theory(3)
    carrier = q3.carrier
    rng = np.random.default_rng(23)

    def random_unitary(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(10):
        u, v = random_unitary(3), random_unitary(3)
        mu = carrier.channel_matrix([u])
        mv = carrier.channel_matrix([v])
        muv = carrier.channel_matrix([u @ v])
        assert np.allclose(mu @ mv, muv, atol=1e-12)


# ---------------------------------------------------------------------------
# real quantum (rebits)


def test_rebit_dimension(rebit):
    # independent count: free entries of a real symmetric 2x2 matrix
    assert rebit.system().dim == 3 == 2 * 3 // 2


def test_t1_t2_agree_on_every_single_rebit(rebit):
    t1 = rebit.gate("t1").outcomes["0"].matrix
    t2 = rebit.gate("t2").outcomes["0"].matrix
    # identical transfer matrices: no single-system strategy separates them
    assert np.allclose(t1, t2, atol=1e-12)
    hooks = rebit.strategies
    _, grid = hooks.state_grid()
    _, effs = hooks.effect_grid()
    rng = np.random.default_rng(1)
    # one state and one effect per sampler call, alternating
    samples = [(hooks.random_states(rng, 1)[0], hooks.random_effects(rng, 1)[0])
               for _ in range(500)]
    assert len(grid) == len(effs) == 25
    for s in grid:
        for e in effs:
            assert abs(e @ (t1 - t2) @ s) <= 1e-12
    for s, e in samples:
        assert abs(e @ (t1 - t2) @ s) <= 1e-12


def test_rebit_grid_rows_are_the_bloch_vectors_bit_for_bit(rebit):
    # the rows come from one np.cos/np.sin call over all 24 angles; they must equal
    # the math library's values at each angle
    hooks = rebit.strategies
    for (names, rows), last in ((hooks.state_grid(), rebit.states["mixed"]),
                                (hooks.effect_grid(), rebit.effects["u"])):
        for k in range(24):
            a = k * math.pi / 12
            want = np.array([1.0, math.cos(a), math.sin(a)]) / SQRT2
            assert rows[k].tobytes() == want.tobytes(), names[k]
        assert rows[24].tobytes() == last.coords.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(st.integers(1, 8).map(classical_theory), st.integers(2, 4).map(quantum_theory),
                 st.builds(real_quantum_theory, st.just(2)), st.builds(boxworld_gbit)),
       st.sampled_from(["state_grid", "effect_grid"]))
def test_strategy_grids_are_named_checked_read_only_rows(theory, hook):
    sys = theory.system()
    (normalized,) = {s.normalized for s in theory.states.values()}
    grid = getattr(theory.strategies, hook)
    names, rows = grid()
    assert all(isinstance(n, str) for n in names)
    assert len(set(names)) == len(names) == len(rows) > 0
    assert rows.shape == (len(names), sys.dim) and rows.dtype == np.float64
    assert not rows.flags.writeable
    for row in rows:
        if hook == "state_grid":
            StateVector(sys, row, normalized=normalized)
        else:
            EffectVector(sys, row)
    want = list(names)
    names[0] = "changed"
    names.append("extra")
    again_names, again_rows = grid()
    assert again_names == want and again_rows.tobytes() == rows.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(all_theories()), st.integers(0, 50), st.integers(0, 2**32 - 1))
def test_batch_samplers_draw_like_one_sample_calls(theory, n, seed):
    hooks, dim = theory.strategies, theory.system().dim
    for sampler, draw in zip((hooks.random_states, hooks.random_effects),
                             reference_draws(theory)):
        batch_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sampler(batch_rng, n)
        assert batch.shape == (n, dim) and batch.dtype == np.float64
        ones = np.array([sampler(one_rng, 1)[0] for _ in range(n)]).reshape(n, dim)
        assert batch.tobytes() == ones.tobytes()
        following = batch_rng.random()
        assert one_rng.random() == following  # both took the same draws
        if draw is not None:  # a bulk sampler: the one-sample bodies it replaced
            ref_rng = np.random.default_rng(seed)
            want = np.array([draw(ref_rng) for _ in range(n)]).reshape(n, dim)
            assert batch.tobytes() == want.tobytes()
            assert ref_rng.random() == following


# entries of random outcome matrices: both signed zeros, and values whose
# products round
_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e-300, 3.0 ** 0.5])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([t for t in all_theories() if t.meta["builtin"] != "real-quantum"]),
       st.data())
def test_kronecker_parallel_matrix_is_the_per_combination_products(theory, data):
    rule, sys = theory.composite_rule, theory.system()
    # every gate's outcome list, one-outcome gates included, the passthrough
    # identity, and random 1-3 outcome maps on one wire, to and from the unit
    factors = [list(g.outcomes.values()) for g in theory.gates.values()] + [[rule.identity(sys)]]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for k, (t_in, t_out) in enumerate([(sys, sys), (UNIT, sys), (sys, UNIT)]):
        factors.append([TransformationMatrix(t_in, t_out, rng.choice(_ENTRIES, (t_out.dim, t_in.dim)))
                        for _ in range(1 + k)])
    pieces = data.draw(st.lists(st.sampled_from(factors), max_size=4)
                       .filter(lambda fs: math.prod(f[0].matrix.size for f in fs) <= 2**16))
    want = reference_parallel_stack(rule, pieces)
    for m, combo in zip(want, itertools.product(*pieces)):
        got = rule.parallel_matrix(list(combo))
        assert got.shape == m.shape
        assert got.tobytes() == m.tobytes()  # every bit, signed zeros too


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([t for t in all_theories() if t.meta["builtin"] != "real-quantum"]),
       st.data())
def test_kronecker_contract_is_the_stack_product(theory, data):
    """KroneckerRule.contract against the stack walk, within 1e-12: with and
    without per-row weights, passthrough identities anywhere."""
    rule, sys = theory.composite_rule, theory.system()
    factors = [list(g.outcomes.values()) for g in theory.gates.values()] + [[rule.identity(sys)]]
    pieces = data.draw(st.lists(st.sampled_from(factors), min_size=1, max_size=4)
                       .filter(lambda fs: math.prod(f[0].matrix.size for f in fs) <= 2**16))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    front = rng.uniform(-1.0, 1.0, (data.draw(st.integers(1, 3)),
                                    math.prod(f[0].matrix.shape[1] for f in pieces)))
    weights = [rng.choice([-1.0, 0.0, 1.0], (len(front), len(f))) for f in pieces]
    for w in (None, weights):
        got = rule.contract(pieces, front, w)
        want = reference_stack_contract(rule, pieces, front, w)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


class _ConstantDraws:
    """A stand-in generator whose every draw is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.full(size, self.value)

    def dirichlet(self, alpha, size=None):
        return np.full((size, len(alpha)), self.value)


def test_samplers_check_every_drawn_row(rebit, classical2):
    # a rebit state at r = 2 lies outside the unit disc; nan is no coordinate
    with pytest.raises(ValueError, match="2-norm bound"):
        rebit.strategies.random_states(_ConstantDraws(2.0), 3)
    with pytest.raises(ValueError, match="state coordinates must be finite"):
        rebit.strategies.random_states(_ConstantDraws(np.nan), 3)
    with pytest.raises(ValueError, match="effect coordinates must be finite"):
        rebit.strategies.random_effects(_ConstantDraws(np.nan), 3)
    with pytest.raises(ValueError, match="2-norm bound"):
        classical2.strategies.random_states(_ConstantDraws(0.9), 2)
    with pytest.raises(ValueError, match="effect coordinates must be finite"):
        classical2.strategies.random_effects(_ConstantDraws(np.inf), 2)
    assert rebit.strategies.random_states(_ConstantDraws(0.5), 0).shape == (0, 3)


def test_t1_t2_on_half_an_entangled_pair(rebit):
    # operator-level reproduction of the worked example
    rule = rebit.composite_rule
    pair_carrier = rebit_carrier(2)
    bells = bell_operators()
    phi = rebit.state("phi_plus")
    ident = rule.identity(rebit.system())

    t1xi = rule.parallel_matrix([rebit.gate("t1").outcomes["0"], ident])
    out1 = operator_of(pair_carrier, t1xi @ phi.coords)
    assert np.allclose(out1, 0.5 * bells["phi_plus"] + 0.5 * bells["psi_minus"], atol=1e-12)

    t2xi = rule.parallel_matrix([rebit.gate("t2").outcomes["0"], ident])
    out2 = operator_of(pair_carrier, t2xi @ phi.coords)
    assert np.allclose(out2, np.eye(4) / 4, atol=1e-12)

    # the joint two-outcome measurement separates the two outputs
    e_first = rebit.effect("joint_first").coords
    assert float(e_first @ (t1xi @ phi.coords)) == pytest.approx(1.0, abs=1e-12)
    assert float(e_first @ (t2xi @ phi.coords)) == pytest.approx(0.5, abs=1e-12)


def test_global_difference_invisible_to_local_products(rebit):
    # Tr([(T1xI) - (T2xI)](phi+) (E x F)) = 0 for random real symmetric E, F
    rule = rebit.composite_rule
    ident = rule.identity(rebit.system())
    phi = rebit.state("phi_plus")
    diff_op = operator_of(
        rebit_carrier(2),
        (rule.parallel_matrix([rebit.gate("t1").outcomes["0"], ident])
         - rule.parallel_matrix([rebit.gate("t2").outcomes["0"], ident])) @ phi.coords
    )
    # the difference operator is the even-Y global direction itself
    assert np.allclose(diff_op, -np.kron(PAULI["Y"], PAULI["Y"]).real / 4, atol=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(200):
        e = rng.normal(size=(2, 2))
        f = rng.normal(size=(2, 2))
        e, f = (e + e.T) / 2, (f + f.T) / 2
        assert abs(np.trace(diff_op @ np.kron(e, f))) <= 1e-12


def test_two_rebit_composite_and_embed(rebit):
    rule = rebit.composite_rule
    sys = rebit.system()
    composite = rule.composite([sys, sys])
    assert composite.dim == 10
    # local products embed as the first 9 coordinates, in Kronecker order,
    # and carry no weight on the global coordinate
    plus, zero = rebit.state("plus"), rebit.state("zero")
    s = rule.product_state_coords([plus, zero])
    assert s.shape == (10,)
    assert np.allclose(s[:9], np.kron(plus.coords, zero.coords), atol=1e-15)
    assert s[9] == pytest.approx(0.0, abs=1e-15)


def test_symmetric_pauli_basis_counts():
    assert len(symmetric_pauli_basis(1)) == 3
    assert len(symmetric_pauli_basis(2)) == 10
    assert len(symmetric_pauli_basis(3)) == 36  # = 8*9/2


def test_real_quantum_rejects_dimensions_other_than_two():
    from gptlab import real_quantum_theory

    for d in (1, 3, 4):
        with pytest.raises(ValueError):
            real_quantum_theory(d)


# ---------------------------------------------------------------------------
# boxworld


def test_maximally_mixed_gbit(boxworld):
    mixed = boxworld.state("mixed")
    for x in range(2):
        for a in range(2):
            assert pair(boxworld.effect(f"e{a}x{x}"), mixed) == pytest.approx(0.5)
    assert pair(boxworld.effect("u"), mixed) == pytest.approx(1.0)


def test_pr_box_wins_every_round(boxworld):
    rule = boxworld.composite_rule
    pr = boxworld.state("pr_box")
    for x in range(2):
        for y in range(2):
            win = 0.0
            for a in range(2):
                for b in range(2):
                    p = float(rule.product_effect_coords(
                        [boxworld.effect(f"e{a}x{x}"), boxworld.effect(f"e{b}x{y}")]
                    ) @ pr.coords)
                    assert p >= -1e-15
                    if a ^ b == x & y:
                        win += p
            assert win == pytest.approx(1.0, abs=1e-15)


def test_pr_box_no_signalling_bookkeeping():
    coords = pr_box_coords()
    table = coords.reshape(5, 5)
    assert table[0, 0] == 1.0
    # marginals are uniform regardless of the distant setting
    assert np.allclose(table[1:, 0], 0.5)
    assert np.allclose(table[0, 1:], 0.5)


def test_chsh_values(boxworld, qubit):
    assert chsh_value(boxworld, boxworld.state("pr_box"), gbit_fiducial_settings(boxworld)) == 4.0

    mixed_pair = product_state(boxworld, [boxworld.state("mixed"), boxworld.state("mixed")])
    assert chsh_value(boxworld, mixed_pair, gbit_fiducial_settings(boxworld)) == pytest.approx(0.0)

    got = chsh_value(qubit, qubit.state("psi_minus"), tsirelson_settings(qubit))
    assert got == pytest.approx(2 * SQRT2, abs=1e-9)


def test_product_gbits_respect_the_classical_bound(boxworld):
    settings = gbit_fiducial_settings(boxworld)
    best = 0.0
    for na in ("v00", "v01", "v10", "v11"):
        for nb in ("v00", "v01", "v10", "v11"):
            s = product_state(boxworld, [boxworld.state(na), boxworld.state(nb)])
            best = max(best, abs(chsh_value(boxworld, s, settings)))
    assert best <= 2.0 + 1e-12


def test_causal_theories_have_one_deterministic_effect(classical2, qubit, rebit, boxworld):
    for theory in (classical2, qubit, rebit, boxworld):
        assert set(theory.deterministic_effects) == set(theory.system_types)
        for label, eff in theory.deterministic_effects.items():
            assert eff.system == theory.system_types[label]


# ---------------------------------------------------------------------------
# devices and libraries


LIBRARY_ORDER = {
    "classical-1": (["prep_0", "prep_uniform", "id", "read", "sink"],
                    ["s0", "uniform"], ["p0", "u"]),
    "classical-2": (["prep_0", "prep_1", "prep_uniform", "coin", "not", "id", "read", "sink"],
                    ["s0", "s1", "uniform"], ["p0", "p1", "u"]),
    "classical-3": (["prep_0", "prep_1", "prep_2", "prep_uniform", "id", "read", "sink"],
                    ["s0", "s1", "s2", "uniform"], ["p0", "p1", "p2", "u"]),
    "quantum-2": (["prep_0", "prep_1", "prep_mixed", "prep_plus", "h", "x", "z", "s", "t", "id",
                   "measure", "sink", "cnot", "prep_bell"],
                  ["basis_0", "basis_1", "mixed", "plus", "phi_plus", "phi_minus", "psi_plus",
                   "psi_minus"],
                  ["p0", "p1", "u", "p_plus"]),
    "quantum-3": (["prep_0", "prep_1", "prep_2", "prep_mixed", "id", "measure", "sink"],
                  ["basis_0", "basis_1", "basis_2", "mixed"], ["p0", "p1", "p2", "u"]),
    "real-quantum-2": (["id", "x", "h", "t1", "t2", "prep_0", "prep_plus", "prep_mixed",
                        "measure", "sink", "prep_phi_plus", "joint_measure"],
                       ["zero", "plus", "mixed", "phi_plus", "phi_minus", "psi_plus",
                        "psi_minus"],
                       ["p0", "p1", "u", "joint_first", "joint_second"]),
    "boxworld": (["prep_mixed", "prep_v00", "prep_v01", "prep_v10", "prep_v11", "prep_pr",
                  "measure_x0", "measure_x1", "sink", "id"],
                 ["mixed", "v00", "v01", "v10", "v11", "pr_box"],
                 ["u", "e0x0", "e1x0", "e0x1", "e1x1"]),
}


def builtin_theories():
    return [classical_theory(1), classical_theory(2), classical_theory(3), quantum_theory(2),
            quantum_theory(3), real_quantum_theory(2), boxworld_gbit()]


@pytest.mark.parametrize("theory", builtin_theories(), ids=lambda t: t.name)
def test_devices_are_library_vectors_in_library_order(theory):
    gates, states, effects = LIBRARY_ORDER[theory.name]
    assert (list(theory.gates), list(theory.states), list(theory.effects)) == (
        gates, states, effects)
    state_bytes, effect_bytes = ({(v.system, v.coords.tobytes()) for v in lib.values()}
                                 for lib in (theory.states, theory.effects))
    own_matrices = set()
    for gate in theory.gates.values():
        if gate.inputs and gate.outputs:
            continue
        # a preparation's one column is a state; a measurement's one row an effect
        library, side = (effect_bytes, "input") if gate.inputs else (state_bytes, "output")
        for t in gate.outcomes.values():
            if (getattr(t, side), t.matrix.ravel().tobytes()) not in library:
                own_matrices.add(gate.name)
    # coin prepares subnormalised states; prep_plus is plus @ plus^dag, whose
    # entries are 0.5000000000000001 where the "plus" state holds 0.5
    assert own_matrices == {"classical-2": {"coin"}, "quantum-2": {"prep_plus"}}.get(
        theory.name, set())


# ---------------------------------------------------------------------------
# arrays held once per process, and what builds do not share


# every built-in theory, once per parameter its held arrays depend on
BUILDS = ("classical_theory(1)", "classical_theory(2)", "classical_theory(3)",
          "quantum_theory(2)", "quantum_theory(3)", "real_quantum_theory(2)", "boxworld_gbit()")


def build(call: str):
    return eval(call, vars(gptlab))


def reference_for(theory) -> dict:
    return reference_builtin_arrays(theory.meta["builtin"], theory.meta["params"].get("d"))


FIRST_BUILDS = f"""
import pickle, sys
import gptlab
from conftest import builtin_arrays
builds = [[builtin_arrays(eval(call, vars(gptlab))) for _ in range(2)] for call in {BUILDS!r}]
sys.stdout.buffer.write(pickle.dumps(builds))
"""


def test_first_and_later_builds_hold_the_reference_arrays():
    # a fresh process, so each theory's first build computes its arrays
    paths = [str(Path(gptlab.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", FIRST_BUILDS], env=env, capture_output=True,
                         check=True).stdout
    for call, (first, later) in zip(BUILDS, pickle.loads(out)):
        want = reference_for(build(call))
        assert same_bytes(first, want) and same_bytes(later, want), call
    for call in BUILDS:  # and in this process, which built them long before
        theory = build(call)
        assert same_bytes(builtin_arrays(theory), reference_for(theory)), call


@pytest.mark.parametrize("call", BUILDS)
def test_held_arrays_reject_writes(call):
    theory = build(call)
    held = list(arrays_in(builtin_arrays(theory)))
    held += [getattr(theory.strategies, g)()[1] for g in ("state_grid", "effect_grid")]
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_a_density_carrier_cannot_be_rebound_and_pickles_through_its_constructor():
    carrier = DensityCarrier(hermitian_basis(2))
    with pytest.raises(AttributeError):
        carrier.basis = carrier.basis
    with pytest.raises(AttributeError):
        del carrier.basis
    with pytest.raises(AttributeError):
        carrier.extra = 1
    again = pickle.loads(pickle.dumps(carrier))
    assert again.basis.tobytes() == carrier.basis.tobytes() and not again.basis.flags.writeable


@pytest.mark.parametrize("call", BUILDS)
def test_two_builds_share_no_mutable_object(call):
    one, two = build(call), build(call)
    for field in ("system_types", "composite_rule", "gates", "states", "effects",
                  "deterministic_effects", "strategies", "meta"):
        assert getattr(one, field) is not getattr(two, field), field
    assert one.meta["params"] is not two.meta["params"]
    for name, gate in one.gates.items():
        assert gate is not two.gates[name]
        for label, t in gate.outcomes.items():
            assert t is not two.gates[name].outcomes[label]
    for lib in ("states", "effects"):
        for name, v in getattr(one, lib).items():
            assert v is not getattr(two, lib)[name]
    # what they share is read-only: the carrier and the arrays
    assert one.carrier is two.carrier
    assert all(a.base is b.base for a, b in zip(arrays_in(builtin_arrays(one)),
                                                arrays_in(builtin_arrays(two))))


@pytest.mark.parametrize("call", BUILDS)
def test_editing_one_build_changes_no_later_build(call):
    edited = build(call)
    first_gate, first_state = next(iter(edited.gates)), next(iter(edited.states))
    edited.gates[first_gate] = edited.gates["sink"]
    edited.gates.pop("id")
    edited.states.pop(first_state)
    edited.effects.clear()
    edited.meta["params"]["d"] = 99
    later = build(call)
    assert same_bytes(builtin_arrays(later), reference_for(later))
    assert later.meta["params"].get("d") != 99 and "id" in later.gates


def test_the_rebit_rule_shares_its_carriers():
    one, two = real_quantum_theory(), real_quantum_theory()
    assert one.carrier is two.carrier is rebit_carrier(1)
    # the pair states are coordinates in the one held two-rebit carrier
    for name, op in bell_operators().items():
        assert np.array_equal(one.state(name).coords, rebit_carrier(2).to_vector(op))


@pytest.mark.parametrize("call", BUILDS)
def test_builtin_theories_and_their_circuits_pickle(call):
    theory = build(call)
    rng = np.random.default_rng(3)
    # random circuits on the four theories the circuit catalog covers; evaluating
    # them fills the rebit rule's transfer table, which pickling leaves behind
    circuits = [random_circuit(theory, rng) for _ in range(4)] if theory.name in (
        "classical-2", "quantum-2", "real-quantum-2", "boxworld") else []
    dists = [distribution(c) for c in circuits]
    again = pickle.loads(pickle.dumps(theory))
    assert same_bytes(builtin_arrays(again), reference_for(theory))
    assert (again.name, again.meta, list(again.system_types.values())) == (
        theory.name, theory.meta, list(theory.system_types.values()))
    hooks, hooks_again = theory.strategies, again.strategies
    for grid in ("state_grid", "effect_grid"):
        names, rows = getattr(hooks, grid)()
        names_again, rows_again = getattr(hooks_again, grid)()
        assert names == names_again and rows.tobytes() == rows_again.tobytes()
    for sampler in ("random_states", "random_effects"):
        want = getattr(hooks, sampler)(np.random.default_rng(5), 6)
        got = getattr(hooks_again, sampler)(np.random.default_rng(5), 6)
        assert want.tobytes() == got.tobytes(), sampler
    for c, dist in zip(circuits, dists):
        c_again = pickle.loads(pickle.dumps(c))
        got = distribution(c_again)
        assert [(str(z), p.hex()) for z, p in got.items()] == \
            [(str(z), p.hex()) for z, p in dist.items()]
