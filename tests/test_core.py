"""Carrier types and the four core operations."""

import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from gptlab import (
    CompositeType,
    EffectVector,
    KroneckerRule,
    StateVector,
    SystemType,
    TransformationMatrix,
    apply,
    approx_matrix,
    pair,
)
from gptlab.core import Factor, _freeze, checked_coords
from gptlab.errors import TypeMismatchError
from gptlab.interference import ProjectorFamily
from gptlab.theories import (PAULI, DensityCarrier, RebitRule, _even_y_slots, _table,
                             even_y_index, hermitian_basis, pauli_strings)

from conftest import all_theories, arrays_in, builtin_arrays

BIT = SystemType("bit", 2)


def test_apply_identity_and_not():
    s = StateVector(BIT, [1.0, 0.0])
    ident = TransformationMatrix(BIT, BIT, np.eye(2))
    assert np.array_equal(apply(ident, s).coords, s.coords)
    flip = TransformationMatrix(BIT, BIT, [[0, 1], [1, 0]])
    assert np.array_equal(apply(flip, s).coords, [0.0, 1.0])


def test_apply_rebit_t2_discards_input():
    # the discard-and-reprepare map sends every normalized state to the
    # maximally mixed one
    from gptlab import real_quantum_theory

    rq = real_quantum_theory(2)
    t2 = rq.gate("t2").outcomes["0"]
    mixed = rq.state("mixed").coords
    for name in ("zero", "plus", "mixed"):
        out = apply(t2, rq.state(name))
        assert np.allclose(out.coords, mixed, atol=1e-12)


def test_apply_type_mismatch():
    trit = SystemType("trit", 3)
    t = TransformationMatrix(trit, trit, np.eye(3))
    with pytest.raises(TypeMismatchError):
        apply(t, StateVector(BIT, [1, 0]))


def test_pair_examples():
    u = EffectVector(BIT, [1.0, 1.0])
    for p in (0.0, 0.3, 1.0):
        assert pair(u, StateVector(BIT, [p, 1 - p])) == pytest.approx(1.0)
    assert pair(EffectVector(BIT, [0.0, 0.0]), StateVector(BIT, [0.4, 0.6])) == 0.0
    with pytest.raises(TypeMismatchError):
        pair(EffectVector(SystemType("trit", 3), np.ones(3)), StateVector(BIT, [1, 0]))


def test_pair_quantum_plus_against_zero_projector():
    from gptlab import quantum_theory

    q2 = quantum_theory(2)
    got = pair(q2.effect("p0"), q2.state("plus"))
    # oracle: Tr(|0><0| |+><+|) by direct complex arithmetic
    plus = np.full((2, 2), 0.5)
    proj0 = np.diag([1.0, 0.0])
    assert got == pytest.approx(np.trace(proj0 @ plus).real, abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_tensor_states_and_matrices():
    rule = KroneckerRule()
    a = StateVector(BIT, [1.0, 0.0])
    b = StateVector(BIT, [0.0, 1.0])
    ab = StateVector(rule.composite([BIT, BIT]), rule.product_state_coords([a, b]))
    # Kronecker convention: first factor is the major index
    assert np.array_equal(ab.coords, [0.0, 1.0, 0.0, 0.0])
    assert ab.system.dim == 4

    i2 = TransformationMatrix(BIT, BIT, np.eye(2))
    i3 = TransformationMatrix(SystemType("trit", 3), SystemType("trit", 3), np.eye(3))
    assert np.array_equal(rule.parallel_matrix([i2, i3]), np.eye(6))


def test_tensor_quantum_identities():
    from gptlab import quantum_theory

    q2 = quantum_theory(2)
    ident = q2.gate("id").outcomes["0"]
    big = q2.composite_rule.parallel_matrix([ident, ident])
    assert big.shape == (16, 16)
    assert np.array_equal(big, np.eye(16))


def test_tensor_embed_extension_is_minimal():
    # the plain Kronecker product pins a rebit map down only on the local
    # products (the first 9 coordinates of the composite); the theory's own
    # rule extends the same gate so that it acts on the global direction too
    from gptlab import real_quantum_theory

    rq = real_quantum_theory(2)
    rule = rq.composite_rule
    sys = rq.system()
    t1 = rq.gate("t1").outcomes["0"]
    ident = rule.identity(sys)

    naive = np.kron(t1.matrix, ident.matrix)
    extended = rule.parallel_matrix([t1, ident])
    assert naive.shape == (9, 9)
    assert extended.shape == (10, 10)
    assert np.allclose(naive, extended[:9, :9], atol=1e-12)
    assert extended[9, 9] == pytest.approx(1.0, abs=1e-12)  # global parity preserved


def test_adjoint_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        din, dout = rng.integers(2, 5, size=2)
        tin, tout = SystemType("a", int(din)), SystemType("b", int(dout))
        t = TransformationMatrix(tin, tout, rng.normal(size=(dout, din)))
        s = StateVector(tin, rng.normal(size=din))
        e = EffectVector(tout, rng.normal(size=dout))
        lhs = pair(e, apply(t, s))
        rhs = float((t.matrix.T @ e.coords) @ s.coords)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tensor_associative_and_distributes_over_apply():
    rule = KroneckerRule()
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    systems = [SystemType(f"s{i}", d) for i, d in enumerate(dims)]
    states = [StateVector(t, rng.normal(size=t.dim)) for t in systems]
    stacks = [s.coords[None] for s in states]
    s01, s12 = rule.composite(systems[:2]), rule.composite(systems[1:])
    left = rule.product_coords([s01, systems[2]],
                               [rule.product_coords(systems[:2], stacks[:2]), stacks[2]])
    right = rule.product_coords([systems[0], s12],
                                [stacks[0], rule.product_coords(systems[1:], stacks[1:])])
    assert np.allclose(left, right, atol=0)
    assert np.allclose(left, rule.product_coords(systems, stacks), atol=0)

    t0 = TransformationMatrix(systems[0], systems[0], rng.normal(size=(2, 2)))
    t1 = TransformationMatrix(systems[1], systems[1], rng.normal(size=(3, 3)))
    lhs = rule.parallel_matrix([t0, t1]) @ rule.product_state_coords(states[:2])
    rhs = rule.product_state_coords([apply(t0, states[0]), apply(t1, states[1])])
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_approx_matrix_examples():
    ident = approx_matrix(np.eye(3), 0.5)
    assert all(ident[i, i] == 1 for i in range(3))
    assert ident[0, 1] == 0

    got = approx_matrix(np.array([[1 / math.sqrt(2)]]), 2.0**-10)[0, 0]
    assert got.denominator <= 2**10
    assert abs(float(got) - 1 / math.sqrt(2)) <= 2.0**-10

    coarse = approx_matrix(np.array([[0.3]]), 0.25)[0, 0]
    assert coarse in (Fraction(1, 4), Fraction(1, 2))

    # accepts a transformation directly
    t = TransformationMatrix(BIT, BIT, np.full((2, 2), 1 / 3))
    approx = approx_matrix(t, 2.0**-8)
    assert abs(float(approx[0, 0]) - 1 / 3) <= 2.0**-8

    with pytest.raises(ValueError):
        approx_matrix(np.eye(2), 0.0)


def test_approx_matrix_dyadic_error_bound():
    rng = np.random.default_rng(3)
    for power in range(4, 21, 4):
        eps = 2.0**-power
        m = rng.normal(size=(4, 4)) * 3
        approx = approx_matrix(m, eps)
        for idx in np.ndindex(4, 4):
            frac = approx[idx]
            assert abs(float(frac) - m[idx]) <= eps
            # denominators stay dyadic
            assert frac.denominator & (frac.denominator - 1) == 0


def test_state_invariants():
    with pytest.raises(ValueError):
        StateVector(BIT, [1.0, np.inf])
    with pytest.raises(ValueError):
        StateVector(BIT, [1.0])
    with pytest.raises(ValueError):
        StateVector(BIT, [1.0, 1.0], normalized=True)  # 2-norm sqrt(2) > 1
    with pytest.raises(ValueError):
        SystemType("empty", 0)
    with pytest.raises(ValueError):
        CompositeType("pair", 3, factors=(BIT, BIT))  # below the product dimension 4


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("theory", all_theories(), ids=lambda th: th.name)
def test_pickled_vectors_and_transformations_come_back_read_only(theory):
    # a frozen dataclass unpickles without __post_init__, and numpy restores
    # arrays writeable; each is built again through its constructor instead
    vectors = [*theory.states.values(), *theory.effects.values(),
               *theory.deterministic_effects.values()]
    for v in vectors:
        again = pickle.loads(pickle.dumps(v))
        assert type(again) is type(v) and again.system == v.system
        assert getattr(again, "normalized", None) == getattr(v, "normalized", None)
        assert _same_array(again.coords, v.coords) and not again.coords.flags.writeable
    for gate in theory.gates.values():
        again = pickle.loads(pickle.dumps(gate))
        assert again.outcome_labels == gate.outcome_labels
        for label, t in gate.outcomes.items():
            for u in (pickle.loads(pickle.dumps(t)), again.outcomes[label]):
                assert (u.input, u.output, u.outcome_label) == (t.input, t.output, t.outcome_label)
                assert _same_array(u.matrix, t.matrix) and not u.matrix.flags.writeable
                assert (u.kraus is None) == (t.kraus is None)
                for k, kt in zip(u.kraus or (), t.kraus or (), strict=True):
                    assert _same_array(k, kt) and not k.flags.writeable


def _refuses_writes(a: np.ndarray) -> bool:
    try:
        a.setflags(write=True)
    except ValueError:
        return not a.flags.writeable
    return False


def test_every_holder_freezes_its_own_copy_and_builtins_share_theirs():
    # a caller's arrays, handed to every holder: each object holds a read-only
    # copy, and the caller's arrays stay writable and its own
    coords, matrix, kraus = np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    basis = [b.copy() for b in hermitian_basis(2)]
    projectors = {frozenset(): np.zeros((2, 2)), frozenset({0}): np.diag([1.0, 0.0]),
                  frozenset({1}): np.diag([0.0, 1.0]), frozenset({0, 1}): np.eye(2)}
    t = TransformationMatrix(BIT, BIT, matrix, kraus=(kraus,))
    family = ProjectorFamily(2, projectors)
    held = {"state": StateVector(BIT, coords).coords, "effect": EffectVector(BIT, coords).coords,
            "matrix": t.matrix, "kraus": t.kraus[0], "stack": Factor((t,)).stack,
            "carrier": DensityCarrier(basis).basis,
            **{f"projector {sorted(k)}": family.projector(k) for k in projectors}}
    before = {name: a.copy() for name, a in held.items()}
    for name, a in held.items():
        assert _refuses_writes(a), name
    for a in (coords, matrix, kraus, *basis, *projectors.values()):
        assert a.flags.writeable
        a[...] = 7.0
    for name, a in held.items():
        assert np.array_equal(a, before[name]), name

    # the built-in theories: every held array, gate stack and rebit transfer
    # refuses writes, as do the Pauli matrices, and a second build's vectors
    # view the first build's memory
    assert all(_refuses_writes(m) for m in PAULI.values())
    for one, two in zip(all_theories(), all_theories()):
        shared = list(zip(arrays_in(builtin_arrays(one)), arrays_in(builtin_arrays(two))))
        assert shared and all(np.shares_memory(a, b) for a, b in shared), one.name
        stacks = [g.factor.stack for g in one.gates.values()]
        rule = one.composite_rule
        if isinstance(rule, RebitRule):  # each outcome's transfer and its even-Y block,
            stacks += [m for g in one.gates.values() for t in g.factor for m in rule._transfer(t)[:2]]
            # and the Pauli string tables, each built once per process
            builds = list(itertools.product((pauli_strings, even_y_index, _even_y_slots), (1, 2)))
            tables = [_table(build, k) for build, k in builds]
            assert all(_table(build, k) is t for (build, k), t in zip(builds, tables))
            stacks += tables
        for a in [a for a, _ in shared] + stacks:
            assert _refuses_writes(a) and _refuses_writes(a.base), one.name


def test_a_read_only_view_of_a_callers_array_is_copied():
    # the caller made the owner read-only and can make it writable again, so
    # only views of owners the library froze itself pass through uncopied
    owners = [np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2, dtype=complex)]
    for o in owners:
        o.setflags(write=False)
    coords, matrix, kraus = (o[:] for o in owners)
    t = TransformationMatrix(BIT, BIT, matrix, kraus=(kraus,))
    held = [StateVector(BIT, coords).coords, EffectVector(BIT, coords).coords,
            t.matrix, t.kraus[0], Factor((t,)).stack]
    before = [a.copy() for a in held]
    for o in owners:
        o.setflags(write=True)
        o[0] = 0.25
    for a, b in zip(held, before):
        assert not any(np.shares_memory(a, o) for o in owners) and np.array_equal(a, b)
    # a view of a held array is the library's own: it passes through as it is
    again = StateVector(BIT, held[0][:])
    assert np.shares_memory(again.coords, held[0]) and again.coords.base is held[0].base


def test_held_owners_refuse_writes_and_keep_the_layout():
    # the owner under a held array is memory numpy cannot write, so neither the
    # held view nor its base can be made writable again
    v = StateVector(BIT, [0.5, 0.5])
    with pytest.raises(ValueError):
        v.coords.base.setflags(write=True)
    assert v.coords.tolist() == [0.5, 0.5]
    # and it keeps the copy's layout, since BLAS picks kernels by stride
    c = np.arange(24.0).reshape(2, 3, 4)
    for a in (np.asfortranarray(c[0]), c.transpose(2, 0, 1), (c * (1 - 1j)).real, c[:, ::-1]):
        held = _freeze(a)
        assert held.strides == a.copy(order="K").strides and np.array_equal(held, a)
        assert _refuses_writes(held) and _refuses_writes(held.base)
        assert _freeze(held).base is held.base  # the library's own passes through


@pytest.mark.parametrize("row", [0, 3, 6])
def test_checked_coords_checks_every_row(row):
    rows = np.full((7, 2), 0.5)
    assert checked_coords(rows, (7, 2), "state", normalized=True) is rows
    bad = rows.copy()
    bad[row, 1] = np.nan
    with pytest.raises(ValueError, match="effect coordinates must be finite"):
        checked_coords(bad, (7, 2), "effect")
    bad[row] = [1.0, 0.5]  # 2-norm above 1, finite again
    assert checked_coords(bad, (7, 2), "state").shape == (7, 2)
    with pytest.raises(ValueError, match="2-norm bound"):
        checked_coords(bad, (7, 2), "state", normalized=True)
    with pytest.raises(ValueError, match=r"coords shape \(7, 2\) != \(2,\)"):
        checked_coords(rows, (2,), "state")
    assert checked_coords(np.empty((0, 2)), (0, 2), "state", normalized=True).shape == (0, 2)
