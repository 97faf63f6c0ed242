"""Projector families, coherence projectors, and interference order."""

import functools
import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import DensityCarrier, hermitian_basis, interference
from gptlab.errors import FamilyInvariantError, ReconstructionError
from gptlab.interference import (
    ProjectorFamily,
    classical_family,
    coherence_projector,
    decompose,
    interference_order,
    quantum_family,
    subsets,
    synthetic_family,
)
from gptlab.serialization import family_to_json, parse_family

from conftest import operator_of, reference_family_violations, time_limit

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def qutrit_carrier():
    return DensityCarrier(hermitian_basis(3))


def test_family_invariants_builtin():
    # the constructor checks every invariant: building them is the test
    for family in (classical_family(3), quantum_family(3), synthetic_family(4, 2)):
        assert len(family.projectors) == 2**family.n_slits


def test_family_invariant_violation_detected():
    bad = dict(classical_family(2).projectors)
    bad[frozenset({0})] = np.array([[0.5, 0.0], [0.0, 0.0]])  # not idempotent
    with pytest.raises(FamilyInvariantError) as err:
        ProjectorFamily(2, bad)
    assert str(err.value) == "P_[0] is not idempotent; P_[0] P_[0] != P_[0]"


def test_family_check_agrees_with_the_full_scan():
    # the generating products accept what the 4^n pairwise scan accepts, and
    # both reject a family once any one projector moves by 1e-6
    for family in (classical_family(3), quantum_family(3), synthetic_family(4, 2)):
        n = family.n_slits
        assert interference._violations(n, family.projectors) == []
        assert reference_family_violations(n, family.projectors) == []
        for key in subsets(n):
            bad = dict(family.projectors)
            bad[key] = bad[key].copy()
            bad[key][0, 0] += 1e-6
            assert interference._violations(n, bad), (family.name, sorted(key))
            assert reference_family_violations(n, bad), (family.name, sorted(key))


def test_family_without_projectors_is_a_value_error():
    with pytest.raises(ValueError, match="at least one projector"):
        ProjectorFamily(2, {})


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_family_entries_must_be_finite(entry):
    # a NaN family used to pass its checks, then fail in an SVD
    with pytest.raises(ValueError, match="projector entries must be finite"):
        ProjectorFamily(1, {frozenset({0}): [[entry]]})


def test_family_without_the_full_slit_projector():
    with pytest.raises(FamilyInvariantError,
                       match=r"^2 projectors cannot cover the subsets of 2 slits$"):
        ProjectorFamily(2, {frozenset({0}): np.eye(2)})
    # enough projectors, but one keyed by a subset of no slits in place of {0, 1}
    projectors = {key: np.eye(2) for key in map(frozenset, ({0}, {1}, {5}))}
    with pytest.raises(FamilyInvariantError, match=r"^missing projector for subset \[0, 1\]$"):
        ProjectorFamily(2, projectors)


def test_too_few_projectors_are_reported_before_any_subset_is_listed(monkeypatch):
    from gptlab import interference

    # one projector short of the 2**n a family needs, the empty one included
    short = dict(classical_family(3).projectors)
    del short[frozenset({0, 2})]

    def no_listing(*args, **kwargs):
        raise AssertionError("subsets enumerated for a family that cannot cover them")

    monkeypatch.setattr(interference, "subsets", no_listing)
    with pytest.raises(FamilyInvariantError,
                       match="^2 projectors cannot cover the subsets of 40 slits$"):
        ProjectorFamily(40, {frozenset(range(40)): np.eye(2)})
    with pytest.raises(FamilyInvariantError,
                       match="^7 projectors cannot cover the subsets of 3 slits$"):
        ProjectorFamily(3, short)


def test_singleton_coherence_projector_is_projector():
    family = quantum_family(3)
    for i in range(3):
        assert np.allclose(coherence_projector(family, {i}), family.projector({i}), atol=0)


def test_qutrit_block_and_coherence_maps_match_displays():
    # P_{01} keeps the upper 2x2 block; omega_{01} keeps only its off-diagonal
    carrier = qutrit_carrier()
    family = quantum_family(3)
    rng = np.random.default_rng(31)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = (g + g.conj().T) / 2

    p01 = family.projector({0, 1})
    got = operator_of(carrier, p01 @ carrier.to_vector(rho))
    want = np.zeros((3, 3), dtype=complex)
    want[:2, :2] = rho[:2, :2]
    assert np.allclose(got, want, atol=1e-12)

    w01 = coherence_projector(family, {0, 1})
    got = operator_of(carrier, w01 @ carrier.to_vector(rho))
    want = np.zeros((3, 3), dtype=complex)
    want[0, 1], want[1, 0] = rho[0, 1], rho[1, 0]
    assert np.allclose(got, want, atol=1e-12)

    # and omega_{01} = P_{01} - P_{0} - P_{1} as matrices
    assert np.allclose(w01, p01 - family.projector({0}) - family.projector({1}), atol=1e-12)


def test_qutrit_full_coherence_projector_vanishes():
    family = quantum_family(3)
    w = coherence_projector(family, {0, 1, 2})
    assert np.max(np.abs(w)) <= 1e-12


def test_quantum_nullity_up_to_five_slits():
    # every coherence projector of three or more slits vanishes
    for d in (3, 4, 5):
        family = quantum_family(d)
        for key in subsets(d, min_size=3):
            assert np.max(np.abs(coherence_projector(family, key))) <= 1e-12


def test_interference_orders():
    for d in (2, 3, 4, 5):
        assert interference_order(classical_family(d)) == 1
    for d in (3, 4):
        assert interference_order(quantum_family(d)) == 2
    assert interference_order(synthetic_family(4, 3)) == 3
    assert interference_order(synthetic_family(5, 4)) == 4


def test_order_monotone_in_span():
    family = quantum_family(3)
    carrier = qutrit_carrier()
    # diagonal span only: no coherences at all -> order 1
    diag_span = np.column_stack([
        carrier.to_vector(np.diag(e)) for e in np.eye(3)
    ])
    assert interference_order(family, span=diag_span) == 1
    assert interference_order(family) == 2


def test_moebius_inversion_exact():
    for family in (classical_family(4), quantum_family(3), synthetic_family(5, 3)):
        total = np.zeros((family.dim, family.dim))
        for key in subsets(family.n_slits, min_size=1):
            total += coherence_projector(family, key)
        full = family.projector(frozenset(range(family.n_slits)))
        assert np.max(np.abs(total - full)) <= 1e-12


def test_coherence_projectors_orthogonal_on_quantum_families():
    family = quantum_family(3)
    keys = subsets(3, min_size=1, max_size=2)
    omegas = {k: coherence_projector(family, k) for k in keys}
    for a, b in itertools.product(keys, repeat=2):
        prod = omegas[a] @ omegas[b]
        if a == b:
            assert np.max(np.abs(prod - omegas[a])) <= 1e-9
        else:
            assert np.max(np.abs(prod)) <= 1e-9


def test_decompose_examples():
    carrier = qutrit_carrier()
    family = quantum_family(3)

    # support on {0,1} only: components containing slit 2 vanish
    plus = np.zeros((3, 3), dtype=complex)
    plus[:2, :2] = 0.5
    v = carrier.to_vector(plus)
    decomp = decompose(v, family, 2)
    assert decomp.residual <= 1e-12
    for key, comp in decomp.components.items():
        if 2 in key:
            assert np.linalg.norm(comp) <= 1e-12
    assert np.allclose(decomp.reconstruct(), v, atol=1e-12)

    # diagonal states have only singleton components
    diag = carrier.to_vector(np.diag([0.2, 0.3, 0.5]))
    decomp = decompose(diag, family, 2)
    for key, comp in decomp.components.items():
        if len(key) > 1:
            assert np.linalg.norm(comp) <= 1e-12

    zero = decompose(np.zeros(9), family, 1)
    assert all(np.linalg.norm(c) == 0 for c in zero.components.values())


def test_decompose_order_too_small():
    carrier = qutrit_carrier()
    family = quantum_family(3)
    plus = np.full((3, 3), 1 / 3, dtype=complex)  # coherences across all pairs
    v = carrier.to_vector(plus)
    with pytest.raises(ReconstructionError) as err:
        decompose(v, family, 1)
    assert err.value.residual > 0.1
    assert decompose(v, family, 2).residual <= 1e-12


def test_decompose_past_the_slit_count_is_the_full_decomposition():
    # no subset is larger than the family's slits, so an order of 10^12 lists
    # order 3's subsets, not 10^12 empty sizes
    v = qutrit_carrier().to_vector(np.full((3, 3), 1 / 3, dtype=complex))
    with time_limit(10):
        big = decompose(v, quantum_family(3), 10**12)
    full = decompose(v, quantum_family(3), 3)
    assert (big.order, big.residual) == (10**12, full.residual)
    assert [(k, c.tobytes()) for k, c in big.components.items()] == \
        [(k, c.tobytes()) for k, c in full.components.items()]
    assert subsets(3, max_size=10**12) == subsets(3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_rejects_a_non_finite_vector(bad):
    # a NaN residual compares false with every bound, so it must not pass as a fit
    v = np.zeros(9)
    v[0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ReconstructionError) as err:
        decompose(v, quantum_family(3), 2)
    assert np.isnan(err.value.residual)


def test_synthetic_family_axes():
    family = synthetic_family(4, 2)
    # omega_I projects exactly onto the axis labelled I
    axes = subsets(4, min_size=1, max_size=2)
    for i, key in enumerate(axes):
        w = coherence_projector(family, key)
        expected = np.zeros((family.dim, family.dim))
        expected[i, i] = 1.0
        assert np.allclose(w, expected, atol=1e-12)
    for key in subsets(4, min_size=3):
        assert np.max(np.abs(coherence_projector(family, key))) <= 1e-12


def test_invalid_subset_rejected():
    family = classical_family(3)
    with pytest.raises(ValueError):
        coherence_projector(family, set())
    with pytest.raises(ValueError):
        coherence_projector(family, {7})
    with pytest.raises(ValueError):
        family.projector({5})


@functools.lru_cache(maxsize=None)
def built_family(kind: str, n: int, k: int) -> ProjectorFamily:
    if kind == "synthetic":
        return synthetic_family(n, k)
    return classical_family(n) if kind == "classical" else quantum_family(n)


def families(max_synthetic_slits: int):
    """(kind, slits, synthetic order): classical and quantum up to d = 4,
    synthetic families at every order."""
    return st.one_of(
        st.tuples(st.just("classical"), st.integers(1, 4), st.just(0)),
        st.tuples(st.just("quantum"), st.integers(2, 4), st.just(0)),
        st.integers(1, max_synthetic_slits).flatmap(
            lambda n: st.tuples(st.just("synthetic"), st.just(n), st.integers(1, n))),
    )


@functools.lru_cache(maxsize=None)
def order_of(spec) -> int:
    return interference_order(built_family(*spec))


@PROPERTY
@given(families(6), st.integers(0, 2**32 - 1))
def test_decompose_at_the_interference_order_resums(spec, seed):
    family = built_family(*spec)
    v = np.random.default_rng(seed).normal(size=family.dim)
    decomp = decompose(v, family, order_of(spec))
    assert np.max(np.abs(decomp.reconstruct() - v)) <= 1e-12


@PROPERTY
@given(families(6))
def test_family_json_round_trip_keeps_every_projector(spec):
    family = built_family(*spec)
    again = parse_family(json.dumps(family_to_json(family)))
    assert (again.n_slits, again.name, again.synthetic) == (
        family.n_slits, family.name, family.synthetic)
    assert again.projectors.keys() == family.projectors.keys()
    for key, matrix in family.projectors.items():
        assert again.projectors[key].dtype == matrix.dtype
        assert again.projectors[key].tobytes() == matrix.tobytes()


def test_a_familys_projectors_are_read_only_and_pickle_so():
    """Swapping a projector of a built family would bypass the invariant checks."""
    f = quantum_family(3)
    assert interference_order(f) == 2
    for family in (f, pickle.loads(pickle.dumps(f))):
        with pytest.raises(TypeError):
            family.projectors[frozenset({0, 1})] = np.eye(9)
        with pytest.raises(ValueError):
            family.projector({0, 1})[0, 0] = 2.0
        assert interference_order(family) == 2
    again = pickle.loads(pickle.dumps(f))
    assert (again.n_slits, again.name, again.synthetic) == (f.n_slits, f.name, f.synthetic)
    assert again.projectors.keys() == f.projectors.keys()
    assert all(np.array_equal(again.projectors[k], p) for k, p in f.projectors.items())
