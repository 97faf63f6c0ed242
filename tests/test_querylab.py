"""Oracles, PARITY by pairing, amplitude-amplification search, and bounds."""

import itertools
import math

import numpy as np
import pytest

from gptlab import querylab
from gptlab.querylab import (
    Oracle,
    OracleFunction,
    grover_search,
    grover_success_probability,
    lower_bound,
    parity_classical,
    parity_quantum,
)
from gptlab.theories import DensityCarrier, hermitian_basis

from conftest import bit_oracle_unitary, oracle_unitary


def test_oracle_table_validation():
    with pytest.raises(ValueError):
        OracleFunction(())
    with pytest.raises(ValueError):
        OracleFunction((0, 2))


def test_bit_oracle_identity_cases():
    assert np.array_equal(bit_oracle_unitary(OracleFunction((0, 0))), np.eye(4))
    # constant one: identity on the control, bit flip on the target
    flip = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(bit_oracle_unitary(OracleFunction((1, 1))), flip)


def test_bit_oracle_cnot_case():
    u = bit_oracle_unitary(OracleFunction((0, 1)))
    # basis images (x, y) -> (x, y xor f(x))
    for x in range(2):
        for y in range(2):
            src = np.zeros(4)
            src[2 * x + y] = 1.0
            dst = u @ src
            assert dst[2 * x + (y ^ (x == 1))] == 1.0
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.array_equal(u, cnot)


def test_bit_oracle_is_permutation_and_involution():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5, 8):
        f = OracleFunction(tuple(rng.integers(0, 2, size=n)))
        u = bit_oracle_unitary(f)
        assert np.array_equal(u @ u, np.eye(u.shape[0]))
        assert np.array_equal(u.sum(axis=0), np.ones(u.shape[0]))
        assert np.array_equal(u.sum(axis=1), np.ones(u.shape[0]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 1000])
def test_bit_oracle_gather_matches_the_dense_matrix(n):
    rng = np.random.default_rng(n)
    f = OracleFunction(tuple(rng.integers(0, 2, size=n)))
    u = bit_oracle_unitary(f)
    oracle = Oracle(f)
    for k in range(3):
        state = rng.normal(size=2 * f.padded_size)
        assert np.array_equal(oracle.apply_bit_unitary(state), u @ state)
        assert oracle.queries == k + 1


def test_bit_oracle_gather_matches_the_transfer_matrix():
    """The library's gather on both sides of a density matrix is the reference
    oracle transformation's transfer matrix on its coordinates."""
    rng = np.random.default_rng(9)
    for table in ((0, 1), (1, 0, 1), (0, 1, 1, 0, 1)):
        f = OracleFunction(table)
        t = oracle_unitary(f)
        d = 2 * f.padded_size
        assert t.kraus[0].shape == (d, d)
        assert t.matrix.shape == (d * d, d * d)
        # transfer of an involution is an involution
        assert np.allclose(t.matrix @ t.matrix, np.eye(d * d), atol=1e-12)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        oracle = Oracle(f)
        moved = oracle.apply_bit_unitary(oracle.apply_bit_unitary(rho).T).T  # U rho U^T
        carrier = DensityCarrier(hermitian_basis(d))
        assert np.allclose(t.matrix @ carrier.to_vector(rho), carrier.to_vector(moved), atol=1e-12)


def test_parity_classical_counts_n():
    for table in ((0, 0, 0, 0), (1, 0), (1, 1, 1)):
        f = OracleFunction(table)
        out = parity_classical(f)
        assert out.query_count == f.n_items
        assert out.result == sum(table) % 2


def test_parity_quantum_deutsch_case():
    out = parity_quantum(OracleFunction((0, 1)))
    assert (out.query_count, out.result) == (1, 1)


def test_parity_quantum_exhaustive_small():
    for n in (2, 3, 4, 5):
        for bits in itertools.product((0, 1), repeat=n):
            f = OracleFunction(bits)
            out = parity_quantum(f)
            assert out.result == sum(bits) % 2
            assert out.query_count == math.ceil(n / 2)


def test_query_counter_cannot_be_skipped():
    f = OracleFunction((0, 1, 1, 0))
    oracle = Oracle(f)
    state = np.zeros(2 * f.padded_size)
    state[0] = 1.0
    oracle.apply_bit_unitary(state)
    oracle.apply_phase(np.ones(4) / 2)
    oracle.classical(2)
    assert oracle.queries == 3


def test_oracle_forms_are_built_on_first_use(monkeypatch):
    table, search = OracleFunction((0, 0, 1, 0, 1)), OracleFunction((0, 0, 1, 0))

    def counts():
        return parity_classical(table).query_count, grover_search(search).query_count

    def unused(*_):
        raise AssertionError("built an oracle form the algorithm does not use")

    want = counts()
    monkeypatch.setattr(querylab, "_bit_oracle_index", unused)
    assert counts() == want == (5, 1)
    monkeypatch.undo()
    monkeypatch.setattr(OracleFunction, "marked_items", unused)
    assert parity_quantum(table).query_count == 3


def test_grover_examples():
    out = grover_search(OracleFunction((0, 0, 1, 0)))
    assert out.query_count == 1
    assert out.success_probability == pytest.approx(1.0, abs=1e-9)
    assert out.result == 2 and out.success

    out = grover_search(OracleFunction((0,) * 15 + (1,)), iterations=3)
    assert out.success_probability >= 0.9

    out = grover_search(OracleFunction((1, 0, 0, 0)), iterations=0)
    assert out.success_probability == pytest.approx(1 / 4)


def test_grover_matches_closed_form():
    rng = np.random.default_rng(8)
    for n in (4, 16, 64):
        marked = int(rng.integers(0, n))
        table = [0] * n
        table[marked] = 1
        for t in (0, 1, 2, 5):
            out = grover_search(OracleFunction(tuple(table)), iterations=t)
            assert out.query_count == t
            assert out.success_probability == pytest.approx(
                grover_success_probability(n, t), abs=1e-9)


def _apply_phase_scanning(self, state):
    """The phase oracle as first written: a scan of the whole table per query."""
    self.queries += 1
    out = np.array(state, dtype=float)
    for i in self._f.marked_items():
        out[i] = -out[i]
    return out


def test_grover_matches_the_scanning_phase_oracle(monkeypatch):
    n = 2**14
    table = [0] * n
    table[int(np.random.default_rng(9).integers(0, n))] = 1
    f = OracleFunction(tuple(table))
    for iterations in (None, 7):
        fast = grover_search(f, iterations)
        with monkeypatch.context() as patch:
            patch.setattr(Oracle, "apply_phase", _apply_phase_scanning)
            slow = grover_search(f, iterations)
        assert (fast.query_count, fast.result, fast.success) == \
            (slow.query_count, slow.result, slow.success)
        assert fast.success_probability.hex() == slow.success_probability.hex()


def test_grover_marked_item_validation():
    with pytest.raises(ValueError):
        grover_search(OracleFunction((0, 0, 0, 0)))
    with pytest.raises(ValueError):
        grover_search(OracleFunction((1, 1, 0, 0)))


def test_lower_bounds():
    assert lower_bound("parity", 10, 2).value == 5
    assert lower_bound("parity", 10, 10).value == 1
    assert lower_bound("parity", 10, 3).value == math.ceil(10 / 3)
    assert not lower_bound("parity", 10, 2).asymptotic
    # integer ceiling division: exact past 2**53, where N / k in floats is not
    n = 10**32 + 1
    assert lower_bound("parity", n, 1).value == n
    assert lower_bound("parity", n, 2).value == 5 * 10**31 + 1
    assert lower_bound("parity", n, n).value == 1
    # and the human line prints it exactly, where :g would print 1e+32
    assert str(lower_bound("parity", 10**32, 1)) == f"parity(N={10**32}, k=1): {10**32} (exact)"

    search = lower_bound("search", 100, 2)
    assert search.value == pytest.approx(math.sqrt(50))
    assert search.asymptotic
    assert "asymptotic" in str(search)

    with pytest.raises(ValueError):
        lower_bound("parity", 0, 1)
    with pytest.raises(ValueError):
        lower_bound("sorting", 4, 2)
