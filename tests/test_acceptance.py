"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; every tolerance is pinned here, not configured elsewhere.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gptlab import (
    Acceptor,
    acceptance_prob,
    boxworld_gbit,
    chsh_value,
    classical_theory,
    distribution,
    foliate,
    gbit_fiducial_settings,
    quantum_theory,
    real_quantum_theory,
    tsirelson_settings,
)
from gptlab.afftm import (
    AffineMachine,
    Branch,
    acceptance_weight,
    circuit_to_affine_program,
    initial_configuration,
    norm_trace,
    step,
)
from gptlab.interference import (
    classical_family,
    coherence_projector,
    interference_order,
    quantum_family,
    subsets,
    synthetic_family,
)
from gptlab.querylab import (
    OracleFunction,
    grover_search,
    grover_success_probability,
    parity_classical,
    parity_quantum,
)
from gptlab.theories import PAULI
from gptlab.tomography import distinguish_search, fiducial_count, n_local_span

from conftest import (
    defect_direction_overlap,
    monte_carlo_acceptance,
    operator_of,
    product_state,
    random_circuit,
    random_machine,
    rebit_carrier,
)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {text}")
        raise
    print(f"PASS criterion {number:2d}: {text}")


@pytest.fixture(scope="module")
def rebit():
    return real_quantum_theory(2)


@pytest.fixture(scope="module")
def qubit():
    return quantum_theory(2)


@pytest.fixture(scope="module")
def corpus():
    """100 random small circuits per built-in theory, seeds fixed."""
    theories = [classical_theory(2), quantum_theory(2), real_quantum_theory(2),
                boxworld_gbit()]
    out = {}
    for k, theory in enumerate(theories):
        rng = np.random.default_rng(1000 + k)
        circuits = [random_circuit(theory, rng, max_gates=5) for _ in range(100)]
        assert all(len(c.instances) <= 5 for c in circuits)
        assert all(c.n_outcome_strings() <= 2**12 for c in circuits)
        out[theory.name] = circuits
    return out


def test_criterion_1_rebit_discrimination(rebit):
    with criterion(1, "t1 vs t2: locally indistinguishable, globally separated by 0.5"):
        start = time.perf_counter()
        t1 = rebit.gate("t1").outcomes["0"]
        t2 = rebit.gate("t2").outcomes["0"]
        local = distinguish_search(rebit, t1, t2, locality="local", seed=42, n_random=10_000)
        assert local.separation <= 1e-12

        global_ = distinguish_search(rebit, t1, t2, locality="global", seed=42, n_random=10_000)
        assert abs(global_.separation - 0.5) <= 1e-12

        # the entangled-pair strategy itself: probabilities 1 and 0.5
        rule = rebit.composite_rule
        ident = rule.identity(rebit.system())
        phi = rebit.state("phi_plus").coords
        e_first = rebit.effect("joint_first").coords
        p1 = float(e_first @ rule.parallel_matrix([t1, ident]) @ phi)
        p2 = float(e_first @ rule.parallel_matrix([t2, ident]) @ phi)
        assert abs(p1 - 1.0) <= 1e-12
        assert abs(p2 - 0.5) <= 1e-12

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"discrimination run took {elapsed:.1f}s"


def test_criterion_2_global_difference_direction(rebit):
    with criterion(2, "(t1-t2)xI on the entangled pair lies in the 1-dim defect subspace"):
        rule = rebit.composite_rule
        ident = rule.identity(rebit.system())
        diff = (rule.parallel_matrix([rebit.gate("t1").outcomes["0"], ident])
                - rule.parallel_matrix([rebit.gate("t2").outcomes["0"], ident]))
        direction = diff @ rebit.state("phi_plus").coords

        report = n_local_span(rebit, 2, 1)
        assert report.defect == 1
        assert defect_direction_overlap(report, direction) >= 1 - 1e-9

        yy_axis = np.zeros(10)
        yy_axis[9] = 1.0
        assert abs(float((report.defect_basis @ yy_axis)[0])) >= 1 - 1e-9

        # entrywise, the difference operator is -(Y x Y)/4
        op = operator_of(rebit_carrier(2), direction)
        assert np.max(np.abs(op - (-np.kron(PAULI["Y"], PAULI["Y"]).real / 4))) <= 1e-12


def test_criterion_3_tomography_dimensions(rebit, qubit):
    with criterion(3, "defects: two qubits 0; two rebits 1 at n=1 and 0 at n=2"):
        q = n_local_span(qubit, 2, 1)
        assert (q.composite_dim, q.n_local_span_dim, q.defect) == (16, 16, 0)
        r1 = n_local_span(rebit, 2, 1)
        assert (r1.composite_dim, r1.n_local_span_dim, r1.defect) == (10, 9, 1)
        r2 = n_local_span(rebit, 2, 2)
        assert r2.defect == 0


def test_criterion_4_interference_hierarchy():
    with criterion(4, "interference order: classical 1 (d<=5), quantum 2 (d=3,4,5)"):
        for d in (1, 2, 3, 4, 5):
            assert interference_order(classical_family(d)) == 1
        for d in (3, 4, 5):
            assert interference_order(quantum_family(d)) == 2

        family = quantum_family(3)
        for key in subsets(3, min_size=3):
            assert np.max(np.abs(coherence_projector(family, key))) <= 1e-12

        # the two displayed qutrit maps, checked entrywise on a general input
        from gptlab import DensityCarrier, hermitian_basis

        carrier = DensityCarrier(hermitian_basis(3))
        rng = np.random.default_rng(4)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = (g + g.conj().T) / 2
        blocked = operator_of(carrier, family.projector({0, 1}) @ carrier.to_vector(rho))
        want = np.zeros((3, 3), dtype=complex)
        want[:2, :2] = rho[:2, :2]
        assert np.max(np.abs(blocked - want)) <= 1e-12
        cohered = operator_of(
            carrier, coherence_projector(family, {0, 1}) @ carrier.to_vector(rho))
        want = np.zeros((3, 3), dtype=complex)
        want[0, 1], want[1, 0] = rho[0, 1], rho[1, 0]
        assert np.max(np.abs(cohered - want)) <= 1e-12


def test_criterion_5_moebius_inversion():
    with criterion(5, "coherence projectors re-sum to the full projector (N<=5)"):
        families = [classical_family(d) for d in (1, 2, 3, 4, 5)]
        families += [quantum_family(d) for d in (2, 3, 4, 5)]
        families += [synthetic_family(4, 3), synthetic_family(5, 2), synthetic_family(5, 5)]
        for family in families:
            total = np.zeros((family.dim, family.dim))
            for key in subsets(family.n_slits, min_size=1):
                total += coherence_projector(family, key)
            full = family.projector(frozenset(range(family.n_slits)))
            assert np.max(np.abs(total - full)) <= 1e-12


def _parity_machine():
    return AffineMachine(
        states=frozenset({"q0", "q1", "acc", "rej"}), initial="q0", accept="acc",
        reject="rej", blank="_", alphabet=frozenset("01_"),
        transitions={
            ("q0", "0"): (Branch("q0", "0", "R", 1.0),),
            ("q0", "1"): (Branch("q1", "1", "R", 1.0),),
            ("q1", "0"): (Branch("q1", "0", "R", 1.0),),
            ("q1", "1"): (Branch("q0", "1", "R", 1.0),),
            ("q0", "_"): (Branch("rej", "_", "S", 1.0),),
            ("q1", "_"): (Branch("acc", "_", "S", 1.0),),
        })


def test_criterion_6_affine_machine_semantics():
    with criterion(6, "machine weights: direct simulation, 2+(-1)=1, sqrt(5) flag, conservation"):
        # deterministic machine against a hand-rolled run
        machine = _parity_machine()
        for x in ("", "1", "0110", "10101", "111"):
            direct = 1.0 if x.count("1") % 2 else 0.0
            assert acceptance_weight(machine, x, len(x) + 2) == direct

        # probabilistic machine against Monte Carlo at 3 sigma
        coin = AffineMachine(
            states=frozenset({"q0", "q1", "acc", "rej"}), initial="q0", accept="acc",
            reject="rej", blank="_", alphabet=frozenset("01_"),
            transitions={
                ("q0", "_"): (Branch("acc", "_", "S", 0.5), Branch("q1", "_", "S", 0.5)),
                ("q1", "_"): (Branch("acc", "_", "S", 0.5), Branch("rej", "_", "S", 0.5)),
            })
        alpha = acceptance_weight(coin, "", 3)
        assert alpha == 0.75
        shots = 4000
        estimate = monte_carlo_acceptance(coin, "", shots, np.random.default_rng(6))
        assert abs(estimate - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / shots)

        # the 2/-1 branching example: weight exactly 1, norm excursion sqrt(5)
        branchy = AffineMachine(
            states=frozenset({"q0", "q1", "acc", "rej"}), initial="q0", accept="acc",
            reject="rej", blank="_", alphabet=frozenset("01_"),
            transitions={
                ("q0", "_"): (Branch("acc", "_", "S", 2.0), Branch("q1", "_", "S", -1.0)),
                ("q1", "_"): (Branch("acc", "_", "S", 1.0),),
            })
        assert acceptance_weight(branchy, "", 3) == 1.0
        trace = norm_trace(branchy, "", 3)
        assert abs(trace.norms[1] - math.sqrt(5.0)) <= 1e-12
        assert trace.flagged_steps == [1]

        # weight conservation across 10^4 random validated machines
        rng = np.random.default_rng(66)
        for _ in range(10_000):
            m = random_machine(rng)  # valid: AffineMachine checks its invariants when built
            v = {initial_configuration(m, ""): 1.0}
            for _ in range(2):
                v = step(m, v)
                assert abs(sum(v.values()) - 1.0) <= 1e-12


def test_criterion_7_bridge_equivalence(corpus):
    with criterion(7, "affine-program weight equals circuit acceptance probability"):
        acceptor = Acceptor("parity-of-labels")
        for circuits in corpus.values():
            for c in circuits:
                got = circuit_to_affine_program(c, acceptor).acceptance_weight()
                want = acceptance_prob(c, acceptor)
                assert abs(got - want) <= 1e-9


def test_criterion_8_normalization_and_foliation_invariance(corpus):
    with criterion(8, "distributions sum to 1 and agree across foliations"):
        for circuits in corpus.values():
            for c in circuits:
                greedy = distribution(c, foliation=foliate(c, "greedy"))
                assert abs(sum(greedy.values()) - 1.0) <= 1e-9
                single = distribution(c, foliation=foliate(c, "singletons"))
                for z, p in greedy.items():
                    assert abs(single[z] - p) <= 1e-12


def test_criterion_9_parity_queries():
    with criterion(9, "parity solved on every table with ceil(N/2) oracle uses"):
        start = time.perf_counter()
        for n in range(2, 9):
            for bits in itertools.product((0, 1), repeat=n):
                f = OracleFunction(bits)
                quantum = parity_quantum(f)
                classical = parity_classical(f)
                assert quantum.result == classical.result == sum(bits) % 2
                assert quantum.query_count == math.ceil(n / 2)
                assert classical.query_count == n
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"parity sweep took {elapsed:.1f}s"


def test_criterion_10_grover_success():
    with criterion(10, "search: certain at N=4, >=0.9 at the square-root iteration count"):
        table4 = (0, 0, 1, 0)
        out = grover_search(OracleFunction(table4), iterations=1)
        assert abs(out.success_probability - 1.0) <= 1e-9

        for n in (16, 64, 256):
            table = [0] * n
            table[n // 3] = 1
            iters = int(math.pi / 4 * math.sqrt(n))
            out = grover_search(OracleFunction(tuple(table)))
            assert out.query_count == iters
            assert out.success_probability >= 0.9
            assert abs(out.success_probability
                       - grover_success_probability(n, iters)) <= 1e-9


def test_criterion_11_chsh():
    with criterion(11, "CHSH: PR box 4, singlet 2*sqrt(2), product gbits at most 2"):
        boxworld = boxworld_gbit()
        settings = gbit_fiducial_settings(boxworld)
        assert chsh_value(boxworld, boxworld.state("pr_box"), settings) == 4.0

        qubit = quantum_theory(2)
        got = chsh_value(qubit, qubit.state("psi_minus"), tsirelson_settings(qubit))
        assert abs(got - 2 * math.sqrt(2)) <= 1e-9

        vertices = ("v00", "v01", "v10", "v11")
        for na, nb in itertools.product(vertices, repeat=2):
            s = product_state(boxworld, [boxworld.state(na), boxworld.state(nb)])
            assert abs(chsh_value(boxworld, s, settings)) <= 2.0 + 1e-9


def test_criterion_12_fiducial_counting():
    with criterion(12, "measurement counting matches binomials and its leading order"):
        for n_sys in range(1, 31):
            for n in range(1, min(n_sys, 5) + 1):
                for k in (1, 2, 3):
                    want = k * math.factorial(n_sys) // (
                        math.factorial(n) * math.factorial(n_sys - n))
                    assert fiducial_count(k, n_sys, n) == want
        # brute-force subset enumeration for small sizes
        for n_sys in range(1, 13):
            for n in range(1, n_sys + 1):
                count = sum(1 for _ in itertools.combinations(range(n_sys), n))
                assert fiducial_count(1, n_sys, n) == count
        # leading order k/n! within 15% at N=30 for n <= 3
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                ratio = fiducial_count(k, 30, n) / 30**n
                assert abs(ratio - k / math.factorial(n)) / (k / math.factorial(n)) < 0.15
