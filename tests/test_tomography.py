"""Local-effect spans, tomography defects, fiducial counting, discrimination."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import (EffectVector, StateVector, classical_theory, real_quantum_theory,
                    tomography)
from gptlab.errors import CapacityError, GptLabError, TypeMismatchError
from gptlab.theories import RebitRule, StrategyHooks
from gptlab.tomography import distinguish_search, fiducial_count, n_local_span

from conftest import (
    all_theories,
    defect_direction_overlap,
    kraus_product_coords,
    reference_distinguish_search,
    reference_n_local_span,
    reference_product_coords,
    reference_strategy_value,
)

THEORIES = all_theories()
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def test_two_qubit_local_tomography(qubit):
    rep = n_local_span(qubit, 2, 1)
    assert (rep.composite_dim, rep.n_local_span_dim, rep.defect) == (16, 16, 0)


def test_two_rebit_defect_and_bilocality(rebit):
    rep1 = n_local_span(rebit, 2, 1)
    assert (rep1.composite_dim, rep1.n_local_span_dim, rep1.defect) == (10, 9, 1)
    rep2 = n_local_span(rebit, 2, 2)
    assert (rep2.composite_dim, rep2.n_local_span_dim, rep2.defect) == (10, 10, 0)


def test_two_rebit_defect_basis_is_global_direction(rebit):
    rep = n_local_span(rebit, 2, 1)
    axis = np.zeros(10)
    axis[9] = 1.0  # the global Y x Y coordinate, beyond the 9 local products
    assert abs(rep.defect_basis @ axis)[0] == pytest.approx(1.0, abs=1e-9)


def test_three_rebits_defect_drops_at_bilocality(rebit):
    rep1 = n_local_span(rebit, 3, 1)
    assert (rep1.composite_dim, rep1.n_local_span_dim, rep1.defect) == (36, 27, 9)
    rep2 = n_local_span(rebit, 3, 2)
    assert rep2.defect == 0
    rep5 = n_local_span(rebit, 5, 1)  # the local defect stays dim - 3^N past three rebits
    assert (rep5.composite_dim, rep5.n_local_span_dim, rep5.defect) == (528, 243, 285)


def test_six_rebits_span_at_every_locality(rebit):
    reps = [n_local_span(rebit, 6, n) for n in (1, 2, 3)]
    assert [(r.composite_dim, r.n_local_span_dim, r.defect) for r in reps] == \
        [(2080, 729, 1351), (2080, 2080, 0), (2080, 2080, 0)]
    assert [r.defect_basis.shape for r in reps] == [(1351, 2080), (0, 2080), (0, 2080)]


def test_span_monotone_in_locality(rebit, qubit):
    for theory, n_sys in ((rebit, 2), (qubit, 2)):
        dims = [n_local_span(theory, n_sys, n).n_local_span_dim
                for n in range(1, n_sys + 1)]
        assert dims == sorted(dims)
        assert dims[-1] == n_local_span(theory, n_sys, n_sys).composite_dim


def test_classical_and_boxworld_are_locally_tomographic(classical2, boxworld, qubit):
    for theory, max_n in ((classical2, 4), (boxworld, 3), (qubit, 3)):
        for n_sys in range(2, max_n + 1):
            rep = n_local_span(theory, n_sys, 1)
            assert rep.defect == 0, theory.name


def test_defect_overlap_examples(rebit):
    rep = n_local_span(rebit, 2, 1)
    yy = np.zeros(10)
    yy[9] = 1.0
    assert defect_direction_overlap(rep, yy) >= 1 - 1e-9

    rule = rebit.composite_rule
    prod = rule.product_state_coords([rebit.state("plus"), rebit.state("zero")])
    assert defect_direction_overlap(rep, prod) <= 1e-9

    with pytest.raises(ValueError):
        defect_direction_overlap(rep, np.zeros(10))

    rep0 = n_local_span(rebit, 2, 2)
    with pytest.raises(GptLabError):
        defect_direction_overlap(rep0, yy)


def test_capacity_cap(rebit):
    with pytest.raises(CapacityError):
        n_local_span(rebit, 5, 1, cap=100)


def test_a_full_span_builds_no_dense_identity(classical2):
    # twelve classical bits fill the default cap; their (0, 4096) defect basis
    # was cut from a 4096 x 4096 identity (128 MiB)
    tracemalloc.start()
    try:
        rep = n_local_span(classical2, 12, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.defect_basis.shape == (0, 4096) and rep.n_local_span_dim == 4096
    assert peak < 8 * 2**20, peak


def test_defect_basis_holds_the_unit_rows_of_the_uncovered_axes(rebit):
    rep = n_local_span(rebit, 3, 1)
    want = np.eye(rep.composite_dim)[np.abs(rep.defect_basis).sum(axis=0) > 0]
    assert rep.defect_basis.tobytes() == want.tobytes() and len(want) == rep.defect == 9


def test_n_local_span_stops_once_every_axis_is_covered(monkeypatch, classical2, rebit):
    # twelve bits at n = 12 have Bell(12) = 4,213,597 partitions; the first, one
    # block of all twelve, covers every axis
    full, drawn = tomography._partitions, []

    def counted(items, max_block):  # the recursion comes through here too
        for partition in full(items, max_block):
            drawn.append(len(items))  # so a partition of all N items counts as drawn
            yield partition

    monkeypatch.setattr(tomography, "_partitions", counted)
    rep = n_local_span(classical2, 12, 12)
    assert drawn.count(12) == 1 and (rep.n_local_span_dim, rep.defect) == (4096, 0)
    # rebit reports, cut short or not, equal a scan of every partition
    cut_short = 0
    for n_sys, n in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]:
        drawn.clear()
        got, want = n_local_span(rebit, n_sys, n), reference_n_local_span(rebit, n_sys, n)
        assert (got.n_local_span_dim, got.defect) == (want.n_local_span_dim, want.defect)
        assert got.defect_basis.tobytes() == want.defect_basis.tobytes()
        cut_short += drawn.count(n_sys) < len(list(full(list(range(n_sys)), n)))
    assert cut_short


@pytest.mark.parametrize("theory, n_sys, cap, match", [
    (classical_theory(2), 100, 10**40, "100 systems of dimension 2 need index arrays"),
    (classical_theory(1), 10**9, 4096, "1000000000 systems of dimension 1 need index arrays"),
    (real_quantum_theory(2), 11, 10**7, "composite dimension 2098176 of 11 systems needs"),
    (real_quantum_theory(2), 7, 10**5, "defect basis of 6069 x 8256 entries"),
])
def test_n_local_span_refuses_arrays_past_its_entry_bound(theory, n_sys, cap, match):
    # each within its cap, but with an array past MAX_SPAN_ENTRIES
    assert tomography.MAX_SPAN_ENTRIES == 4096**2
    with pytest.raises(CapacityError, match=match):
        n_local_span(theory, n_sys, 1, cap=cap)


def test_fiducial_count_formula():
    assert fiducial_count(3, 4, 2) == 18
    for k in (1, 2, 5):
        for n_sys in (1, 3, 6):
            assert fiducial_count(k, n_sys, n_sys) == k
    assert fiducial_count(1, 6, 1) == 6
    # exact binomial arithmetic, independently computed from factorials
    for n_sys in range(1, 31):
        for n in range(1, min(n_sys, 4) + 1):
            want = 2 * math.factorial(n_sys) // (math.factorial(n) * math.factorial(n_sys - n))
            assert fiducial_count(2, n_sys, n) == want
    with pytest.raises(ValueError):
        fiducial_count(0, 3, 1)
    with pytest.raises(ValueError):
        fiducial_count(1, 3, 4)


def test_fiducial_count_digit_cap():
    cap = tomography.MAX_COUNT_DIGITS
    assert len(str(fiducial_count(10**cap - 1, 1, 1))) == cap
    # C(10^2150, 2) has cap digits; C(10^2151, 2) is past the cap by the bound
    # (N / 2)^2, so it is never computed; neither is C(2 * 10^6, 10^6)
    assert len(str(fiducial_count(1, 10**2150, 2))) == cap
    assert len(str(fiducial_count(1, 10**2150, 10**2150 - 2))) == cap
    for args in ((10**cap, 1, 1), (10, 10**2150, 2), (1, 10**2151, 2), (1, 20000, 10000),
                 (1, 2 * 10**6, 10**6)):
        with pytest.raises(ValueError, match=f"more than {cap} digits"):
            fiducial_count(*args)


def test_fiducial_count_leading_order():
    # count / N^n approaches k/n! from below as N grows
    k = 3
    for n in (1, 2, 3):
        ratios = [fiducial_count(k, n_sys, n) / n_sys**n for n_sys in (10, 20, 30)]
        target = k / math.factorial(n)
        deviations = [abs(r - target) / target for r in ratios]
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 0.15


def test_distinguish_search_local_vs_global(rebit):
    t1 = rebit.gate("t1").outcomes["0"]
    t2 = rebit.gate("t2").outcomes["0"]
    local = distinguish_search(rebit, t1, t2, locality="local", seed=1, n_random=2000)
    assert local.separation <= 1e-12

    global_ = distinguish_search(rebit, t1, t2, locality="global", seed=1, n_random=2000)
    assert global_.separation == pytest.approx(0.5, abs=1e-12)
    assert global_.best_state == "phi_plus"
    assert global_.best_effect.startswith("joint")


def test_distinguish_search_symmetric_and_reflexive(rebit):
    t1 = rebit.gate("t1").outcomes["0"]
    t2 = rebit.gate("t2").outcomes["0"]
    ab = distinguish_search(rebit, t1, t2, locality="global", seed=3, n_random=500)
    ba = distinguish_search(rebit, t2, t1, locality="global", seed=3, n_random=500)
    assert ab.separation == pytest.approx(ba.separation, abs=1e-12)

    same = distinguish_search(rebit, t1, t1, locality="global", seed=3, n_random=500)
    assert same.separation == 0.0


def test_distinguish_search_finds_quantum_difference(qubit):
    x = qubit.gate("x").outcomes["0"]
    ident = qubit.gate("id").outcomes["0"]
    rep = distinguish_search(qubit, x, ident, locality="local", seed=0, n_random=200)
    assert rep.separation == pytest.approx(1.0, abs=1e-9)


def test_distinguish_search_signature_mismatch(rebit, qubit):
    with pytest.raises(TypeMismatchError):
        distinguish_search(rebit, rebit.gate("t1").outcomes["0"],
                           qubit.gate("x").outcomes["0"])
    # both must map the theory's single system type to itself
    cnot, p0 = qubit.gate("cnot").outcomes["0"], qubit.gate("measure").outcomes["0"]
    t1 = rebit.gate("t1").outcomes["0"]
    for theory, t in ((qubit, cnot), (qubit, p0), (qubit, t1)):
        with pytest.raises(TypeMismatchError):
            distinguish_search(theory, t, t)


def test_distinguish_search_extends_both_transformations_through_the_rule(rebit):
    # the search reads T x I and U x I as the rule builds them, in both localities,
    # and the rebit rule needs Kraus data to build them
    t1 = rebit.gate("t1").outcomes["0"]
    t2 = rebit.gate("t2").outcomes["0"]
    bare = dataclasses.replace(t1, kraus=None)
    for locality in ("local", "global"):
        for t, u in ((bare, t2), (t2, bare)):
            with pytest.raises(GptLabError, match="lacks operator"):
                distinguish_search(rebit, t, u, locality, n_random=5)


def test_distinguish_search_n_random_edge_cases(rebit):
    t1 = rebit.gate("t1").outcomes["0"]
    t2 = rebit.gate("t2").outcomes["0"]
    for locality in ("local", "global"):
        grid_only = distinguish_search(rebit, t1, t2, locality, seed=1, n_random=0)
        assert grid_only == reference_distinguish_search(rebit, t1, t2, locality, 1, 0)
        assert grid_only.evaluations == distinguish_search(
            rebit, t1, t2, locality, seed=1, n_random=3).evaluations - 3
    assert distinguish_search(rebit, t1, t2, "global", n_random=0).separation == \
        pytest.approx(0.5, abs=1e-12)
    assert distinguish_search(rebit, t1, t2, "local", seed=4, n_random=np.int64(7)) == \
        distinguish_search(rebit, t1, t2, "local", seed=4, n_random=7)
    for n_random in (-1, -5):
        with pytest.raises(ValueError, match="n_random must be >= 0"):
            distinguish_search(rebit, t1, t2, n_random=n_random)


def test_distinguish_search_checks_inputs_before_any_work(rebit):
    t1 = rebit.gate("t1").outcomes["0"]
    t2 = rebit.gate("t2").outcomes["0"]

    def untouched(*args):
        raise AssertionError("a strategy hook ran")

    idle = dataclasses.replace(rebit, strategies=StrategyHooks(untouched, untouched,
                                                               untouched, untouched))
    for locality in ("nonlocal", "Local", ""):
        with pytest.raises(ValueError, match="locality must be 'local' or 'global'"):
            distinguish_search(idle, t1, t2, locality=locality)
    for n_random in (2.5, True, "3", np.True_, None):
        with pytest.raises(ValueError, match="n_random must be an integer"):
            distinguish_search(idle, t1, t2, n_random=n_random)
    with pytest.raises(ValueError, match="n_random must be >= 0"):
        distinguish_search(idle, t1, t2, n_random=np.int64(-1))

    # a grid must return (names, rows), with one row of dim coordinates per name;
    # a list of (name, vector) pairs was the grid's shape before
    hooks = rebit.strategies
    names, rows = hooks.state_grid()
    pairs = [(n, StateVector(rebit.system(), r)) for n, r in zip(names, rows)]
    for name, bad, match in (("state_grid", lambda: (names, rows[:, :2]), "shape"),
                             ("effect_grid", lambda: (names[1:], rows), "shape"),
                             ("state_grid", lambda: (names, rows.ravel()), "shape"),
                             ("effect_grid", lambda: pairs, "25 items"),
                             ("state_grid", lambda: pairs[:2], "shape")):
        theory = dataclasses.replace(rebit, strategies=dataclasses.replace(hooks, **{name: bad}))
        with pytest.raises(ValueError, match=f"strategy hook {name} returned {match}"):
            distinguish_search(theory, t1, t2, n_random=5)

    # a sampler must return (2 * n_random, dim): two factors per product
    for name, bad in (("random_states", lambda rng, n: np.zeros((n, 4))),
                      ("random_effects", lambda rng, n: np.zeros(3 * n)),
                      ("random_states", lambda rng, n: np.zeros((n // 2, 3)))):
        theory = dataclasses.replace(rebit, strategies=dataclasses.replace(hooks, **{name: bad}))
        with pytest.raises(ValueError, match=f"strategy hook {name} returned shape"):
            distinguish_search(theory, t1, t2, n_random=5)


def _factor_types(theory, sizes):
    rule, sys_type = theory.composite_rule, theory.system()
    return [rule.composite([sys_type] * k) for k in sizes]


@PROPERTY
@given(st.sampled_from(THEORIES),
       st.lists(st.integers(1, 2), min_size=0, max_size=3).filter(lambda ks: sum(ks) <= 4),
       st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_product_coords_rows_are_per_sample_products(theory, sizes, batch, seed):
    # random coordinates with some entries set to +0.0 or -0.0
    rng = np.random.default_rng(seed)
    rule = theory.composite_rule
    types = _factor_types(theory, sizes)
    stacks = []
    for t in types:
        coords = rng.normal(size=(batch, t.dim))
        coords[rng.random(coords.shape) < 0.3] = 0.0
        coords[rng.random(coords.shape) < 0.3] = -0.0
        stacks.append(coords)
    got = rule.product_coords(types, stacks)
    assert got.shape == (batch if types else 1, rule.composite(types).dim)
    for b, row in enumerate(got):
        pieces = [StateVector(t, s[b]) for t, s in zip(types, stacks)]
        want = reference_product_coords(rule, pieces)
        assert np.array_equal(row, want) and np.array_equal(np.signbit(row), np.signbit(want))
        if isinstance(rule, RebitRule) and pieces:
            assert np.max(np.abs(row - kraus_product_coords(rule, pieces, sizes))) <= 1e-12
        assert np.array_equal(rule.product_state_coords(pieces), row)


@PROPERTY
@given(st.sampled_from(THEORIES),
       st.lists(st.integers(1, 2), min_size=1, max_size=3).filter(lambda ks: sum(ks) <= 4),
       st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_product_axes_are_the_products_of_unit_axes(theory, sizes, batch, seed):
    # the unit-axis invariant that n_local_span's exact cover rests on
    rng = np.random.default_rng(seed)
    rule = theory.composite_rule
    types = _factor_types(theory, sizes)
    choices = [rng.integers(0, t.dim, size=batch) for t in types]
    units = rule.product_coords(types, [np.eye(t.dim)[c] for t, c in zip(types, choices)])
    want = np.eye(rule.composite(types).dim)[rule.product_axes(types, choices)]
    assert units.shape == want.shape and units.tobytes() == want.tobytes()


@PROPERTY
@given(st.sampled_from(THEORIES),
       st.lists(st.integers(1, 2), min_size=1, max_size=4).filter(lambda ks: sum(ks) <= 4),
       st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_permutation_index_gathers_like_the_permutation_matrix(theory, sizes, random, seed):
    rule = theory.composite_rule
    types = _factor_types(theory, sizes)
    perm = list(range(len(types)))
    random.shuffle(perm)
    idx = rule.permutation_index(types, perm)
    matrix = rule.permutation_matrix(types, perm)
    rng = np.random.default_rng(seed)
    for v in rng.normal(size=(3, rule.composite(types).dim)):
        assert np.array_equal(v[idx], matrix @ v)
    # the gather puts factor perm[i] in slot i
    pieces = [StateVector(t, rng.normal(size=t.dim)) for t in types]
    moved = reference_product_coords(rule, [pieces[p] for p in perm])
    assert np.max(np.abs(rule.product_state_coords(pieces)[idx] - moved)) <= 1e-12


def _endomorphisms(theory):
    sys_type = theory.system()
    return [tm for g in theory.gates.values() for tm in g.outcomes.values()
            if (tm.input, tm.output) == (sys_type, sys_type)]


def _one_entry_grids(theory):
    """The theory with one-entry grids, so that random samples can win."""
    hooks = theory.strategies
    (state_names, states), (effect_names, effects) = hooks.state_grid(), hooks.effect_grid()
    return dataclasses.replace(theory, strategies=dataclasses.replace(
        hooks, state_grid=lambda: (state_names[-1:], states[-1:]),
        effect_grid=lambda: (effect_names[-1:], effects[-1:])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(THEORIES), st.integers(0, 2**16), st.integers(0, 2**16),
       st.sampled_from(["local", "global"]), st.integers(0, 2**32 - 1), st.integers(0, 100),
       st.booleans())
def test_distinguish_search_matches_reference(theory, i, j, locality, seed, n_random, small):
    ts = _endomorphisms(theory)
    t, u = ts[i % len(ts)], ts[j % len(ts)]
    if small:
        theory = _one_entry_grids(theory)
    # the factorised search sums in another order than the per-product reference,
    # so values may move by rounding, and a near-tie may pick another winner
    got = distinguish_search(theory, t, u, locality, seed=seed, n_random=n_random)
    want = reference_distinguish_search(theory, t, u, locality, seed, n_random)
    assert (got.locality, got.evaluations) == (want.locality, want.evaluations)
    bound = 1e-12 * max(1.0, abs(want.separation))
    assert abs(got.separation - want.separation) <= bound
    for rep in (got, want):
        attained = reference_strategy_value(theory, t, u, rep.best_state, rep.best_effect,
                                            seed, n_random)
        assert abs(attained - rep.separation) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(THEORIES), st.integers(0, 2**32 - 1))
def test_distinguish_search_blocks_pick_the_reference_winner(theory, seed):
    # random grids of 1-4 rows and 1-4 random library vectors on each side of the
    # pair, so that grid and library entries both win, against each other and
    # against themselves; continuous random entries leave no near-ties, so the
    # winner's names are the reference's
    rng = np.random.default_rng(seed)
    ts = _endomorphisms(theory)
    t, u = ts[rng.integers(len(ts))], ts[rng.integers(len(ts))]
    hooks = theory.strategies
    pair = theory.composite_rule.composite([theory.system()] * 2)
    n_s, n_e, j_s, j_e = (int(k) for k in rng.integers(1, 5, size=4))
    states, effects = hooks.random_states(rng, n_s), hooks.random_effects(rng, n_e)
    theory = dataclasses.replace(
        theory,
        states={f"joint_state{k}": StateVector(pair, 0.3 * rng.normal(size=pair.dim))
                for k in range(j_s)},
        effects={f"joint_effect{k}": EffectVector(pair, 0.3 * rng.normal(size=pair.dim))
                 for k in range(j_e)},
        strategies=dataclasses.replace(
            hooks, state_grid=lambda: ([f"s{k}" for k in range(n_s)], states),
            effect_grid=lambda: ([f"e{k}" for k in range(n_e)], effects)))
    got = distinguish_search(theory, t, u, "global", seed=seed, n_random=3)
    want = reference_distinguish_search(theory, t, u, "global", seed, 3)
    assert (got.best_state, got.best_effect, got.locality, got.evaluations) == \
        (want.best_state, want.best_effect, want.locality, want.evaluations)
    assert abs(got.separation - want.separation) <= 1e-12 * max(1.0, want.separation)


@pytest.mark.parametrize("theory", THEORIES, ids=lambda th: th.name)
def test_n_local_span_matches_reference(theory):
    cases = [(n_sys, n) for n_sys in (1, 2, 3) for n in range(1, n_sys + 1)]
    if isinstance(theory.composite_rule, RebitRule):
        cases += [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1)]
    for n_sys, n in cases:
        got = n_local_span(theory, n_sys, n)
        want = reference_n_local_span(theory, n_sys, n)
        assert (got.composite_dim, got.n_local_span_dim, got.defect) == \
            (want.composite_dim, want.n_local_span_dim, want.defect)
        assert got.defect_basis.shape == want.defect_basis.shape
        assert got.defect_basis.tobytes() == want.defect_basis.tobytes()
