"""How much of a joint system n-local measurements can see.

``n_local_span`` computes the dimension spanned by products of joint effects
on blocks of at most n systems, exactly, as a cover of coordinate axes;
whatever is left over is the tomography defect, with an explicit orthonormal
basis of inaccessible directions.
``distinguish_search`` hunts numerically for strategies separating two
transformations, locally or globally.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import TransformationMatrix
from .errors import CapacityError, GptLabError, TypeMismatchError
from .theories import TheoryDescriptor

# The largest composite dimension n_local_span takes by default.
DEFAULT_SPAN_CAP = 4096

# The most decimal digits a fiducial count may have: the default limit of
# Python's int-to-text conversion, so every count fiducial_count returns prints.
MAX_COUNT_DIGITS = 4300


@dataclass
class TomographyReport:
    theory: str
    n_systems: int
    locality: int
    composite_dim: int
    n_local_span_dim: int
    defect: int
    defect_basis: np.ndarray  # (defect, composite_dim), orthonormal rows

    def summary(self) -> str:
        return (f"{self.theory}: N={self.n_systems} n={self.locality} "
                f"composite dim {self.composite_dim}, span {self.n_local_span_dim}, "
                f"defect {self.defect}")


def _partitions(items: Sequence[int], max_block: int) -> Iterator[list[tuple[int, ...]]]:
    """Set partitions of ``items`` with every block of size <= max_block."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(min(max_block, len(items)) - 1, -1, -1):
        for chosen in itertools.combinations(rest, k):
            block = (first,) + chosen
            remaining = [i for i in rest if i not in chosen]
            for tail in _partitions(remaining, max_block):
                yield [block] + tail


def n_local_span(theory: TheoryDescriptor, n_systems: int, locality: int,
                 cap: int = DEFAULT_SPAN_CAP) -> TomographyReport:
    """Span of effects factorizing over blocks of at most ``locality`` systems.

    The spanning set runs over every partition of the N systems into blocks
    of size <= n, taking a full dual basis on each block (linear-hull
    convention). Each product of block basis effects is one joint unit axis
    (the rule's ``product_axes``, then ``permutation_index``), so the span
    dimension counts the axes covered over all partitions and the defect
    basis is the uncovered unit axes in ascending order. No rank is decided,
    so no tolerance enters.
    """
    if not (1 <= locality <= n_systems):
        raise ValueError("need 1 <= locality <= n_systems")
    sys_type = theory.system()
    rule = theory.composite_rule
    types = [sys_type] * n_systems
    composite = rule.composite(types)
    if composite.dim > cap:
        raise CapacityError(f"composite dimension {composite.dim} exceeds cap {cap}")

    covered = np.zeros(composite.dim, dtype=bool)
    for partition in _partitions(list(range(n_systems)), locality):
        block_types = [rule.composite([sys_type] * len(block)) for block in partition]
        choices = np.indices([bt.dim for bt in block_types]).reshape(len(partition), -1)
        axes = rule.product_axes(block_types, choices)  # axes in block order, moved to wire order
        covered[rule.permutation_index(types, [i for b in partition for i in b])[axes]] = True

    rank = int(covered.sum())
    return TomographyReport(theory.name, n_systems, locality, composite.dim, rank,
                            composite.dim - rank, defect_basis=np.eye(composite.dim)[~covered])


def fiducial_count(k: int, n_systems: int, locality: int) -> int:
    """Measurements needed for n-local tomography of N systems: k * C(N, n).

    Raises ValueError for a count of more than MAX_COUNT_DIGITS digits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (1 <= locality <= n_systems):
        raise ValueError("need 1 <= locality <= n_systems")
    m = min(locality, n_systems - locality)
    # C(N, m) >= (N / m)**m. A count this bound puts over a digit past the cap
    # (slack for rounding) is never computed; any other has under 11,000 digits.
    bound = math.log10(k) + m * (math.log10(n_systems) - math.log10(m)) if m else 0.0
    if (bound > MAX_COUNT_DIGITS + 1
            or (count := k * math.comb(n_systems, m)) >= 10**MAX_COUNT_DIGITS):
        raise ValueError(f"the count has more than {MAX_COUNT_DIGITS} digits")
    return count


# ---------------------------------------------------------------------------
# transformation discrimination


@dataclass
class SeparationReport:
    separation: float
    best_state: str
    best_effect: str
    locality: str
    evaluations: int


def distinguish_search(theory: TheoryDescriptor,
                       t: TransformationMatrix,
                       u: TransformationMatrix,
                       locality: str = "local",
                       seed: int = 0,
                       n_random: int = 10_000) -> SeparationReport:
    """Largest |e((T x I)s) - e((U x I)s)| found over a strategy class.

    Local strategies run product states against product effects, drawn from
    the theory's deterministic grid plus ``n_random`` random samples; global
    strategies additionally use the theory's library of joint states and
    joint effects on the pair. A search cannot prove indistinguishability,
    only bound the separation over the strategies tried. ``n_random`` must be
    an integer (a bool is not); anything else raises ``ValueError``.
    """
    try:
        if isinstance(n_random, bool):  # operator.index would take it as 0 or 1
            raise TypeError
        n_random = operator.index(n_random)
    except TypeError:
        raise ValueError(f"n_random must be an integer, got {n_random!r}") from None
    if n_random < 0:
        raise ValueError("n_random must be >= 0")
    if locality not in ("local", "global"):
        raise ValueError("locality must be 'local' or 'global'")
    if (t.input, t.output) != (u.input, u.output):
        raise TypeMismatchError("the two transformations have different signatures")
    if theory.strategies is None:
        raise GptLabError(f"theory '{theory.name}' provides no strategy hooks")
    sys_type = theory.system()
    if (t.input, t.output) != (sys_type, sys_type):
        raise TypeMismatchError(f"the transformations must map '{sys_type.label}' to itself, "
                                f"got '{t.input.label}' -> '{t.output.label}'")
    rule = theory.composite_rule
    pair_type = rule.composite([sys_type, sys_type])
    ident = rule.identity(sys_type)
    diff = rule.parallel_matrix([t, ident]) - rule.parallel_matrix([u, ident])

    hooks = theory.strategies
    rng = np.random.default_rng(seed)
    types = [sys_type, sys_type]

    def hook_rows(name: str, coords, want: tuple[int, int]) -> np.ndarray:
        coords = np.asarray(coords)
        if coords.shape != want:
            raise ValueError(f"strategy hook {name} returned shape {coords.shape}, "
                             f"expected {want}")
        return coords

    def grid_pairs(name: str) -> tuple[list[str], np.ndarray]:
        """The grid's names and the products of every ordered pair of its rows, in
        itertools.product order: product i has factor a = i // n and factor b = i % n."""
        grid = getattr(hooks, name)()
        if len(grid) != 2:
            raise ValueError(f"strategy hook {name} returned {len(grid)} items, "
                             f"expected (names, rows)")
        names, rows = grid
        n = len(names)
        rows = hook_rows(name, rows, (n, sys_type.dim))
        return names, rule.product_coords(types, [np.repeat(rows, n, axis=0),
                                                  np.tile(rows, (n, 1))])

    grid_state_names, grid_states = grid_pairs("state_grid")
    grid_effect_names, grid_effects = grid_pairs("effect_grid")
    state_cols, effect_rows = [grid_states.T], [grid_effects]
    joint_state_names, joint_effect_names = [], []  # global strategies, after the grid pairs

    if locality == "global":
        for name, s in theory.states.items():
            if s.system == pair_type:
                state_cols.append(s.coords)
                joint_state_names.append(name)
        for name, e in theory.effects.items():
            if e.system == pair_type:
                effect_rows.append(e.coords)
                joint_effect_names.append(name)

    def name_of(grid_names: Sequence[str], joint_names: list[str], i: int) -> str:
        n = len(grid_names)
        if i < n * n:
            return f"{grid_names[i // n]}⊗{grid_names[i % n]}"
        return joint_names[i - n * n]

    # one (effects, states) array, made absolute in place; best is its value at argmax
    grid_vals = np.vstack(effect_rows) @ diff @ np.column_stack(state_cols)
    np.abs(grid_vals, out=grid_vals)
    ei, si = divmod(int(grid_vals.argmax()), grid_vals.shape[1])
    best = float(grid_vals[ei, si])
    best_state = name_of(grid_state_names, joint_state_names, si)
    best_effect = name_of(grid_effect_names, joint_effect_names, ei)
    evaluations = grid_vals.size

    def random_pairs(name: str) -> np.ndarray:
        """``n_random`` products of two samples from one sampler call: sample 2i is
        product i's factor a, sample 2i+1 its factor b."""
        want = (2 * n_random, sys_type.dim)
        coords = hook_rows(name, getattr(hooks, name)(rng, want[0]), want)
        return rule.product_coords(types, coords.reshape(n_random, 2, want[1]).swapaxes(0, 1))

    # random product strategies, one quadruple per sample, every state drawn before
    # any effect; the states' (dim, n_random) layout fixes einsum's summation order
    rs = np.ascontiguousarray(random_pairs("random_states").T)
    re = random_pairs("random_effects")
    rand_vals = np.einsum("ij,ji->i", re @ diff, rs)
    np.abs(rand_vals, out=rand_vals)
    evaluations += rand_vals.size
    if rand_vals.size:
        i = int(rand_vals.argmax())
        if rand_vals[i] > best:
            best = float(rand_vals[i])
            best_state, best_effect = f"random[{i}]", f"random[{i}]"

    return SeparationReport(best, best_state, best_effect, locality, evaluations)
