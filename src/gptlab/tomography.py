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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import TransformationMatrix
from .errors import CapacityError, GptLabError, TypeMismatchError
from .theories import TheoryDescriptor

# The largest composite dimension n_local_span takes by default.
DEFAULT_SPAN_CAP = 4096

# The most entries n_local_span lets one of its arrays hold, whatever the cap:
# a defect basis at the default cap holds at most this many.
MAX_SPAN_ENTRIES = DEFAULT_SPAN_CAP**2

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
    so no tolerance enters. The scan stops once every axis is covered: at
    n = N, after the first partition, the one block of all N systems.

    Past ``cap`` coordinates, or when its index arrays (N entries per
    coordinate) or the defect basis would hold more than
    ``MAX_SPAN_ENTRIES`` entries, it raises ``CapacityError`` before
    allocating them.
    """
    if not (1 <= locality <= n_systems):
        raise ValueError("need 1 <= locality <= n_systems")
    sys_type = theory.system()
    rule = theory.composite_rule
    # A composite has at least d^N coordinates, so a type of dimension d >= 2 is
    # checked before the N types are listed, with no such dimension formatted.
    d = sys_type.dim
    if d >= 2 and (n_systems > cap.bit_length() or d**n_systems > cap):
        raise CapacityError(f"{n_systems} systems of dimension {d} exceed cap {cap}: "
                            f"the composite has at least {d}^{n_systems} coordinates")
    if n_systems * d**n_systems > MAX_SPAN_ENTRIES:
        raise CapacityError(f"{n_systems} systems of dimension {d} need index arrays of more "
                            f"than {MAX_SPAN_ENTRIES} entries")
    types = [sys_type] * n_systems
    composite = rule.composite(types)
    if composite.dim > cap:
        raise CapacityError(f"composite dimension {composite.dim} exceeds cap {cap}")
    if n_systems * composite.dim > MAX_SPAN_ENTRIES:
        raise CapacityError(f"composite dimension {composite.dim} of {n_systems} systems needs "
                            f"index arrays of more than {MAX_SPAN_ENTRIES} entries")

    covered = np.zeros(composite.dim, dtype=bool)
    for partition in _partitions(list(range(n_systems)), locality):
        block_types = [rule.composite([sys_type] * len(block)) for block in partition]
        choices = np.indices([bt.dim for bt in block_types]).reshape(len(partition), -1)
        axes = rule.product_axes(block_types, choices)  # axes in block order, moved to wire order
        covered[rule.permutation_index(types, [i for b in partition for i in b])[axes]] = True
        if covered.all():  # a later partition only covers axes again
            break

    defect = np.flatnonzero(~covered)
    if len(defect) * composite.dim > MAX_SPAN_ENTRIES:
        raise CapacityError(f"a defect basis of {len(defect)} x {composite.dim} entries is more "
                            f"than {MAX_SPAN_ENTRIES}")
    basis = np.zeros((len(defect), composite.dim))  # the unit rows of the uncovered axes
    basis[np.arange(len(defect)), defect] = 1.0
    return TomographyReport(theory.name, n_systems, locality, composite.dim,
                            composite.dim - len(defect), len(defect), defect_basis=basis)


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

    Product strategies are evaluated through their single-system factors,
    without forming product coordinates; ``evaluations`` counts the strategy
    pairs covered.
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
    # (T x I) - (U x I) as the rule extends T and U to the pair; building it also
    # rejects a transformation the rule cannot extend (a rebit outcome without Kraus data)
    diff = rule.parallel_matrix([t, ident]) - rule.parallel_matrix([u, ident])

    hooks = theory.strategies
    rng = np.random.default_rng(seed)
    d = sys_type.dim

    def hook_rows(name: str, coords, want: tuple[int, int]) -> np.ndarray:
        coords = np.asarray(coords)
        if coords.shape != want:
            raise ValueError(f"strategy hook {name} returned shape {coords.shape}, "
                             f"expected {want}")
        return coords

    def grid(name: str) -> tuple[list[str], np.ndarray]:
        grid = getattr(hooks, name)()
        if len(grid) != 2:
            raise ValueError(f"strategy hook {name} returned {len(grid)} items, "
                             f"expected (names, rows)")
        names, rows = grid
        return names, hook_rows(name, rows, (len(names), d))

    state_names, states = grid("state_grid")
    effect_names, effects = grid("effect_grid")
    n_s, n_e = len(state_names), len(effect_names)

    # Every product of unit vectors is one joint unit axis, so a product a⊗b has
    # the coordinates a_i b_k on axis ax[i * d + k] and zeros elsewhere; diff's
    # block on the axes whose second factor is unit vector 0 is T - U, as the
    # rule extends them.
    ax = rule.product_axes([sys_type, sys_type], np.indices((d, d)).reshape(2, -1))
    local = diff[np.ix_(ax[::d], ax[::d])]

    # The strategy pairs form one (n_e^2 + J_e, n_s^2 + J_s) array of values: grid
    # products (product i has factors i // n and i % n) before the J library
    # entries on the pair, which only global strategies use. Each block is searched
    # on its own and gives (value, row, col) for its first largest |value|.
    def first_max(vals: np.ndarray, row0: int = 0, col0: int = 0) -> tuple[float, int, int]:
        r, c = divmod(int(vals.argmax()), vals.shape[1])
        return float(vals[r, c]), row0 + r, col0 + c

    # grid x grid: each value factorises as (e_a (T - U) s_a)(e_b s_b), so the best
    # is the product of the maxima of two (n_e, n_s) tables and the first winner
    # pairs the first maximiser of each
    x_best, ea, sa = first_max(np.abs(effects @ local @ states.T))
    y_best, eb, sb = first_max(np.abs(effects @ states.T))
    best = x_best * y_best
    blocks = [(best, ea * n_e + eb, sa * n_s + sb) if best else (0.0, 0, 0)]
    joint_state_names, joint_effect_names = [], []

    if locality == "global":
        joint_states = {n: s.coords for n, s in theory.states.items() if s.system == pair_type}
        joint_effects = {n: e.coords for n, e in theory.effects.items() if e.system == pair_type}
        joint_state_names, joint_effect_names = list(joint_states), list(joint_effects)
        sj = np.array(list(joint_states.values())).reshape(-1, pair_type.dim)
        ej = np.array(list(joint_effects.values())).reshape(-1, pair_type.dim)
        # against a joint state s_J, the product effects read the bilinear form
        # (diff s_J)[ax] on their factors; against a joint effect e_J, the product
        # states read (e_J diff)[ax]
        if len(sj):  # (J_s, n_e, n_e) tables, as the (n_e^2, J_s) block
            forms = (diff @ sj.T)[ax].T.reshape(-1, d, d)
            vals = np.abs(effects @ forms @ effects.T).reshape(len(sj), -1).T
            blocks.append(first_max(vals, 0, n_s * n_s))
        if len(ej):  # (J_e, n_s, n_s) tables, as the (J_e, n_s^2) block
            forms = (ej @ diff)[:, ax].reshape(-1, d, d)
            blocks.append(first_max(np.abs(states @ forms @ states.T).reshape(len(ej), -1),
                                    n_e * n_e, 0))
        if len(sj) and len(ej):
            blocks.append(first_max(np.abs(ej @ diff @ sj.T), n_e * n_e, n_s * n_s))

    # the largest value, at its first position in the array's row-major order
    best, ei, si = max(blocks, key=lambda b: (b[0], -b[1], -b[2]))

    def name_of(grid_names: Sequence[str], joint_names: list[str], i: int) -> str:
        n = len(grid_names)
        if i < n * n:
            return f"{grid_names[i // n]}⊗{grid_names[i % n]}"
        return joint_names[i - n * n]

    best_state = name_of(state_names, joint_state_names, si)
    best_effect = name_of(effect_names, joint_effect_names, ei)
    evaluations = (n_e * n_e + len(joint_effect_names)) * (n_s * n_s + len(joint_state_names))

    # random product strategies, one quadruple per sample, every state drawn before
    # any effect: samples 2i and 2i+1 are product i's factors a and b
    want = (2 * n_random, d)
    rs = hook_rows("random_states", hooks.random_states(rng, want[0]), want)
    re = hook_rows("random_effects", hooks.random_effects(rng, want[0]), want)
    rand_vals = np.einsum("ij,ij->i", re[0::2] @ local, rs[0::2])
    rand_vals *= np.einsum("ij,ij->i", re[1::2], rs[1::2])
    np.abs(rand_vals, out=rand_vals)
    evaluations += rand_vals.size
    if rand_vals.size:
        i = int(rand_vals.argmax())
        if rand_vals[i] > best:
            best = float(rand_vals[i])
            best_state, best_effect = f"random[{i}]", f"random[{i}]"

    return SeparationReport(best, best_state, best_effect, locality, evaluations)
