"""Concrete theory instances: classical, quantum, real-amplitude quantum, Boxworld.

Each constructor returns an immutable :class:`TheoryDescriptor` bundling
system types, a composite rule, a gate library, and small state/effect
libraries. Quantum-like theories represent operators as real coordinate
vectors over an orthonormal Hermitian operator basis, so pairing an effect
with a state is a plain dot product equal to Tr(E rho).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence
from types import SimpleNamespace

import numpy as np

from .circuits import Gate
from .core import (
    ALGEBRA_TOL,
    PHYSICAL_TOL,
    CompositeRule,
    EffectVector,
    KroneckerRule,
    StateVector,
    SystemType,
    TransformationMatrix,
    UNIT,
    _Checked,
    _freeze,
    checked_coords,
    contract_wires,
    kron_rows,
)
from .errors import GptLabError, TypeMismatchError

SQRT2 = math.sqrt(2.0)

# The most coordinates a builtin theory's system type may carry: classical
# d <= 256, quantum d <= 16 (d^2 coordinates). Constructors check it before
# anything is built; the quantum basis alone holds d^2 complex d x d matrices.
MAX_SYSTEM_DIM = 256

PAULI = {
    "I": _freeze(np.eye(2, dtype=complex)),
    "X": _freeze(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _freeze(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _freeze(np.array([[1, 0], [0, -1]], dtype=complex)),
}


@dataclass(frozen=True, eq=False)
class DensityCarrier(_Checked):
    """An orthonormal Hermitian operator basis with vectorisation maps.

    Orthonormality (Tr(B_i B_j) = delta_ij, checked to ALGEBRA_TOL) makes
    ``to_vector`` an isometry: the Euclidean norm of a state's coordinates
    equals sqrt(Tr(rho^2)), so norm monitors downstream are meaningful.

    A carrier is immutable: ``basis`` is a read-only array that cannot be
    made writable or rebound, so one carrier per basis can be shared. The
    built-in theories hold theirs (rebit 1 and 2, quantum d and the qubit
    pair) once per process, and every build of a theory reads the same one.
    """

    basis: np.ndarray  # given as a sequence of matrices, held as one read-only stack

    def __post_init__(self) -> None:
        stack = np.stack([np.asarray(b, dtype=complex) for b in self.basis])
        if not np.isfinite(stack).all():
            raise ValueError("carrier basis entries must be finite")
        # `not x <= tol`, so that a NaN from an overflowing product fails the check
        if not np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) <= ALGEBRA_TOL:
            raise ValueError("carrier basis must be Hermitian")
        gram = np.einsum("aij,bji->ab", stack, stack)
        if not np.max(np.abs(gram - np.eye(len(stack)))) <= ALGEBRA_TOL:
            raise ValueError("carrier basis must be orthonormal under the trace inner product")
        object.__setattr__(self, "basis", _freeze(stack))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def to_vector(self, op: np.ndarray) -> np.ndarray:
        """Coordinates Tr(B_i op) of a Hermitian operator."""
        v = np.einsum("aij,ji->a", self.basis, np.asarray(op, dtype=complex))
        if np.max(np.abs(v.imag)) > PHYSICAL_TOL:
            raise ValueError("operator is not Hermitian in this carrier")
        return v.real

    def channel_matrix(self, kraus: Sequence[np.ndarray]) -> np.ndarray:
        """Transfer matrix M_ab = Tr(B_a sum_k K B_b K^dag) of a Kraus map."""
        return _kraus_transfer(self.basis, self.basis, kraus)


def _kraus_transfer(b_out: np.ndarray, b_in: np.ndarray, kraus: Sequence[np.ndarray]) -> np.ndarray:
    """M_ab = Tr(B_a sum_k K B_b K^dag), from input operators B_b to output operators B_a."""
    moved = sum(np.einsum("ij,bjk,lk->bil", k, b_in, k.conj()) for k in np.asarray(kraus, complex))
    return np.einsum("aij,bji->ab", b_out, moved).real


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Normalized identity plus generalized Gell-Mann matrices.

    For d=2 the order is I, X, Y, Z, each divided by sqrt(2).
    """
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / SQRT2
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j / SQRT2
            anti[k, j] = 1j / SQRT2
            mats.extend([sym, anti])
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        mats.append(diag / math.sqrt(l * (l + 1)))
    return mats


_Y_COUNT = _freeze(np.array([0, 0, 1, 0], dtype=np.int8))  # Y factors in I, X, Y, Z


def pauli_strings(n_qubits: int) -> np.ndarray:
    """All 4^n unnormalised Pauli strings on n qubits, lexicographic over (I, X, Y, Z)."""
    single = np.stack([PAULI[c] for c in "IXYZ"])
    out = single if n_qubits else np.ones((1, 1, 1), dtype=complex)
    for _ in range(n_qubits - 1):  # np.kron chains' bits, signed zeros too: no [[1]] factor
        out = np.multiply.outer(out, single).transpose(0, 3, 1, 4, 2, 5).reshape(
            4 * len(out), 2 * out.shape[1], -1)
    return out


def even_y_index(n_qubits: int) -> np.ndarray:
    """Positions in :func:`pauli_strings` of the strings with an even number of
    Y factors, in coordinate order: strings without any Y come first, so they
    line up with the Kronecker product of the single-system bases."""
    ys = np.zeros(1, dtype=np.int8)  # each string's Y count, strings in lexicographic order
    for _ in range(n_qubits):
        ys = (ys[:, None] + _Y_COUNT).ravel()
    even = np.flatnonzero(ys % 2 == 0)
    return even[np.argsort(ys[even] > 0, kind="stable")]


def _even_y_slots(n_qubits: int) -> np.ndarray:
    """Inverse of :func:`even_y_index`: each even-Y string's coordinate (0 elsewhere)."""
    even = even_y_index(n_qubits)
    slot = np.zeros(4**n_qubits, dtype=np.intp)
    slot[even] = np.arange(len(even))
    return slot


def symmetric_pauli_basis(n_qubits: int) -> list[np.ndarray]:
    """Orthonormal basis of real symmetric matrices on (C^2)^n: the even-Y
    Pauli strings in :func:`even_y_index` order, each divided by 2^(n/2)."""
    scale = 2.0 ** (n_qubits / 2.0)
    return list(pauli_strings(n_qubits)[even_y_index(n_qubits)] / scale)


@functools.cache
def _table(build: Callable[[int], np.ndarray], k: int) -> np.ndarray:
    """``build(k)`` for a Pauli string table above, read-only and built once per process."""
    return _freeze(build(k))


@functools.cache
def _symmetric_carrier(n_qubits: int) -> DensityCarrier:
    """The carrier of :func:`symmetric_pauli_basis`, built once per process."""
    return DensityCarrier(symmetric_pauli_basis(n_qubits))


class RebitRule(CompositeRule):
    """Composition of real-amplitude two-level systems as an even-Y restriction.

    k rebits carry the real symmetric matrices on (C^2)^k, spanned by the
    Pauli strings with an even number of Y factors: 2^k(2^k+1)/2 coordinates,
    more than the 3^k of the local tensor product. The 3^k Y-free strings
    come first and are the products of local coordinates; the strings with
    Y are global degrees of freedom that no product of local effects sees.
    Every rebit map is a qubit map, so composites are Kronecker products in
    the full I, X, Y, Z string basis (of each piece's Pauli transfer matrix,
    of index permutations, of zero-padded coordinates) restricted to the
    even-Y strings.

    :meth:`contract` works in that basis too: a layer of two or more factors
    scatters the frontier into its 4^k Pauli string coordinates once (zero on
    the odd-Y strings), contracts each factor's transfer matrices into the
    factor's own wire axes with :func:`~gptlab.core.contract_wires`, and
    restricts to the even-Y strings once; a layer of one factor contracts
    the even-Y blocks of its outcomes' matrices, with no scatter. Each outcome's
    transfer matrix and block, with whether the matrix is exactly the
    identity, are computed once and held while the outcome lives, in a table
    keyed weakly by the outcome object, so the table never outgrows the
    outcomes in use; the stacks of the outcome matrices are never built.
    Threads racing on one outcome at worst compute its matrix twice.

    That table is the class's and the read-only Pauli string tables
    (:func:`_table`) the module's: pure functions of an outcome's Kraus
    operators or of k, so every rule shares them, and a rule holds and
    pickles only what :class:`~gptlab.core.CompositeRule` gives every rule.
    """

    name = "real-symmetric"
    _transfers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __init__(self, theory: str = "real-quantum-2"):
        super().__init__(theory)

    def _n_leaves(self, t: SystemType) -> int:
        if t.dim == 1:
            return 0
        if t.wires != (t,):
            return sum(map(self._n_leaves, t.wires))
        if t.dim != 3:
            raise GptLabError(f"'{t.label}' is not a rebit-backed type")
        return 1

    def joint_dim(self, types: tuple[SystemType, ...]) -> int:
        hdim = 2 ** sum(self._n_leaves(t) for t in types)
        return hdim * (hdim + 1) // 2

    def identity_kraus(self, system: SystemType) -> tuple[np.ndarray, ...]:
        return (np.eye(2 ** self._n_leaves(system), dtype=complex),)

    def _even_y(self, full: np.ndarray) -> np.ndarray:
        """The even-Y block of a 4^k_out x 4^k_in matrix over Pauli strings."""
        k_out, k_in = (n.bit_length() // 2 for n in full.shape)
        return full[np.ix_(_table(even_y_index, k_out), _table(even_y_index, k_in))]

    def _transfer(self, p: TransformationMatrix) -> tuple[np.ndarray, np.ndarray, bool]:
        """The held Pauli transfer matrix of ``p`` and its even-Y block, each
        as a read-only ``(1, out, in)`` stack, and whether the matrix is
        exactly the identity; computed on first use."""
        got = self._transfers.get(p)
        if got is None:
            if p.kraus is None:
                raise GptLabError(
                    f"gate outcome '{p.outcome_label}' lacks operator (Kraus) data; "
                    "rebit composites cannot be built from single-wire matrices alone"
                )
            t = self._transfer_matrix(p.kraus)
            got = self._transfers[p] = (_freeze(t[None]), _freeze(self._even_y(t)[None]),
                                        np.array_equal(t, np.eye(len(t))))
        return got

    def parallel_matrix(self, pieces: Sequence[TransformationMatrix]) -> np.ndarray:
        transfers = [self._transfer(p)[0][0] for p in pieces]
        return self._even_y(functools.reduce(np.kron, transfers, np.ones((1, 1))))

    def contract(self, pieces: Sequence[Sequence[TransformationMatrix]], front: np.ndarray,
                 weights: Sequence[np.ndarray] | None = None) -> np.ndarray:
        if len(pieces) == 1:  # even-Y blocks, always multiplied: the bundled Bell circuit's bits
            blocks = np.concatenate([self._transfer(p)[1] for p in pieces[0]])
            return contract_wires([blocks], [False], front, weights)
        held = [[self._transfer(p) for p in piece] for piece in pieces]
        stacks = [h[0][0] if len(h) == 1 else np.concatenate([t[0] for t in h]) for h in held]
        # each factor's 4^k_out x 4^k_in transfer: its rebit counts, summed
        k_out, k_in = (sum(s.shape[axis].bit_length() - 1 for s in stacks) // 2
                       for axis in (1, 2))
        full = np.zeros((len(front), 4**k_in))
        full[:, _table(even_y_index, k_in)] = front
        return contract_wires(stacks, [len(h) == 1 and h[0][2] for h in held], full,
                              weights)[:, _table(even_y_index, k_out)]

    def _strings(self, types: Sequence[SystemType]) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The rebit counts of ``types``, and their joint strings' even-Y index and slots."""
        leaves = [self._n_leaves(t) for t in types]
        k = sum(leaves)
        return leaves, _table(even_y_index, k), _table(_even_y_slots, k)

    def permutation_index(self, types: Sequence[SystemType], perm: Sequence[int]) -> np.ndarray:
        leaves, even, slots = self._strings(types)
        moved = np.arange(len(slots)).reshape([4**k for k in leaves]).transpose(perm).ravel()
        return slots[moved[even]]

    def product_axes(self, types: Sequence[SystemType], choices: Sequence[np.ndarray]) -> np.ndarray:
        leaves, _, slots = self._strings(types)
        strings = tuple(_table(even_y_index, k)[c] for c, k in zip(choices, leaves))
        return slots[np.ravel_multi_index(strings, tuple(4**k for k in leaves))]

    def _transfer_matrix(self, kraus: Sequence[np.ndarray]) -> np.ndarray:
        """M_ab = Tr(P_a sum_j K_j P_b K_j^dag) / 2^((k_out + k_in)/2) over Pauli strings P."""
        k_out, k_in = (h.bit_length() - 1 for h in kraus[0].shape)
        p_out, p_in = _table(pauli_strings, k_out), _table(pauli_strings, k_in)
        # Unnormalised strings and one division per piece, rather than P/sqrt(2)
        # per qubit: this keeps the bundled Bell circuit's distribution
        # bit-identical to the orthonormal-carrier values it was recorded with.
        return _kraus_transfer(p_out, p_in, kraus) / 2.0 ** ((k_out + k_in) / 2)

    def product_coords(self, types: Sequence[SystemType],
                       stacks: Sequence[np.ndarray]) -> np.ndarray:
        leaves, even, _ = self._strings(types)
        padded = [np.zeros((len(s), 4**k)) for s, k in zip(stacks, leaves)]
        for p, s, k in zip(padded, stacks, leaves):
            p[:, _table(even_y_index, k)] = s
        return kron_rows(padded)[:, even]


@dataclass(frozen=True, eq=False)
class StrategyHooks:
    """Strategies on the theory's single system type, used by discrimination
    searches: deterministic grids of named rows plus batch samplers.

    ``state_grid()`` and ``effect_grid()`` return ``(names, rows)``: a fresh
    list of names and a read-only ``(len(names), dim)`` float array holding
    one vector's coordinates per row, in name order. ``random_states(rng, n)``
    and ``random_effects(rng, n)`` return an ``(n, dim)`` float array of
    coordinates, one sample per row. Every grid and sampled row has passed
    the checks a :class:`StateVector` or :class:`EffectVector` makes. One
    sampler call for n rows takes the same draws from ``rng``, in the same
    order and with the same bits, as n calls for one row, so a search's random
    stream does not depend on how it batches.
    """

    state_grid: Callable[[], tuple[list[str], np.ndarray]]
    random_states: Callable[[np.random.Generator, int], np.ndarray]
    effect_grid: Callable[[], tuple[list[str], np.ndarray]]
    random_effects: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True, eq=False)
class TheoryDescriptor(_Checked):
    """A named theory: types, composite rule, and device libraries.

    The descriptor's fields cannot be rebound, but ``gates``, ``states``,
    ``effects`` and ``meta`` are plain dicts a caller can edit. A circuit
    keeps the ``Gate`` objects it was built with, so editing ``gates`` later
    does not change a built circuit. Causal theories carry exactly one
    deterministic effect per system type.

    Each call of a built-in constructor builds its own descriptor, system
    types, composite rule, vectors, transformation matrices, gates, dicts and
    strategy hooks, and runs every constructor check; no two builds share
    one, so editing one build changes no other. What builds share is
    read-only and computed on a theory's first build in the process: the
    numpy arrays under the vectors' coordinates, the outcome matrices and
    Kraus tuples, the rebit strategy grid rows, the immutable
    :class:`DensityCarrier`, and the rebit rule's tables, filled on use.
    """

    name: str
    system_types: Mapping[str, SystemType]
    composite_rule: CompositeRule
    gates: Mapping[str, Gate]
    states: Mapping[str, StateVector]
    effects: Mapping[str, EffectVector]
    deterministic_effects: Mapping[str, EffectVector]
    carrier: DensityCarrier | None = None
    strategies: StrategyHooks | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label in self.system_types:
            if label not in self.deterministic_effects:
                raise ValueError(f"causal theory '{self.name}' lacks a deterministic "
                                 f"effect for type '{label}'")

    def system(self, label: str | None = None) -> SystemType:
        if label is None:
            if len(self.system_types) != 1:
                raise KeyError(f"theory '{self.name}' has several types; name one")
            return next(iter(self.system_types.values()))
        return self.system_types[label]

    def gate(self, name: str) -> Gate:
        try:
            return self.gates[name]
        except KeyError:
            raise KeyError(f"theory '{self.name}' has no gate '{name}'") from None

    def state(self, name: str) -> StateVector:
        return self.states[name]

    def effect(self, name: str) -> EffectVector:
        return self.effects[name]


_Draw = Callable[[np.random.Generator, int], np.ndarray]
_Grid = tuple[Sequence[str], np.ndarray]


def _grid(names: tuple[str, ...], rows: np.ndarray) -> _Grid:
    # read-only as held at build, and after a pickle, which restores them writable
    return list(names), _freeze(rows)


def _checked_rows(draw: _Draw, dim: int, kind: str, normalized: bool,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    return checked_coords(draw(rng, n), (n, dim), kind, normalized)


def _builtin(sys: SystemType, rule: CompositeRule, devices: Sequence[Gate], states: dict,
             effects: dict, draws: tuple[_Draw, _Draw], meta: dict, normalized: bool = True,
             carrier: DensityCarrier | None = None,
             grids: tuple[_Grid, _Grid] | None = None) -> TheoryDescriptor:
    """The built-in theory ``sys.theory`` on its one type ``sys``: ``devices``
    by name, ``effects["u"]`` deterministic, and strategy hooks over ``(names,
    rows)`` ``grids`` whose rows passed the vector classes' checks, or else over
    the library's states and effects on ``sys``, with samplers ``draws`` (the
    states', the effects') whose every row is checked as the vector classes do.
    The hooks are module functions bound by ``functools.partial``, so the
    descriptor pickles."""

    def library_grid(vectors: Mapping) -> _Grid:
        own = {n: v.coords for n, v in vectors.items() if v.system == sys}
        return list(own), np.array(list(own.values())).reshape(len(own), sys.dim)

    def grid(names: Sequence[str], rows: np.ndarray):
        return functools.partial(_grid, tuple(names), _read_only(rows))

    state_grid, effect_grid = grids or (library_grid(states), library_grid(effects))
    return TheoryDescriptor(
        name=sys.theory,
        system_types={sys.label: sys},
        composite_rule=rule,
        gates={g.name: g for g in devices},
        states=states,
        effects=effects,
        deterministic_effects={sys.label: effects["u"]},
        carrier=carrier,
        strategies=StrategyHooks(
            grid(*state_grid),
            functools.partial(_checked_rows, draws[0], sys.dim, "state", normalized),
            grid(*effect_grid),
            functools.partial(_checked_rows, draws[1], sys.dim, "effect", False)),
        meta=meta,
    )


def _per_sample(draw: Callable[[np.random.Generator], np.ndarray], dim: int,
                rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` rows of ``draw(rng)``, drawn in row order: a batch draw for samples
    that mix distributions, where drawing each one in bulk would reorder the
    random stream."""
    rows = np.empty((n, dim))
    for i in range(n):
        rows[i] = draw(rng)
    return rows


def _read_only(tree):
    """``tree`` (an array, or a tuple or dict of them; anything else is kept)
    with each array passed through :func:`~gptlab.core._freeze`."""
    if isinstance(tree, tuple):
        return tuple(_read_only(t) for t in tree)
    if isinstance(tree, dict):
        return {k: _read_only(v) for k, v in tree.items()}
    return _freeze(tree) if isinstance(tree, np.ndarray) else tree


def _held(**arrays) -> SimpleNamespace:
    """A built-in theory's arrays, read-only, for :func:`functools.cache` to
    hold once per process."""
    return SimpleNamespace(**_read_only(arrays))


# ---------------------------------------------------------------------------
# devices built from the state and effect libraries


def _outcomes(vectors, kraus) -> list[tuple]:
    """``(key, label, vector, kraus)`` per device outcome. A lone vector is the
    single unlabelled outcome "0"; outcomes given by key are labelled with it,
    and ``kraus`` then maps each key to that outcome's operators."""
    if isinstance(vectors, Mapping):
        return [(k, k, v, None if kraus is None else kraus[k]) for k, v in vectors.items()]
    return [("0", "", vectors, kraus)]


def _prep(name: str, states: StateVector | Mapping[str, StateVector],
          kraus: tuple | Mapping[str, tuple] | None = None) -> Gate:
    """A preparation device: each outcome's column is the coords of its state."""
    outs = _outcomes(states, kraus)
    sys = outs[0][2].system
    return Gate(name, (), sys.wires, {
        key: TransformationMatrix(UNIT, sys, s.coords.reshape(-1, 1), outcome_label=label, kraus=k)
        for key, label, s, k in outs
    })


def _measure(name: str, effects: EffectVector | Mapping[str, EffectVector],
             kraus: tuple | Mapping[str, tuple] | None = None) -> Gate:
    """A measurement or sink device: each outcome's row is the coords of its effect."""
    outs = _outcomes(effects, kraus)
    sys = outs[0][2].system
    return Gate(name, sys.wires, (), {
        key: TransformationMatrix(sys, UNIT, e.coords.reshape(1, -1), outcome_label=label, kraus=k)
        for key, label, e, k in outs
    })


def _channel(name: str, sys: SystemType, matrix: np.ndarray, kraus: tuple | None = None) -> Gate:
    """A one-outcome device on ``sys``: its transfer matrix, with its Kraus map if given."""
    return Gate(name, sys.wires, sys.wires, {
        "0": TransformationMatrix(sys, sys, matrix, kraus=kraus)
    })


def _channels(carrier: DensityCarrier, maps: Sequence[tuple[str, tuple]]) -> tuple:
    """``(name, transfer matrix, kraus)`` per named Kraus map, in the carrier."""
    return tuple((name, carrier.channel_matrix(kraus), kraus) for name, kraus in maps)


# ---------------------------------------------------------------------------
# classical probability theory


@functools.cache
def _classical_arrays(d: int) -> SimpleNamespace:
    return _held(eye=np.eye(d), uniform=np.full(d, 1.0 / d), ones=np.ones(d),
                 coin=(np.array([0.5, 0.0]), np.array([0.0, 0.5])),
                 flip=np.array([[0.0, 1.0], [1.0, 0.0]]))


def _dirichlet_rows(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(d), size=n)


def _uniform_rows(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(n, d))


def classical_theory(d: int) -> TheoryDescriptor:
    """Probability d-vectors, column-stochastic maps, all-ones readout."""
    if not 1 <= d <= MAX_SYSTEM_DIM:
        raise ValueError(f"d must lie in 1..{MAX_SYSTEM_DIM}")
    name = f"classical-{d}"
    a = _classical_arrays(d)
    sys = SystemType(f"c{d}", d, theory=name)
    rule = KroneckerRule(theory=name)

    states = {f"s{j}": StateVector(sys, a.eye[:, j], normalized=True) for j in range(d)}
    states["uniform"] = StateVector(sys, a.uniform, normalized=True)
    effects = {f"p{j}": EffectVector(sys, a.eye[j]) for j in range(d)}
    effects["u"] = EffectVector(sys, a.ones)

    devices = [_prep(f"prep_{j}", {"0": states[f"s{j}"]}) for j in range(d)]
    devices.append(_prep("prep_uniform", {"0": states["uniform"]}))
    if d == 2:
        devices.append(_prep("coin", {"0": StateVector(sys, a.coin[0]),
                                      "1": StateVector(sys, a.coin[1])}))
        devices.append(_channel("not", sys, a.flip))
    devices.append(_channel("id", sys, a.eye))
    devices.append(_measure("read", {str(k): effects[f"p{k}"] for k in range(d)}))
    devices.append(_measure("sink", effects["u"]))

    return _builtin(sys, rule, devices, states, effects,
                    (functools.partial(_dirichlet_rows, d), functools.partial(_uniform_rows, d)),
                    {"builtin": "classical", "params": {"d": d}})


# ---------------------------------------------------------------------------
# complex quantum theory


@functools.cache
def _bell_kets() -> dict[str, np.ndarray]:
    """The four maximally entangled two-qubit states, as read-only column kets."""
    return _read_only({
        "phi_plus": np.array([[1], [0], [0], [1]], dtype=complex) / SQRT2,
        "phi_minus": np.array([[1], [0], [0], [-1]], dtype=complex) / SQRT2,
        "psi_plus": np.array([[0], [1], [1], [0]], dtype=complex) / SQRT2,
        "psi_minus": np.array([[0], [1], [-1], [0]], dtype=complex) / SQRT2,
    })


def bell_operators() -> dict[str, np.ndarray]:
    """Projectors onto the four maximally entangled two-qubit states."""
    return {n: np.outer(v, v.conj()) for n, v in _bell_kets().items()}


@functools.cache
def _quantum_arrays(d: int) -> SimpleNamespace:
    carrier = DensityCarrier(hermitian_basis(d))
    kets = tuple(np.eye(d, dtype=complex).reshape(d, d, 1))  # the basis kets, as columns
    arrays = dict(
        carrier=carrier, kets=kets,
        projs=tuple(carrier.to_vector(k @ k.conj().T) for k in kets),
        mixed=carrier.to_vector(np.eye(d) / d), unit=carrier.to_vector(np.eye(d)),
        mixed_kraus=tuple(k / math.sqrt(d) for k in kets),
        eye=np.eye(d * d), id_kraus=(np.eye(d, dtype=complex),),
        bras=tuple(k.conj().T for k in kets))
    if d == 2:
        pair_carrier = DensityCarrier([np.kron(a, b) for a in carrier.basis for b in carrier.basis])
        # plus @ plus^dag holds 0.5000000000000001 where the "plus" state holds 0.5
        plus = np.full((2, 1), 1 / SQRT2, dtype=complex)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        arrays.update(
            plus_coords=carrier.to_vector(np.full((2, 2), 0.5, dtype=complex)),
            bells={n: pair_carrier.to_vector(op) for n, op in bell_operators().items()},
            plus=plus, plus_prep=carrier.to_vector(plus @ plus.conj().T),
            channels=_channels(carrier, (
                ("h", (np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2,)),
                ("x", (PAULI["X"],)), ("z", (PAULI["Z"],)),
                ("s", (np.diag([1, 1j]).astype(complex),)),
                ("t", (np.diag([1, np.exp(1j * math.pi / 4)]),)))),
            cnot=(pair_carrier.channel_matrix((cnot,)), (cnot,)))
    return _held(**arrays)


def _quantum_state(carrier: DensityCarrier, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return carrier.to_vector(rho)


def _quantum_effect(carrier: DensityCarrier, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    lo, hi = np.linalg.eigvalsh(h)[[0, -1]]
    e = (h - lo * np.eye(d)) / max(hi - lo, ALGEBRA_TOL) * rng.uniform(0.0, 1.0)
    return carrier.to_vector(e)


def quantum_theory(d: int) -> TheoryDescriptor:
    """Finite-dimensional quantum theory over an orthonormal Hermitian basis.

    Systems carry dim = d^2 real coordinates; channels become real d^2 x d^2
    transfer matrices, POVM elements covectors, and the deterministic effect
    is the coordinate vector of the identity operator.
    """
    if not 2 <= d <= math.isqrt(MAX_SYSTEM_DIM):
        raise ValueError(f"d must lie in 2..{math.isqrt(MAX_SYSTEM_DIM)}")
    name = f"quantum-{d}"
    a = _quantum_arrays(d)
    sys = SystemType(f"q{d}", d * d, theory=name)
    rule = KroneckerRule(theory=name)

    states = {f"basis_{j}": StateVector(sys, a.projs[j], normalized=True) for j in range(d)}
    states["mixed"] = StateVector(sys, a.mixed, normalized=True)
    effects = {f"p{j}": EffectVector(sys, a.projs[j]) for j in range(d)}
    effects["u"] = EffectVector(sys, a.unit)

    devices = [_prep(f"prep_{j}", states[f"basis_{j}"], (a.kets[j],)) for j in range(d)]
    devices.append(_prep("prep_mixed", states["mixed"], a.mixed_kraus))
    pair_devices = []
    if d == 2:
        states["plus"] = StateVector(sys, a.plus_coords, normalized=True)
        effects["p_plus"] = EffectVector(sys, a.plus_coords)
        pair = rule.composite([sys, sys])
        for bname, coords in a.bells.items():
            states[bname] = StateVector(pair, coords, normalized=True)
        devices.append(_prep("prep_plus", StateVector(sys, a.plus_prep), (a.plus,)))
        devices += [_channel(gname, sys, m, kraus) for gname, m, kraus in a.channels]
        pair_devices = [_channel("cnot", pair, *a.cnot),
                        _prep("prep_bell", states["phi_plus"], (_bell_kets()["phi_plus"],))]

    devices.append(_channel("id", sys, a.eye, a.id_kraus))
    devices.append(_measure("measure", {str(k): effects[f"p{k}"] for k in range(d)},
                            {str(k): (a.bras[k],) for k in range(d)}))
    devices.append(_measure("sink", effects["u"], a.bras))

    draws = (functools.partial(_quantum_state, a.carrier, d),
             functools.partial(_quantum_effect, a.carrier, d))
    return _builtin(sys, rule, devices + pair_devices, states, effects,
                    tuple(functools.partial(_per_sample, draw, d * d) for draw in draws),
                    {"builtin": "quantum", "params": {"d": d}}, carrier=a.carrier)


# ---------------------------------------------------------------------------
# real-amplitude quantum theory


def _bloch_coords(theta, r=1.0) -> np.ndarray:
    # rho = (I + r cos(theta) X + r sin(theta) Z)/2 in the (I,X,Z)/sqrt2 basis, which
    # at r = 1 is also the projector at angle theta; array arguments give one row each
    return np.stack(np.broadcast_arrays(1.0, r * np.cos(theta), r * np.sin(theta)),
                    axis=-1) / SQRT2


@functools.cache
def _rebit_arrays() -> SimpleNamespace:
    carrier, pair_carrier = _symmetric_carrier(1), _symmetric_carrier(2)
    e0, e1 = np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)
    plus = (e0 + e1) / SQRT2
    bells = bell_operators()
    zero, one = (carrier.to_vector(e @ e.conj().T) for e in (e0, e1))
    mixed, unit = carrier.to_vector(np.eye(2) / 2), carrier.to_vector(np.eye(2))
    # The strategy grids' pure states and projectors, at k * 15 degrees: one call
    # over the 24 angles, whose rows equal one call per angle bit for bit. At r = 1
    # the rows pass the state checks, and so the effect checks; the grids' last
    # rows are library vectors, checked when built.
    projectors = checked_coords(_bloch_coords(np.array([k * math.pi / 12 for k in range(24)])),
                                (24, 3), "state", normalized=True)
    bras = {n: k.conj().T for n, k in _bell_kets().items()}
    return _held(
        carrier=carrier, e0=e0, plus=plus, zero=zero, one=one, mixed=mixed, unit=unit,
        plus_coords=carrier.to_vector(plus @ plus.conj().T),
        bells={n: pair_carrier.to_vector(op) for n, op in bells.items()},
        # Two-outcome joint measurement {phi+ + psi-, phi- + psi+}.
        joint_first=pair_carrier.to_vector(bells["phi_plus"] + bells["psi_minus"]),
        joint_second=pair_carrier.to_vector(bells["phi_minus"] + bells["psi_plus"]),
        channels=_channels(carrier, (
            ("id", (PAULI["I"],)),
            ("x", (PAULI["X"],)),
            ("h", (np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2,)),
            # rho -> rho/2 + Y rho Y/2: acts like total dephasing on every single
            # rebit, but preserves the global Y-parity of joint states.
            ("t1", (PAULI["I"] / SQRT2, PAULI["Y"] / SQRT2)),
            # rho -> I tr(rho)/2: discard and reprepare maximally mixed.
            ("t2", tuple((a @ b.conj().T) / SQRT2 for a in (e0, e1) for b in (e0, e1))))),
        mixed_kraus=(e0 / SQRT2, e1 / SQRT2),
        bra0=e0.conj().T, bra1=e1.conj().T,
        joint_kraus={"first": (bras["phi_plus"], bras["psi_minus"]),
                     "second": (bras["phi_minus"], bras["psi_plus"])},
        state_rows=np.vstack([projectors, mixed]), effect_rows=np.vstack([projectors, unit]))


# The rebit samplers scale unit draws: rng.uniform(0.0, high) is 0.0 + high * u for the
# same u, so the values keep its bits without its array-bound broadcasting.


def _rebit_states(rng: np.random.Generator, n: int) -> np.ndarray:
    # row i holds sample i's (theta, r): the order of one scalar draw after another
    theta, r = rng.random((n, 2)).T
    return _bloch_coords(theta * (2 * math.pi), r)


def _rebit_effects(unit: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    # alpha * projector + beta * its complement, drawn (theta, alpha, beta) per row
    theta, alpha, beta = rng.random((n, 3)).T
    p_coords = _bloch_coords(theta * (2 * math.pi))
    return alpha[:, None] * p_coords + beta[:, None] * (unit - p_coords)


def real_quantum_theory(d: int = 2) -> TheoryDescriptor:
    """Quantum theory over real Hilbert spaces: states are real symmetric matrices.

    Only rebits (d=2, three coordinates) are modelled, with the full worked
    gate set: the dephasing map t1 (rho -> rho/2 + Y rho Y / 2), the
    discard-and-reprepare map t2 (rho -> I tr(rho) / 2), entangled pair
    preparation, and the two-outcome joint measurement that tells their
    outputs apart. Any other d raises ``ValueError``.
    """
    if d != 2:
        raise ValueError("real-amplitude quantum theory is modelled for rebits only (d=2)")
    name = "real-quantum-2"
    a = _rebit_arrays()
    rule = RebitRule(name)
    sys = SystemType("rebit", 3, theory=name)
    pair = rule.composite([sys, sys])

    states = {
        "zero": StateVector(sys, a.zero, normalized=True),
        "plus": StateVector(sys, a.plus_coords, normalized=True),
        "mixed": StateVector(sys, a.mixed, normalized=True),
    }
    for bname, coords in a.bells.items():
        states[bname] = StateVector(pair, coords, normalized=True)
    effects = {
        "p0": EffectVector(sys, a.zero),
        "p1": EffectVector(sys, a.one),
        "u": EffectVector(sys, a.unit),
        "joint_first": EffectVector(pair, a.joint_first),
        "joint_second": EffectVector(pair, a.joint_second),
    }

    devices = [_channel(gname, sys, m, kraus) for gname, m, kraus in a.channels]
    devices += [
        _prep("prep_0", states["zero"], (a.e0,)),
        _prep("prep_plus", states["plus"], (a.plus,)),
        _prep("prep_mixed", states["mixed"], a.mixed_kraus),
        _measure("measure", {"0": effects["p0"], "1": effects["p1"]},
                 {"0": (a.bra0,), "1": (a.bra1,)}),
        _measure("sink", effects["u"], (a.bra0, a.bra1)),
        _prep("prep_phi_plus", states["phi_plus"], (_bell_kets()["phi_plus"],)),
        _measure("joint_measure", {"first": effects["joint_first"],
                                   "second": effects["joint_second"]}, a.joint_kraus),
    ]

    state_grid = ([f"pure({k * 15}°)" for k in range(24)] + ["mixed"], a.state_rows)
    effect_grid = ([f"proj({k * 15}°)" for k in range(24)] + ["unit"], a.effect_rows)
    return _builtin(sys, rule, devices, states, effects,
                    (_rebit_states, functools.partial(_rebit_effects, a.unit)),
                    {"builtin": "real-quantum", "params": {"d": 2}}, carrier=a.carrier,
                    grids=(state_grid, effect_grid))


# ---------------------------------------------------------------------------
# Boxworld


def _gbit_index(a: int, x: int) -> int:
    # coordinate layout: [u, (a=0|x=0), (a=1|x=0), (a=0|x=1), (a=1|x=1)]
    return 1 + 2 * x + a


def _gbit_coords(p0, p1) -> np.ndarray:
    # p0 = P(a=0 | x=0), p1 = P(a=0 | x=1); array arguments give one row each
    return np.stack(np.broadcast_arrays(1.0, p0, 1.0 - p0, p1, 1.0 - p1), axis=-1)


def pr_box_coords() -> np.ndarray:
    """The 25 coordinates of the PR box on two gbits: its full behaviour table."""
    coords = np.zeros(25)

    def put(i: int, j: int, v: float) -> None:
        coords[5 * i + j] = v

    put(0, 0, 1.0)
    for x in range(2):
        for a in range(2):
            put(_gbit_index(a, x), 0, 0.5)
            put(0, _gbit_index(a, x), 0.5)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    p = 0.5 if (a ^ b) == (x & y) else 0.0
                    put(_gbit_index(a, x), _gbit_index(b, y), p)
    return coords


@functools.cache
def _gbit_arrays() -> SimpleNamespace:
    return _held(eye=np.eye(5), mixed=_gbit_coords(0.5, 0.5),
                 vertices={f"v{p0}{p1}": _gbit_coords(float(p0), float(p1))
                           for p0 in (0, 1) for p1 in (0, 1)},
                 pr_box=pr_box_coords())


def _gbit_states(rng: np.random.Generator, n: int) -> np.ndarray:
    p0, p1 = rng.uniform(size=(n, 2)).T
    return _gbit_coords(p0, p1)


def _gbit_effect(eye: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = rng.integers(0, 2)
    alpha, beta = rng.uniform(0.0, 1.0, size=2)
    return alpha * eye[_gbit_index(0, x)] + beta * eye[_gbit_index(1, x)]


def boxworld_gbit() -> TheoryDescriptor:
    """The elementary Boxworld system: a square state space with two binary
    fiducial measurements, plus the PR box on a pair of them.

    Gbit vectors carry an explicit normalization coordinate so effects stay
    linear. Dynamics beyond local effects and the wirings needed for CHSH
    are not modelled.
    """
    name = "boxworld"
    a = _gbit_arrays()
    sys = SystemType("gbit", 5, theory=name)
    rule = KroneckerRule(theory=name)
    pair = rule.composite([sys, sys])

    effects = {"u": EffectVector(sys, a.eye[0])}
    for x in range(2):
        for b in range(2):
            effects[f"e{b}x{x}"] = EffectVector(sys, a.eye[_gbit_index(b, x)])

    states = {"mixed": StateVector(sys, a.mixed)}
    for vname, coords in a.vertices.items():
        states[vname] = StateVector(sys, coords)
    states["pr_box"] = StateVector(pair, a.pr_box)

    devices = [_prep(f"prep_{sname}", states[sname])
               for sname in ("mixed", "v00", "v01", "v10", "v11")]
    devices.append(_prep("prep_pr", states["pr_box"]))
    for x in range(2):
        devices.append(_measure(f"measure_x{x}", {str(b): effects[f"e{b}x{x}"] for b in range(2)}))
    devices.append(_measure("sink", effects["u"]))
    devices.append(_channel("id", sys, a.eye))

    draw_effect = functools.partial(_gbit_effect, a.eye)
    return _builtin(sys, rule, devices, states, effects,
                    (_gbit_states, functools.partial(_per_sample, draw_effect, sys.dim)),
                    {"builtin": "boxworld", "params": {}}, normalized=False)


# ---------------------------------------------------------------------------
# CHSH


Settings = tuple[tuple, tuple]  # ((A0, A1), (B0, B1)); each Ai/Bi = (effect+, effect-)


def chsh_value(theory: TheoryDescriptor, state: StateVector, settings: Settings) -> float:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) from pairing effects with the state."""
    (a_settings, b_settings) = settings
    rule = theory.composite_rule

    def correlator(ea_pair, eb_pair) -> float:
        total = 0.0
        for a, ea in enumerate(ea_pair):
            for b, eb in enumerate(eb_pair):
                cov = rule.product_coords([ea.system, eb.system],
                                          [ea.coords[None], eb.coords[None]])[0]
                if cov.shape != state.coords.shape:
                    raise TypeMismatchError(
                        "state does not live on the composite of the setting systems"
                    )
                total += (-1.0) ** (a + b) * float(cov @ state.coords)
        return total

    return (correlator(a_settings[0], b_settings[0])
            + correlator(a_settings[0], b_settings[1])
            + correlator(a_settings[1], b_settings[0])
            - correlator(a_settings[1], b_settings[1]))


def gbit_fiducial_settings(theory: TheoryDescriptor) -> Settings:
    """Both parties use their two fiducial measurements."""
    a = ((theory.effect("e0x0"), theory.effect("e1x0")),
         (theory.effect("e0x1"), theory.effect("e1x1")))
    return (a, a)


def tsirelson_settings(theory: TheoryDescriptor) -> Settings:
    """Qubit settings maximizing CHSH on the singlet: value 2*sqrt(2)."""
    carrier = theory.carrier
    sys = theory.system()

    def pm_effects(direction: np.ndarray) -> tuple[EffectVector, EffectVector]:
        n_sigma = direction[0] * PAULI["X"] + direction[1] * PAULI["Y"] + direction[2] * PAULI["Z"]
        plus = (np.eye(2) + n_sigma) / 2
        minus = (np.eye(2) - n_sigma) / 2
        return (EffectVector(sys, carrier.to_vector(plus)),
                EffectVector(sys, carrier.to_vector(minus)))

    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    a = (pm_effects(z), pm_effects(x))
    b = (pm_effects(-(z + x) / SQRT2), pm_effects((x - z) / SQRT2))
    return (a, b)
