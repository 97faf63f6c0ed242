"""Real-linear carriers for operational theories.

States are real vectors, effects real covectors, transformations real
matrices, all tagged with system types; closed-circuit probabilities come out
of plain matrix arithmetic. Every object is immutable after construction and
safe to share between concurrent workers; the operations below are pure
functions. Every array an object holds passes through :func:`_freeze`, which
copies a caller's array rather than flip it.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from .errors import TypeMismatchError

# The tolerance policy: every tolerance in gptlab is one of these, with no
# per-call override.
# Exact identities that only rounding can break: transition weight sums and
# carrier orthonormality.
ALGEBRA_TOL = 1e-12
# Physical checks on computed quantities: norm caps, zero tests and
# Hermiticity.
PHYSICAL_TOL = 1e-9
# The [0, 1] check on every evaluated probability, which accumulates rounding
# over whole circuits.
PROB_TOL = 1e-6


# The owners _freeze made, by id (arrays are unhashable), each held weakly so
# that its entry goes with it. Only their memory is lent out uncopied; an
# array over other bytes (an unpickled one) can be writable.
_OWNERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only view over bytes numpy cannot write, so neither it
    nor its owner can be made writable again: ``a`` itself if it views an
    owner this function made (numpy collapses view chains), else a view of
    such an owner over a copy in a's layout. A caller's read-only array is
    copied too, since the caller can make it writable again."""
    base = a.base
    if base is None or _OWNERS.get(id(base)) is not base:
        c = a.copy(order="K")  # its bytes, in memory order, are the owner's
        a = np.ndarray(c.shape, c.dtype, c.ravel(order="K").tobytes(), strides=c.strides)
        _OWNERS[id(a)] = a
        a = a.view()
    return a


class _Checked:
    """The base of every frozen dataclass whose ``__post_init__`` checks it: a
    pickle or a copy is built again through the constructor from the fields
    in order, each read-only mapping passed as a dict, so it comes back
    checked and read-only and carries nothing built on first use."""

    __slots__ = ()

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(dict(a) if type(a) is MappingProxyType else a for a in args)


@dataclass(frozen=True)
class SystemType(_Checked):
    """A wire type: the dimension of the real vector space its states span."""

    label: str
    dim: int
    theory: str | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")

    @property
    def wires(self) -> tuple[SystemType, ...]:
        """The wires a matrix side of this type spans: none for ``UNIT``, else itself."""
        return () if self == UNIT else (self,)


# Trivial type carried by "no wire at all"; scalars live here.
UNIT = SystemType("unit", 1)


@dataclass(frozen=True)
class CompositeType(SystemType):
    """Joint system built from an ordered tuple of factors.

    Its dimension is at least the product of the factor dimensions. A
    tomographically local composite has exactly that product; a larger one
    carries global directions that products of local objects do not reach.
    The theory's :class:`CompositeRule` decides which it is.
    """

    factors: tuple[SystemType, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        prod = math.prod(f.dim for f in self.factors)
        if self.dim < prod:
            raise ValueError(f"composite dim {self.dim} < product of factor dims {prod}")

    @property
    def wires(self) -> tuple[SystemType, ...]:
        """Its factors, the wires :meth:`CompositeRule.composite` joined; itself if none."""
        return self.factors or (self,)


def checked_coords(coords, shape: tuple[int, ...], kind: str,
                   normalized: bool = False) -> np.ndarray:
    """``coords`` as a float array of ``shape`` (one row per vector along the last
    axis), after the checks every state or effect gets: finite entries and, for
    normalized states, a 2-norm of at most 1 on every row."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != shape:
        raise ValueError(f"coords shape {coords.shape} != {shape}")
    if not np.isfinite(coords).all():
        raise ValueError(f"{kind} coordinates must be finite")
    # np.linalg.norm(coords, axis=-1), minus its per-call overhead
    if normalized and (np.sqrt((coords * coords).sum(axis=-1)) > 1.0 + PHYSICAL_TOL).any():
        raise ValueError("normalized state exceeds the 2-norm bound of 1")
    return coords


@dataclass(frozen=True, eq=False)
class StateVector(_Checked):
    """A state, as the real coordinate vector of its system type.

    ``normalized`` marks states whose coordinates are fiducial outcome
    probabilities; for those the 2-norm is capped by 1 and the cap is
    enforced here. Theories using other coordinate conventions leave the
    flag unset.
    """

    system: SystemType
    coords: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        coords = checked_coords(self.coords, (self.system.dim,), "state", self.normalized)
        object.__setattr__(self, "coords", _freeze(coords))


@dataclass(frozen=True, eq=False)
class EffectVector(_Checked):
    """An effect, as a real covector paired with states by a dot product."""

    system: SystemType
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = checked_coords(self.coords, (self.system.dim,), "effect")
        object.__setattr__(self, "coords", _freeze(coords))


@dataclass(frozen=True, eq=False)
class TransformationMatrix(_Checked):
    """One outcome of a device, as a real matrix between coordinate spaces.

    ``kraus`` optionally carries the operator form (rectangular Kraus
    operators on the underlying complex space). Theories whose composites
    are not tensor products need it to extend a transformation to joint
    systems; for everything else it is ignorable metadata.
    """

    input: SystemType
    output: SystemType
    matrix: np.ndarray
    outcome_label: str = ""
    kraus: tuple[np.ndarray, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (self.output.dim, self.input.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({self.output.dim}, {self.input.dim})"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("transformation entries must be finite")
        object.__setattr__(self, "matrix", _freeze(matrix))
        if self.kraus is not None:
            ks = tuple(_freeze(np.asarray(k, dtype=complex)) for k in self.kraus)
            object.__setattr__(self, "kraus", ks)


def apply(t: TransformationMatrix, s: StateVector) -> StateVector:
    """Apply a transformation to a state by matrix multiplication."""
    if t.input != s.system:
        raise TypeMismatchError(
            f"transformation expects input '{t.input.label}', state is '{s.system.label}'"
        )
    return StateVector(t.output, t.matrix @ s.coords)


def pair(e: EffectVector, s: StateVector) -> float:
    """Probability of an effect on a state: the plain inner product."""
    if e.system != s.system:
        raise TypeMismatchError(
            f"effect lives on '{e.system.label}', state on '{s.system.label}'"
        )
    return float(e.coords @ s.coords)


def approx_matrix(m, eps: float) -> np.ndarray:
    """Entrywise dyadic-rational approximation of a matrix.

    Rounds every entry to the nearest multiple of 2**-p with
    p = ceil(log2(1/eps)), so each approximation error is at most eps and
    the work grows only with log(1/eps). Returns an object array of
    :class:`fractions.Fraction`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    arr = m.matrix if isinstance(m, TransformationMatrix) else np.asarray(m, dtype=float)
    power = max(0, math.ceil(math.log2(1.0 / eps)))
    den = 2**power
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(*arr.shape):
        out[idx] = Fraction(round(arr[idx] * den), den)
    return out


def kron_rows(stacks) -> np.ndarray:
    """Row-wise Kronecker products of ``(batch, dim_i)`` stacks, starting from [[1.0]]."""
    out = np.ones((1, 1))
    for s in stacks:  # np.kron's products in np.kron's order: its bits, signed zeros too
        out = (out[:, :, None] * s[:, None, :]).reshape(-1, out.shape[1] * s.shape[1])
    return out


def _rotate(x: np.ndarray, width: int) -> np.ndarray:
    """``(rows, width * rest)`` with its leading ``width`` block moved after the rest."""
    if width in (1, x.shape[1]):
        return x
    return x.reshape(len(x), width, -1).swapaxes(1, 2).reshape(len(x), -1)


class Factor(tuple):
    """One wire factor of a layer: a tuple of its outcome matrices that holds
    their read-only ``(K, out, in)`` :attr:`stack`, whether it is one exact
    identity (:attr:`is_identity`) and, for a selection, the input axis each
    output row reads (:attr:`select`), each built on first use. A gate holds
    one for all its outcomes and one per outcome, and a rule one per
    passthrough wire type, so a circuit evaluation builds none of them
    again. Threads racing on a first use at worst build it twice. A pickled
    factor leaves them behind and builds them, read-only, again on use."""

    def __reduce__(self):
        return type(self), (tuple(self),)

    @cached_property
    def stack(self) -> np.ndarray:
        return _freeze(np.stack([p.matrix for p in self]))

    @cached_property
    def is_identity(self) -> bool:
        m = self[0].matrix
        return len(self) == 1 and np.array_equal(m, np.eye(len(m)))

    @cached_property
    def select(self) -> np.ndarray | None:
        """For a selection, a factor each row of whose outcome matrices is a
        unit row (one entry 1, every other 0; signed zeros count as 0): the
        read-only ``(K, out)`` input axis each output row reads. ``None`` for
        any other factor."""
        ones = self.stack == 1.0
        if not ((ones.sum(axis=-1) == 1).all() and (ones | (self.stack == 0.0)).all()):
            return None
        return _freeze(ones.argmax(axis=-1))


# From this many frontier rows times outcomes, contract_wires contracts a
# selection by a gather. The batched matmul makes one BLAS call per such pair,
# the gather a fixed handful of numpy calls and one copy. On one core of a
# 2 vCPU Xeon, at 128 the two cost about the same on a read of one bit (6.1
# against 5.8 us with one value behind each row, 13.7 against 12.8 us with
# 64), and the gather is ahead on a not (6.7 against 9.1 us); at 64 the
# matmul is ahead with one value per row (6.1 against 4.7 us), and at 256 the
# gather is ahead on every selection measured. prob's layers of one row and
# one outcome never reach it.
_GATHER_FROM = 128


def _gather(x: np.ndarray, axes: np.ndarray, n_in: int) -> np.ndarray:
    """The finite ``(rows, n_in * rest)`` frontier ``x`` through a selection
    whose ``(K, out)`` output rows read the input axes ``axes``, where ``out``
    or ``rest`` is 1: the matmul's ``(rows * K, rest * out)`` frontier, in its
    C layout and with its bits. Summed from +0.0, a row's products are one
    exact ``v * 1`` and exact zeros, so in any order and with or without FMA
    the matmul writes ``v + 0.0``."""
    # with out or rest 1, a take on the input axis lands in (rows, K, rest, out)
    # order; every axis is in range, and "clip" skips the check of that
    y = np.take(x.reshape(len(x), n_in, -1), axes.ravel(), axis=1, mode="clip")
    y += 0.0
    return y.reshape(len(x) * len(axes), -1)


def contract_wires(stacks: Sequence[np.ndarray], identities: Sequence[bool], front: np.ndarray,
                   weights: Sequence[np.ndarray] | None = None,
                   factors: Sequence[Factor] | None = None) -> np.ndarray:
    """:meth:`CompositeRule.contract` one factor at a time, where ``stacks[i]``
    is factor i's ``(K_i, out_i, in_i)`` outcome stack and ``identities[i]``
    says whether it is one exact identity, and with no Kronecker stack.

    The caller holds both (a :class:`Factor`, or the rebit rule's transfer
    table), so this builds neither. The frontier's columns are its wire
    axes. Each factor contracts its stack (or, with ``weights``, its
    weighted sums per row) into the leading axis, which is its input,
    appends its outcome axis to the rows and puts its output axis last;
    after the last factor the axes are in output order again. The
    identity-skip rule: without ``weights``, a factor flagged as one exact
    identity (a passthrough wire, or a gate whose one outcome is exactly the
    identity) is not multiplied, only its axis moves, so its zeros keep
    their signs; with ``weights`` every factor is multiplied. The gather
    rule: without ``weights``, a selection among ``factors`` (the factors the
    stacks come from, whose :attr:`Factor.select` is read only here) is
    gathered, not multiplied, once the frontier rows times its outcomes reach
    ``_GATHER_FROM``, if its output or the rest of the frontier is one axis
    wide (so the take lands in the matmul's layout) and the frontier is
    finite. The gather writes the matmul's bits (:func:`_gather`), so the
    rule moves no value. Every row is contracted on its own, with the same
    shapes whatever the other factors' outcome counts, so a row's bits do not
    depend on how many combinations are enumerated.
    """
    x, moved = front, 1  # moved: the width of identity axes still to move last
    finite = False  # whether x is known to be finite; a gather keeps it so
    for i, (mats, identity) in enumerate(zip(stacks, identities)):
        if weights is None and identity:
            moved *= mats.shape[1]
            continue
        x, moved = _rotate(x, moved), 1
        # the gather rule, cheapest test first: prob's one-row layers stop at the size test
        if (weights is None and factors is not None and len(x) * len(mats) >= _GATHER_FROM
                and 1 in (mats.shape[1], x.shape[1] // mats.shape[2])
                and (axes := factors[i].select) is not None
                and (finite or (finite := np.isfinite(x).all()))):
            x = _gather(x, axes, mats.shape[2])
            continue
        finite = False
        if weights is not None:  # one summed matrix per row, paired with it;
            # np.tensordot(w, mats, axes=1)'s own np.dot: its bits, minus its wrapper
            w = weights[i]
            mats = np.dot(w, mats.reshape(len(mats), -1)).reshape(len(w), 1, *mats.shape[1:])
        # (rows, 1, rest, in) @ (K, in, out), or (rows, 1, in, out) with
        # weights: transposed views, so the product lands in
        # (rows, K, rest, out) order with no copy
        y = np.matmul(x.reshape(len(x), 1, mats.shape[-1], -1).swapaxes(2, 3),
                      mats.swapaxes(-1, -2))
        x = y.reshape(-1, y.shape[2] * y.shape[3])
    return _rotate(x, moved)


class CompositeRule:
    """Theory-owned recipe for joint systems and parallel composition.

    The circuit engine talks to theories only through this interface, so
    theories whose joint systems are bigger than the tensor product of the
    parts (no tomographic locality) still evaluate correctly.

    A rule gives two forms of parallel composition: :meth:`parallel_matrix`,
    the matrix of one outcome per factor, and :meth:`contract`, which applies
    every outcome combination of a layer's factors to a frontier of joint
    states. The builtin rules contract one factor at a time with
    :func:`contract_wires`, so no Kronecker product of a layer is formed.

    The engine passes each factor to :meth:`contract` as a :class:`Factor`:
    a gate's held factor (all its outcomes, or the one ``prob`` selects), or
    :meth:`passthrough` for a wire no gate of the layer reads. The
    tensor-product rule reads the factors' held stacks, identity flags and
    selections; a rule that reads only the outcome matrices (as the rebit
    rule does) never makes them build a stack. Plain sequences of outcome
    matrices are accepted too.

    A rule holds its ``theory`` and one :meth:`passthrough` per system type,
    and a pickled rule carries only those; a subclass's ``__init__`` calls
    this one. A rule that reads Kraus data gives them by :meth:`identity_kraus`.
    """

    name = "abstract"

    def __init__(self, theory: str | None = None):
        self.theory = theory
        self._passthroughs: dict[SystemType, Factor] = {}

    def composite(self, types: Sequence[SystemType]) -> SystemType:
        """The joint type of ``types`` in wire order: ``UNIT`` for none, the
        type itself for one, else a labelled :class:`CompositeType` of
        :meth:`joint_dim` in the rule's ``theory``, whose ``wires`` are ``types``."""
        types = tuple(types)
        if not types:
            return UNIT
        if len(types) == 1:
            return types[0]
        label = "(" + "⊗".join(t.label for t in types) + ")"
        return CompositeType(label=label, dim=self.joint_dim(types), theory=self.theory,
                             factors=types)

    def joint_dim(self, types: tuple[SystemType, ...]) -> int:
        """The dimension of the joint system of two or more ``types``."""
        raise NotImplementedError

    def identity_kraus(self, system: SystemType) -> tuple[np.ndarray, ...] | None:
        """The Kraus operators :meth:`identity` carries on ``system``: none here."""
        return None

    def identity(self, system: SystemType) -> TransformationMatrix:
        """The identity on ``system``: the outcome of its :meth:`passthrough`."""
        return self.passthrough(system)[0]

    def passthrough(self, system: SystemType) -> Factor:
        """The one-outcome factor a layer applies to a wire none of its gates
        reads: the identity, with :meth:`identity_kraus`, held per system type."""
        got = self._passthroughs.get(system)
        if got is None:
            got = self._passthroughs[system] = Factor((TransformationMatrix(
                system, system, np.eye(system.dim), kraus=self.identity_kraus(system)),))
        return got

    def parallel_matrix(self, pieces: Sequence[TransformationMatrix]) -> np.ndarray:
        """Matrix of the parallel composition of ``pieces``, in wire order."""
        raise NotImplementedError

    def contract(self, pieces: Sequence[Sequence[TransformationMatrix]], front: np.ndarray,
                 weights: Sequence[np.ndarray] | None = None) -> np.ndarray:
        """A ``(B, in)`` frontier of joint states through the parallel
        composition of ``pieces``, where ``pieces[i]`` lists factor i's K_i
        outcome matrices in wire order.

        Without ``weights``: the ``(B * prod K_i, out)`` frontier of each row
        times each combination's :meth:`parallel_matrix` M(c), rows major,
        combinations in ``itertools.product`` order (the last factor's
        outcome varies fastest). With ``weights``, one ``(B, K_i)`` array per
        factor: the ``(B, out)`` rows ``sum_c w_b(c) M(c) front[b]``, where
        ``w_b(c)`` is the product of the factors' weights in row b for c.
        """
        raise NotImplementedError

    def permutation_index(self, types: Sequence[SystemType], perm: Sequence[int]) -> np.ndarray:
        """Gather index reordering a joint state so factor i comes from slot perm[i]:
        the reordered coordinates are ``coords[idx]``."""
        raise NotImplementedError

    def permutation_matrix(self, types: Sequence[SystemType], perm: Sequence[int]) -> np.ndarray:
        """:meth:`permutation_index` as a dense 0/1 matrix, for reference checks."""
        idx = self.permutation_index(types, perm)
        return np.eye(len(idx))[idx]

    def product_coords(self, types: Sequence[SystemType],
                       stacks: Sequence[np.ndarray]) -> np.ndarray:
        """``(batch, composite_dim)`` joint coordinates of products whose factor i
        has the ``(batch, dim_i)`` local coordinates ``stacks[i]``."""
        raise NotImplementedError

    def product_axes(self, types: Sequence[SystemType], choices: Sequence[np.ndarray]) -> np.ndarray:
        """``(batch,)`` joint axes of :meth:`product_coords` on unit vectors, where
        factor i is the unit vector on its axis ``choices[i][b]``."""
        raise NotImplementedError

    def product_state_coords(self, states: Sequence[StateVector]) -> np.ndarray:
        return self.product_coords([s.system for s in states], [s.coords[None] for s in states])[0]

    def product_effect_coords(self, effects: Sequence[EffectVector]) -> np.ndarray:
        return self.product_coords([e.system for e in effects], [e.coords[None] for e in effects])[0]


class KroneckerRule(CompositeRule):
    """Tensor-product composition: the tomographically local default."""

    name = "tensor-product"

    def joint_dim(self, types: tuple[SystemType, ...]) -> int:
        return math.prod(t.dim for t in types)

    def parallel_matrix(self, pieces: Sequence[TransformationMatrix]) -> np.ndarray:
        return reduce(np.kron, [p.matrix for p in pieces], np.ones((1, 1)))

    def contract(self, pieces: Sequence[Sequence[TransformationMatrix]], front: np.ndarray,
                 weights: Sequence[np.ndarray] | None = None) -> np.ndarray:
        """:meth:`CompositeRule.contract` by :func:`contract_wires` on each
        factor's held stack, identity flag and selection, with no layer stack;
        a plain sequence of outcome matrices is stacked for this call."""
        factors = [p if type(p) is Factor else Factor(p) for p in pieces]
        return contract_wires([f.stack for f in factors], [f.is_identity for f in factors],
                              front, weights, factors)

    def permutation_index(self, types: Sequence[SystemType], perm: Sequence[int]) -> np.ndarray:
        dims = tuple(t.dim for t in types)
        return np.arange(math.prod(dims)).reshape(dims).transpose(perm).ravel()

    def product_axes(self, types: Sequence[SystemType], choices: Sequence[np.ndarray]) -> np.ndarray:
        return np.ravel_multi_index(tuple(choices), tuple(t.dim for t in types))

    def product_coords(self, types: Sequence[SystemType],
                       stacks: Sequence[np.ndarray]) -> np.ndarray:
        return kron_rows(stacks)
