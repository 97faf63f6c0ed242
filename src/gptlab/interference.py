"""Slit projector families, coherence projectors, and interference order.

A projector family assigns a commuting idempotent P_I to every subset I of
slits, with P_I P_J equal to the projector of the intersection. The
coherence projector of a subset is the alternating (Moebius) sum of the
projectors of its subsets; it isolates exactly the coherences among that
subset of slits, and the largest subset size on which it acts nontrivially
is the interference order of the family. A family is checked once, when it
is built, so the analyses below take its invariants as given.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import PHYSICAL_TOL, _Checked, _freeze
from .errors import FamilyInvariantError, ReconstructionError
from .theories import DensityCarrier, hermitian_basis


def subsets(n_slits: int, min_size: int = 0, max_size: int | None = None) -> list[frozenset]:
    """All slit subsets by (size, lexicographic) order, up to ``max_size`` slits."""
    max_size = n_slits if max_size is None else min(max_size, n_slits)
    out = []
    for k in range(min_size, max_size + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(n_slits), k))
    return out


@dataclass(frozen=True, eq=False)
class ProjectorFamily(_Checked):
    """Square real matrices P_I on a common carrier space, indexed by slit subsets:
    a read-only mapping of read-only matrices, so the checks made when the
    family is built keep holding."""

    n_slits: int
    projectors: Mapping[frozenset, np.ndarray]
    name: str = ""
    synthetic: bool = False

    def __post_init__(self) -> None:
        fixed = {}
        dim = None
        for key, mat in self.projectors.items():
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError("projectors must be square matrices")
            if not np.isfinite(mat).all():
                raise ValueError("projector entries must be finite")
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise ValueError("projectors must share one carrier dimension")
            fixed[frozenset(key)] = _freeze(mat)
        if dim is None:
            raise ValueError("a projector family needs at least one projector")
        empty = frozenset()
        if empty not in fixed:
            fixed[empty] = _freeze(np.zeros((dim, dim)))
        object.__setattr__(self, "projectors", MappingProxyType(fixed))
        violations = _violations(self.n_slits, fixed)
        if violations:
            raise FamilyInvariantError("; ".join(violations))

    @property
    def dim(self) -> int:
        # every projector has it: __post_init__ checks one shared dimension
        return next(iter(self.projectors.values())).shape[0]

    def projector(self, subset: Iterable[int]) -> np.ndarray:
        key = frozenset(subset)
        if not key <= frozenset(range(self.n_slits)):
            raise ValueError(f"{sorted(key)} is not a subset of the {self.n_slits} slits")
        return self.projectors[key]


def _violations(n: int, projectors: Mapping[frozenset, np.ndarray]) -> list[str]:
    """The violations of: a projector for every subset of n slits, a zero empty
    projector, and to PHYSICAL_TOL the products that generate the intersection
    law, namely P_S and its coatoms idempotent and multiplying pairwise to the
    projector of the intersection, and each lower P_A = P_{A+{j}} P_{S-{j}} with
    j = min(S - A). A chain of at most n products holds each P_A, so the law's
    tolerance edge grows up to n-fold, and an invalid family may list fewer
    violations than a scan of every pair."""
    # every subset needs its own projector: len < 2**n, with 2**n left unbuilt
    if len(projectors).bit_length() <= n:
        return [f"{len(projectors)} projectors cannot cover the subsets of {n} slits"]
    keys = subsets(n)
    violations = [f"missing projector for subset {sorted(key)}"
                  for key in keys if key not in projectors]
    if violations:
        return violations
    top, full = keys[-n - 1:], frozenset(range(n))  # top: the coatoms of S, then S
    for key in top:
        p = projectors[key]
        if not np.max(np.abs(p @ p - p)) <= PHYSICAL_TOL:
            violations.append(f"P_{sorted(key)} is not idempotent")
    # (A+{j}) & (S-{j}) = A; at n - 2 slits and up, pairs of top projectors hold it
    chains = [(a | {min(full - a)}, full - {min(full - a)}) for a in subsets(n, max_size=n - 3)]
    for a, b in itertools.chain(itertools.product(top, repeat=2), chains):
        if not np.max(np.abs(projectors[a] @ projectors[b] - projectors[a & b])) <= PHYSICAL_TOL:
            violations.append(f"P_{sorted(a)} P_{sorted(b)} != P_{sorted(a & b)}")
    if not np.max(np.abs(projectors[frozenset()])) <= PHYSICAL_TOL:
        violations.append("P_emptyset is not zero")
    return violations


def coherence_projector(family: ProjectorFamily, subset: Iterable[int]) -> np.ndarray:
    """Alternating sum over sub-subsets: sum_{J <= I} (-1)^(|I|-|J|) P_J."""
    key = frozenset(subset)
    if not key:
        raise ValueError("coherence projectors are indexed by nonempty subsets")
    if not key <= frozenset(range(family.n_slits)):
        raise ValueError(f"{sorted(key)} is not a subset of the {family.n_slits} slits")
    out = np.zeros((family.dim, family.dim))
    for k in range(len(key) + 1):
        sign = (-1.0) ** (len(key) - k)
        for sub in itertools.combinations(sorted(key), k):
            out += sign * family.projector(frozenset(sub))
    return out


def interference_order(family: ProjectorFamily, span: np.ndarray | None = None) -> int:
    """Largest subset size whose coherence projector acts nontrivially.

    ``span``: matrix whose columns span the state region of interest (default:
    the whole carrier space). Equivalently the result is the smallest k with
    omega_I v = 0 for every |I| > k and every v in the span, to PHYSICAL_TOL
    relative to the span's norm.
    """
    if span is None:
        span = np.eye(family.dim)
    span = np.asarray(span, dtype=float)
    scale = max(1.0, float(np.linalg.norm(span, 2)))
    full = family.projector(frozenset(range(family.n_slits)))
    if np.linalg.norm(full @ span - span, 2) > PHYSICAL_TOL * scale:
        raise FamilyInvariantError("the full-slit projector is not the identity on the span")
    order = 1
    for key in subsets(family.n_slits, min_size=2):
        omega = coherence_projector(family, key)
        if np.linalg.norm(omega @ span, 2) > PHYSICAL_TOL * scale:
            order = max(order, len(key))
    return order


@dataclass
class CoherenceDecomposition:
    """Components omega_I v for 1 <= |I| <= order; they re-sum to the input."""

    components: dict[frozenset, np.ndarray]
    order: int
    residual: float

    def reconstruct(self) -> np.ndarray:
        return sum(self.components.values())


def decompose(vector: np.ndarray, family: ProjectorFamily, order: int) -> CoherenceDecomposition:
    """Split a carrier-space vector into coherence components up to ``order``.

    Raises :class:`ReconstructionError` (carrying the residual norm) when the
    components miss the input by more than PHYSICAL_TOL relative to its norm,
    i.e. when ``order`` is below the interference order on this vector, or
    when the residual is not finite (an input near the float range overflows).
    """
    vector = np.asarray(vector, dtype=float)
    components = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for key in subsets(family.n_slits, min_size=1, max_size=order):
            components[key] = coherence_projector(family, key) @ vector
        residual = float(np.linalg.norm(sum(components.values()) - vector))
        scale = max(1.0, float(np.linalg.norm(vector)))
    if not (np.isfinite(residual) and residual <= PHYSICAL_TOL * scale):
        raise ReconstructionError(
            f"components up to size {order} miss the input by {residual:.3e}", residual
        )
    return CoherenceDecomposition(components, order, residual)


# ---------------------------------------------------------------------------
# built-in families


def classical_family(d: int) -> ProjectorFamily:
    """d perfectly distinguishable slits on probability d-vectors."""
    projectors = {}
    for key in subsets(d):
        diag = np.zeros(d)
        for i in key:
            diag[i] = 1.0
        projectors[key] = np.diag(diag)
    return ProjectorFamily(d, projectors, name=f"classical-{d}")


def quantum_family(d: int) -> ProjectorFamily:
    """Slits = computational basis directions; P_I acts as rho -> Pi rho Pi.

    Matrices are superoperators on the transfer space of a d-level system, in
    the coordinates of ``DensityCarrier(hermitian_basis(d))``.
    """
    carrier = DensityCarrier(hermitian_basis(d))
    projectors = {}
    for key in subsets(d):
        pi = np.zeros((d, d), dtype=complex)
        for i in key:
            pi[i, i] = 1.0
        projectors[key] = carrier.channel_matrix([pi])
    return ProjectorFamily(d, projectors, name=f"quantum-{d}")


def synthetic_family(n_slits: int, order: int) -> ProjectorFamily:
    """A direct construction with interference order exactly ``order``.

    The carrier has one axis per nonempty slit subset of size <= order, and
    P_I projects onto the axes of subsets contained in I; then omega_I keeps
    exactly the axis of I. Labelled synthetic: it exercises the analyzer and
    is not claimed to arise from any physical theory.
    """
    if not (1 <= order <= n_slits):
        raise ValueError("order must lie between 1 and n_slits")
    axes = subsets(n_slits, min_size=1, max_size=order)
    index = {key: i for i, key in enumerate(axes)}
    dim = len(axes)
    projectors = {}
    for key in subsets(n_slits):
        diag = np.zeros(dim)
        for axis, i in index.items():
            if axis <= key:
                diag[i] = 1.0
        projectors[key] = np.diag(diag)
    return ProjectorFamily(n_slits, projectors,
                           name=f"synthetic-{n_slits}-order-{order}", synthetic=True)
