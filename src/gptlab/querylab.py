"""Oracle query experiments with strict query accounting.

The oracle wrapper counts every access itself, whether classical lookup or
unitary application, so an algorithm's query count is whatever the oracle
says it is. PARITY is solved by pairing items through phase-kickback
interference (one oracle use per pair), search by amplitude amplification;
both are exact state-vector simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import PHYSICAL_TOL, _Checked

# The largest item count the command line accepts, and the most Grover
# iterations it runs. It bounds the oracle table, and PARITY by pairing, whose
# P/2 oracle uses are gathers of length 2P (P the padded item count), so its
# cost grows as P^2; each Grover iteration costs O(N). The functions below
# take any size.
MAX_ITEMS = 4096


@dataclass(frozen=True)
class OracleFunction(_Checked):
    """A bit-valued function on items 0..N-1, given by its full table."""

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("oracle table must be nonempty")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("oracle table entries must be bits")
        object.__setattr__(self, "table", tuple(int(b) for b in self.table))

    @property
    def n_items(self) -> int:
        return len(self.table)

    @property
    def padded_size(self) -> int:
        return 1 << max(1, (self.n_items - 1).bit_length())

    def marked_items(self) -> list[int]:
        return [i for i, b in enumerate(self.table) if b]


def _bit_oracle_index(f: OracleFunction) -> np.ndarray:
    """The bit oracle as a gather index, 2x + y -> 2x + (y xor f(x)); padded items read 0."""
    bits = np.zeros(f.padded_size, dtype=np.intp)
    bits[:f.n_items] = f.table
    return np.arange(2 * f.padded_size) ^ np.repeat(bits, 2)


class Oracle:
    """Counting wrapper; algorithms below only touch ``f`` through this."""

    def __init__(self, f: OracleFunction):
        self._f = f
        self.queries = 0

    # each algorithm uses one oracle form, so each is built on its first use
    @cached_property
    def _bit_index(self) -> np.ndarray:
        return _bit_oracle_index(self._f)

    @cached_property
    def _marked(self) -> np.ndarray:
        return np.array(self._f.marked_items(), dtype=np.intp)

    def classical(self, item: int) -> int:
        self.queries += 1
        return self._f.table[item]

    def apply_bit_unitary(self, state: np.ndarray) -> np.ndarray:
        """The bit oracle (x, y) -> (x, y xor f(x)) on the padded control (x) target
        register, as a gather: the oracle is a permutation."""
        self.queries += 1
        return state[self._bit_index]

    def apply_phase(self, state: np.ndarray) -> np.ndarray:
        """Phase form: flips the sign of marked-item amplitudes.

        Equivalent to the bit oracle with the target held in the minus
        state; used by the search routine to halve the register.
        """
        self.queries += 1
        out = np.array(state, dtype=float)
        out[self._marked] = -out[self._marked]
        return out


@dataclass
class QueryTranscript:
    query_count: int
    result: int
    success: bool
    success_probability: float | None = None


def parity_classical(f: OracleFunction) -> QueryTranscript:
    """Look up every item; N queries."""
    oracle = Oracle(f)
    result = 0
    for i in range(f.n_items):
        result ^= oracle.classical(i)
    return QueryTranscript(oracle.queries, result, success=True)


def parity_quantum(f: OracleFunction) -> QueryTranscript:
    """Parity in ceil(N/2) oracle uses by pairing items.

    Each pair (2i, 2i+1) is resolved with one oracle call: put the control
    in an equal superposition of the two items and the target in the minus
    state, apply the oracle, and the pair parity sits in the relative phase,
    read out deterministically by projecting back onto the equal
    superposition. An odd leftover item costs one classical lookup.
    """
    oracle = Oracle(f)
    n = f.n_items
    size = 2 * f.padded_size
    result = 0
    for i in range(0, n - 1, 2):
        reference = np.zeros(size)
        # (|2i> + |2i+1>)/sqrt2 on the control, minus state on the target
        for x in (i, i + 1):
            reference[2 * x + 0] = 0.5
            reference[2 * x + 1] = -0.5
        state = oracle.apply_bit_unitary(reference)
        overlap = float(reference @ state) ** 2
        if not (overlap < PHYSICAL_TOL or overlap > 1 - PHYSICAL_TOL):
            raise AssertionError("pair readout was not deterministic")
        result ^= 0 if overlap > 0.5 else 1
    if n % 2 == 1:
        result ^= oracle.classical(n - 1)
    return QueryTranscript(oracle.queries, result, success=True)


def grover_success_probability(n_items: int, iterations: int) -> float:
    """Closed form sin^2((2t+1) * arcsin(1/sqrt(N))) for one marked item."""
    theta = math.asin(1.0 / math.sqrt(n_items))
    return math.sin((2 * iterations + 1) * theta) ** 2


def grover_search(f: OracleFunction, iterations: int | None = None) -> QueryTranscript:
    """Amplitude amplification for a single marked item.

    State-vector simulation of uniform initialization, phase oracle, and
    inversion about the mean; defaults to floor(pi/4 * sqrt(N)) rounds. The
    transcript reports the most likely item and the probability of measuring
    the marked one.
    """
    marked = f.marked_items()
    if len(marked) != 1:
        raise ValueError(f"search needs exactly one marked item, got {len(marked)}")
    n = f.n_items
    if iterations is None:
        iterations = int(math.pi / 4.0 * math.sqrt(n))
    oracle = Oracle(f)
    state = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(iterations):
        state = oracle.apply_phase(state)
        state = 2.0 * state.mean() - state  # inversion about the mean
    probs = state**2
    result = int(np.argmax(probs))
    p_marked = float(probs[marked[0]])
    return QueryTranscript(oracle.queries, result,
                           success=(result == marked[0]),
                           success_probability=p_marked)


@dataclass
class QueryBound:
    """A query-count bound; asymptotic values carry no constant."""

    problem: str
    n_items: int
    order: int
    value: float
    asymptotic: bool

    def __str__(self) -> str:
        kind = "asymptotic witness" if self.asymptotic else "exact"
        value = f"{self.value:g}" if self.asymptotic else str(int(self.value))
        return f"{self.problem}(N={self.n_items}, k={self.order}): {value} ({kind})"


def lower_bound(problem: str, n_items: int, order: int) -> QueryBound:
    """Query bounds under interference order k.

    parity: minimum ceil(N/k) queries, an exact integer for every N. search:
    order sqrt(N/k) queries, reported as an asymptotic witness value since no
    constant is available.
    Algorithms attaining the parity bound for k > 2 are not provided here.
    """
    if n_items < 1 or order < 1:
        raise ValueError("need N >= 1 and k >= 1")
    if problem == "parity":
        return QueryBound(problem, n_items, order, -(-n_items // order), False)
    if problem == "search":
        return QueryBound(problem, n_items, order, math.sqrt(n_items / order), True)
    raise ValueError(f"unknown problem '{problem}'")
