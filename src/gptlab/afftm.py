"""Affine Turing machines: weighted nondeterministic branching over configurations.

Transitions carry finite real weights (held as Python floats) that must sum
to +1 for every (state, symbol) a non-halting state can read, and halting
states have none; a machine is checked once, when it is built. The weight of
a computational branch is the product of its transition weights, and the
acceptance weight of an input is the total weight landing in the accept
state once every branch has halted. Branches are evolved as a
quasi-distribution over configurations (dynamic programming), which produces
the same acceptance weights as explicit path trees but merges paths that
reconverge.

A run steps that quasi-distribution in one of two encodings, chosen by its
size. A small frontier is an affine vector, a `{Configuration: weight}`
dict stepped by `step`. Once a frontier holds _ROWS_FROM configurations,
the run converts it to rows (`_Rows`) and steps it there:
an integer row per configuration (state index, head column, and a tape
window of symbol indices with blank = 0) beside a float64 weight array.
A row step gathers each row's branches from a transition table the machine
builds at its first hand-off and holds, repeats the row over them, writes
and moves, then merges equal rows in first-seen order and sums their weights
in row order, as `step` does. A norm adds a frontier's squares left to right
in float64 on either encoding. So every acceptance weight and norm is
bit-identical on either. Equal rows are grouped by one stable sort of the
rows' bytes; when no two rows are equal (a writer's frontier never merges),
the step keeps them as they are. The window covers the tape at the hand-off.
When a head steps past an edge, it moves to the cells some row has written
or a head is on, padded on that side; if those rows would be mostly blank
(heads far from the written cells), the run converts them back and finishes
on `step`. So memory follows the tape a run writes, never `max_steps`.

Machines are immutable; runs on different inputs may proceed concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isfinite
from numbers import Real
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .circuits import (DEFAULT_ENUMERATION_CAP, Acceptor, CircuitDAG, Decision, _accept,
                       _compile, _Layer)
from .core import ALGEBRA_TOL, PHYSICAL_TOL
from .errors import HaltingViolationError, MachineValidationError

Move = str  # "L" | "R" | "S"
_MOVES = {"L": -1, "R": 1, "S": 0}


@dataclass(frozen=True, slots=True)
class Branch:
    next_state: str
    write: str
    move: Move
    weight: float

    def __post_init__(self) -> None:
        if self.move not in _MOVES:
            raise ValueError(f"move must be one of L/R/S, got '{self.move}'")
        weight = self.weight
        if type(weight) is not float:
            if not isinstance(weight, Real) or isinstance(weight, bool):
                raise ValueError(f"weight must be a real number, got {weight!r}")
            weight = float(weight)
            object.__setattr__(self, "weight", weight)
        if not isfinite(weight):
            raise ValueError(f"weight must be finite, got {weight!r}")


@dataclass(frozen=True, eq=False)
class AffineMachine:
    """Checked once, when built; ``transitions`` is a read-only mapping, so the
    checks keep holding, and a pickled machine is built again through them."""

    states: frozenset[str]
    initial: str
    accept: str
    reject: str
    blank: str
    alphabet: frozenset[str]
    transitions: Mapping[tuple[str, str], tuple[Branch, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        transitions = dict(self.transitions)
        object.__setattr__(self, "transitions", MappingProxyType(transitions))
        object.__setattr__(self, "_branches", transitions.get)  # step's lookup, at dict speed
        for s in (self.initial, self.accept, self.reject):
            if s not in self.states:
                raise ValueError(f"'{s}' is not in the machine's state set")
        if self.blank not in self.alphabet:
            raise ValueError("blank symbol must be in the tape alphabet")
        states, alphabet = self.states, self.alphabet
        violations = []
        for key, branches in self.transitions.items():
            state, symbol = key
            if state not in states or symbol not in alphabet:
                raise _undeclared(self, key, state, symbol)
            for b in branches:
                if b.next_state not in states or b.write not in alphabet:
                    raise _undeclared(self, key, b.next_state, b.write)
            if self.is_halting(state):
                violations.append(f"halting state '{state}' has outgoing transitions")
                continue
            total = sum(b.weight for b in branches)
            if not abs(total - 1.0) <= ALGEBRA_TOL:
                violations.append(f"weights from ({state!r}, {symbol!r}) sum to {total!r}, not 1")
        if violations:
            raise MachineValidationError("; ".join(violations))

    def __reduce__(self):
        return type(self), (self.states, self.initial, self.accept, self.reject, self.blank,
                            self.alphabet, dict(self.transitions))

    def is_halting(self, state: str) -> bool:
        return state in (self.accept, self.reject)

    @cached_property
    def _rows_table(self) -> "_Table":  # the row encoding's, built at the first hand-off
        return _table(self)


def _undeclared(machine: AffineMachine, key, state: str, symbol: str) -> ValueError:
    what = f"state {state!r}" if state not in machine.states else f"symbol {symbol!r}"
    return ValueError(f"transition from {key!r} names {what}, which the machine does not declare")


class Configuration(NamedTuple):
    """Machine state + sparse bidirectional tape + head.

    The tape is a tuple of (position, symbol) pairs sorted by position, with
    blank cells omitted, so equal tapes are equal tuples.
    """

    state: str
    tape: tuple[tuple[int, str], ...]
    head: int


def initial_configuration(machine: AffineMachine, x: str) -> Configuration:
    if x and not machine.alphabet.issuperset(x):  # "" makes no pass over the input
        unknown = sorted(set(x) - machine.alphabet)
        raise MachineValidationError(f"input symbols {unknown} are not in the tape alphabet")
    tape = tuple((i, c) for i, c in enumerate(x) if c != machine.blank) if x else ()
    return tuple.__new__(Configuration, (machine.initial, tape, 0))


AffineVector = dict  # Configuration -> weight; exact zeros pruned


def step(machine: AffineMachine, vector: AffineVector) -> AffineVector:
    """One parallel transition step; halting configurations persist unchanged.

    Each configuration's tape is split once at the head (a blank tape takes no
    bisection); every branch's tape shares those slices. Equal configurations
    merge in first-seen order.
    """
    out: AffineVector = {}
    get = out.get
    blank = machine.blank
    halting = (machine.accept, machine.reject)
    new = tuple.__new__  # Configuration's own __new__ is a Python-level frame
    for cfg, weight in vector.items():
        state, tape, head = cfg
        if state in halting:
            out[cfg] = get(cfg, 0.0) + weight
            continue
        i = j = bisect_left(tape, (head,)) if tape else 0
        symbol = blank
        if i < len(tape) and tape[i][0] == head:
            symbol, j = tape[i][1], i + 1
        left, right = tape[:i], tape[j:]
        branches = machine._branches((state, symbol))
        if not branches:
            raise MachineValidationError(
                f"no transition for non-halting ({state!r}, {symbol!r})"
            )
        for b in branches:
            written = left + right if b.write == blank else left + ((head, b.write),) + right
            nxt = new(Configuration, (b.next_state, written, head + _MOVES[b.move]))
            out[nxt] = get(nxt, 0.0) + weight * b.weight
    if 0.0 in out.values():  # pruning copies the frontier; most steps cancel nothing
        return {cfg: w for cfg, w in out.items() if w != 0.0}
    return out


# A frontier of this many configurations steps as rows. Handing a writer off
# here and stepping once more (128 -> 256) costs what the dict step does;
# each further step is cheaper as rows, and a run that peaks below it is not.
# A hand-off at 64 slows a writer that peaks at 128 (0.43 against 0.34 ms on
# one core of a 2 vCPU Xeon) and read 3% more afftm-frontier ops/s over ten
# paired benchmark runs, less than the spread between runs.
_ROWS_FROM = 128


class _Table(NamedTuple):
    """A machine's transitions as arrays, keyed by state * len(symbols) + symbol.

    A halting state gets one branch per symbol that keeps the configuration,
    so halting rows persist unchanged; a missing transition has no branches.
    """

    states: list[str]  # state index -> name, sorted
    symbols: list[str]  # symbol index -> symbol, blank = 0
    halting: np.ndarray  # per state index
    first: np.ndarray  # per key: index of its first branch
    count: np.ndarray  # per key: number of branches
    next_state: np.ndarray  # per branch, like the three below
    write: np.ndarray
    move: np.ndarray
    weight: np.ndarray


def _table(machine: AffineMachine) -> _Table:
    states = sorted(machine.states)
    symbols = [machine.blank, *sorted(machine.alphabet - {machine.blank})]
    state_index = {s: i for i, s in enumerate(states)}
    symbol_index = {a: i for i, a in enumerate(symbols)}
    count, branches = [], []
    for state in states:
        for symbol in symbols:
            if machine.is_halting(state):
                keyed = [(state, symbol, "S", 1.0)]
            else:
                keyed = [(b.next_state, b.write, b.move, b.weight)
                         for b in machine.transitions.get((state, symbol), ())]
            count.append(len(keyed))
            branches.extend(keyed)
    count = np.array(count, dtype=np.intp)
    next_state, write, move, weight = zip(*branches)  # the accept state has branches
    return _Table(states, symbols, np.array([machine.is_halting(s) for s in states]),
                  np.cumsum(count) - count, count,
                  np.array([state_index[s] for s in next_state], dtype=np.intp),
                  np.array([symbol_index[a] for a in write], dtype=np.intp),
                  np.array([_MOVES[m] for m in move], dtype=np.intp),
                  np.array(weight, dtype=float))


def _merge(rows: np.ndarray, weights: np.ndarray):
    """Merge equal rows in first-seen order, adding their weights in row order.

    Each C-contiguous row is one key of its bytes, so one stable sort of the
    keys puts each group of equal rows together, its first-seen row first.
    The sort is linear on keys that already come in byte order, as a
    right-moving writer's frontier does. If no two neighbours are equal the rows are
    distinct, and come back as they are with `weights + 0.0`, the sums
    `np.bincount` would give. Otherwise `np.bincount` adds each group's
    weights in row order starting from 0.0, the additions
    `out.get(cfg, 0.0) + w` makes in `step`.
    """
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.empty(len(rows), dtype=bool)
    starts[0] = True
    starts[1:] = ranked[1:] != ranked[:-1]  # bytewise; np.not_equal has no void loop
    if starts.all():
        return rows, weights + 0.0
    seen = np.empty(len(rows), dtype=np.intp)  # each row's first-seen equal row
    seen[order] = order[starts][np.cumsum(starts) - 1]
    firsts, group = np.unique(seen, return_inverse=True)
    return np.take(rows, firsts, axis=0), np.bincount(group, weights, len(firsts))


class _Rows:
    """A frontier as integer rows and a weight array, both in frontier order.

    Row i is configuration i as (state index, head column, tape window): the
    window's columns are consecutive tape cells, from position `origin` on,
    holding symbol indices with blank = 0. Every row shares one window, so
    equal rows are equal configurations. The window covers the tape extent
    at the hand-off and moves (`_rewindow`) when a head steps past an edge.
    """

    def __init__(self, table: _Table, rows: np.ndarray, weights: np.ndarray,
                 origin: int) -> None:
        self.table, self.rows, self.weights, self.origin = table, rows, weights, origin

    @classmethod
    def of(cls, machine: AffineMachine, vector: AffineVector) -> "_Rows":
        table = machine._rows_table
        state_index = {s: i for i, s in enumerate(table.states)}
        symbol_index = {a: i for i, a in enumerate(table.symbols)}
        states, tapes, heads = zip(*vector)
        cells = list(chain.from_iterable(chain.from_iterable(tapes)))  # position, symbol, ...
        row = np.repeat(np.arange(len(vector)), np.fromiter(map(len, tapes), np.intp, len(tapes)))
        position = np.array(cells[0::2], dtype=np.intp)
        heads = np.array(heads, dtype=np.intp)
        lo = min(heads.min(), position.min(initial=heads.min()))
        width = max(heads.max(), position.max(initial=heads.max())) - lo + 1
        rows = np.zeros((len(vector), 2 + width), dtype=_row_dtype(table, width))
        rows[:, 0] = np.fromiter(map(state_index.__getitem__, states), np.intp, len(states))
        rows[:, 1] = heads - lo
        rows[row, 2 + position - lo] = np.fromiter(map(symbol_index.__getitem__, cells[1::2]),
                                                   np.intp, len(row))
        weights = np.fromiter(vector.values(), dtype=float, count=len(vector))
        return cls(table, rows, weights, int(lo))

    def vector(self) -> AffineVector:
        """The affine vector the rows hold, in row order."""
        t, origin = self.table, self.origin
        out: AffineVector = {}
        for (state, head, *cells), w in zip(self.rows.tolist(), self.weights.tolist()):
            tape = tuple((origin + j, t.symbols[c]) for j, c in enumerate(cells) if c)
            out[Configuration(t.states[state], tape, origin + head)] = w
        return out

    def weights_in(self, state: str) -> list[float]:
        """The weights of the rows in `state`, in row order."""
        return self.weights[self.rows[:, 0] == self.table.states.index(state)].tolist()

    def running(self) -> list[str]:
        """The names of the states some row is running in, each once."""
        present = np.zeros(len(self.table.states), dtype=bool)
        present[self.rows[:, 0]] = True
        return [s for s, row in zip(self.table.states, present & ~self.table.halting) if row]

    def step(self) -> "_Rows | None":
        """`step` on rows: the same merge order, weights and errors.

        None where a head steps past the window's edge and the rows would be
        mostly blank: a run then goes on with `step`.
        """
        t, rows = self.table, self.rows
        heads = rows[:, 1].astype(np.intp)
        symbols = rows[np.arange(len(rows)), 2 + heads].astype(np.intp)
        keys = rows[:, 0].astype(np.intp) * len(t.symbols) + symbols
        count = t.count[keys]
        if not count.all():
            i = int(np.argmin(count))
            raise MachineValidationError(f"no transition for non-halting "
                                         f"({t.states[rows[i, 0]]!r}, {t.symbols[symbols[i]]!r})")
        parent = np.repeat(np.arange(len(rows)), count)
        ends = np.cumsum(count)
        branch = np.arange(ends[-1]) + np.repeat(t.first[keys] - (ends - count), count)
        child = np.take(rows, parent, axis=0)
        heads = heads[parent]
        child[np.arange(len(child)), 2 + heads] = t.write[branch]
        child[:, 0] = t.next_state[branch]
        heads += t.move[branch]
        start = 0
        if heads.min() < 0 or heads.max() >= child.shape[1] - 2:
            moved = _rewindow(t, child, heads)
            if moved is None:
                return None
            child, start = moved
            heads -= start
        child[:, 1] = heads
        with np.errstate(all="ignore"):  # as float arithmetic: inf and nan without a warning
            weights = self.weights[parent] * t.weight[branch]
        merged, weights = _merge(child, weights)
        kept = weights != 0.0
        if not kept.all():
            merged, weights = merged[kept], weights[kept]
        return _Rows(t, merged, weights, self.origin + start)


# Rows whose window holds more than this many columns per non-blank cell or
# head are mostly blank; a run steps them as an affine vector instead, whose
# tapes keep only the non-blank cells. A column costs 1-4 bytes per row and
# padding triples the window at most, so rows within this ratio take less
# memory per cell than a tape's (position, symbol) tuple of 56 bytes and more.
_BLANKS_PER_CELL = 4


def _rewindow(table: _Table, child: np.ndarray, heads: np.ndarray):
    """Move the window to the columns a head or a non-blank cell occupies,
    padded by their extent on each side a head stepped past.

    Returns the new rows, whose heads are unset, and the old column of the
    new window's first; None if the rows would be mostly blank.
    """
    width = child.shape[1] - 2
    tape = child[:, 2:]
    used = np.flatnonzero(tape.any(axis=0))
    lo = min(heads.min(), used.min(initial=width))
    hi = max(heads.max(), used.max(initial=-1))
    extent = int(hi - lo + 1)
    if len(child) * extent > _BLANKS_PER_CELL * (np.count_nonzero(tape) + len(child)):
        return None
    start = int(lo) - (extent if heads.min() < 0 else 0)
    stop = int(hi) + 1 + (extent if heads.max() >= width else 0)
    grown = np.zeros((len(child), 2 + stop - start), dtype=_row_dtype(table, stop - start))
    grown[:, 0] = child[:, 0]
    a, b = max(start, 0), min(stop, width)
    grown[:, 2 + a - start:2 + b - start] = tape[:, a:b]
    return grown, start


def _row_dtype(table: _Table, width: int) -> np.dtype:
    """The narrowest unsigned dtype for state indices, symbol indices and head columns."""
    return np.min_scalar_type(max(len(table.states), len(table.symbols), width))


def _run(machine: AffineMachine, x: str, max_steps: int, state: str | None = None):
    """Yield the weights of each frontier of a run, in frontier order, from the
    input on until every branch halts: all of them as a float64 array, or with
    `state`, only those of the configurations in that state.

    The frontier is an affine vector stepped by `step` until it first holds
    _ROWS_FROM configurations, and _Rows from then on, unless those turn
    mostly blank: the run then goes back to `step` for good.
    """
    vector: AffineVector = {initial_configuration(machine, x): 1.0}
    rows: _Rows | None = None
    to_rows = True
    halting = (machine.accept, machine.reject)
    steps = 0
    while True:
        if rows is None:
            yield np.fromiter(vector.values(), float, len(vector)) if state is None else (
                w for c, w in vector.items() if c.state == state)
            running = [c.state for c in vector if c.state not in halting]
        else:
            yield rows.weights if state is None else rows.weights_in(state)
            running = rows.running()
        if not running:
            return
        if steps >= max_steps:
            raise HaltingViolationError(f"branches still running after {max_steps} steps "
                                        f"(states {sorted(set(running))})")
        if rows is None and to_rows and len(vector) >= _ROWS_FROM:
            rows = _Rows.of(machine, vector)
        if rows is None:
            vector = step(machine, vector)
        elif (stepped := rows.step()) is not None:
            rows = stepped
        else:
            vector, rows, to_rows = step(machine, rows.vector()), None, False
        steps += 1


def acceptance_weight(machine: AffineMachine, x: str, max_steps: int) -> float:
    """Total weight of accepting configurations once every branch has halted."""
    weights, = deque(_run(machine, x, max_steps, machine.accept), maxlen=1)
    return sum(weights)


@dataclass
class NormTrace:
    """Euclidean norms of the configuration quasi-distribution, step by step.

    Steps whose norm exceeds 1 (by more than PHYSICAL_TOL) witness dynamics
    unavailable to theories that assign probabilities to all composable
    circuits; the monitor reports and never enforces.
    """

    norms: list[float]
    flagged_steps: list[int]

    @property
    def within_bound(self) -> bool:
        return not self.flagged_steps


def norm_trace(machine: AffineMachine, x: str, max_steps: int) -> NormTrace:
    """Each frontier's norm; its squares add left to right in float64, as `sum` did before 3.12."""
    norms = []
    for w in _run(machine, x, max_steps):
        with np.errstate(all="ignore"):  # as float arithmetic: inf and nan without a warning
            norms.append(float(np.sqrt(np.cumsum(w * w)[-1] if len(w) else 0.0)))
    flagged = [i for i, n in enumerate(norms) if n > 1.0 + PHYSICAL_TOL]
    return NormTrace(norms, flagged)


@dataclass
class PropernessEntry:
    input: str
    alpha: float
    ok: bool


@dataclass
class PropernessReport:
    entries: list[PropernessEntry]
    all_pass: bool
    note: str


def is_proper_on(machine: AffineMachine, inputs: Iterable[str], max_steps: int) -> PropernessReport:
    """Check 0 <= acceptance weight <= 1, to PHYSICAL_TOL, on the given inputs.

    Properness over *all* inputs is undecidable in general; this is a
    finite-sample check and says so in the report.
    """
    entries = []
    for x in inputs:
        alpha = acceptance_weight(machine, x, max_steps)
        entries.append(PropernessEntry(x, alpha, -PHYSICAL_TOL <= alpha <= 1.0 + PHYSICAL_TOL))
    note = "finite-sample check only; properness over all inputs is undecidable"
    if not entries:
        note = "vacuous pass: no inputs supplied; " + note
    return PropernessReport(entries, all(e.ok for e in entries), note)


@dataclass
class BoundedErrorEntry:
    input: str
    label: bool
    alpha: float
    ok: bool


@dataclass
class BoundedErrorReport:
    entries: list[BoundedErrorEntry]
    passed: bool


def decides_with_bounded_error(machine: AffineMachine,
                               samples: Iterable[tuple[str, bool]],
                               max_steps: int) -> BoundedErrorReport:
    """Check that :meth:`Decision.of` accepts every positive sample's alpha
    (alpha >= 2/3) and rejects every negative one's (alpha <= 1/3)."""
    entries = []
    for x, label in samples:
        alpha = acceptance_weight(machine, x, max_steps)
        ok = Decision.of(alpha) is (Decision.ACCEPT if label else Decision.REJECT)
        entries.append(BoundedErrorEntry(x, bool(label), alpha, ok))
    return BoundedErrorReport(entries, all(e.ok for e in entries))


# ---------------------------------------------------------------------------
# circuit <-> affine program bridge


@dataclass(frozen=True, eq=False)
class AffineProgram:
    """A branching sequence of affine maps plus an acceptor.

    Running the program evolves a weight vector through every branch choice;
    the acceptance weight is the sum of the final scalars over branches the
    acceptor maps to 0, evaluated by the code of ``circuits.acceptance_prob``.
    """

    steps: tuple[_Layer, ...]
    acceptor: Acceptor
    instance_order: tuple[str, ...]

    def acceptance_weight(self) -> float:
        return _accept(self.steps, self.acceptor, self.instance_order)


def circuit_to_affine_program(circuit: CircuitDAG, acceptor: Acceptor,
                              cap: int = DEFAULT_ENUMERATION_CAP) -> AffineProgram:
    """Recast a closed circuit as a branching affine program.

    Each greedy foliation layer, as ``circuits`` compiles it and the circuit
    holds it, becomes one branching step: a wire permutation, then one
    branch per outcome combination of the layer's gates, whose affine map
    is the parallel composition of the chosen outcomes (passthrough wires
    unchanged). No branch matrix is built: the program runs through
    ``acceptance_prob``'s code, so its acceptance weight equals the
    circuit's acceptance probability, bit for bit.
    """
    return AffineProgram(_compile(circuit, None, cap), acceptor,
                         tuple(circuit.instance_ids))
