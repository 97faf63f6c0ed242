"""Affine Turing machines: weighted nondeterministic branching over configurations.

Transitions carry real weights that must sum to exactly +1 for every
(state, symbol) a non-halting state can read; the weight of a computational
branch is the product of its transition weights, and the acceptance weight
of an input is the total weight landing in the accept state once every
branch has halted. Branches are evolved as a quasi-distribution over
configurations (dynamic programming), which produces the same acceptance
weights as explicit path trees but merges paths that reconverge.

Machines are immutable; runs on different inputs may proceed concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .circuits import DEFAULT_ENUMERATION_CAP, Acceptor, CircuitDAG, Decision, _accept, _compile
from .core import ALGEBRA_TOL, PHYSICAL_TOL
from .errors import HaltingViolationError, MachineValidationError

Move = str  # "L" | "R" | "S"
_MOVES = {"L": -1, "R": 1, "S": 0}


@dataclass(frozen=True)
class Branch:
    next_state: str
    write: str
    move: Move
    weight: float

    def __post_init__(self) -> None:
        if self.move not in _MOVES:
            raise ValueError(f"move must be one of L/R/S, got '{self.move}'")


@dataclass(frozen=True, eq=False)
class AffineMachine:
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
        object.__setattr__(self, "transitions", dict(self.transitions))
        for s in (self.initial, self.accept, self.reject):
            if s not in self.states:
                raise ValueError(f"'{s}' is not in the machine's state set")
        if self.blank not in self.alphabet:
            raise ValueError("blank symbol must be in the tape alphabet")
        states, alphabet = self.states, self.alphabet
        for key, branches in self.transitions.items():
            if key[0] not in states or key[1] not in alphabet:
                raise _undeclared(self, key, *key)
            for b in branches:
                if b.next_state not in states or b.write not in alphabet:
                    raise _undeclared(self, key, b.next_state, b.write)

    def is_halting(self, state: str) -> bool:
        return state in (self.accept, self.reject)


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

    def read(self, blank: str) -> str:
        return _split(self.tape, self.head, blank)[1]


def _split(tape: tuple[tuple[int, str], ...], head: int, blank: str):
    """(cells left of the head, symbol under it, cells right of it)."""
    i = bisect_left(tape, (head,))
    if i < len(tape) and tape[i][0] == head:
        return tape[:i], tape[i][1], tape[i + 1:]
    return tape[:i], blank, tape[i:]


def initial_configuration(machine: AffineMachine, x: str) -> Configuration:
    if not machine.alphabet.issuperset(x):
        unknown = sorted(set(x) - machine.alphabet)
        raise MachineValidationError(f"input symbols {unknown} are not in the tape alphabet")
    tape = tuple((i, c) for i, c in enumerate(x) if c != machine.blank)
    return Configuration(machine.initial, tape, 0)


AffineVector = dict  # Configuration -> weight; exact zeros pruned


@dataclass
class MachineReport:
    ok: bool
    violations: list[str]

    def __bool__(self) -> bool:
        return self.ok


def validate(machine: AffineMachine) -> MachineReport:
    """List every (state, symbol) whose weights do not sum to +1, and any
    transition leaving a halting state."""
    violations: list[str] = []
    for (state, symbol), branches in machine.transitions.items():
        if machine.is_halting(state):
            violations.append(f"halting state '{state}' has outgoing transitions")
            continue
        total = sum(b.weight for b in branches)
        if abs(total - 1.0) > ALGEBRA_TOL:
            violations.append(f"weights from ({state!r}, {symbol!r}) sum to {total!r}, not 1")
    return MachineReport(not violations, violations)


def step(machine: AffineMachine, vector: AffineVector) -> AffineVector:
    """One parallel transition step; halting configurations persist unchanged.

    Each configuration's tape is split once at the head; every branch's tape
    shares those slices. Equal configurations merge in first-seen order.
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
        left, symbol, right = _split(tape, head, blank)
        branches = machine.transitions.get((state, symbol))
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


def _run(machine: AffineMachine, x: str, max_steps: int):
    """Yield the affine vector after each step until every branch halts."""
    report = validate(machine)
    if not report.ok:
        raise MachineValidationError("; ".join(report.violations))
    vector: AffineVector = {initial_configuration(machine, x): 1.0}
    yield vector
    for _ in range(max_steps):
        if all(machine.is_halting(c.state) for c in vector):
            return
        vector = step(machine, vector)
        yield vector
    if not all(machine.is_halting(c.state) for c in vector):
        running = sorted({c.state for c in vector if not machine.is_halting(c.state)})
        raise HaltingViolationError(
            f"branches still running after {max_steps} steps (states {running})"
        )


def acceptance_weight(machine: AffineMachine, x: str, max_steps: int) -> float:
    """Total weight of accepting configurations once every branch has halted."""
    vector: AffineVector = {}
    for vector in _run(machine, x, max_steps):
        pass
    return sum(w for cfg, w in vector.items() if cfg.state == machine.accept)


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
    norms = []
    for vector in _run(machine, x, max_steps):
        norms.append(float(np.sqrt(sum(w * w for w in vector.values()))))
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
class ProgramStep:
    """One branching step: an affine matrix per outcome combination of its gates."""

    gate_ids: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]  # one outcome label per gate, per branch
    matrices: np.ndarray  # (branches, out, in), wire permutation folded in
    perm = None

    def stack(self) -> np.ndarray:
        return self.matrices


@dataclass(frozen=True, eq=False)
class AffineProgram:
    """A branching sequence of affine maps plus an acceptor.

    Running the program evolves a weight vector through every branch choice;
    the acceptance weight is the sum of the final scalars over branches the
    acceptor maps to 0, evaluated by the code of ``circuits.acceptance_prob``.
    """

    steps: tuple[ProgramStep, ...]
    acceptor: Acceptor
    instance_order: tuple[str, ...]

    def acceptance_weight(self) -> float:
        return _accept(self.steps, self.acceptor, self.instance_order)


def circuit_to_affine_program(circuit: CircuitDAG, acceptor: Acceptor,
                              cap: int = DEFAULT_ENUMERATION_CAP) -> AffineProgram:
    """Recast a closed circuit as a branching affine program.

    Each foliation layer becomes one branching step whose branches are the
    layer's outcome combinations; the permutation aligning wires is folded
    into every branch matrix. The program's acceptance weight equals the
    circuit's acceptance probability.
    """
    steps = []
    for layer in _compile(circuit, None, cap):
        stack = layer.stack()  # the layer's gather, moved onto the matrix columns
        matrices = stack if layer.perm is None else np.take(stack, np.argsort(layer.perm), axis=2)
        steps.append(ProgramStep(layer.gate_ids, layer.labels, matrices))
    return AffineProgram(tuple(steps), acceptor, tuple(circuit.instance_ids))
