"""Closed-circuit construction, validation, foliation, and evaluation.

A circuit is a DAG of gate instances joined by typed wires. On its first
evaluation after each ``add`` or ``connect`` it is validated and compiled
into layers of parallel gates (the greedy foliation), which it holds until
it changes; an explicit ``foliation=`` is checked as it is laid out, per call.
The layers hold a wire permutation and, per wire factor, a
:class:`~gptlab.core.Factor`: a gate's own, or the rule's passthrough for a
wire no gate of the layer reads. Gates and rules hold these, so their stacks
and identity flags are built once, on first evaluation. Every evaluation
runs one walk over these layers, in which the theory's composite rule
applies each layer to a frontier of joint states with one
``CompositeRule.contract`` call. ``distribution`` extends every prefix by
every outcome combination; ``prob`` selects inside the walk, each gate's
factor swapped for the outcome its string selects; the built-in acceptors
and the affine bridge weigh inside it, each layer summed under the weight
rows its gates hold. A tensor-product rule contracts each factor's held
stack into the gate's own wire axes, so no Kronecker product of a layer is
formed and no matrix is stacked or compared with the identity per call;
without weights, a factor that is one exact identity (a passthrough, or a
gate whose one outcome is exactly the identity) is skipped, its axis only
moved. The rebit rule does the same with each outcome's held Pauli transfer
matrix, in the Pauli string coordinates of the layer's input rebits; it
never builds the gates' stacks.
``distribution`` returns a read-only :class:`Distribution`: the walk's
float64 leaf values beside the gates' outcome labels, looked up by leaf
index, with each outcome-string key built only when iteration reaches it.
Evaluation keeps no state beyond what circuits, gates and rules hold once
built (a race at worst builds it twice), so prob() on a shared circuit is
safe to call concurrently.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .core import (PROB_TOL, CompositeRule, Factor, SystemType, TransformationMatrix, _Checked,
                   _freeze)
from .errors import CapacityError, CircuitValidationError, GptLabError

DEFAULT_ENUMERATION_CAP = 2**20


@dataclass(frozen=True, eq=False)
class Gate(_Checked):
    """A device: one transformation matrix per classical outcome.

    Preparations have no inputs, effects no outputs; every outcome matrix
    maps the joint system of the input wires to that of the output wires: a
    side of type ``t`` spans the wires ``(t,)`` or ``t.wires``.
    Evaluation reads the outcomes as :class:`~gptlab.core.Factor` objects
    the gate holds, built on first evaluation (so building a theory stacks
    nothing): :attr:`factor` for all outcomes, and one per outcome for the
    strings ``prob`` selects. Their stacks and identity flags are built
    once, so ``outcomes`` is a read-only mapping.
    """

    name: str
    inputs: tuple[SystemType, ...]
    outputs: tuple[SystemType, ...]
    outcomes: Mapping[str, TransformationMatrix]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError(f"gate '{self.name}' must have at least one outcome")
        shapes = {t.matrix.shape for t in self.outcomes.values()}
        if len(shapes) != 1:
            raise ValueError(f"gate '{self.name}' outcome matrices disagree on shape")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "outcomes", MappingProxyType(dict(self.outcomes)))
        for label, t in self.outcomes.items():
            if not (self.inputs in ((t.input,), t.input.wires)
                    and self.outputs in ((t.output,), t.output.wires)):
                raise ValueError(
                    f"gate '{self.name}' outcome '{label}' maps {t.input.label} -> "
                    f"{t.output.label}, not its wires")

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(self.outcomes)

    @cached_property
    def factor(self) -> Factor:
        """Every outcome, in label order, as one layer factor; its read-only
        ``(K, out, in)`` stack and identity flag are built on first use."""
        return Factor(self.outcomes.values())

    @cached_property
    def _singles(self) -> dict[str, Factor]:
        """Per label, that outcome alone as a factor: the layer ``prob`` reads."""
        return {label: Factor((t,)) for label, t in self.outcomes.items()}

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only outcome weights the built-in acceptors sum the gate
        under, one column per outcome in label order: parity-of-labels' two
        rows (all ones, then -1 on label "1"), the all-ones row alone, and
        first-outcome-is-0's row, 1 on label "0" and 0 elsewhere."""
        labels = self.outcome_labels
        parity = _freeze(np.array([[1.0] * len(labels),
                                   [-1.0 if lab == "1" else 1.0 for lab in labels]]))
        return parity, parity[:1], _freeze(np.array([[float(lab == "0") for lab in labels]]))


Port = tuple[str, int]


@dataclass(frozen=True)
class Wire:
    src: Port  # (instance id, output port index)
    dst: Port  # (instance id, input port index)


@dataclass(frozen=True)
class OutcomeString:
    """One outcome label per gate instance, in circuit order."""

    pairs: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def label(self, instance_id: str) -> str:
        for iid, lab in self.pairs:
            if iid == instance_id:
                return lab
        raise KeyError(instance_id)

    def __str__(self) -> str:
        return ",".join(f"{i}={l}" for i, l in self.pairs)


class CircuitDAG:
    """A closed circuit over a fixed theory.

    Build with :meth:`add` and :meth:`connect`, the only ways to change it:
    ``instances`` and ``wires`` are tuples. The circuit is validated and laid
    out on its first evaluation after each change, not on every evaluation,
    and holds the result until the next ``add`` or ``connect`` (or until
    ``theory.composite_rule`` is another object). The ``theory`` argument is
    any object exposing a ``composite_rule`` attribute (a
    :class:`~gptlab.core.CompositeRule`).
    """

    def __init__(self, theory):
        self.theory = theory
        self._ids: dict[str, Gate] = {}  # in insertion order: the circuit order
        self._wires: list[Wire] = []
        # (rule, validation report, greedy foliation, greedy layers or None),
        # built by _held on first use and dropped by add and connect
        self._held = None

    @property
    def instances(self) -> tuple[tuple[str, Gate], ...]:
        return tuple(self._ids.items())

    @property
    def wires(self) -> tuple[Wire, ...]:
        return tuple(self._wires)

    def add(self, instance_id: str, gate: Gate) -> str:
        if instance_id in self._ids:
            raise ValueError(f"duplicate instance id '{instance_id}'")
        self._ids[instance_id] = gate
        self._held = None
        return instance_id

    def connect(self, src: Port, dst: Port) -> None:
        self._wires.append(Wire(tuple(src), tuple(dst)))
        self._held = None

    def __getstate__(self):
        # a copy or a pickle gets its own dict and list and compiles again
        return {**self.__dict__, "_ids": dict(self._ids), "_wires": list(self._wires),
                "_held": None}

    def gate(self, instance_id: str) -> Gate:
        return self._ids[instance_id]

    @property
    def instance_ids(self) -> list[str]:
        return list(self._ids)

    def outcome_string(self, assignment: OutcomeString | Mapping[str, str]) -> OutcomeString:
        """Normalize a mapping instance->label, or an ``OutcomeString`` in any
        order, into circuit order. ``GptLabError`` unless it names every
        instance once, each with one of its gate's labels, and no other."""
        if isinstance(assignment, OutcomeString):
            pairs = assignment.pairs
            assignment = dict(pairs)
            if len(assignment) < len(pairs):
                ids = [iid for iid, _ in pairs]
                twice = next(iid for k, iid in enumerate(ids) if iid in ids[:k])
                raise GptLabError(f"outcome string names instance '{twice}' twice")
        pairs = []
        for iid, gate in self._ids.items():
            if iid not in assignment:
                raise GptLabError(f"outcome string missing instance '{iid}'")
            lab = assignment[iid]
            if lab not in gate.outcomes:
                raise GptLabError(f"instance '{iid}' has no outcome '{lab}'")
            pairs.append((iid, lab))
        if len(assignment) > len(pairs):
            stray = next(iid for iid in assignment if iid not in self._ids)
            raise GptLabError(f"outcome string names instance '{stray}', which the circuit lacks")
        return OutcomeString(tuple(pairs))

    def n_outcome_strings(self) -> int:
        n = 1
        for gate in self._ids.values():
            n *= len(gate.outcomes)
        return n


@dataclass
class ValidationReport:
    ok: bool
    errors: list[str]

    def __bool__(self) -> bool:
        return self.ok


def _validate(circuit: CircuitDAG, style: str = "greedy") -> tuple[ValidationReport, list]:
    """The validation report, plus the foliation of the given style, from one
    pass over the wires; type mismatches are reported after the port errors."""
    errors: list[str] = []
    mismatches: list[str] = []
    gates = circuit._ids
    succ: dict[str, set[str]] = {iid: set() for iid in gates}
    indeg = dict.fromkeys(gates, 0)
    out_seen: dict[Port, int] = {}
    in_seen: dict[Port, int] = {}
    for w in circuit._wires:
        types = []
        for end, role, seen in ((w.src, "source", out_seen), (w.dst, "target", in_seen)):
            iid, port = end
            if iid not in gates:
                errors.append(f"wire {role} references unknown instance '{iid}'")
                continue
            ports = gates[iid].outputs if role == "source" else gates[iid].inputs
            if not (0 <= port < len(ports)):
                errors.append(f"wire {role} ('{iid}', {port}): port index out of range")
                continue
            seen[end] = seen.get(end, 0) + 1
            types.append(ports[port])
        (si, sp), (di, dp) = w.src, w.dst
        if si in gates and di in gates and di not in succ[si]:
            succ[si].add(di)
            indeg[di] += 1
        if len(types) == 2 and types[0] != types[1]:
            mismatches.append(f"type mismatch on wire ('{si}',{sp})->('{di}',{dp}): "
                              f"{types[0].label} vs {types[1].label}")

    for iid, gate in gates.items():
        for role, n, seen in (("output", len(gate.outputs), out_seen),
                              ("input", len(gate.inputs), in_seen)):
            for p in range(n):
                count = seen.get((iid, p), 0)
                if count == 0:
                    errors.append(f"open port: {role} {p} of '{iid}' is not connected")
                elif count > 1:
                    errors.append(f"{role} {p} of '{iid}' connected {count} times")
    errors += mismatches

    # Kahn's algorithm over the instance dependency graph, ready instances in insertion order
    order = {iid: k for k, iid in enumerate(gates)}
    ready = [iid for iid in gates if indeg[iid] == 0]
    layers: list[list[str]] = []
    while ready:
        layer = ready if style == "greedy" else ready[:1]
        next_ready = ready[len(layer):]
        for iid in layer:
            for nxt in succ[iid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    next_ready.append(nxt)
        layers.append(list(layer))
        ready = sorted(next_ready, key=order.get)
    if sum(map(len, layers)) != len(gates):
        stuck = sorted(iid for iid in gates if indeg[iid] > 0)
        errors.append(f"cycle detected involving instances {stuck}")

    return ValidationReport(not errors, errors), layers


def _held(circuit: CircuitDAG, lay_out: bool) -> tuple:
    """The circuit's held ``(rule, report, greedy foliation, greedy layers)``.

    The circuit is validated on first use after each ``add`` or ``connect``
    (or when ``theory.composite_rule`` is another object), and laid out on the
    first greedy evaluation; ``layers`` is None until then, and while the
    report is not ok. Each update is one attribute write of a whole tuple,
    so a race at worst builds it twice."""
    rule = circuit.theory.composite_rule
    held = circuit._held
    if held is None or held[0] is not rule:
        report, greedy = _validate(circuit)
        held = circuit._held = (rule, report, tuple(map(tuple, greedy)), None)
    if lay_out and held[3] is None and held[1].ok:
        held = circuit._held = (*held[:3], _layout(circuit, held[2], rule))
    return held


def validate(circuit: CircuitDAG) -> ValidationReport:
    """Check that the circuit is closed, acyclic, and type-matched.

    Never raises; every violation found is listed in the report, a copy of
    the one the circuit holds until its next ``add`` or ``connect``.
    """
    report = _held(circuit, False)[1]
    return ValidationReport(report.ok, list(report.errors))


def foliate(circuit: CircuitDAG, style: str = "greedy") -> list[list[str]]:
    """Slice the circuit into an ordered list of antichain layers.

    ``greedy`` takes all simultaneously-ready gates per layer; ``singletons``
    emits one gate per layer in topological order. Both are legal foliations
    and give identical outcome probabilities. The greedy one is a copy of
    the foliation the circuit holds.
    """
    if style not in ("greedy", "singletons"):
        raise ValueError(f"unknown foliation style '{style}'")
    if style == "greedy":
        report, layers = _held(circuit, False)[1:3]
    else:
        report, layers = _validate(circuit, style)
    if not report.ok:
        raise CircuitValidationError("; ".join(report.errors))
    return [list(layer) for layer in layers]


@dataclass(frozen=True, eq=False)
class _Layer:
    """One compiled foliation layer, applied by ``rule.contract(pieces, ...)``;
    its outcome combinations are the ``itertools.product`` of its gates' labels."""

    gates: tuple[tuple[str, Gate], ...]  # (instance id, gate), the first len(gates) pieces
    pieces: tuple[Factor, ...]  # per factor, held by its gate or the rule; passthrough wires last
    perm: np.ndarray | None  # joint-state gather index applied first; None = identity
    rule: CompositeRule


def _layout(circuit: CircuitDAG, foliation, rule: CompositeRule) -> tuple[_Layer, ...]:
    """The layers of ``foliation`` on a valid circuit, every gate reading all its
    outcomes, checked as they are laid out: an instance in two layers, then one
    missed or unknown, then the first wire (in wire order) read before it is written."""
    layer_of: dict[str, int] = {}
    for k, layer_ids in enumerate(foliation):
        for iid in layer_ids:
            if iid in layer_of:
                raise CircuitValidationError(f"instance '{iid}' appears in two layers")
            layer_of[iid] = k
    if layer_of.keys() != circuit._ids.keys():
        raise CircuitValidationError("foliation does not cover every instance exactly once")
    in_wire: dict[Port, Wire] = {w.dst: w for w in circuit._wires}
    out_wire: dict[Port, Wire] = {w.src: w for w in circuit._wires}

    def wire_type(w: Wire) -> SystemType:
        return circuit.gate(w.src[0]).outputs[w.src[1]]

    live: list[Wire] = []  # the wires of the current joint state, in slot order
    layers: list[_Layer] = []
    for layer_ids in foliation:
        gates = tuple((iid, circuit.gate(iid)) for iid in layer_ids)
        consumed = [in_wire[(iid, p)] for iid, g in gates for p in range(len(g.inputs))]
        taken = set(consumed)
        passthrough = [w for w in live if w not in taken]
        slot = {w: k for k, w in enumerate(live)}
        try:
            perm = [slot[w] for w in consumed + passthrough]
        except KeyError:  # a consumed wire that is not live yet
            w = next(w for w in circuit._wires if layer_of[w.src[0]] >= layer_of[w.dst[0]])
            raise CircuitValidationError(
                f"foliation violates wire order ('{w.src[0]}' before '{w.dst[0]}')") from None
        gather = (None if perm == list(range(len(perm)))
                  else rule.permutation_index([wire_type(w) for w in live], perm))
        pieces = [g.factor for _, g in gates]
        pieces += [rule.passthrough(wire_type(w)) for w in passthrough]
        layers.append(_Layer(gates, tuple(pieces), gather, rule))
        live = [out_wire[(iid, p)] for iid, g in gates for p in range(len(g.outputs))] + passthrough
    return tuple(layers)


def _compile(circuit: CircuitDAG, foliation: list[list[str]] | None,
             cap: int | None = None) -> tuple[_Layer, ...]:
    """The layers to walk, once ``cap`` holds on the outcome strings: the
    held greedy layers, or those :func:`_layout` checks and lays out from
    ``foliation`` on every call."""
    if cap is not None and circuit.n_outcome_strings() > cap:
        raise CapacityError(
            f"{circuit.n_outcome_strings()} outcome strings exceed the enumeration cap {cap}")
    rule, report, _, layers = _held(circuit, foliation is None)
    if not report.ok:
        raise CircuitValidationError("; ".join(report.errors))
    if foliation is not None:
        layers = _layout(circuit, foliation, rule)
    return layers


def _walk(layers, select: Mapping[str, str] | None = None,
          weigh: Callable[[_Layer], list[np.ndarray]] | None = None, rows: int = 1) -> np.ndarray:
    """The one loop that applies layers, to a ``(rows, 1)`` frontier. ``select``
    (instance id -> label) swaps each gate's factor for its selected outcome's;
    ``weigh(layer)`` gives per factor one row of outcome weights per frontier
    row, so a layer sums its combinations. Otherwise every leaf's value comes
    out, depth first, one row each. Each prefix is computed on its own, so a
    leaf's bits do not depend on what else is walked: ``prob`` reads ``distribution``'s."""
    front = np.ones((rows, 1))
    for layer in layers:
        pieces = layer.pieces
        if select is not None:
            pieces = (tuple(gate._singles[select[iid]] for iid, gate in layer.gates)
                      + pieces[len(layer.gates):])
        if layer.perm is not None:
            front = np.take(front, layer.perm, axis=1)  # C order, unlike front[:, perm]
        front = layer.rule.contract(pieces, front, None if weigh is None else weigh(layer))
    return front


def _checked(p, what: str = "acceptance probability"):
    """``p`` (a number or an array), once every value is in [-PROB_TOL, 1 + PROB_TOL]."""
    values = np.atleast_1d(p)
    bad = values[~((values >= -PROB_TOL) & (values <= 1.0 + PROB_TOL))]
    if bad.size:
        raise GptLabError(f"{what} {bad[0]} outside [0, 1]")
    return p


def prob(
    circuit: CircuitDAG,
    z: OutcomeString | Mapping[str, str],
    foliation: list[list[str]] | None = None,
) -> float:
    """Probability of one full outcome string: the walk of ``distribution``
    over one combination per layer, every gate restricted to its outcome in
    ``z`` as the walk reaches it; checked against [-PROB_TOL, 1 + PROB_TOL].
    ``z`` is checked by :meth:`CircuitDAG.outcome_string` in either form."""
    select = circuit.outcome_string(z).as_dict()
    front = _walk(_compile(circuit, foliation), select)
    return float(_checked(front, "outcome probability")[0, 0])


class Distribution(Mapping):
    """The probability of every outcome string of a circuit: a read-only
    ``Mapping[OutcomeString, float]`` over one float64 array of leaves.

    Leaves come depth first, in ``itertools.product`` order over the gates'
    outcome labels in layer order, so a string's leaf is a mixed-radix number
    over the gates' outcome counts: a lookup computes it from the string's
    labels, with no table of keys. Iteration builds each key only when it is
    reached; ``values()`` and ``items()`` read the array in leaf order. A key
    that is not an ``OutcomeString`` naming every instance, in circuit order,
    with one of its labels raises ``KeyError`` (also where a dict would raise
    ``TypeError``, for an unhashable key). Equality with a dict holds both
    ways. It holds no theory, so it pickles as plain data.
    """

    __slots__ = ("_gates", "_pick", "_values", "_digits")

    def __init__(self, gates: tuple[tuple[str, tuple[str, ...]], ...],
                 pick: tuple[int, ...], values: np.ndarray):
        # gates: per gate in layer order, (instance id, outcome labels);
        # pick: per instance in circuit order, its gate's position in gates
        self._gates, self._pick, self._values = gates, pick, values
        strides = [1] * len(gates)
        for g in range(len(gates) - 1, 0, -1):
            strides[g - 1] = strides[g] * len(gates[g][1])
        # per instance in circuit order, its (id, label) pair -> the label's term of the leaf index
        self._digits = tuple({(gates[g][0], lab): k * strides[g] for k, lab in enumerate(gates[g][1])}
                             for g in pick)

    def __getitem__(self, z) -> float:
        try:
            if (type(z) is OutcomeString and type(z.pairs) is tuple
                    and len(z.pairs) == len(self._digits)):
                return float(self._values[sum(map(dict.__getitem__, self._digits, z.pairs))])
        except KeyError:
            pass
        raise KeyError(z)

    def __iter__(self):
        pairs = [[(iid, lab) for lab in labels] for iid, labels in self._gates]
        pick = itemgetter(*self._pick) if len(self._pick) > 1 else tuple
        return map(OutcomeString, map(pick, itertools.product(*pairs)))

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __reduce__(self):
        return type(self), (self._gates, self._pick, self._values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values.tolist())


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._values.tolist())


def _distribution(layers, instance_ids) -> Distribution:
    """Every leaf of :func:`_walk`, keyed by its outcome string."""
    gates = tuple((iid, gate.outcome_labels) for layer in layers for iid, gate in layer.gates)
    slot = {iid: k for k, (iid, _) in enumerate(gates)}
    return Distribution(gates, tuple(slot[iid] for iid in instance_ids),
                        _checked(_walk(layers), "outcome probability")[:, 0])


def distribution(
    circuit: CircuitDAG,
    cap: int = DEFAULT_ENUMERATION_CAP,
    foliation: list[list[str]] | None = None,
) -> Distribution:
    """Probability of every outcome string, in depth-first itertools.product order.

    A frontier of all outcome prefixes goes through one layer at a time, each
    applied by the composite rule's ``contract``. The cap is checked before
    anything is built; values are range-checked as in ``prob``. The result is
    a read-only :class:`Distribution`, not a dict."""
    return _distribution(_compile(circuit, foliation, cap), circuit.instance_ids)


# The acceptor kinds decided by a predicate on labels, not by a table.
BUILTIN_ACCEPTORS = ("first-outcome-is-0", "parity-of-labels", "accept-all", "reject-all")


@dataclass(frozen=True)
class Acceptor(_Checked):
    """The accept/reject function a(z) over outcome strings; a(z)=0 accepts.

    ``table`` acceptors carry an explicit mapping, held as a read-only copy,
    and must be total on the circuit's outcome strings. The built-in
    predicates run in time linear in the string length. Table sizes are
    checkable; asymptotic uniformity of a family of acceptors is the
    caller's claim.
    """

    kind: str  # "table" or one of BUILTIN_ACCEPTORS
    table: Mapping[tuple[tuple[str, str], ...], int] | None = None
    instance: str | None = None

    def __post_init__(self) -> None:
        if self.table is not None:
            object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def value(self, z: OutcomeString) -> int:
        if self.kind == "table":
            try:
                return int(self.table[z.pairs])
            except (KeyError, TypeError):
                raise GptLabError(f"acceptor table has no entry for '{z}'") from None
        if self.kind == "first-outcome-is-0":
            try:
                label = z.label(self.instance) if self.instance else z.pairs[0][1]
            except (KeyError, IndexError):
                raise GptLabError(_unread(self.instance, f"outcome string '{z}'")) from None
            return 0 if label == "0" else 1
        if self.kind == "parity-of-labels":
            return sum(1 for _, lab in z.pairs if lab == "1") % 2
        if self.kind == "accept-all":
            return 0
        if self.kind == "reject-all":
            return 1
        raise GptLabError(f"unknown acceptor kind '{self.kind}'")

    def accepts(self, z: OutcomeString) -> bool:
        return self.value(z) == 0

    @staticmethod
    def from_table(entries, circuit: CircuitDAG) -> "Acceptor":
        """Build a table acceptor from (outcome assignment, a-value) pairs; each
        assignment, a mapping or an ``OutcomeString``, is checked and put in
        circuit order by :meth:`CircuitDAG.outcome_string`, as in ``prob``."""
        if isinstance(entries, Mapping):
            entries = entries.items()
        normalized = {}
        for assignment, value in entries:
            normalized[circuit.outcome_string(assignment).pairs] = int(value)
        return Acceptor("table", table=normalized)


def _unread(instance: str | None, where: str) -> str:
    """Why first-outcome-is-0 reads nothing in ``where``: its instance, or any, is missing."""
    if not instance:
        return f"acceptor first-outcome-is-0 has no instance to read: {where} has none"
    return f"acceptor names instance '{instance}', which {where} lacks"


def _accept(layers, acceptor: Acceptor, instance_ids) -> float:
    """Acceptance probability over compiled layers."""
    kind, target = acceptor.kind, None
    if kind == "reject-all":
        return 0.0
    if kind == "table":
        items = _distribution(layers, instance_ids).items()
        return _checked(sum((v for z, v in items if acceptor.accepts(z)), 0.0))
    if kind not in BUILTIN_ACCEPTORS:
        raise GptLabError(f"unknown acceptor kind '{kind}'")
    if kind == "first-outcome-is-0":
        target = acceptor.instance or next(iter(instance_ids), None)
        if target not in instance_ids:
            raise GptLabError(_unread(target, "the circuit"))
    parity = kind == "parity-of-labels"
    rows, row = (2, 0) if parity else (1, 1)  # a frontier row per product of sums
    ones = np.ones((rows, 1))  # a passthrough's one outcome, weighed 1 in every row

    def weigh(layer: _Layer) -> list[np.ndarray]:
        # per factor, the gate's held weights: a row of outcome weights per frontier row
        weights = [gate._weights[2 if iid == target else row] for iid, gate in layer.gates]
        return weights + [ones] * (len(layer.pieces) - len(weights))

    v = _walk(layers, weigh=weigh, rows=rows)[:, 0].tolist()
    # np.mean's bits: a sum from +0.0, then parity's mean of its two products
    return _checked((0.0 + v[0] + v[1]) / 2 if parity else 0.0 + v[0])


def acceptance_prob(
    circuit: CircuitDAG,
    acceptor: Acceptor,
    cap: int = DEFAULT_ENUMERATION_CAP,
    foliation: list[list[str]] | None = None,
) -> float:
    """Total probability of outcome strings with a(z) = 0.

    Built-in acceptors never enumerate: they weigh inside the walk
    ``distribution`` runs. Composite rules are multilinear, so a sum over
    strings of a weight that factors over gates is a product of weighted
    layer sums S_L = sum_c w_L(c) M_L(c) over the layer's outcome
    combinations c, with w_L(c) the product of the gates' weights w_g(k):
    accept-all weighs every outcome by 1, first-outcome-is-0 keeps the
    outcomes where its instance reads "0", and parity-of-labels is
    (prod S_L + prod P_L)/2 with P_L weighing each "1" label by -1. A
    builtin rule applies S_L one gate at a time, as the sums
    S_g = sum_k w_g(k) M_g(k). Tables sum the accepted leaves of
    ``distribution``'s walk. The cap holds either way, and the result is
    range-checked as in ``prob``."""
    return _accept(_compile(circuit, foliation, cap), acceptor, circuit.instance_ids)


class Decision(Enum):
    """The bounded-error verdict on an acceptance probability p: accept at
    p >= 2/3, reject at p <= 1/3, inconclusive in between. The thresholds are
    fixed, since any constants separated by an inverse-polynomial gap define
    the same class."""

    ACCEPT = "accept"
    REJECT = "reject"
    INCONCLUSIVE = "inconclusive"

    @classmethod
    def of(cls, p: float) -> "Decision":
        if p >= 2.0 / 3.0:
            return cls.ACCEPT
        if p <= 1.0 / 3.0:
            return cls.REJECT
        return cls.INCONCLUSIVE


def decide(
    family: Callable[[str], CircuitDAG],
    acceptor: Acceptor,
    x: str,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Decision:
    """Bounded-error decision (:meth:`Decision.of`) for one input of an
    indexed circuit family.

    The generator is trusted to emit polynomially sized circuits; only the
    acceptance probability is checked here.
    """
    return Decision.of(acceptance_prob(family(x), acceptor, cap=cap))
