"""JSON description formats for theories, circuits, machines, and families.

Weights and matrix entries are accepted as numbers, decimal strings, or
"p/q" rational strings; rational input is validated exactly before being
lowered to floats. Parse errors and domain-invariant violations are distinct
error classes so callers can map them to different exit codes.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .afftm import AffineMachine, Branch
from .circuits import BUILTIN_ACCEPTORS, Acceptor, CircuitDAG, validate as validate_circuit
from .errors import FamilyInvariantError, GptLabError, MachineValidationError, ParseError
from .interference import ProjectorFamily
from .theories import (
    TheoryDescriptor,
    boxworld_gbit,
    classical_theory,
    quantum_theory,
    real_quantum_theory,
)

BUILTIN_THEORIES = {
    "classical": classical_theory,
    "quantum": quantum_theory,
    "real-quantum": real_quantum_theory,
    "boxworld": boxworld_gbit,
}


def _load(source, what: str) -> Any:
    """Accept a path, a JSON string, or an already-decoded mapping."""
    if isinstance(source, Mapping):
        return source
    path = Path(str(source))
    try:
        is_file = path.exists()
    except OSError:
        is_file = False
    if is_file:
        where = str(path)
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:  # a directory, an unreadable file, or not UTF-8
            raise ParseError(f"cannot read the file: {exc}", where) from None
    else:
        text = str(source)
        where = what
    if not text.strip():
        raise ParseError(f"empty {what} description", where)
    try:
        return json.loads(text)
    # a JSONDecodeError, an integer past int's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", where) from None


_KINDS = {str: "a string", int: "an integer", bool: "true or false", list: "a list",
          Mapping: "an object"}


def _require(doc, key: str, what: str, kind: type = object):
    """``doc[key]``, once ``doc`` is an object holding ``key`` with a ``kind`` value."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"expected an object, got {doc!r}", what)
    if key not in doc:
        raise ParseError(f"missing field '{key}'", what)
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field '{key}' must be {_KINDS[kind]}, got {value!r}", what)
    return value


def _port(end, where: str) -> tuple[str, int]:
    """A wire endpoint: an [instance id, port index] pair."""
    if (not isinstance(end, (list, tuple)) or len(end) != 2 or not isinstance(end[0], str)
            or not isinstance(end[1], int) or isinstance(end[1], bool)):
        raise ParseError(f"wire endpoints are [instance id, port index] pairs, got {end!r}", where)
    return end[0], end[1]


def _names(doc: Mapping, key: str, what: str) -> list[str]:
    value = _require(doc, key, what, list)
    if not all(isinstance(v, str) for v in value):
        raise ParseError(f"field '{key}' must be a list of strings, got {value!r}", what)
    return value


def parse_number(value, where: str) -> float:
    """Number, decimal string, or 'p/q' rational string -> float.

    A string reads as the float nearest the exact rational it spells, so an
    exact zero reads as +0.0 whatever its sign, and a value beyond the float
    range is a parse error.
    """
    if isinstance(value, bool):
        raise ParseError(f"expected a number, got {value!r}", where)
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            raise ParseError(f"an integer of {len(str(abs(value)))} digits is not a finite float",
                             where) from None
    if isinstance(value, str):
        # ASCII text without underscores that float() reads is a decimal, which it
        # rounds correctly as float(Fraction(value)) does, or a spelling of inf or nan
        if value.isascii() and "_" not in value:
            try:
                x = float(value)
            except ValueError:
                x = None  # "p/q" or malformed: the exact reading below decides
            if x is not None:
                if not math.isfinite(x):
                    raise ParseError(f"number {value!r} is not a finite float", where)
                # Fraction has no -0: an exact zero reads as +0.0, a tiny value keeps its sign
                return x if x or value.lower().partition("e")[0].strip().strip("+-0.") else 0.0
        try:
            return float(Fraction(_capped_exponent(value)))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot read number {value!r}", where) from None
        except OverflowError:
            raise ParseError(f"number {value!r} is not a finite float", where) from None
    raise ParseError(f"expected a number, got {value!r}", where)


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction spells it


def _capped_exponent(text: str) -> str:
    """``text`` with a decimal exponent beyond +-(330 + len(text)) cut to that bound.

    Past the bound the value lies below 1e-330 or at or above 1e330 whatever
    its digits, and so does the cut value, on the same side and with the same
    sign: the float reading, and whether Fraction reads the text at all, stay
    the same, but Fraction no longer builds 10**|exponent| (a billion-digit
    integer for "1e-999999999").
    """
    m = _EXPONENT.search(text)
    if m is None:
        return text
    try:
        exponent = int(m[1])
    except ValueError:  # past int's digit limit, where Fraction fails the same way
        return text
    bound = 330 + len(text)
    if abs(exponent) <= bound:
        return text
    return f"{text[:m.start(1)]}{-bound if exponent < 0 else bound}{text[m.end(1):]}"


def exact_number(value) -> Fraction | None:
    """The exact rational behind a description entry, when there is one.

    Floats have none: a float written for a weight is checked as a float. So
    has a decimal string whose exponent puts it beyond the float range: it
    reads as 0.0 (or fails to read), and is checked as what it reads as.
    """
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _capped_exponent(value) != value:
            return None
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            return None
    return None


# ---------------------------------------------------------------------------
# theories


def parse_theory(source) -> TheoryDescriptor:
    doc = _load(source, "theory")
    builtin = _require(doc, "builtin", "theory", str)
    if builtin not in BUILTIN_THEORIES:
        raise ParseError(f"unknown builtin theory '{builtin}' "
                         f"(have {sorted(BUILTIN_THEORIES)})", "theory")
    params = _require(doc, "params", "theory", Mapping) if "params" in doc else {}
    try:
        return BUILTIN_THEORIES[builtin](**params)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad params for '{builtin}': {exc}", "theory") from None


def theory_to_json(theory: TheoryDescriptor) -> dict:
    if "builtin" not in theory.meta:
        raise ParseError("only builtin-backed theories serialize", "theory")
    return {"builtin": theory.meta["builtin"], "params": dict(theory.meta["params"])}


# ---------------------------------------------------------------------------
# circuits


def parse_circuit(source) -> tuple[CircuitDAG, Acceptor | None]:
    doc = _load(source, "circuit")
    theory = parse_theory(_require(doc, "theory", "circuit"))
    circuit = CircuitDAG(theory)
    for k, inst in enumerate(_require(doc, "instances", "circuit", list)):
        where = f"circuit.instances[{k}]"
        iid = _require(inst, "id", where, str)
        gname = _require(inst, "gate", where, str)
        if gname not in theory.gates:
            raise ParseError(f"theory '{theory.name}' has no gate '{gname}'", where)
        try:
            circuit.add(iid, theory.gates[gname])
        except ValueError as exc:
            raise ParseError(str(exc), where) from None
    for k, wire in enumerate(_require(doc, "wires", "circuit", list) if "wires" in doc else []):
        where = f"circuit.wires[{k}]"
        circuit.connect(_port(_require(wire, "from", where), where),
                        _port(_require(wire, "to", where), where))
    report = validate_circuit(circuit)
    if not report.ok:
        raise ParseError("; ".join(report.errors), "circuit")

    acceptor = None
    if "acceptor" in doc:
        acceptor = parse_acceptor(doc["acceptor"], circuit)
    return circuit, acceptor


def parse_acceptor(doc: Mapping, circuit: CircuitDAG) -> Acceptor:
    kind = _require(doc, "kind", "acceptor", str)
    if kind == "table":
        entries = []
        for k, row in enumerate(_require(doc, "table", "acceptor", list)):
            where = f"acceptor.table[{k}]"
            a = _require(row, "a", where, int)
            if a not in (0, 1):
                raise ParseError(f"field 'a' must be 0 (accept) or 1 (reject), got {a!r}", where)
            z = _require(row, "z", where, Mapping)
            if not all(isinstance(label, str) for label in z.values()):
                raise ParseError(f"field 'z' must map instance ids to labels, got {z!r}", where)
            entries.append((z, a))
        try:
            acceptor = Acceptor.from_table(entries, circuit)
        except GptLabError as exc:
            raise ParseError(str(exc), "acceptor") from None
        if len(acceptor.table) < len(entries):
            raise ParseError("table lists an outcome string more than once", "acceptor")
        return acceptor
    if kind in BUILTIN_ACCEPTORS:
        if doc.get("instance") not in (None, *circuit.instance_ids):
            raise ParseError(f"acceptor names unknown instance {doc['instance']!r}", "acceptor")
        return Acceptor(kind, instance=doc.get("instance"))
    raise ParseError(f"unknown acceptor kind '{kind}'", "acceptor")


def circuit_to_json(circuit: CircuitDAG, acceptor: Acceptor | None = None) -> dict:
    doc = {
        "theory": theory_to_json(circuit.theory),
        "instances": [{"id": iid, "gate": gate.name} for iid, gate in circuit.instances],
        "wires": [{"from": list(w.src), "to": list(w.dst)} for w in circuit.wires],
    }
    if acceptor is not None:
        if acceptor.kind == "table":
            doc["acceptor"] = {"kind": "table", "table": [
                {"z": dict(pairs), "a": a} for pairs, a in acceptor.table.items()
            ]}
        else:
            doc["acceptor"] = {"kind": acceptor.kind}
            if acceptor.instance:
                doc["acceptor"]["instance"] = acceptor.instance
    return doc


# ---------------------------------------------------------------------------
# affine machines


def parse_machine(source) -> AffineMachine:
    doc = _load(source, "machine")
    states = _names(doc, "states", "machine")
    alphabet = _names(doc, "alphabet", "machine")
    transitions: dict[tuple[str, str], tuple[Branch, ...]] = {}
    exact_sums: dict[tuple[str, str], Fraction | None] = {}
    for k, row in enumerate(_require(doc, "transitions", "machine", list)):
        where = f"machine.transitions[{k}]"
        key = (_require(row, "state", where, str), _require(row, "read", where, str))
        if key in transitions:
            raise ParseError(f"duplicate transition block for {key}", where)
        branches = []
        exact_total: Fraction | None = Fraction(0)
        for j, b in enumerate(_require(row, "branches", where, list)):
            bwhere = f"{where}.branches[{j}]"
            weight = parse_number(_require(b, "weight", bwhere), bwhere)
            try:
                branches.append(Branch(
                    next_state=_require(b, "next", bwhere, str),
                    write=_require(b, "write", bwhere, str),
                    move=_require(b, "move", bwhere, str),
                    weight=weight,
                ))
            except ValueError as exc:
                raise ParseError(str(exc), bwhere) from None
            exact = exact_number(b["weight"])
            exact_total = None if (exact is None or exact_total is None) else exact_total + exact
        transitions[key] = tuple(branches)
        exact_sums[key] = exact_total

    # Rational weight sums are checked exactly; anything else falls through
    # to the floating-point check AffineMachine makes when it is built.
    for key, total in exact_sums.items():
        if total is not None and total != 1:
            raise MachineValidationError(
                f"weights from {key!r} sum to {total}, not 1"
            )

    try:
        machine = AffineMachine(
            states=frozenset(states),
            initial=_require(doc, "initial", "machine", str),
            accept=_require(doc, "accept", "machine", str),
            reject=_require(doc, "reject", "machine", str),
            blank=_require(doc, "blank", "machine", str),
            alphabet=frozenset(alphabet),
            transitions=transitions,
        )
    except ValueError as exc:
        raise ParseError(str(exc), "machine") from None
    return machine


def machine_to_json(machine: AffineMachine) -> dict:
    rows = []
    for (state, read), branches in sorted(machine.transitions.items()):
        rows.append({
            "state": state,
            "read": read,
            "branches": [
                {"next": b.next_state, "write": b.write, "move": b.move, "weight": b.weight}
                for b in branches
            ],
        })
    return {
        "states": sorted(machine.states),
        "initial": machine.initial,
        "accept": machine.accept,
        "reject": machine.reject,
        "blank": machine.blank,
        "alphabet": sorted(machine.alphabet),
        "transitions": rows,
    }


# ---------------------------------------------------------------------------
# projector families


def parse_family(source) -> ProjectorFamily:
    doc = _load(source, "family")
    n_slits = _require(doc, "n_slits", "family", int)
    raw = _require(doc, "projectors", "family", Mapping)
    if n_slits < 1:
        raise ParseError(f"n_slits must be >= 1, got {n_slits}", "family")
    # each nonempty subset needs its own projector; bit_length keeps 2**n_slits unbuilt
    if n_slits > len(raw).bit_length() or len(raw) < (1 << n_slits) - 1:
        raise ParseError(f"{len(raw)} projectors cannot cover the nonempty subsets "
                         f"of {n_slits} slits", "family")
    shapes = {}  # every key and shape is checked before any entry is read
    for mask_str, rows in raw.items():
        where = f"family.projectors[{mask_str!r}]"
        try:
            mask = int(mask_str, 0)
        except ValueError:
            raise ParseError(f"subset keys are bitmask strings, got {mask_str!r}", where) from None
        if not 0 <= mask < 1 << n_slits:
            raise ParseError(f"bitmask {mask_str!r} is not a subset of the {n_slits} slits", where)
        subset = frozenset(i for i in range(n_slits) if mask >> i & 1)
        if subset in shapes:
            raise ParseError(f"a second key for subset {sorted(subset)}", where)
        if not isinstance(rows, list) or any(not isinstance(row, list) or len(row) != len(rows[0])
                                             for row in rows):
            raise ParseError("a projector must be a list of rows, each a list of one length",
                             where)
        shapes[subset] = where, rows
    # each distinct entry string is read once per document; any other entry, each time
    numbers: dict[str, float] = {}

    def read(x, where: str) -> float:
        value = parse_number(x, where)
        if isinstance(x, str):
            numbers[x] = value
        return value

    projectors = {subset: np.array([[numbers[x] if type(x) is str and x in numbers
                                     else read(x, where) for x in row] for row in rows])
                  for subset, (where, rows) in shapes.items()}
    name = _require(doc, "name", "family", str) if "name" in doc else ""
    synthetic = "synthetic" in doc and _require(doc, "synthetic", "family", bool)
    try:
        family = ProjectorFamily(n_slits, projectors, name=name, synthetic=synthetic)
    except (ValueError, FamilyInvariantError) as exc:
        raise ParseError(str(exc), "family") from None
    return family


def family_to_json(family: ProjectorFamily) -> dict:
    projectors = {}
    for subset, matrix in family.projectors.items():
        mask = sum(1 << i for i in subset)
        projectors[str(mask)] = [[repr(float(x)) for x in row] for row in matrix]
    doc = {"n_slits": family.n_slits, "projectors": projectors}
    if family.name:
        doc["name"] = family.name
    if family.synthetic:
        doc["synthetic"] = True
    return doc
