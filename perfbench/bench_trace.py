"""Span recording at gptlab's layer boundaries, for the traced benchmark run.

The tracer never edits the library. For the length of a traced pass it
replaces public callables with recording wrappers (`patched`) and hands the
workload theories whose composite rule and strategy hooks are recording
proxies (`traced_theory`, built with `dataclasses.replace` on the frozen
descriptor). Leaving `patched` puts every original back.

A span is recorded where a call enters a layer. A call made from inside a
span of the same layer (`acceptance_prob` calling `distribution`, `is_proper_on`
calling `acceptance_weight`) is that layer's own work and is not recorded
again. Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

from gptlab import afftm, circuits, cli, interference, querylab, tomography

# Span records are lists: [name, layer, start, end, parent index, op id, raised].
_NAME, _LAYER, _START, _END, _PARENT, _OP, _RAISED = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self.repeats: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn, key=None):
        """Return `fn` wrapped to record a span named `name` on each call.

        `key(*args, **kwargs)` names the call's arguments; a call whose key was
        already seen by this tracer counts as a repeat of `name`.
        """
        layer = name.split(".", 1)[0]
        spans, stack, seen = self.spans, self._stack, self._seen[name]

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][_LAYER] == layer:
                return fn(*args, **kwargs)
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(k)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.op_id, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[_RAISED] = True
                raise
            finally:
                rec[_END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, self time, inclusive time, errors, repeats."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict[str, dict] = {}
        for rec, inner in zip(self.spans, child_time):
            s = out.setdefault(rec[_NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                             "errors": 0, "repeats": 0})
            dur = rec[_END] - rec[_START]
            s["calls"] += 1
            s["self_s"] += dur - inner
            s["incl_s"] += dur
            s["errors"] += rec[_RAISED]
        for name, n in self.repeats.items():
            out[name]["repeats"] = n
        return out

    def span_rows(self) -> list[dict]:
        return [{"name": r[_NAME], "start": r[_START], "end": r[_END], "parent": r[_PARENT],
                 "op": r[_OP], "raised": r[_RAISED]} for r in self.spans]


def _pieces_key(pieces):
    return tuple(
        (p.matrix.shape, p.matrix.tobytes(),
         None if p.kraus is None else tuple(k.tobytes() for k in p.kraus))
        for p in pieces
    )


def _perm_key(types, perm):
    return tuple((t.label, t.dim) for t in types), tuple(perm)


class RuleProxy:
    """A composite rule whose composition calls record `theories.*` spans."""

    def __init__(self, rule, tracer: Tracer) -> None:
        self.wrapped_rule = rule
        self.parallel_matrix = tracer.wrap("theories.parallel_matrix", rule.parallel_matrix,
                                           key=_pieces_key)
        self.permutation_matrix = tracer.wrap("theories.permutation_matrix",
                                              rule.permutation_matrix, key=_perm_key)
        self.product_state_coords = tracer.wrap("theories.product_coords",
                                                rule.product_state_coords)
        self.product_effect_coords = tracer.wrap("theories.product_coords",
                                                 rule.product_effect_coords)

    def __getattr__(self, name):
        return getattr(self.wrapped_rule, name)


def traced_theory(theory, tracer: Tracer):
    """A copy of `theory` whose composite rule and strategy hooks record spans."""
    hooks = theory.strategies
    if hooks is not None:
        hooks = dataclasses.replace(hooks, **{
            f.name: tracer.wrap("theories.strategies", getattr(hooks, f.name))
            for f in dataclasses.fields(hooks)
        })
    return dataclasses.replace(theory, composite_rule=RuleProxy(theory.composite_rule, tracer),
                               strategies=hooks)


# (owner, attribute, span name). The parse_* names are the ones cli imported;
# the module functions are looked up as attributes at call time by cli and by
# the workloads, so replacing the attribute reaches both.
PATCH_TARGETS = [
    (circuits, "distribution", "circuits.distribution"),
    (circuits, "acceptance_prob", "circuits.acceptance_prob"),
    (circuits, "prob", "circuits.prob"),
    (afftm, "acceptance_weight", "afftm.acceptance_weight"),
    (afftm, "norm_trace", "afftm.norm_trace"),
    (afftm, "step", "afftm.step"),
    (afftm, "circuit_to_affine_program", "afftm.bridge"),
    (afftm.AffineProgram, "acceptance_weight", "afftm.bridge"),
    (tomography, "n_local_span", "tomography.n_local_span"),
    (tomography, "distinguish_search", "tomography.distinguish_search"),
    (interference, "interference_order", "interference.interference_order"),
    (interference, "decompose", "interference.decompose"),
    (querylab, "parity_quantum", "querylab"),
    (querylab, "parity_classical", "querylab"),
    (querylab, "grover_search", "querylab"),
    (querylab, "lower_bound", "querylab"),
    (cli, "parse_theory", "serialization.parse"),
    (cli, "parse_circuit", "serialization.parse"),
    (cli, "parse_machine", "serialization.parse"),
    (cli, "parse_family", "serialization.parse"),
    (cli, "main", "cli.main"),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Replace every PATCH_TARGETS callable with a recording wrapper, then restore."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCH_TARGETS]
    try:
        for (owner, attr, name), (_, _, fn) in zip(PATCH_TARGETS, originals):
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
