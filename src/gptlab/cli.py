"""Command-line entry point (also ``python -m gptlab``).

Exit codes: 0 success, 1 domain failure (bounded-error test fails, halting
violation, reconstruction failure), 2 input error (missing/malformed files,
bad arguments, a query size or Grover iteration count over
``querylab.MAX_ITEMS``, a fiducial count of more than
``tomography.MAX_COUNT_DIGITS`` digits). With --json a single strict JSON
document goes to stdout; it contains no timing, so fixed seeds and inputs
give byte-identical output. A result that is not finite (NaN or an infinity,
which strict JSON cannot write) is a domain failure in either mode, with no
output.

``main`` parses every call with one full parser, built on the first call of
the process and reused: ``parse_args`` leaves the parser unchanged (it makes
a fresh namespace and help formatter each time), so a call sees the same
parser a fresh ``build_parser()`` returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import afftm, circuits, interference, querylab, tomography
from .errors import (
    CapacityError,
    GptLabError,
    HaltingViolationError,
    MachineValidationError,
    ParseError,
    ReconstructionError,
)
from .serialization import parse_circuit, parse_family, parse_machine, parse_theory

DEFAULT_SEED = 7

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _seed(args) -> int:
    seed, where = args.seed, "args"
    if seed is None:
        env = os.environ.get("GPTLAB_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, where = int(env), "env"
        except ValueError:
            raise ParseError(f"GPTLAB_SEED must be an integer, got {env!r}", "env") from None
    if seed < 0:
        raise ParseError(f"seed must be >= 0, got {seed}", where)
    return seed


def _emit(args, report: dict, human_lines: list[str], elapsed: float) -> bool:
    """Print the report; False, printing nothing, if a number in it is not finite."""
    try:  # in either mode: strict JSON writes no NaN or infinity
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:
        return False
    if args.json:
        print(text)
    else:
        for line in human_lines:
            print(line)
        print(f"[{elapsed * 1000:.1f} ms]")
    return True


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (report dict, human lines, exit code)


def _cmd_theory_info(args):
    theory = parse_theory(args.theory)
    report = {
        "command": "theory info",
        "name": theory.name,
        "composite_rule": theory.composite_rule.name,
        "system_types": {label: t.dim for label, t in theory.system_types.items()},
        "gates": sorted(theory.gates),
        "states": sorted(theory.states),
        "effects": sorted(theory.effects),
    }
    lines = [f"theory {theory.name} (composite rule: {theory.composite_rule.name})"]
    for label, t in theory.system_types.items():
        lines.append(f"  type {label}: dim {t.dim}")
    lines.append("  gates: " + ", ".join(sorted(theory.gates)))
    return report, lines, EXIT_OK


def _cmd_circuit_eval(args):
    circuit, _ = parse_circuit(args.circuit)
    dist = circuits.distribution(circuit, cap=args.cap)
    entries = {str(z): p for z, p in sorted(dist.items(), key=lambda kv: str(kv[0]))}
    report = {"command": "circuit eval", "distribution": entries,
              "total": sum(dist.values())}
    lines = [f"{z}: {p:.6g}" for z, p in entries.items()]
    lines.append(f"total: {report['total']:.6g}")
    return report, lines, EXIT_OK


def _cmd_circuit_accept(args):
    circuit, acceptor = parse_circuit(args.circuit)
    if acceptor is None:
        raise ParseError("circuit file declares no acceptor", "circuit")
    p = circuits.acceptance_prob(circuit, acceptor, cap=args.cap)
    decision = circuits.Decision.of(p).value
    report = {"command": "circuit accept", "acceptance_probability": p,
              "decision": decision}
    return report, [f"acceptance probability {p:.6g} -> {decision}"], EXIT_OK


def _cmd_afftm_run(args):
    machine = parse_machine(args.machine)
    alpha = afftm.acceptance_weight(machine, args.input, args.max_steps)
    report = {"command": "afftm run", "input": args.input, "acceptance_weight": alpha}
    return report, [f"acceptance weight on {args.input!r}: {alpha!r}"], EXIT_OK


def _cmd_afftm_check(args):
    machine = parse_machine(args.machine)
    inputs = args.inputs.split(",") if args.inputs else []
    prop = afftm.is_proper_on(machine, inputs, args.max_steps)
    report = {
        "command": "afftm check",
        "proper": prop.all_pass,
        "note": prop.note,
        "entries": [{"input": e.input, "alpha": e.alpha, "ok": e.ok} for e in prop.entries],
    }
    lines = [f"{e.input!r}: alpha={e.alpha!r} {'ok' if e.ok else 'OUT OF RANGE'}"
             for e in prop.entries]
    lines.append(("proper on this sample" if prop.all_pass else "NOT proper") +
                 f" ({prop.note})")
    return report, lines, EXIT_OK if prop.all_pass else EXIT_DOMAIN


def _cmd_afftm_norms(args):
    machine = parse_machine(args.machine)
    trace = afftm.norm_trace(machine, args.input, args.max_steps)
    report = {"command": "afftm norms", "input": args.input, "norms": trace.norms,
              "flagged_steps": trace.flagged_steps, "within_bound": trace.within_bound}
    lines = [f"step {i}: 2-norm {n!r}" + ("  <-- exceeds 1" if i in trace.flagged_steps else "")
             for i, n in enumerate(trace.norms)]
    lines.append("all norms within the free-theory bound" if trace.within_bound
                 else f"bound exceeded at steps {trace.flagged_steps}")
    return report, lines, EXIT_OK


def _cmd_interfere_order(args):
    family = parse_family(args.family)
    order = interference.interference_order(family)
    report = {"command": "interfere order", "family": family.name or "unnamed",
              "n_slits": family.n_slits, "order": order}
    return report, [f"interference order: {order}"], EXIT_OK


def _cmd_interfere_decompose(args):
    family = parse_family(args.family)
    try:
        vector = np.asarray(json.loads(args.vector), dtype=float)
    except (ValueError, TypeError, OverflowError, RecursionError):
        raise ParseError(f"--vector must be a JSON array of numbers, got {args.vector!r}",
                         "args") from None
    if vector.shape != (family.dim,):
        raise ParseError(f"--vector needs {family.dim} coordinates for this family, "
                         f"got shape {vector.shape}", "args")
    if not np.isfinite(vector).all():
        raise ParseError("--vector entries must be finite", "args")
    decomp = interference.decompose(vector, family, args.order)
    components = {
        "{" + ",".join(str(i) for i in sorted(k)) + "}": [float(x) for x in v]
        for k, v in sorted(decomp.components.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    }
    report = {"command": "interfere decompose", "order": decomp.order,
              "residual": decomp.residual, "components": components}
    lines = [f"{k}: {v}" for k, v in components.items()]
    lines.append(f"residual {decomp.residual:.3e}")
    return report, lines, EXIT_OK


def _check_ranges(args) -> None:
    cap = getattr(args, "cap", None)
    if cap is not None and cap <= 0:
        raise ParseError("--cap must be positive", "args")
    max_steps = getattr(args, "max_steps", None)
    if max_steps is not None and max_steps < 0:
        raise ParseError("--max-steps must be >= 0", "args")
    order = getattr(args, "order", None)
    if order is not None and order < 1:
        raise ParseError("--order must be >= 1", "args")


def _check_locality(args) -> None:
    if not 1 <= args.locality <= args.systems:
        raise ParseError("need 1 <= --locality <= --systems", "args")


def _cmd_tomo_check(args):
    _check_locality(args)
    theory = parse_theory(args.theory)
    rep = tomography.n_local_span(theory, args.systems, args.locality, cap=args.cap)
    report = {
        "command": "tomo check",
        "theory": rep.theory,
        "systems": rep.n_systems,
        "locality": rep.locality,
        "composite_dim": rep.composite_dim,
        "span_dim": rep.n_local_span_dim,
        "defect": rep.defect,
        "defect_basis": [[float(x) for x in row] for row in rep.defect_basis],
    }
    return report, [rep.summary()], EXIT_OK


def _cmd_tomo_count(args):
    if args.k < 1:
        raise ParseError("--k must be >= 1", "args")
    _check_locality(args)
    try:
        value = tomography.fiducial_count(args.k, args.systems, args.locality)
    except ValueError as exc:
        raise ParseError(str(exc), "args") from None
    report = {"command": "tomo count", "k": args.k, "systems": args.systems,
              "locality": args.locality, "count": value}
    return report, [f"fiducial measurements required: {value}"], EXIT_OK


def _cmd_query_parity(args):
    table = _parse_table(args)
    f = querylab.OracleFunction(table)
    quantum = querylab.parity_quantum(f)
    classical = querylab.parity_classical(f)
    agree = quantum.result == classical.result
    report = {
        "command": "query parity",
        "n": f.n_items,
        "table": list(f.table),
        "quantum": {"parity": quantum.result, "queries": quantum.query_count},
        "classical": {"parity": classical.result, "queries": classical.query_count},
        "agree": agree,
    }
    lines = [
        f"table: {''.join(str(b) for b in f.table)}",
        f"interference solver: parity {quantum.result} in {quantum.query_count} queries",
        f"classical baseline:  parity {classical.result} in {classical.query_count} queries",
    ]
    return report, lines, EXIT_OK if agree else EXIT_DOMAIN


def _check_items(n: int) -> None:
    if n > querylab.MAX_ITEMS:
        raise ParseError(f"query size {n} is over the cap of {querylab.MAX_ITEMS} items", "args")


def _parse_table(args) -> tuple[int, ...]:
    if args.table is not None:
        if not args.table or set(args.table) - set("01"):
            raise ParseError(f"--table must be a nonempty bit string, got {args.table!r}", "args")
        if args.n is not None and args.n != len(args.table):
            raise ParseError("--n disagrees with --table length", "args")
        _check_items(len(args.table))
        return tuple(int(c) for c in args.table)
    if args.n is None:
        raise ParseError("need --n or --table", "args")
    if args.n < 1:
        raise ParseError("--n must be >= 1", "args")
    _check_items(args.n)
    rng = np.random.default_rng(_seed(args))
    return tuple(int(b) for b in rng.integers(0, 2, size=args.n))


def _cmd_query_grover(args):
    if args.n < 1 or (args.marked is not None and not 0 <= args.marked < args.n):
        raise ParseError("need --n >= 1 and 0 <= --marked < --n", "args")
    if args.iters is not None and args.iters < 0:
        raise ParseError("--iters must be >= 0", "args")
    if args.iters is not None and args.iters > querylab.MAX_ITEMS:
        raise ParseError(f"--iters {args.iters} is over the cap of {querylab.MAX_ITEMS}", "args")
    _check_items(args.n)
    marked = args.marked
    if marked is None:
        marked = int(np.random.default_rng(_seed(args)).integers(0, args.n))
    table = [0] * args.n
    table[marked] = 1
    f = querylab.OracleFunction(tuple(table))
    transcript = querylab.grover_search(f, iterations=args.iters)
    report = {
        "command": "query grover",
        "n": f.n_items,
        "marked": f.marked_items()[0],
        "queries": transcript.query_count,
        "result": transcript.result,
        "success": transcript.success,
        "success_probability": transcript.success_probability,
    }
    lines = [
        f"marked item {report['marked']} of {f.n_items}",
        f"result {transcript.result} after {transcript.query_count} queries "
        f"(p_success {transcript.success_probability:.6g})",
    ]
    return report, lines, EXIT_OK if transcript.success else EXIT_DOMAIN


def _cmd_query_bounds(args):
    if args.n < 1 or args.k < 1:
        raise ParseError("need --n >= 1 and --k >= 1", "args")
    if args.n // args.k > sys.float_info.max:
        raise ParseError("--n / --k is beyond the float range", "args")
    bound = querylab.lower_bound(args.problem, args.n, args.k)
    report = {"command": "query bounds", "problem": bound.problem, "n": bound.n_items,
              "k": bound.order, "value": bound.value, "asymptotic": bound.asymptotic}
    return report, [str(bound)], EXIT_OK


# ---------------------------------------------------------------------------


def _add_theory(commands) -> None:
    q = commands.add_parser("info")
    q.add_argument("--theory", required=True, help="theory JSON file or inline JSON")
    q.set_defaults(handler=_cmd_theory_info)


def _add_circuit(commands) -> None:
    q = commands.add_parser("eval")
    q.add_argument("--circuit", required=True)
    q.add_argument("--cap", type=int, default=circuits.DEFAULT_ENUMERATION_CAP)
    q.set_defaults(handler=_cmd_circuit_eval)
    q = commands.add_parser("accept")
    q.add_argument("--circuit", required=True)
    q.add_argument("--cap", type=int, default=circuits.DEFAULT_ENUMERATION_CAP)
    q.set_defaults(handler=_cmd_circuit_accept)


def _add_afftm(commands) -> None:
    q = commands.add_parser("run")
    q.add_argument("--machine", required=True)
    q.add_argument("--input", default="")
    q.add_argument("--max-steps", type=int, required=True)
    q.set_defaults(handler=_cmd_afftm_run)
    q = commands.add_parser("check")
    q.add_argument("--machine", required=True)
    q.add_argument("--inputs", default="", help="comma-separated inputs")
    q.add_argument("--max-steps", type=int, required=True)
    q.set_defaults(handler=_cmd_afftm_check)
    q = commands.add_parser("norms")
    q.add_argument("--machine", required=True)
    q.add_argument("--input", default="")
    q.add_argument("--max-steps", type=int, required=True)
    q.set_defaults(handler=_cmd_afftm_norms)


def _add_interfere(commands) -> None:
    q = commands.add_parser("order")
    q.add_argument("--family", required=True)
    q.set_defaults(handler=_cmd_interfere_order)
    q = commands.add_parser("decompose")
    q.add_argument("--family", required=True)
    q.add_argument("--vector", required=True, help="JSON array of carrier coordinates")
    q.add_argument("--order", type=int, required=True)
    q.set_defaults(handler=_cmd_interfere_decompose)


def _add_tomo(commands) -> None:
    q = commands.add_parser("check")
    q.add_argument("--theory", required=True)
    q.add_argument("--systems", type=int, required=True)
    q.add_argument("--locality", type=int, required=True)
    q.add_argument("--cap", type=int, default=tomography.DEFAULT_SPAN_CAP)
    q.set_defaults(handler=_cmd_tomo_check)
    q = commands.add_parser("count")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--systems", type=int, required=True)
    q.add_argument("--locality", type=int, required=True)
    q.set_defaults(handler=_cmd_tomo_count)


def _add_query(commands) -> None:
    q = commands.add_parser("parity")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--table", default=None, help="explicit bit string, e.g. 0110")
    # SUPPRESS keeps a top-level --seed visible to the subcommand
    q.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    q.set_defaults(handler=_cmd_query_parity)
    q = commands.add_parser("grover")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--marked", type=int, default=None)
    q.add_argument("--iters", type=int, default=None)
    q.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    q.set_defaults(handler=_cmd_query_grover)
    q = commands.add_parser("bounds")
    q.add_argument("--problem", choices=("parity", "search"), required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(handler=_cmd_query_bounds)


# (name, help, adder) per command group, in help order; the adder fills the
# group's subcommands and their options
_GROUPS = (
    ("theory", "inspect theories", _add_theory),
    ("circuit", "evaluate closed circuits", _add_circuit),
    ("afftm", "run affine Turing machines", _add_afftm),
    ("interfere", "projector families and coherence", _add_interfere),
    ("tomo", "tomographic locality analysis", _add_tomo),
    ("query", "oracle query experiments", _add_query),
)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: every command group with its subcommands."""
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description="Simulation laboratory for computation in generalised probabilistic theories",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON document on stdout")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {DEFAULT_SEED}; GPTLAB_SEED overrides the default)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add in _GROUPS:
        add(sub.add_parser(name, help=help_text).add_subparsers(dest="subcommand", required=True))
    return parser


_parser = functools.cache(build_parser)


def _fail(kind: str, exc: Exception, code: int) -> int:
    # one stderr line, also when a name read from the input holds a newline
    print(f"{kind}: {exc}".replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _check_ranges(args)
        report, lines, code = args.handler(args)
    except (ParseError, FileNotFoundError, MachineValidationError) as exc:
        return _fail("input error", exc, EXIT_INPUT)
    except (HaltingViolationError, CapacityError, ReconstructionError) as exc:
        return _fail("domain failure", exc, EXIT_DOMAIN)
    except GptLabError as exc:
        return _fail("error", exc, EXIT_DOMAIN)
    except MemoryError as exc:  # a cap checked too late; numpy names the allocation
        return _fail("domain failure", str(exc) or "out of memory", EXIT_DOMAIN)
    try:  # a reader that closed the pipe shows at the print or at the flush
        emitted = _emit(args, report, lines, time.perf_counter() - start)
        sys.stdout.flush()
    except BrokenPipeError:  # exit 1 without a traceback; the flush at exit writes to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_DOMAIN
    if not emitted:
        return _fail("domain failure", "a result is not finite (NaN or an infinity)", EXIT_DOMAIN)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
