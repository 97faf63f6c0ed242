"""The gptlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

Run from the repository root; gptlab is imported from ./src. Each workload
is a closed loop with one client: the next op starts when the previous one
has returned. The run executes whole rounds of ops (see bench_workloads)
until --seconds have passed, checks every op's output, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes of the time from process start to
               the first timed op: importing gptlab, building theories,
               generating round 0 and one warm-up op of each kind (the
               largest of its kind in round 0)
  ops_per_s    timed ops divided by the time spent inside them
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency
  peak_rss_mb  peak resident memory of the measuring process
and prints fail_ratio (failed / attempted) with them. ops_per_s, op_p50_ms
and op_p90_ms are taken over every timed op of the run (at least MIN_OPS),
each op's latency scaled by a calibration kernel timed beside it (see
bench_calibrate).

--trace 1 reports the per-layer metrics. It repeats a fixed schedule (the
first rounds of the seed) in alternating untraced and traced passes. Traced
passes record spans at layer boundaries (see bench_trace); span times are
the fastest pass's, in plain (uncalibrated) seconds; counts come from one
traced pass and must repeat exactly in every other, and every op result must
be bit-identical across all passes. Tracing overhead is the relative loss of
calibrated ops_per_s between the fastest untraced and the fastest traced
pass.

`--workload all` runs every workload in a fresh process and prints a table.
Results, the machine record and the spans of the last traced pass are also
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Pinned before numpy loads: at or below nproc, and one thread keeps
# small-matrix timings steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import bench_calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
CAL_SAMPLES = 20  # calibration samples a set-up probe takes after its set-up
MIN_OPS = 100  # timed ops per run at least, so ten or more lie beyond p90


def prepare() -> None:
    """Make ./src/gptlab importable, or exit 2 without it."""
    if not (ROOT / "src" / "gptlab" / "__init__.py").is_file():
        print(f"perfbench: no gptlab sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


# rate metric -> (count, span names whose inclusive time is the denominator)
RATES = {
    "circuits.outcome_strings_per_s": (
        "circuits.outcome_strings",
        ("circuits.distribution", "circuits.acceptance_prob", "circuits.prob")),
    "afftm.configurations_per_s": (
        "afftm.configurations",
        ("afftm.acceptance_weight", "afftm.norm_trace", "afftm.step")),
    "tomography.evaluations_per_s": (
        "tomography.evaluations", ("tomography.distinguish_search",)),
}


# ---------------------------------------------------------------------------
# running ops


class OpRecord:
    __slots__ = ("name", "latency", "error", "digest", "counts")

    def __init__(self, name, latency, error):
        self.name, self.latency, self.error = name, latency, error
        self.digest, self.counts = None, {}


def run_round(rnd, tracer=None, detail=False, cal=None) -> list[OpRecord]:
    """Run a round's ops in order, each followed by its checks.

    Only the library call is timed; the garbage collector runs as it would in
    the program, so an op is charged for the collections it triggers. A result
    is kept only until the last pair check that reads it. With `detail`, each
    record also gets a digest of the op's result (for bit-identity) and the
    op's counts. With a list `cal`, a calibration sample is appended to it
    after every op.
    """
    pending = Counter(a for a, _, _ in rnd.pair_checks)
    pair_checks = defaultdict(list)
    for a, b, check in rnd.pair_checks:
        pair_checks[b].append((a, check))
    records, results = [], {}
    for i, op in enumerate(rnd.ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            res = op.run()
            err = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res, err = None, f"raised {exc!r}"
        rec = OpRecord(op.name, perf_counter() - t0, err)
        if cal is not None:
            cal.append(bench_calibrate.sample())
        if err is None:
            try:
                rec.error = op.check(res)
            except Exception as exc:
                rec.error = f"check raised {exc!r}"
            if detail:
                rec.digest = hashlib.sha256(pickle.dumps(res)).hexdigest()
                rec.counts = op.counts(res)
        for a, check in pair_checks[op.name]:
            if rec.error is None and a in results:
                try:
                    rec.error = check(results[a], res)
                except Exception as exc:
                    rec.error = f"pair check raised {exc!r}"
            pending[a] -= 1
            if not pending[a]:
                results.pop(a, None)
        if err is None and pending[op.name]:
            results[op.name] = res
        records.append(rec)
    if tracer is not None:
        tracer.op_id = None
    return records


def scaled_latencies(records, cal) -> list[float]:
    """Op latencies on the reference machine of bench_calibrate.

    `cal` holds a calibration sample taken before the first op and one after
    each op. On a shared host the machine's speed drifts within and between
    runs, so each op is scaled by the mean of the samples around it: the
    machine's speed over the op, which the faster sample alone overstates.
    """
    return [rec.latency * bench_calibrate.REFERENCE_S * 2 / (before + after)
            for rec, before, after in zip(records, cal, cal[1:])]


def set_up(name: str, seed: int):
    """Everything before the first timed op. Returns (workload, theories, warm-up records)."""
    from bench_workloads import WORKLOADS, Round

    workload = WORKLOADS[name]()
    env = workload.theories()
    rnd = workload.materialize(workload.round_spec(seed, 0), env)
    largest = {}
    for op in rnd.ops:
        if op.kind not in largest or op.size > largest[op.kind].size:
            largest[op.kind] = op
    return workload, env, run_round(Round(list(largest.values())))


def measure_setup(name: str, seed: int) -> float:
    """Time from starting a fresh process to the end of its set-up.

    The wall time is scaled by calibration samples the process takes right
    after its set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest = proc.stdout.read().split()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe for {name} failed (exit {code}): {line.strip()}")
    return elapsed * bench_calibrate.REFERENCE_S / statistics.median(float(x) for x in rest)


def _failures(records) -> list[str]:
    return [f"{r.name}: {r.error}" for r in records if r.error]


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    setup = [measure_setup(name, seed) for _ in range(SETUP_SAMPLES)]
    workload, env, warm = set_up(name, seed)
    timed, latencies = [], []  # every timed op and its scaled latency
    deadline = perf_counter() + seconds
    r = 0
    while perf_counter() < deadline or len(timed) < MIN_OPS:
        rnd = workload.materialize(workload.round_spec(seed, r), env)
        cal = [bench_calibrate.sample()]
        round_records = run_round(rnd, cal=cal)
        latencies += scaled_latencies(round_records, cal)
        timed += round_records
        r += 1
    records = warm + timed
    failures = _failures(records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "workload": name, "rounds": r, "ops": len(timed), "attempted": len(records),
        "failed": len(failures), "failures": failures[:20], "setup_samples_s": setup,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# traced run


def traced(name: str, seed: int, seconds: float) -> dict:
    from bench_trace import Tracer, patched, traced_theory

    workload, env, warm = set_up(name, seed)
    specs = [workload.round_spec(seed, r) for r in range(workload.trace_rounds)]
    records = list(warm)
    problems: list[str] = []
    reference_digests = None
    reference_counts = None
    rates = {"untraced": [], "traced": []}
    passes = []  # (tracer stats, busy seconds) per traced pass
    last_tracer = None
    deadline = perf_counter() + seconds
    while True:
        for mode in ("untraced", "traced"):
            tracer = Tracer() if mode == "traced" else None
            pass_env = env if tracer is None else {k: traced_theory(t, tracer)
                                                   for k, t in env.items()}
            rounds = [workload.materialize(spec, pass_env) for spec in specs]
            pass_records, scaled = [], []
            with patched(tracer) if tracer is not None else contextlib.nullcontext():
                for rnd in rounds:
                    cal = [bench_calibrate.sample()]
                    round_records = run_round(rnd, tracer, detail=True, cal=cal)
                    pass_records += round_records
                    scaled += scaled_latencies(round_records, cal)
            records += pass_records
            busy = sum(rec.latency for rec in pass_records)
            rates[mode].append(len(scaled) / sum(scaled))
            digests = [rec.digest for rec in pass_records]
            if reference_digests is None:
                reference_digests = digests
            elif digests != reference_digests:
                problems.append(f"{mode} pass {len(rates[mode])}: op results differ from pass 1")
            if tracer is not None:
                counts = Counter()
                peak = 0
                for rec in pass_records:
                    for key, value in rec.counts.items():
                        if key == "afftm.peak_frontier":
                            peak = max(peak, value)
                        else:
                            counts[key] += value
                counts["afftm.peak_frontier"] = peak
                stats = tracer.stats()
                for span, s in stats.items():
                    counts[f"{span}.calls"] = s["calls"]
                    counts[f"{span}.repeats"] = s["repeats"]
                    counts[f"{span.split('.', 1)[0]}.errors"] += s["errors"]
                if reference_counts is None:
                    reference_counts = counts
                elif counts != reference_counts:
                    problems.append(f"traced pass {len(passes) + 1}: counts differ from pass 1")
                passes.append((stats, busy))
                last_tracer = tracer
        if perf_counter() >= deadline:
            break

    metrics = layer_metrics(passes, reference_counts, rates)
    failures = _failures(records)
    return {
        "workload": name, "passes": len(passes), "ops_per_pass": len(reference_digests),
        "attempted": len(records), "failed": len(failures), "failures": failures[:20],
        "problems": problems, "metrics": metrics,
        "spans": last_tracer.span_rows() if last_tracer is not None else [],
    }


def layer_metrics(passes, counts, rates) -> dict:
    """Per-layer metrics: times from the fastest pass, counts from `counts`."""

    def span_total(span, field):
        return min(stats.get(span, {}).get(field, 0.0) for stats, _ in passes)

    out = {}
    for name, unit in per_layer_metrics():
        base, _, stat = name.rpartition(".")
        if name in RATES:
            count, spans = RATES[name]
            busy = sum(span_total(s, "incl_s") for s in spans)
            value = counts.get(count, 0) / busy if busy else 0.0
        elif name == "trace.ops_per_s_untraced":
            value = max(rates["untraced"])
        elif name == "trace.ops_per_s_traced":
            value = max(rates["traced"])
        elif name == "trace.overhead_ratio":
            value = 1.0 - max(rates["traced"]) / max(rates["untraced"])
        elif name == "trace.coverage":
            # self times of all spans over the time spent inside ops
            value = statistics.median(sum(s["self_s"] for s in stats.values()) / busy
                                      for stats, busy in passes)
        elif stat == "self_s":
            value = span_total(base, "self_s")
        elif stat == "calls":
            value = counts.get(name, 0)
        elif stat == "repeat_ratio":
            calls = counts.get(f"{base}.calls", 0)
            value = counts.get(f"{base}.repeats", 0) / calls if calls else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = (value, unit)
    return out


# ---------------------------------------------------------------------------
# reporting


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed, "git_commit": commit,
    }


def _write(result: dict, trace: int, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if trace else "e2e"
    path = OUT_DIR / f"{kind}-{result['workload']}-seed{seed}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")


def _final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and not result.get("problems"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_one(name: str, seed: int, seconds: float, trace: int) -> None:
    result = (traced if trace else end_to_end)(name, seed, seconds)
    result["machine"] = machine_record(seed)
    _write(result, trace, seed)
    result.pop("spans", None)
    for failure in result["failures"] + result.get("problems", []):
        print(f"FAIL {failure}")
    fail_ratio = result["failed"] / result["attempted"]
    if trace:
        print(f"{name}: {result['passes']} traced passes of {result['ops_per_pass']} ops, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {fail_ratio:.4g}")
    else:
        print(f"{name}: {result['rounds']} rounds, {result['ops']} timed ops, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {fail_ratio:.4g}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:44s} {value:14.6g} {unit}")
    print(json.dumps({"machine": result["machine"]}))
    print(_final_line(result))


def run_all(seed: int, seconds: float, trace: int) -> int:
    from bench_workloads import WORKLOADS

    summary = {}
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
        ok = ok and summary[name]["correct"]
    names = list(summary)
    rows = {"attempted": ("ops", [summary[n]["attempted"] for n in names]),
            "failed": ("ops", [summary[n]["failed"] for n in names]),
            "fail_ratio": ("ratio", [summary[n]["failed"] / summary[n]["attempted"]
                                     for n in names])}
    for metric, m in summary[names[0]]["metrics"].items():
        rows[metric] = (m["unit"], [summary[n]["metrics"][metric]["value"] for n in names])
    print(f"\n{'metric':44s}{'unit':>8s}" + "".join(f"{n:>16s}" for n in names))
    for metric, (unit, cells) in rows.items():
        print(f"{metric:44s}{unit:>8s}" + "".join(f"{c:16.6g}" for c in cells))
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or 'all'")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        print(*(bench_calibrate.sample() for _ in range(CAL_SAMPLES)))
        return 0
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
