"""One-shot timings of the baseline rows in ROADMAP.md's Recent table.

    python3 perfbench/report.py

Each row is a single wall-clock run, printed as a markdown table with the
machine record. Nothing here is gated; the gated numbers come from run.py.
"""

import json
import resource
from time import perf_counter

from run import machine_record, prepare

prepare()
from gptlab import afftm, circuits, tomography  # noqa: E402
from gptlab.circuits import CircuitDAG  # noqa: E402
from gptlab.theories import classical_theory, real_quantum_theory  # noqa: E402

from bench_workloads import CircuitEnum, writer_machine  # noqa: E402


def coin_read(w: int) -> CircuitDAG:
    return CircuitEnum._build({"classical": classical_theory(2)}, "coin", w, range(w))


def rebit_coins(n: int) -> CircuitDAG:
    th = real_quantum_theory(2)
    c = CircuitDAG(th)
    for i in range(n):
        c.add(f"p{i}", th.gates["prep_plus"])
        c.add(f"m{i}", th.gates["measure"])
        c.connect((f"p{i}", 0), (f"m{i}", 0))
    return c


def timed(fn):
    t0 = perf_counter()
    result = fn()
    return perf_counter() - t0, result


def main() -> None:
    w10 = coin_read(10)
    one_string = {**{f"c{i}": "0" for i in range(10)}, **{f"r{i}": "0" for i in range(10)}}
    rebit = real_quantum_theory(2)
    rows = [
        ("`distribution`, w=8", lambda: circuits.distribution(coin_read(8)),
         lambda d: f"{len(d)} strings"),
        ("`distribution`, w=10", lambda: circuits.distribution(w10),
         lambda d: f"{len(d)} strings"),
        ("`prob` on one string, w=10", lambda: circuits.prob(w10, one_string),
         lambda p: f"p = {p:.6g}"),
        ("4-rebit coin circuit `distribution` (16 strings)",
         lambda: circuits.distribution(rebit_coins(4)), lambda d: f"{len(d)} strings"),
        ("`n_local_span`, 4 rebits, n=2", lambda: tomography.n_local_span(rebit, 4, 2),
         lambda r: f"defect {r.defect}"),
        ("affine branching writer, 16 steps",
         lambda: afftm.acceptance_weight(writer_machine(16, 2.0), "", 16),
         lambda a: f"weight {a:.6g}"),
    ]
    print("| Workload | Time | Result |")
    print("| --- | --- | --- |")
    for label, fn, describe in rows:
        seconds, result = timed(fn)
        shown = f"{seconds * 1e3:.0f} ms" if seconds < 1 else f"{seconds:.2f} s"
        print(f"| {label} | {shown} | {describe(result)} |", flush=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"machine": machine_record(seed=None), "peak_rss_mb": peak_mb}))


if __name__ == "__main__":
    main()
