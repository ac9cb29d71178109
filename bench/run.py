"""Benchmark of the bruhatb library: one workload per run.

    python3 bench/run.py --workload flip-k1 --seed 1 --seconds 36 --trace 0

The library is imported from the `src` directory next to this one, never
from an installed copy, and the run fails without a result when it is
missing.

With `--trace 0` the run measures the end-to-end metrics: set-up time of a
fresh interpreter (median of several), the time of one pass over the
workload (see README.md), and the peak resident memory of this process.  With
`--trace 1` it runs the workload untraced for half the time, then runs the
same passes again with every layer wrapped in spans, writes the spans to
`bench/out/`, and reports per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit status is 0 when
every output passed its check and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 11
WORKLOAD_NAMES = ("flip-k1", "classes-k2", "query-mix")

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import bruhatb
for family, n, k in {configs!r}:
    rho = bruhatb.rho_min(family, n, k)
    bruhatb.is_admissible(rho)
    bruhatb.canonical_form(rho)
print(time.perf_counter() - t0)
print(bruhatb.__file__)
"""

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

_QUERY_PREFIXES = (
    "orders.is_admissible", "orders.inversion_set", "orders.flip_candidates",
    "orders.canonical_form", "verify.crosses", "core.text", "orders.packet_flip",
    "orders.class_flip_candidates", "verify.blocks",
)

PER_LAYER = {
    "core.ground_set.calls": "count", "core.ground_set.s": "s",
    "core.normalize_orbit.calls": "count",
    "core.packet_B.calls": "count", "core.packet_B.s": "s",
    "core.text.calls": "count", "core.text.s": "s",
    "core.self_s": "s",
    "orders.TotalOrder.new": "count", "orders.TotalOrder.s": "s",
    "orders.class_members.calls": "count", "orders.class_members.s": "s",
    "orders.class_members.members": "count", "orders.members_per_class": "ratio",
    "orders.flip_candidates.calls": "count", "orders.flip_candidates.s": "s",
    "orders.flip_yield": "ratio",
    "orders.canonical_form.calls": "count", "orders.canonical_form.s": "s",
    "orders.packet_flip.calls": "count", "orders.packet_flip.s": "s",
    "orders.build_poset.self_s": "s", "orders.classes": "count", "orders.edges": "count",
    "orders.check_extrema.s": "s", "orders.inv_injectivity.s": "s",
    "orders.maximal_chains.s": "s", "orders.chains": "count",
    "orders.enumerate_admissible.s": "s", "orders.enumerate_admissible.orderings": "count",
    "orders.export.s": "s", "orders.export.bytes": "bytes",
    "orders.self_s": "s",
    "verify.run_suite.s": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "verify.crosses.calls": "count", "verify.crosses.s": "s",
    "verify.crosses_oracle.s": "s",
    "verify.blocks.calls": "count", "verify.blocks.s": "s",
    "verify.case_report.s": "s", "verify.extensions": "count",
    "verify.acyclic_ratio": "ratio", "verify.parallel_efficiency": "ratio",
    "verify.self_s": "s",
    "weyl.chain_to_word.calls": "count", "weyl.chain_to_word.s": "s",
    "weyl.iso_check.s": "s", "weyl.word_check.s": "s", "weyl.self_s": "s",
    "cli.main.self_s": "s",
    **{f"{p}.p50_us": "us" for p in _QUERY_PREFIXES},
    **{f"{p}.count": "count" for p in _QUERY_PREFIXES},
    "poset_s": "s", "chains_s": "s", "verify_s": "s",
    "queries_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us",
    "query_samples": "count",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead": "ratio",
    "trace.accounted_ratio": "ratio", "trace.program_share": "ratio",
    "trace.spans": "count", "bench.self_s": "s",
}


def import_library():
    """Import bruhatb from this checkout's src, or exit without a result."""
    if not (SRC / "bruhatb" / "__init__.py").is_file():
        sys.exit(f"error: no bruhatb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bruhatb
    if SRC not in Path(bruhatb.__file__).resolve().parents:
        sys.exit(f"error: bruhatb imported from {bruhatb.__file__}, not {SRC}")
    return bruhatb


def measure_setup(configs) -> float:
    """Median time for a fresh interpreter to import bruhatb and fill its tables."""
    snippet = SETUP_SNIPPET.format(src=str(SRC), configs=list(configs))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-I", "-c", snippet], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, where = proc.stdout.split()
        if SRC not in Path(where).resolve().parents:
            sys.exit(f"error: set-up child imported bruhatb from {where}")
        times.append(float(seconds))
    return statistics.median(times)


def warm(configs) -> None:
    """Fill the lazy tables the workload uses, as the set-up child does."""
    from bruhatb import orders
    for cfg in configs:
        rho = orders.rho_min(*cfg)
        orders.is_admissible(rho)
        orders.canonical_form(rho)


def run_passes(workload, gate, pause, seconds=None, count=None) -> tuple[list, float]:
    """Passes until `seconds` have elapsed (at least one), or exactly `count`."""
    passes = []
    start = time.perf_counter()
    while True:
        if count is not None and len(passes) >= count:
            break
        if count is None and passes and time.perf_counter() - start >= seconds:
            break
        passes.append(workload.run_pass(gate, pause))
    return passes, time.perf_counter() - start


def median_of(passes, key) -> float:
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else 0.0


def phase_figures(workload, passes) -> dict:
    """Untraced phase times of the bulk workloads and query-mix latencies."""
    out = {k: median_of(passes, k) for k in ("poset_s", "chains_s", "verify_s")}
    latencies = getattr(workload, "latencies", {})
    us = sorted(s * 1e6 for seconds in latencies.values() for s in seconds)
    out.update({"queries_per_s": 0.0, "query_p50_us": 0.0, "query_p99_us": 0.0,
                "query_samples": len(us)})
    for prefix in _QUERY_PREFIXES:
        out[f"{prefix}.p50_us"] = 0.0
        out[f"{prefix}.count"] = 0
    if len(us) < 2:
        return out
    out["queries_per_s"] = len(us) / (sum(us) / 1e6)
    out["query_p50_us"] = statistics.median(us)
    out["query_p99_us"] = statistics.quantiles(us, n=100)[98]
    from workloads import QUERY_KINDS
    for kind, _weight, prefix in QUERY_KINDS:
        if latencies[kind]:
            out[f"{prefix}.p50_us"] = statistics.median(latencies[kind]) * 1e6
            out[f"{prefix}.count"] = len(latencies[kind])
    return out


def layer_metrics(tracer, summary: dict) -> dict:
    """Per-layer metrics from the traced passes' spans and counters."""
    names, c, layers = summary["names"], tracer.counters, summary["layer_self"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def incl(name):
        return names.get(name, {}).get("s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "core.ground_set.calls": calls("core.ground_set"),
        "core.ground_set.s": incl("core.ground_set"),
        "core.normalize_orbit.calls": c["core.normalize_orbit.calls"],
        "core.packet_B.calls": calls("core.packet_B"),
        "core.packet_B.s": incl("core.packet_B"),
        "core.text.calls": calls("core.text"),
        "core.text.s": incl("core.text"),
        "core.self_s": layers.get("core", 0.0),
        "orders.TotalOrder.new": calls("orders.TotalOrder"),
        "orders.TotalOrder.s": incl("orders.TotalOrder"),
        "orders.class_members.calls": calls("orders.class_members"),
        "orders.class_members.s": incl("orders.class_members"),
        "orders.class_members.members": c["orders.class_members.members"],
        "orders.members_per_class": ratio(c["orders.class_members.members"],
                                          calls("orders.class_members")),
        "orders.flip_candidates.calls": calls("orders.flip_candidates"),
        "orders.flip_candidates.s": incl("orders.flip_candidates"),
        "orders.flip_yield": ratio(c["orders.edges"], calls("orders.flip_candidates")),
        "orders.canonical_form.calls": calls("orders.canonical_form"),
        "orders.canonical_form.s": incl("orders.canonical_form"),
        "orders.packet_flip.calls": calls("orders.packet_flip"),
        "orders.packet_flip.s": incl("orders.packet_flip"),
        "orders.build_poset.self_s": names.get("orders.build_poset", {}).get("self_s", 0.0),
        "orders.classes": c["orders.classes"],
        "orders.edges": c["orders.edges"],
        "orders.check_extrema.s": incl("orders.check_extrema"),
        "orders.inv_injectivity.s": incl("orders.inv_injectivity"),
        "orders.maximal_chains.s": incl("orders.maximal_chains"),
        "orders.chains": c["orders.chains"],
        "orders.enumerate_admissible.s": incl("orders.enumerate_admissible"),
        "orders.enumerate_admissible.orderings": c["orders.enumerate_admissible.orderings"],
        "orders.export.s": incl("orders.export"),
        "orders.export.bytes": c["orders.export.bytes"],
        "orders.self_s": layers.get("orders", 0.0),
        "verify.run_suite.s": incl("verify.run_suite"),
        "verify.checks": c["verify.checks"],
        "verify.checks_failed": c["verify.checks_failed"],
        "verify.crosses.calls": calls("verify.crosses"),
        "verify.crosses.s": incl("verify.crosses"),
        "verify.crosses_oracle.s": incl("verify.crosses_oracle"),
        "verify.blocks.calls": calls("verify.blocks"),
        "verify.blocks.s": incl("verify.blocks"),
        "verify.case_report.s": incl("verify.case_report"),
        "verify.extensions": c["verify.extensions"],
        "verify.acyclic_ratio": ratio(c["verify.acyclic"], c["verify.orientations"]),
        "verify.parallel_efficiency": ratio(c["verify.task_cpu_s"], c["verify.jobs_wall_s"]),
        "verify.self_s": layers.get("verify", 0.0),
        "weyl.chain_to_word.calls": calls("weyl.chain_to_word"),
        "weyl.chain_to_word.s": incl("weyl.chain_to_word"),
        "weyl.iso_check.s": incl("weyl.iso_check"),
        "weyl.word_check.s": incl("weyl.word_check"),
        "weyl.self_s": layers.get("weyl", 0.0),
        "cli.main.self_s": layers.get("cli", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    gate = workloads.Gate()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}", flush=True)
    # nothing is wrapped while this tracer exists, so pausing it costs nothing
    untraced = tracing.Tracer()

    if args.trace == 0:
        setup_s = measure_setup(workload.setup_configs)
        warm(workload.setup_configs)
        passes, _wall = run_passes(workload, gate, untraced.pause, seconds=args.seconds)
        values = {
            "setup_s": setup_s,
            "pass_s": workload.pass_statistic([p["pass_s"] for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        figures = phase_figures(workload, passes)
        units = END_TO_END
    else:
        warm(workload.setup_configs)
        passes, untraced_wall = run_passes(workload, gate, untraced.pause,
                                           seconds=args.seconds / 2)
        figures = phase_figures(workload, passes)
        workload.reset()
        tracer = tracing.Tracer()
        with tracer.installed(tracing.bruhatb_plan):
            t0 = time.perf_counter()
            run_passes(workload, gate, tracer.pause, count=len(passes))
            t1 = time.perf_counter()
        summary = tracing.summarize(tracer.spans, t0, t1, threading.get_ident())
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"{args.workload}.spans.csv"
        tracing.write_spans(span_file, tracer.spans, t0)
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        values = dict(figures)
        values.update(layer_metrics(tracer, summary))
        values.update({
            "trace.wall_s": summary["wall_s"],
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead": summary["wall_s"] / untraced_wall - 1,
            "trace.accounted_ratio": summary["accounted_ratio"],
            "trace.program_share": 1 - summary["bench_self_s"] / summary["wall_s"],
            "trace.spans": len(tracer.spans),
            "bench.self_s": summary["bench_self_s"],
        })
        units = PER_LAYER

    print(f"passes {len(passes)}  " + "  ".join(
        f"{k} {v:.6g}" for k, v in figures.items() if v and "." not in k))
    print(f"fail_ratio {gate.failed / max(gate.attempted, 1):.6g}"
          f"  ({gate.failed} failed of {gate.attempted} attempted)")
    for what in gate.failures:
        print(f"FAIL {what}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
