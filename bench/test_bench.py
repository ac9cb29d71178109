"""Self-tests of the benchmark itself.

    python3 -m pytest bench -q
"""

import io
import json
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from bruhatb import cli, core, orders, verify, weyl  # noqa: E402


def test_same_seed_gives_same_inputs():
    assert workloads.QueryMix(5).inputs() == workloads.QueryMix(5).inputs()
    assert workloads.QueryMix(5).inputs() != workloads.QueryMix(6).inputs()
    assert workloads.FlipK1(5).inputs() == workloads.FlipK1(5).inputs()
    assert workloads.FlipK1(5).inputs() != workloads.FlipK1(6).inputs()


def test_b4_chain_pin_is_the_reduced_word_count():
    assert len(weyl.reduced_words_brute("B", 4)) == workloads.PINS["B4.1 chains"]


def test_reset_replays_the_query_stream():
    mix = workloads.QueryMix(3)
    first = [mix.next_spec() for _ in range(50)]
    mix.reset()
    assert [mix.next_spec() for _ in range(50)] == first


def _attributes() -> dict:
    out = {}
    for owner in (core, orders, verify, weyl, cli, orders.TotalOrder, weyl.ReducedWord):
        for name, value in vars(owner).items():
            out[(owner.__name__, name)] = value
    return out


def test_tracing_restores_every_patched_attribute():
    before = _attributes()
    tracer = tracing.Tracer()
    try:
        with tracer.installed(tracing.bruhatb_plan):
            assert orders.build_poset is not before[("bruhatb.orders", "build_poset")]
            assert verify.class_members is not before[("bruhatb.verify", "class_members")]
            orders.build_poset("B", 2, 2)
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    recorded = len(tracer.spans)
    assert recorded > 0
    orders.build_poset("B", 2, 2)
    assert len(tracer.spans) == recorded


def test_pool_tasks_are_children_of_run_suite_and_time_is_accounted():
    tracer = tracing.Tracer()
    with tracer.installed(tracing.bruhatb_plan):
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            status = cli.main(["verify", "--suite", "typeB-k2", "--n", "3", "--jobs", "2"])
        end = time.perf_counter()
    assert status == 0
    summary = tracing.summarize(tracer.spans, start, end, threading.get_ident())
    assert abs(summary["accounted_ratio"] - 1) < 1e-9
    (suite,) = [sp for sp in tracer.spans if sp[1] == "verify.run_suite"]
    tasks = [sp for sp in tracer.spans if sp[1] == "verify.task"]
    assert len(tasks) == workloads.PINS["typeB-k2 checks"]
    assert all(sp[4] == suite[0] for sp in tasks)
    assert tracer.counters["verify.checks"] == len(tasks)
    assert set(summary["layer_self"]) == {"core", "orders", "verify", "cli"}


def test_perturbed_pin_fails_the_run(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "A6.4 chains", 3)
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = run.main(["--workload", "classes-k2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1
    assert "FAIL A6.4 chains: got 2, pinned 3" in buf.getvalue()


def test_wrong_query_answers_fail_the_gate(monkeypatch):
    mix = workloads.QueryMix(2)
    monkeypatch.setattr(orders, "inversion_set", lambda rho: frozenset())
    gate = workloads.Gate()
    mix.run_pass(gate, tracing.Tracer().pause)
    assert gate.attempted == workloads.QUERY_BATCH
    assert gate.failed > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
