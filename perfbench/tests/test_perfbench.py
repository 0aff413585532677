"""Tests of the benchmark itself, kept out of the repository's test suite.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import json
import random
import time
from pathlib import Path

import pytest

import pipeline
import run as bench_run
import tracing
from workloads import WORKLOADS, Workload

TINY = {
    "exemplar": Workload(
        name="tiny-exemplar",
        baseline="exemplar",
        cap=300,
        k_p=3,
        samples=6,
        synth={"n_identities": 8, "exemplars_per_set": (8, 12), "dim": 24},
    ),
    "subspace": Workload(
        name="tiny-subspace",
        baseline="subspace",
        cap=300,
        k_p=1,
        samples=None,
        synth={"n_identities": 8, "exemplars_per_set": (8, 12), "dim": 24, "noise": 0.25},
    ),
}


@pytest.mark.parametrize("baseline", sorted(TINY))
def test_query_loop_reproduces_evaluate_all(baseline, tmp_path):
    from lqts.evaluation import admissible_query_ids, evaluate_all

    workload = TINY[baseline]
    ops = pipeline.Ops()
    _, gallery = pipeline.setup(workload, 3, tmp_path, ops)
    gallery, proxies, model = pipeline.build(workload, gallery, tmp_path, ops)
    queries, _ = admissible_query_ids(gallery)
    order = random.Random(7).sample(queries, len(queries))
    _, records, _ = pipeline.evaluate(workload, gallery, proxies, model, tmp_path, order, ops)

    assert ops.failed == 0, ops.failures
    for method, config in pipeline.method_configs(workload, model).items():
        expected = evaluate_all(gallery, config, proxies)
        got = sorted(records[method], key=lambda r: queries.index(r.query_id))
        assert got == expected


def test_deterministic_counters_repeat(tmp_path):
    from lqts import retrieval

    original = retrieval.max_max_sim
    layers = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        out = pipeline.run(
            TINY["exemplar"], 3, seed, work, time.monotonic(), tracer=tracing.Tracer()
        )
        assert "error" not in out and out["failed"] == 0, out
        layers.append(out["layers"])
    assert retrieval.max_max_sim is original
    for name in tracing.DETERMINISTIC_COUNTERS:
        assert layers[0][name] == layers[1][name], name
    assert layers[0]["retrieval.pairs_computed"] > 0
    assert set(layers[0]) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)


def test_self_time_excludes_children():
    class Box:
        @staticmethod
        def inner():
            time.sleep(0.02)

        @staticmethod
        def outer():
            time.sleep(0.01)
            Box.inner()

    tracer = tracing.Tracer()
    tracer.patch(Box, "inner", "inner")
    tracer.patch(Box, "outer", "outer")
    Box.outer()
    tracer.restore()
    spans = tracer.per_name()
    calls, total, own = spans["outer"]
    assert calls == 1 and own == pytest.approx(total - spans["inner"][1])
    assert 0.01 <= own < 0.02
    assert Box.outer.__name__ == "outer"


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((Path(bench_run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_timings_sum_part_medians():
    builds = [{"0/svr.train": 4.0, "other": 0.1}, {"0/svr.train": 3.0, "other": 0.3}]
    evals = [
        {"reload": 0.2, "lqts/a": 0.04, "lqts/b": 0.06},
        {"reload": 0.4, "lqts/a": 0.02, "lqts/b": 0.08},
        {"reload": 0.3, "lqts/a": 0.03, "lqts/b": 0.07},
    ]
    got = pipeline.timings(builds, evals)
    assert got["build_s"] == pytest.approx(3.5 + 0.2)
    assert got["eval_s"] == pytest.approx(0.3 + 0.03 + 0.07)
    assert got["query_p50_ms"] == pytest.approx(50.0)


def test_scaled_uses_the_probes_around_each_part():
    import speed

    probes = [2 * speed.PROBE_REF_S, speed.PROBE_REF_S, speed.PROBE_REF_S / 2]
    parts = {"first": [1.0, 1], "second": [1.0, 2], "last": [1.0, 3]}
    got = speed.scaled(parts, probes)
    assert got == pytest.approx({"first": 1 / 1.5, "second": 1 / 0.75, "last": 2.0})
    assert speed.scaled(parts, []) == {"first": 1.0, "second": 1.0, "last": 1.0}


def test_probe_is_positive_and_repeatable():
    import speed

    times = [speed.probe() for _ in range(2)]
    assert all(t > 0 for t in times)
    assert max(times) < 3 * min(times)
