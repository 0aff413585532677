"""Smoke runs of the experiment scripts, loaded by path and run in-process."""

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lqts.evaluation import admissible_query_ids, evaluate_all
from lqts.retrieval import METHODS, Ranker, RetrievalConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["output_digests", "run_pipeline", "sampling_error"])
def test_script_runs_from_a_plain_checkout(tmp_path, name):
    # with PYTHONPATH unset, the script finds the checkout's own src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(SCRIPTS / f"{name}.py"), "--help"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_run_pipeline_reports_every_method(tmp_path, capsys):
    main = load_script("run_pipeline").main
    assert main(["--identities", "20", "--cap", "800", "--out-dir", str(tmp_path)]) == 0
    for name in ("gallery", "gallery_sampled"):
        assert (tmp_path / name / "manifest.tsv").is_file()
    assert (tmp_path / "proxies.tsv").read_text().startswith("# k_p=")
    assert (tmp_path / "model.qts").read_text().startswith("gamma=")
    for method in METHODS:
        for name in ("anr.tsv", "cdf.csv", "rank100.csv"):
            assert len((tmp_path / method / name).read_text().splitlines()) >= 2
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("method "))
    rows = lines[header + 1 : header + 1 + len(METHODS)]
    assert [row.split()[0] for row in rows] == ["baseline", "arith", "geom", "quad", "lqts"]


@pytest.fixture(scope="module")
def tiny_digest_runs():
    """Two runs of output_digests' main(["--seed", "3", "4"]) on two tiny
    workloads patched in for the bench lanes, with the builds of both runs
    captured by wrapping pipeline.build."""
    module = load_script("output_digests")
    from workloads import Workload  # perfbench/ is on sys.path once the script is loaded

    synth = {"n_identities": 8, "exemplars_per_set": (8, 12), "dim": 24}
    tiny = (
        Workload("tiny-exemplar", "exemplar", cap=300, k_p=3, samples=6, synth=synth),
        Workload(
            "tiny-subspace", "subspace", cap=300, k_p=1, samples=None,
            synth={**synth, "noise": 0.25},
        ),
    )
    builds, build = [], module.pipeline.build
    codes, runs = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "WORKLOADS", {w.name: w for w in tiny})
        mp.setattr(module, "WORKLOAD_NAMES", tuple(w.name for w in tiny))
        mp.setattr(module.pipeline, "build", lambda *a: builds.append(build(*a)) or builds[-1])
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(module.main(["--seed", "3", "4"]))
            runs.append(out.getvalue())
    outputs = {}
    for name, seed, output, value in (line.split("\t") for line in runs[0].splitlines()):
        outputs.setdefault((name, seed), {})[output] = value
    return tiny, codes, runs, outputs, builds


def test_output_digests_repeat_on_tiny_workloads(tiny_digest_runs):
    tiny, codes, runs, outputs, builds = tiny_digest_runs
    assert codes == [0, 0]  # 1 on any failed check
    assert runs[0] == runs[1]
    assert {len(line.split("\t")) for line in runs[0].splitlines()} == {4}
    assert list(outputs) == [(w.name, f"seed={seed}") for w in tiny for seed in (3, 4)]
    assert len(builds) == 2 * len(outputs)  # one build per lane and seed in each run
    expected = ["gallery", "proxies.tsv", "features.tsv", "model.qts", "queries"]
    for method in METHODS:
        expected += [f"{method}.{n}" for n in ("rankings", "orders", "anr", "anr03", "mean_anr")]
        expected += [f"{method}.gain_pp"] if method != "baseline" else []
    expected += ["model.svs", "model.free_svs", "model.bias"]
    assert all(list(out) == expected for out in outputs.values())


def test_quality_seeds_reports_each_lane_and_seed(tiny_digest_runs):
    tiny, codes, _, outputs, builds = tiny_digest_runs
    assert codes == [0, 0]
    assert [seed for _, seed in outputs] == ["seed=3", "seed=4"] * len(tiny)
    # the first run's builds, in print order; each value is the library's
    for ((name, _), out), (gallery, proxies, model) in zip(outputs.items(), builds):
        assert int(out["queries"]) > 0
        workload = next(w for w in tiny if w.name == name)
        for method in METHODS:
            config = RetrievalConfig(
                baseline=workload.baseline,
                method=method,
                k_p=0 if method == "baseline" else workload.k_p,
                model=model if method == "lqts" else None,
            )
            anrs = [r.anr for r in evaluate_all(gallery, config, proxies)]
            assert len(anrs) == int(out["queries"])
            # the ids of every ranking, each query's line then its ranked ids
            ranker = Ranker(gallery, config, proxies)
            ids = [[q, *ranker.rank(q).ids()] for q in admissible_query_ids(gallery)[0]]
            order_lines = "".join(f"{sid}\n" for row in ids for sid in row).encode()
            assert out[f"{method}.orders"] == hashlib.sha256(order_lines).hexdigest()
            assert float(out[f"{method}.anr03"]) == sum(a < 0.3 for a in anrs) / len(anrs)
            assert float(out[f"{method}.mean_anr"]) == sum(anrs) / len(anrs)
            assert 0.0 <= float(out[f"{method}.mean_anr"]) <= 1.0
            if method != "baseline":
                gain = 100.0 * (float(out[f"{method}.anr03"]) - float(out["baseline.anr03"]))
                assert float(out[f"{method}.gain_pp"]) == pytest.approx(gain)
        assert int(out["model.svs"]) == model.n_support
        assert 0 <= int(out["model.free_svs"]) <= model.n_support
        assert float(out["model.bias"]) == model.bias


def test_sampling_error_writes_its_tables(tmp_path):
    main = load_script("sampling_error").main
    argv = [
        "--identities", "6", "--dim", "8", "--min-exemplars", "20", "--max-exemplars", "30",
        "--samples", "5", "--pairs", "10", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    pairs = (tmp_path / "pair_errors.tsv").read_text().splitlines()
    cdf = (tmp_path / "error_cdf.csv").read_text().splitlines()
    assert len(pairs) == len(cdf) == 11
    assert float(cdf[-1].split(",")[1]) == pytest.approx(1.0)
