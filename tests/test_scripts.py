"""Smoke runs of the experiment scripts, loaded by path and run in-process."""

import importlib.util
from pathlib import Path

import pytest

from lqts.retrieval import METHODS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_output_digests_repeat_on_tiny_workloads(tmp_path):
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
    for workload in tiny:
        ops = module.Outputs()
        runs = []
        for attempt in ("a", "b"):
            (tmp_path / workload.name / attempt).mkdir(parents=True)
            runs.append(module.digests(workload, 3, tmp_path / workload.name / attempt, ops))
        assert len(runs[0]) == 9
        assert runs[0] == runs[1]
        assert ops.attempted > 0 and ops.failed == 0, ops.failures


def test_quality_seeds_reports_each_lane_and_seed(tmp_path):
    module = load_script("quality_seeds")
    from workloads import Workload  # perfbench/ is on sys.path once the script is loaded

    synth = {"n_identities": 8, "exemplars_per_set": (8, 12), "dim": 24}
    tiny = Workload("tiny-subspace", "subspace", cap=300, k_p=1, samples=None, synth=synth)
    rows = []
    for seed in (3, 4):
        (tmp_path / str(seed)).mkdir()
        q = module.quality(tiny, seed, tmp_path / str(seed))
        assert q["workload"] == "tiny-subspace" and q["seed"] == seed and q["queries"] > 0
        assert q["gain_pp"] == pytest.approx(100.0 * (q["anr03_lqts"] - q["anr03_base"]))
        assert 0.0 <= q["mean_anr_lqts"] <= 1.0 and 0.0 <= q["mean_anr_base"] <= 1.0
        assert 0 <= q["free_svs"] <= q["svs"]
        rows.append(module.row(q).split("\t"))
    assert [len(r) for r in rows] == [len(module.COLUMNS)] * 2
    assert [r[1] for r in rows] == ["3", "4"]


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
