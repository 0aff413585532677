import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lqts.cli import build_parser, main
from lqts.corpus import FaceSet, Gallery, save_gallery
from lqts.sampling import DEFAULT_SAMPLES
from lqts.svr import SvrConfig
from lqts.synth import SynthConfig

from conftest import save_csv_gallery


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One small synthetic gallery reused by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    gal = root / "gal"
    code = run(
        "synth", "--out", str(gal), "--identities", "10", "--sets-min", "2",
        "--sets-max", "3", "--dim", "16", "--tau", "0.6", "--seed", "4",
        "--exemplars-min", "8", "--exemplars-max", "14",
    )
    assert code == 0
    return root, gal


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    a = parse(["synth", "--out", "g"])
    assert SynthConfig(
        n_identities=a.identities,
        sets_per_identity=(a.sets_min, a.sets_max),
        exemplars_per_set=(a.exemplars_min, a.exemplars_max),
        dim=a.dim,
        identity_spread=a.sigma_id,
        condition_spread=a.sigma_cond,
        transitivity=a.tau,
        descriptor_floor=a.floor,
        seed=a.seed,
        noise=a.noise,
        set_spacing=a.spacing,
    ) == SynthConfig()
    a = parse(["train", "--features", "f", "--out", "m"])
    assert SvrConfig(epsilon=a.epsilon, cost=a.cost, kernel_gamma=a.gamma) == SvrConfig()
    assert parse(["sample", "--gallery", "g", "--out", "o"]).samples == DEFAULT_SAMPLES


class TestUsageErrors:
    def test_unknown_flag_rejected(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "g"), "--bogus", "1") == 1

    def test_missing_required_flag(self):
        assert run("proxies", "--k", "3") == 1

    def test_lqts_without_model(self, pipeline_dirs):
        root, gal = pipeline_dirs
        code = run(
            "retrieve", "--gallery", str(gal), "--query", "id000_s0",
            "--method", "lqts", "--out", str(root / "r.tsv"),
        )
        assert code == 1

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_malformed_gamma(self, pipeline_dirs, capsys):
        root, gal = pipeline_dirs
        code = run(
            "sample", "--gallery", str(gal), "--gamma", "bogus",
            "--out", str(root / "bad_sample"),
        )
        assert code == 1
        assert "gamma must be finite and positive or 'auto', got 'bogus'" in capsys.readouterr().err
        assert not (root / "bad_sample").exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    def test_gamma_not_finite_and_positive(self, pipeline_dirs, tmp_path, capsys, gamma):
        root, gal = pipeline_dirs
        out = tmp_path / "reduced"
        assert run("sample", "--gallery", str(gal), "--gamma", gamma, "--out", str(out)) == 1
        assert "gamma must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_more_proxies_than_the_table_holds(self, pipeline_dirs, tmp_path, capsys):
        root, gal = pipeline_dirs
        proxies = tmp_path / "proxies.tsv"
        assert run("proxies", "--gallery", str(gal), "--k", "2", "--out", str(proxies)) == 0
        common = ("--gallery", str(gal), "--method", "arith", "--proxies", str(proxies), "--k", "6")
        out_dir = tmp_path / "eval"
        assert run("evaluate", *common, "--out-dir", str(out_dir)) == 1
        assert "k_p=6 exceeds the proxy table's k_p=2" in capsys.readouterr().err
        assert not out_dir.exists()
        ranking = tmp_path / "r.tsv"
        assert run("retrieve", *common, "--query", "id000_s0", "--out", str(ranking)) == 1
        assert not ranking.exists()

    @pytest.mark.parametrize("command", ["retrieve", "evaluate"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "lqts", "--k", "0"], "method 'lqts' requires a trained model"),
            (["--method", "arith", "--k", "2"], "method 'arith' with k_p > 0 needs a proxy table"),
        ],
        ids=["lqts-without-model", "arith-without-proxies"],
    )
    def test_missing_artifact(self, pipeline_dirs, tmp_path, capsys, command, flags, message):
        root, gal = pipeline_dirs
        out = tmp_path / "out"
        outputs = ["--out-dir", str(out)]
        if command == "retrieve":
            outputs = ["--query", "id000_s0", "--out", str(out)]
        assert run(command, "--gallery", str(gal), *flags, *outputs) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_evaluate_top_k_below_one(self, pipeline_dirs, tmp_path, capsys, top_k):
        root, gal = pipeline_dirs
        out_dir = tmp_path / "eval"
        code = run(
            "evaluate", "--gallery", str(gal), "--k", "0", "--top-k", top_k,
            "--out-dir", str(out_dir),
        )
        assert code == 1
        assert f"top_k must be >= 1, got {top_k}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_finite_svr_parameter(self, tmp_path):
        feats = tmp_path / "feats.tsv"
        feats.write_text(
            "1.0\t0.9\t0.8\t0.9\t1.0\t1.0\ta\tb\n0.0\t0.1\t0.2\t0.1\t0.3\t0.2\tc\td\n"
        )
        out = tmp_path / "m.qts"
        assert run("train", "--features", str(feats), "--gamma", "nan", "--out", str(out)) == 1
        assert not out.exists()

    def test_non_finite_synth_parameter(self, tmp_path, capsys):
        out = tmp_path / "gal"
        assert run("synth", "--out", str(out), "--identities", "4", "--sigma-id", "nan") == 1
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err
        assert not out.exists()


class TestDataErrors:
    def test_missing_gallery_dir(self, tmp_path):
        assert run("energy", "--gallery", str(tmp_path / "nope"), "--out", str(tmp_path / "e.csv")) == 2

    def test_corrupt_set_file(self, tmp_path):
        gal = tmp_path / "gal"
        (gal / "sets").mkdir(parents=True)
        (gal / "manifest.tsv").write_text("a\t-\tsets/a.csv\n")
        (gal / "sets" / "a.csv").write_text("1.0,oops\n")
        assert run("energy", "--gallery", str(gal), "--out", str(tmp_path / "e.csv")) == 2

    def test_nul_in_a_set_path_names_the_manifest_line(self, tmp_path, capsys):
        gal = tmp_path / "gal"
        (gal / "sets").mkdir(parents=True)
        (gal / "manifest.tsv").write_text("a\t-\tsets/a.csv\nb\t-\tsets/b\0.qtsb\n")
        (gal / "sets" / "a.csv").write_text("1.0,2.0\n")
        assert run("proxies", "--gallery", str(gal), "--k", "1", "--out", str(tmp_path / "p.tsv")) == 2
        assert f"{gal / 'manifest.tsv'}:2: set 'b': cannot read" in capsys.readouterr().err

    def test_energy_skips_sets_without_variation(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        sets = (
            FaceSet("varied", rng.normal(size=(15, 4))),
            FaceSet("dup", np.tile(rng.normal(size=4), (15, 1))),
            FaceSet("single", rng.normal(size=(1, 4))),
        )
        gal, out = tmp_path / "gal", tmp_path / "e.csv"
        save_gallery(Gallery(sets=sets), gal)
        assert run("energy", "--gallery", str(gal), "--out", str(out)) == 0
        assert "skipped 2 sets without variation" in capsys.readouterr().err
        rows = out.read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["set_id", "varied"]
        assert (tmp_path / "e.csv.run.json").is_file()

    def test_malformed_proxy_table(self, pipeline_dirs, tmp_path, capsys):
        root, gal = pipeline_dirs
        proxies = tmp_path / "proxies.tsv"
        proxies.write_text("# k_p=1\nid000_s0\tfirst\tid000_s1\t0.9\n")
        code = run(
            "evaluate", "--gallery", str(gal), "--method", "arith", "--k", "1",
            "--proxies", str(proxies), "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 2
        assert f"{proxies}:2: non-integer rank 'first'" in capsys.readouterr().err

    def test_proxy_table_of_another_gallery(self, pipeline_dirs, tmp_path, capsys):
        root, gal = pipeline_dirs
        proxies = tmp_path / "foreign.tsv"
        proxies.write_text("# k_p=1\nelsewhere\t1\tid000_s1\t0.9\n")
        code = run(
            "evaluate", "--gallery", str(gal), "--method", "arith", "--k", "1",
            "--proxies", str(proxies), "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 2
        assert "unknown set_id 'elsewhere'" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_sample_rejects_a_set_id_that_leaves_the_output(self, tmp_path, capsys):
        gal = tmp_path / "gal"
        (gal / "sets").mkdir(parents=True)
        (gal / "manifest.tsv").write_text("../../escaped\tp1\tsets/a.csv\n")
        rows = np.random.default_rng(0).normal(size=(12, 2))
        (gal / "sets" / "a.csv").write_text("".join(f"{r[0]!r},{r[1]!r}\n" for r in rows.tolist()))
        before = sorted(tmp_path.rglob("*"))
        assert run("sample", "--gallery", str(gal), "--out", str(tmp_path / "out" / "red")) == 2
        assert "set '../../escaped': holds a path separator" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_feature_file_without_labels(self, tmp_path, capsys):
        features = tmp_path / "feats.tsv"
        features.write_text("".join(f"\t0.{i}\t0.2\t0.3\t0.4\t0.5\ta\tb\n" for i in range(20)))
        code = run("train", "--features", str(features), "--out", str(tmp_path / "model.qts"))
        assert code == 2
        assert f"{features}:1: label must be 1 or 0, got ''" in capsys.readouterr().err
        assert not (tmp_path / "model.qts").exists()

    def test_evaluate_without_admissible_query(self, tmp_path, capsys):
        # single-set identities have no right answer; one identity's sets
        # match every other set, so they have no wrong one
        for identities, sets in (("4", "1"), ("1", "3")):
            gal = tmp_path / f"gal{identities}"
            code = run(
                "synth", "--out", str(gal), "--identities", identities, "--sets-min", sets,
                "--sets-max", sets, "--dim", "8", "--exemplars-min", "3", "--exemplars-max", "4",
            )
            assert code == 0
            out_dir = tmp_path / f"eval{identities}"
            assert run("evaluate", "--gallery", str(gal), "--k", "0", "--out-dir", str(out_dir)) == 2
            assert "no admissible query" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_non_finite_model_file(self, pipeline_dirs, tmp_path, capsys):
        root, gal = pipeline_dirs
        model = tmp_path / "model.qts"
        model.write_text("gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=nan\n")
        code = run(
            "retrieve", "--gallery", str(gal), "--query", "id000_s0", "--method", "lqts",
            "--model", str(model), "--k", "0", "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 2
        assert str(model) in capsys.readouterr().err

    def test_malformed_model_given_to_the_baseline(self, pipeline_dirs, tmp_path, capsys):
        # an artifact given is read, whether or not the method needs it
        root, gal = pipeline_dirs
        model = tmp_path / "model.qts"
        model.write_text("gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=nan\n")
        out = tmp_path / "r.tsv"
        code = run(
            "retrieve", "--gallery", str(gal), "--query", "id000_s0", "--method", "baseline",
            "--model", str(model), "--out", str(out),
        )
        assert code == 2
        assert str(model) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, command",
        [
            ("gal/manifest.tsv", ["proxies"]),
            ("gal/sets/a.csv", ["proxies"]),
            ("proxies.tsv", ["retrieve", "--method", "arith", "--k", "1", "--proxies", "proxies.tsv"]),
            ("features.tsv", ["train", "--features", "features.tsv"]),
            ("model.qts", ["retrieve", "--method", "lqts", "--k", "0", "--model", "model.qts"]),
        ],
        ids=["manifest", "set-csv", "proxy-table", "feature-table", "model"],
    )
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, monkeypatch, capsys, target, command):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        sets = tuple(FaceSet(s, rng.normal(size=(3, 4))) for s in "abc")
        save_csv_gallery(Gallery(sets=sets), "gal")
        Path("proxies.tsv").write_text("# k_p=1\na\t1\tb\t0.9\nb\t1\ta\t0.9\n")
        Path("features.tsv").write_text(
            "1.0\t0.9\t0.8\t0.9\t1.0\t1.0\ta\tb\n0.0\t0.1\t0.2\t0.1\t0.3\t0.2\tc\td\n"
        )
        Path("model.qts").write_text("gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.5\n")
        lines = Path(target).read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        Path(target).write_bytes(b"\n".join(lines))
        gallery = [] if command[0] == "train" else ["--gallery", "gal"]
        query = ["--query", "a"] if command[0] == "retrieve" else []
        assert run(*command, *gallery, *query, "--out", "out") == 2
        assert f"{target}:2: not UTF-8 text" in capsys.readouterr().err


def test_energy_report_ids_are_csv_fields(tmp_path):
    # a comma or a quote in an id must not split its row
    rng = np.random.default_rng(0)
    ids = ["a,b", 'q"x', "plain"]
    gal, out = tmp_path / "gal", tmp_path / "e.csv"
    save_gallery(Gallery(sets=tuple(FaceSet(sid, rng.normal(size=(15, 4))) for sid in ids)), gal)
    assert run("energy", "--gallery", str(gal), "--out", str(out)) == 0
    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["set_id", "lambda2_ratio", "lambda3_ratio"]
    assert [row[0] for row in rows[1:]] == ids
    assert {len(row) for row in rows} == {3}


ASCII_SET_FILES = ["s0.csv", "s1.csv", "s2.csv", "s3.csv"]


def run_under_an_ascii_locale(tmp_path, command, file_names):
    """Run `qts` in `tmp_path` on the gallery `gal` of sets é0, é1, b and c,
    whose set files get `file_names`, under an ASCII locale with UTF-8 mode
    off, where the file-system encoding is ASCII."""
    rng = np.random.default_rng(0)
    gal = os.fsencode(tmp_path / "gal")
    os.mkdir(gal)
    manifest = []
    ids = [("é0", "x"), ("é1", "x"), ("b", "y"), ("c", "y")]
    for name, (set_id, identity) in zip(file_names, ids):
        rows = [",".join(map(repr, row)) for row in rng.normal(size=(3, 4)).tolist()]
        with open(os.path.join(gal, name.encode("utf-8")), "wb") as f:
            f.write(("\n".join(rows) + "\n").encode("ascii"))
        manifest.append(f"{set_id}\t{identity}\t{name}\n")
    (tmp_path / "gal" / "manifest.tsv").write_bytes("".join(manifest).encode("utf-8"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONPATH": src}
    argv = [sys.executable, "-X", "utf8=0", "-m", "lqts.cli", *command, "--gallery", "gal"]
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)


@pytest.mark.parametrize(
    "command, written",
    [
        (["retrieve", "--query", "b", "--out", "out.tsv"], ["out.tsv", "out.tsv.run.json"]),
        (["evaluate", "--out-dir", "eval"], ["eval/anr.tsv", "eval/cdf.csv", "eval/run.json"]),
    ],
    ids=["retrieve", "evaluate"],
)
def test_non_ascii_set_ids_under_an_ascii_locale(tmp_path, command, written):
    # every file is written as UTF-8 whatever the locale's encoding; the set
    # files have ASCII names, which any file-system encoding can open
    done = run_under_an_ascii_locale(tmp_path, command, ASCII_SET_FILES)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    for name in written:
        (tmp_path / name).read_bytes().decode("utf-8")
    assert "é0" in (tmp_path / written[0]).read_bytes().decode("utf-8")


@pytest.mark.parametrize(
    "command, file_names, named",
    [
        (
            ["retrieve", "--query", "b", "--out", "out.tsv"],
            ["é0.csv", *ASCII_SET_FILES[1:]],
            b"gal/manifest.tsv:1: set '\\xe90': cannot read gal/\\xe90.csv",
        ),
        (
            ["sample", "--samples", "3", "--out", "out"],
            ASCII_SET_FILES,
            b"out/sets/\\xe90.qtsb: set '\\xe90': cannot write",
        ),
    ],
    ids=["load", "save"],
)
def test_set_file_names_an_ascii_file_system_cannot_encode(tmp_path, command, file_names, named):
    # a set file named after a non-ASCII set id cannot be opened or written
    # under an ASCII file-system encoding: a data error naming the manifest
    # line that lists it, or the set file being written
    done = run_under_an_ascii_locale(tmp_path, command, file_names)
    assert done.returncode == 2, done.stderr.decode(errors="replace")
    assert named in done.stderr, done.stderr.decode(errors="replace")


class TestPipeline:
    def test_full_pipeline_produces_reports(self, pipeline_dirs):
        root, gal = pipeline_dirs
        sampled = root / "sampled"
        assert run("sample", "--gallery", str(gal), "--samples", "6", "--out", str(sampled)) == 0

        energy = root / "energy.csv"
        assert run("energy", "--gallery", str(gal), "--out", str(energy)) == 0
        assert len(energy.read_text().splitlines()) > 1

        proxies = root / "proxies.tsv"
        assert run(
            "proxies", "--gallery", str(sampled), "--baseline", "exemplar",
            "--k", "4", "--out", str(proxies),
        ) == 0

        feats = root / "feats.tsv"
        assert run(
            "extract", "--gallery", str(sampled), "--proxies", str(proxies),
            "--baseline", "exemplar", "--train-sets", "10", "--cap", "800",
            "--seed", "1", "--out", str(feats),
        ) == 0
        assert len(feats.read_text().splitlines()) == 800

        model = root / "model.qts"
        assert run("train", "--features", str(feats), "--out", str(model)) == 0
        assert model.read_text().startswith("gamma=")

        ranking = root / "ranking.tsv"
        assert run(
            "retrieve", "--gallery", str(sampled), "--query", "id000_s0",
            "--method", "lqts", "--baseline", "exemplar", "--model", str(model),
            "--proxies", str(proxies), "--k", "3", "--out", str(ranking),
        ) == 0
        lines = ranking.read_text().splitlines()
        assert lines[0] == "rank\tset_id\tscore"
        assert len(lines) == len(list((sampled / "sets").iterdir()))  # all non-query sets

        outdir = root / "eval_lqts"
        assert run(
            "evaluate", "--gallery", str(sampled), "--method", "lqts",
            "--baseline", "exemplar", "--model", str(model),
            "--proxies", str(proxies), "--k", "3", "--out-dir", str(outdir),
        ) == 0
        for name in ("anr.tsv", "cdf.csv", "rank100.csv", "run.json"):
            assert (outdir / name).is_file()
            assert len((outdir / name).read_text().splitlines()) >= 2

    def test_sidecar_records_configuration(self, pipeline_dirs):
        root, gal = pipeline_dirs
        sidecar = json.loads((gal / "run.json").read_text())
        assert sidecar["command"] == "synth"
        assert sidecar["seed"] == 4
        assert sidecar["identities"] == 10

    def test_baseline_equals_lqts_with_k0(self, pipeline_dirs):
        root, gal = pipeline_dirs
        sampled = root / "sampled"
        model = root / "model.qts"
        base_dir, lqts_dir = root / "eval_base", root / "eval_lqts_k0"
        assert run(
            "evaluate", "--gallery", str(sampled), "--method", "baseline",
            "--out-dir", str(base_dir),
        ) == 0
        assert run(
            "evaluate", "--gallery", str(sampled), "--method", "lqts",
            "--model", str(model), "--k", "0", "--out-dir", str(lqts_dir),
        ) == 0
        assert (base_dir / "anr.tsv").read_text() == (lqts_dir / "anr.tsv").read_text()

    def test_synth_idempotent_given_seed(self, tmp_path):
        for sub in ("a", "b"):
            assert run(
                "synth", "--out", str(tmp_path / sub), "--identities", "4",
                "--dim", "8", "--seed", "9", "--exemplars-min", "4",
                "--exemplars-max", "6",
            ) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert sorted(p.name for p in a.iterdir()) == ["manifest.tsv", "run.json", "sets"]
        assert all(p.suffix == ".qtsb" for p in (a / "sets").iterdir())
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            if rel.name == "run.json":  # sidecar records the differing --out path
                continue
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_evaluate_names_the_rank_report_by_top_k(self, pipeline_dirs, tmp_path):
        root, gal = pipeline_dirs
        out_dir = tmp_path / "eval"
        code = run(
            "evaluate", "--gallery", str(gal), "--k", "0", "--top-k", "50",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "rank50.csv").read_text().startswith("k,empirical_prob,")
        assert not (out_dir / "rank100.csv").exists()

    def test_retrieve_ranking_is_sorted(self, pipeline_dirs):
        root, gal = pipeline_dirs
        ranking = root / "ranking.tsv"
        rows = [ln.split("\t") for ln in ranking.read_text().splitlines()[1:]]
        scores = [float(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_baseline_on_a_gallery_smaller_than_k(self, tmp_path):
        # the baseline reads no proxies, so the default --k 10 does not
        # bound a gallery of 6 sets
        gal = tmp_path / "gal"
        code = run(
            "synth", "--out", str(gal), "--identities", "3", "--sets-min", "2",
            "--sets-max", "2", "--dim", "8", "--exemplars-min", "3", "--exemplars-max", "4",
        )
        assert code == 0
        out_dir = tmp_path / "eval"
        code = run("evaluate", "--gallery", str(gal), "--method", "baseline", "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "anr.tsv").exists()
        ranking = tmp_path / "r.tsv"
        code = run(
            "retrieve", "--gallery", str(gal), "--query", "id000_s0", "--method", "baseline",
            "--out", str(ranking),
        )
        assert code == 0
        assert len(ranking.read_text().splitlines()) == 6
