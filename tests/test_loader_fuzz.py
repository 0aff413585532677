"""Every loader under seeded byte mutation: an artifact loads and its
consumers run on it, or the library raises an `LqtsError`.

Each trial takes one artifact kind in turn (the manifest, a `QTS2`, `QTS1`
or CSV set file, the proxy table, the feature table or the model), applies
1-3 byte replacements, insertions or deletions to its file, loads it and
runs what uses it: `select_proxies` under both baselines and an lqts
`Ranker` for a gallery, an lqts `Ranker` for a proxy table or a model, and
`svr.train` for a feature table. A trial passes when nothing but an
`LqtsError` is raised, a loader's error names the file it read, every
score is finite and every loaded set's unit rows have norm 1 within 1e-12.
"""

import struct

import numpy as np

from lqts.corpus import (
    FaceSet,
    Gallery,
    feature_table,
    load_features,
    load_gallery,
    load_model,
    load_proxies,
    save_features,
    save_gallery,
    save_model,
    save_proxies,
)
from lqts.errors import LqtsError
from lqts.retrieval import METHOD_LQTS, Ranker, RetrievalConfig, select_proxies
from lqts.similarity import BASELINES, EXEMPLAR
from lqts.svr import predict, train

SEED = 20261020
TRIALS = 1400
K_P = 2
# bytes that mean something to the text formats, drawn for half the edits
SPECIAL = b"0123456789.-+eE,\t\n\r #=\0\xff"
TARGETS = {
    "manifest": "gal/manifest.tsv",
    "qts2": "gal/sets/a.qtsb",
    "qts1": "gal/sets/b.qtsb",
    "csv": "gal/sets/c.csv",
    "proxy-table": "proxies.tsv",
    "feature-table": "features.tsv",
    "model": "model.qts",
}
LOADERS = {"proxy-table": load_proxies, "feature-table": load_features, "model": load_model}


def write_artifacts(root):
    """A labelled gallery of six 4-dimensional sets whose set files `a`
    and `d` are `QTS2`, `b` and `e` `QTS1` and `c` and `f` CSV, its
    exemplar proxy table, a 12-row feature table and the model trained on
    it. Returns the gallery, the table and the model as loaded."""
    rng = np.random.default_rng(SEED)
    ids = "abcdef"
    gallery = Gallery(
        sets=tuple(FaceSet(i, rng.normal(size=(int(rng.integers(2, 5)), 4))) for i in ids),
        labels={i: f"p{n % 3}" for n, i in enumerate(ids)},
    )
    save_gallery(gallery, root / "gal")
    for i in "be":
        x = gallery.get(i).exemplars
        header = b"QTS1" + struct.pack("<II", *x.shape)
        (root / f"gal/sets/{i}.qtsb").write_bytes(header + x.astype("<f4").tobytes())
    manifest = (root / "gal/manifest.tsv").read_text()
    for i in "cf":
        rows = gallery.get(i).exemplars.tolist()
        (root / f"gal/sets/{i}.csv").write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))
        (root / f"gal/sets/{i}.qtsb").unlink()
        manifest = manifest.replace(f"sets/{i}.qtsb", f"sets/{i}.csv")
    (root / "gal/manifest.tsv").write_text(manifest)
    save_proxies(select_proxies(gallery, EXEMPLAR, K_P), root / "proxies.tsv")
    features = feature_table(rng.random((12, 5)), np.arange(12) % 2, "a", "b")
    save_features(features, root / "features.tsv")
    save_model(train(features), root / "model.qts")
    return load_gallery(root / "gal"), load_proxies(root / "proxies.tsv"), load_model(root / "model.qts")


def mutate(blob: bytes, rng) -> bytes:
    """`blob` after 1-3 seeded byte replacements, insertions or deletions."""
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3)) if out else 1
        pos = int(rng.integers(len(out) + (op == 1)))
        byte = SPECIAL[rng.integers(len(SPECIAL))] if rng.random() < 0.5 else int(rng.integers(256))
        if op == 0:
            out[pos] = byte
        elif op == 1:
            out.insert(pos, byte)
        else:
            del out[pos]
    return bytes(out)


def check_gallery(gallery):
    for s in gallery:
        norms = np.linalg.norm(s.unit_exemplars, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12), f"set {s.set_id!r}: unit-row norms {norms}"
    for baseline in BASELINES:
        table = select_proxies(gallery, baseline, min(K_P, len(gallery) - 1))
        assert np.isfinite([score for plist in table.entries.values() for _, score in plist]).all()


def check_ranker(gallery, proxies, model):
    config = RetrievalConfig(method=METHOD_LQTS, k_p=min(K_P, proxies.k_p), model=model)
    ranker = Ranker(gallery, config, proxies)
    for set_id in gallery.set_ids:
        assert np.isfinite([score for _, score in ranker.rank(set_id).ranking]).all()


def check_training(features):
    model = train(features)
    assert np.isfinite(predict(model, features.s)).all()


def run_trial(root, kind, pristine, rng):
    """Mutate the `kind` file under `root`, then load it, or check that the
    loader's error names the file (a gallery's, the directory), and run its
    consumers; `pristine` is the loaded gallery, table and model."""
    gallery, proxies, model = pristine
    path = root / TARGETS[kind]
    path.write_bytes(mutate(path.read_bytes(), rng))
    source = path if kind in LOADERS else root / "gal"
    try:
        loaded = LOADERS.get(kind, load_gallery)(source)
    except LqtsError as exc:
        assert str(source) in str(exc), f"the error does not name {source}: {exc}"
        return
    if kind == "proxy-table":
        check_ranker(gallery, loaded, model)
    elif kind == "feature-table":
        check_training(loaded)
    elif kind == "model":
        check_ranker(gallery, proxies, loaded)
    else:
        check_gallery(loaded)
        check_ranker(loaded, proxies, model)


def run_trials(root, trials, seed=SEED):
    """The failures, as (trial, kind, mutated bytes, error) tuples, of
    `trials` trials that take the artifact kinds in turn."""
    pristine = write_artifacts(root)
    blobs = {kind: (root / rel).read_bytes() for kind, rel in TARGETS.items()}
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        kind = list(TARGETS)[trial % len(TARGETS)]
        try:
            run_trial(root, kind, pristine, rng)
        except LqtsError:
            pass
        except Exception as exc:  # noqa: BLE001 - every other exception is a failure
            failures.append((trial, kind, (root / TARGETS[kind]).read_bytes(), repr(exc)))
        (root / TARGETS[kind]).write_bytes(blobs[kind])
    return failures


def test_mutated_artifacts_load_or_raise_lqts_errors(tmp_path):
    assert run_trials(tmp_path, TRIALS) == []
