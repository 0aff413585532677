from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lqts.corpus import UNLABELLED, FaceSet, Gallery, ProxyTable, feature_table, write_lines
from lqts.retrieval import Ranker


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_set(rng, set_id="s", n=5, d=8, positive=False):
    x = rng.normal(size=(n, d))
    if positive:
        x = np.abs(x) + 0.05
    return FaceSet(set_id=set_id, exemplars=x)


def training_table(x, y):
    """A training-feature table of rows x and targets y, with no set ids."""
    return feature_table(x, y, "", "")


def tiny_gallery(rng, n_sets=6, n=4, d=8, labels=None):
    sets = tuple(random_set(rng, f"set{i}", n=n, d=d) for i in range(n_sets))
    return Gallery(sets=sets, labels=labels)


def save_csv_gallery(gallery, path):
    """Write `gallery` as the text gallery directory that tools outside lqts
    write: the manifest and `sets/<set_id>.csv`, one exemplar per row, each
    value its repr."""
    root = Path(path)
    (root / "sets").mkdir(parents=True, exist_ok=True)
    labels = gallery.labels or {}
    for s in gallery:
        rows = [",".join(map(repr, row)) for row in s.exemplars.tolist()]
        write_lines(root / f"sets/{s.set_id}.csv", rows)
    manifest = [f"{s.set_id}\t{labels.get(s.set_id, UNLABELLED)}\tsets/{s.set_id}.csv" for s in gallery]
    write_lines(root / "manifest.tsv", manifest)


def ranker_score(query, target, proxies, config) -> float:
    """The target's score when `query` is ranked by a `Ranker` over a
    gallery of query, target and proxies whose table gives the target
    exactly `proxies`, in order."""
    gallery = Gallery(sets=(query, target, *proxies))
    table = ProxyTable(k_p=len(proxies), entries={target.set_id: tuple((p.set_id, 1.0) for p in proxies)})
    config = replace(config, k_p=len(proxies))
    return dict(Ranker(gallery, config, table).rank(query.set_id).ranking)[target.set_id]
