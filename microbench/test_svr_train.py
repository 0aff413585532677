"""Layer microbenchmark of `lqts.svr.train`, kept out of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_svr_train.py --benchmark-autosave

Results are saved under `.benchmarks/`. The corpora are the training
tables of the two pipeline-benchmark workloads, built from their seeded
synthetic galleries (data seed 11): 2,000 exemplar-baseline rows from
the robust-selected gallery, as `exemplar-cap2000` trains on, and 12,000
subspace-baseline rows, as `subspace-lane` trains on. Building them
takes a few seconds and is not timed.
"""

import numpy as np
import pytest

from lqts import sampling, synth
from lqts.corpus import Gallery
from lqts.metafeat import build_training_corpus
from lqts.retrieval import select_proxies
from lqts.svr import train

CORPORA = {
    # name: (baseline, synth settings, robust-selection target, cap)
    "exemplar-2000": ("exemplar", {}, 10, 2000),
    "subspace-12000": ("subspace", {"noise": 0.25, "set_spacing": 2.2}, None, 12000),
}


def training_corpus(name: str) -> np.recarray:
    baseline, settings, samples, cap = CORPORA[name]
    gallery, _ = synth.generate(synth.SynthConfig(seed=11, **settings))
    if samples is not None:
        reduced = tuple(sampling.robust_select(s, samples) for s in gallery)
        gallery = Gallery(sets=reduced, labels=gallery.labels)
    proxies = select_proxies(gallery, baseline, 10)
    return build_training_corpus(gallery, proxies, baseline, n_train_sets=200, cap=cap, seed=5)


@pytest.mark.parametrize("name", list(CORPORA))
def test_train(benchmark, name):
    table = training_corpus(name)
    model = benchmark.pedantic(train, args=(table,), rounds=3, iterations=1)
    assert len(table) == CORPORA[name][3]
    assert model.kkt_violation <= model.config.kkt_tolerance
