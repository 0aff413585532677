"""Layer microbenchmark of `lqts.svr.train`, kept out of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_svr_train.py --benchmark-autosave

Results are saved under `.benchmarks/`. The corpora are the training
tables of the `exemplar-cap2000` and `subspace-lane` pipeline-benchmark
workloads: their seed-11 galleries as reduced for them, with their
proxy width, cap, training-set count and corpus seed
(`perfbench/workloads.py`). Building them takes a few seconds and is
not timed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lqts.metafeat import build_training_corpus
from lqts.retrieval import select_proxies
from lqts.svr import train

from test_gallery_scorer import workload_gallery

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CORPUS_SEED, PROXY_K, TRAIN_SETS, WORKLOADS  # noqa: E402


def training_corpus(name: str) -> np.recarray:
    w = WORKLOADS[name]
    gallery = workload_gallery(name)
    proxies = select_proxies(gallery, w.baseline, PROXY_K)
    return build_training_corpus(
        gallery, proxies, w.baseline, n_train_sets=TRAIN_SETS, cap=w.cap, seed=CORPUS_SEED
    )


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_train(benchmark, name):
    table = training_corpus(name)
    model = benchmark.pedantic(train, args=(table,), rounds=3, iterations=1)
    assert len(table) == WORKLOADS[name].cap
    assert model.kkt_violation <= model.config.kkt_tolerance
