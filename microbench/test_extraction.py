"""Layer microbenchmark of `lqts.metafeat.build_training_corpus`, kept out
of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_extraction.py --benchmark-autosave

One call is the training extraction of a pipeline-benchmark workload:
feature rows for every chosen reference set against each of its proxies,
pooled and capped, on the workload's seed-11 gallery as reduced for it,
with its cap, training-set count and corpus seed
(`perfbench/workloads.py`). The proxy table is built once and not timed.
"""

import sys
from pathlib import Path

import pytest

from lqts.metafeat import build_training_corpus
from lqts.retrieval import select_proxies

from test_gallery_scorer import workload_gallery

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CORPUS_SEED, PROXY_K, TRAIN_SETS, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_build_training_corpus(benchmark, name):
    w = WORKLOADS[name]
    gallery = workload_gallery(name)
    proxies = select_proxies(gallery, w.baseline, PROXY_K)
    table = benchmark(
        build_training_corpus,
        gallery,
        proxies,
        w.baseline,
        n_train_sets=TRAIN_SETS,
        cap=w.cap,
        seed=CORPUS_SEED,
    )
    assert len(table) == w.cap
