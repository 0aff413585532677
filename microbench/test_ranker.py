"""Layer microbenchmark of `lqts.retrieval.Ranker.rank`, kept out of the
test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_ranker.py --benchmark-autosave

One call is one whole ranking, `Ranker.rank` of gallery set n // 2, the
unit that the pipeline benchmark's `query_p50_ms` and `eval_s` time: its
query row, the method's rule over every proxy row and the sort. It runs
on the seed-11 gallery of each pipeline-benchmark workload, reduced as
that workload reduces it, under each method the benchmark evaluates,
with that method's settings (`perfbench/pipeline.py` `method_configs`).
The proxy table and the model are built once per workload, as the
benchmark's build makes them (`perfbench/workloads.py`), and not timed.

`test_rank_240` is the lqts ranking of gallery set n // 2 on the same
workloads' galleries at 240 identities, 720 `exemplar-cap2000` sets of 10
exemplars and 727 `subspace-lane` sets, each built the same way: a query
row and proxy-row count four times the bench's.
"""

import functools
import sys
from pathlib import Path

import pytest

from lqts import svr
from lqts.metafeat import build_training_corpus
from lqts.retrieval import Ranker, select_proxies

from test_gallery_scorer import workload_gallery

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from pipeline import method_configs  # noqa: E402
from workloads import CORPUS_SEED, PROXY_K, TRAIN_SETS, WORKLOADS  # noqa: E402


@functools.cache
def workload_build(name: str, **synth_settings):
    """The workload's gallery, proxy table and trained model."""
    w = WORKLOADS[name]
    gallery = workload_gallery(name, **synth_settings)
    proxies = select_proxies(gallery, w.baseline, PROXY_K)
    features = build_training_corpus(
        gallery, proxies, w.baseline, n_train_sets=TRAIN_SETS, cap=w.cap, seed=CORPUS_SEED
    )
    return gallery, proxies, svr.train(features)


@pytest.mark.parametrize("method", ["baseline", "arith", "lqts"])
@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_rank(benchmark, name, method):
    gallery, proxies, model = workload_build(name)
    ranker = Ranker(gallery, method_configs(WORKLOADS[name], model)[method], proxies)
    query = gallery.set_ids[len(gallery) // 2]
    result = benchmark(ranker.rank, query)
    assert sorted(result.ids()) == sorted(set(gallery.set_ids) - {query})


@pytest.mark.parametrize("name, sets", [("exemplar-cap2000", 720), ("subspace-lane", 727)])
def test_rank_240(benchmark, name, sets):
    gallery, proxies, model = workload_build(name, n_identities=240)
    assert len(gallery) == sets
    ranker = Ranker(gallery, method_configs(WORKLOADS[name], model)["lqts"], proxies)
    query = gallery.set_ids[len(gallery) // 2]
    result = benchmark(ranker.rank, query)
    assert sorted(result.ids()) == sorted(set(gallery.set_ids) - {query})
