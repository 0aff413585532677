"""Layer microbenchmark of `lqts.metafeat.build_training_corpus`, kept out
of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_extraction.py --benchmark-autosave

One call is the training extraction of a pipeline-benchmark workload:
the rows its cap keeps, drawn from those of every chosen reference set
against each of its proxies, on the workload's seed-11 gallery as reduced
for it, with its cap, training-set count and corpus seed
(`perfbench/workloads.py`). `unsampled` is the seed-11 exemplar gallery
without robust selection (173 sets of 20 to 50 exemplars) at the default
cap of 50,000 rows, as `qts train` extracts when `qts sample` was
skipped. `subspace-lane-727` is the `subspace-lane` gallery at 240
identities (727 sets) at the default cap of 50,000 rows. The proxy
table is built once and not timed.
"""

import sys
from pathlib import Path

import pytest

from lqts import synth
from lqts.metafeat import DEFAULT_CAP, build_training_corpus
from lqts.retrieval import select_proxies

from test_gallery_scorer import workload_gallery

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCEPTANCE_SEED, CORPUS_SEED, PROXY_K, TRAIN_SETS, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane", "unsampled", "subspace-lane-727"])
def test_build_training_corpus(benchmark, name):
    if name == "unsampled":
        gallery, _ = synth.generate(synth.SynthConfig(seed=ACCEPTANCE_SEED))
        baseline, cap = "exemplar", DEFAULT_CAP
    elif name == "subspace-lane-727":
        gallery, baseline, cap = workload_gallery("subspace-lane", n_identities=240), "subspace", DEFAULT_CAP
        assert len(gallery) == 727
    else:
        gallery, baseline, cap = workload_gallery(name), WORKLOADS[name].baseline, WORKLOADS[name].cap
    proxies = select_proxies(gallery, baseline, PROXY_K)
    table = benchmark(
        build_training_corpus,
        gallery,
        proxies,
        baseline,
        n_train_sets=TRAIN_SETS,
        cap=cap,
        seed=CORPUS_SEED,
    )
    assert len(table) == cap
