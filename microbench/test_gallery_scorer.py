"""Layer microbenchmark of `lqts.retrieval.GalleryScorer`, kept out of the
test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_gallery_scorer.py --benchmark-autosave

One call is one query row, `GalleryScorer.pair(q, everyone)`: gallery set
0 against every gallery set, itself included, on the seed-11 gallery of
each pipeline-benchmark workload, reduced as that workload reduces it
(`perfbench/workloads.py`).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lqts import sampling, synth
from lqts.corpus import Gallery
from lqts.retrieval import GalleryScorer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402


def workload_gallery(name: str) -> Gallery:
    w = WORKLOADS[name]
    gallery, _ = synth.generate(synth.SynthConfig(seed=ACCEPTANCE_SEED, **w.synth))
    if w.samples is not None:
        gallery = Gallery(sets=tuple(sampling.robust_select(s, w.samples) for s in gallery))
    return gallery


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_query_row(benchmark, name):
    gallery = workload_gallery(name)
    scorer = GalleryScorer(gallery, WORKLOADS[name].baseline)
    everyone = np.arange(len(gallery))
    out = benchmark(scorer.pair, 0, everyone)
    assert out.score[0] == 1.0 and np.all((out.score >= 0.0) & (out.score <= 1.0))
