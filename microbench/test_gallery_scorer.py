"""Layer microbenchmark of `lqts.retrieval.GalleryScorer`, kept out of the
test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_gallery_scorer.py --benchmark-autosave

One call of `test_query_row` is one query row, `GalleryScorer.pair(q,
everyone)`, with its scores and modes read: gallery set 0 against every
gallery set, itself included, on the seed-11 gallery of each
pipeline-benchmark workload, reduced as that workload reduces it
(`perfbench/workloads.py`). `test_query_row_scores` reads the scores
alone, as proxy selection and the baseline and combiner rankings do; the
subspace modes are then never built.

`test_select_proxies` builds the proxy table of the `subspace-lane`
settings at 240 identities (727 sets), three rounds.

`test_max_corr_batch` times the subspace kernel alone on the
`subspace-lane` gallery's (6, 96) bases: 181 pairs, set 0 as one 2-D
operand against every other set, the shape of a query row and of a
proxy-selection row, and 256 aligned pairs, the first PAIR_BLOCK pairs
(i, j), i < j, the shape of training extraction. Its `scores` variant
reads the scores alone, as proxy selection and the baseline and combiner
rankings do, and leaves the modes unbuilt; its `modes` variant reads the
modes too, as an lqts query row and training extraction do.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lqts import sampling, synth
from lqts.corpus import Gallery
from lqts.retrieval import PAIR_BLOCK, GalleryScorer, select_proxies
from lqts.similarity import max_corr_batch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCEPTANCE_SEED, PROXY_K, WORKLOADS  # noqa: E402


def workload_gallery(name: str, **synth_settings) -> Gallery:
    w = WORKLOADS[name]
    config = synth.SynthConfig(seed=ACCEPTANCE_SEED, **{**w.synth, **synth_settings})
    gallery, _ = synth.generate(config)
    if w.samples is not None:
        gallery = Gallery(sets=tuple(sampling.robust_select(s, w.samples) for s in gallery))
    return gallery


def query_row(name: str):
    """A scorer on the workload's gallery, and every gallery index."""
    gallery = workload_gallery(name)
    return GalleryScorer(gallery, WORKLOADS[name].baseline), np.arange(len(gallery))


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_query_row(benchmark, name):
    scorer, everyone = query_row(name)

    def row():
        out = scorer.pair(0, everyone)
        return out.score, out.mode_a, out.mode_b

    score, mode_a, mode_b = benchmark(row)
    assert score[0] == 1.0 and np.all((score >= 0.0) & (score <= 1.0))
    assert mode_a.shape == mode_b.shape == (len(everyone), scorer.stack.shape[2])


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_query_row_scores(benchmark, name):
    scorer, everyone = query_row(name)
    score = benchmark(lambda: scorer.pair(0, everyone).score)
    assert score[0] == 1.0 and np.all((score >= 0.0) & (score <= 1.0))


def test_select_proxies(benchmark):
    gallery = workload_gallery("subspace-lane", n_identities=240)
    assert len(gallery) == 727
    args = (gallery, "subspace", PROXY_K)
    table = benchmark.pedantic(select_proxies, args=args, rounds=3, iterations=1)
    assert len(table.entries) == len(gallery)


@pytest.mark.parametrize("read", ["scores", "modes"])
@pytest.mark.parametrize("pairs", [181, PAIR_BLOCK])
def test_max_corr_batch(benchmark, pairs, read):
    scorer = GalleryScorer(workload_gallery("subspace-lane"), "subspace")
    assert np.all(scorer.ks == 6) and scorer.stack.shape[2] == 96
    if pairs == 181:
        a, b = scorer.stack[0], scorer.stack[1:]
    else:
        i, j = (ix[:pairs] for ix in np.triu_indices(len(scorer.ks), 1))
        a, b = scorer.stack[i], scorer.stack[j]

    def call():
        out = max_corr_batch(a, b)
        return out.score, (out.mode_a, out.mode_b) if read == "modes" else None

    score, modes = benchmark(call)
    assert score.shape == (pairs,) and np.all((score >= 0.0) & (score <= 1.0))
    if read == "modes":
        assert modes[0].shape == modes[1].shape == (pairs, 96)
