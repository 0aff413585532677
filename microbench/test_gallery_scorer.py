"""Layer microbenchmark of `lqts.retrieval.GalleryScorer`, kept out of the
test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_gallery_scorer.py --benchmark-autosave

The checkout's own `src` is searched after PYTHONPATH, so a run with
`PYTHONPATH=<another tree>/src` measures that tree's `lqts`.

One call of `test_query_row` is one query row, `GalleryScorer.pair(q,
range(n))` as `Ranker.rank` calls it, with its scores and its gallery-side
mode coordinates read, as an lqts ranking reads them: gallery set 0
against every gallery set, itself included, on the seed-11 gallery of each
pipeline-benchmark workload, reduced as that workload reduces it
(`perfbench/workloads.py`). `test_mid_gallery_query_row` is that row
for gallery set n // 2, which lies inside the slice of its size, where
set 0 starts its slice. `test_query_row_scores` reads the scores
alone, as proxy selection and the baseline and combiner rankings do; the
subspace modes are then never built. `test_ragged_query_row` is the
same row, coordinates read, on the seed-11 exemplar gallery as generated,
with no robust selection: 173 sets of 20 to 50 exemplars, 31 sizes
interleaved in gallery order.

`test_row_overhead` prices a row's fixed cost over its kernel calls, as a
layer figure. It times `GalleryScorer.pair(0, range(n))`, as
`Ranker.rank` calls it, and beside it the bare kernel calls of that row,
`compare(a, stacks[k])` once per set size with set 0's rows a (each
workload's sizes hold fewer than PAIR_BLOCK sets, so one call each). Both
read the scores, and in the `coords` variant the gallery-side mode
coordinates too, as an lqts query does. Outside the timed rounds of the
row, 400 paired rounds alternate the two calls, and `extra_info` records
the median kernel and row times and the median of the per-round
difference, the row's fixed cost, in µs: separate benchmark cases on
this 2-vCPU box differ by more than that cost from run to run.

`test_select_proxies` builds the proxy table of each workload's
settings at 240 identities (727 `subspace-lane` sets, 720
`exemplar-cap2000` sets of 10 exemplars), three rounds.

`test_pair_list` times the proxy-target pair list of a `Ranker` at the
paper's scale, `GalleryScorer.pair(proxy, target)` with its mode
coordinates read, as an lqts `Ranker` reads them once to tabulate its
proxy rows' modes: every set against 10 (`PROXY_K`) random
other sets, in random galleries of (10, 96) sets shaped like the
paper-scale lanes, 2,837 sets (28,370 pairs) under the exemplar baseline
and 2,869 (28,690 pairs) under the subspace baseline. It records, from
one traced call outside the timed rounds, the peak and the held memory
of the score-only call and the peak of reading the coordinates, in MiB, in
`extra_info`.

`test_max_corr_batch` times the subspace kernel alone on the
`subspace-lane` gallery's (6, 96) bases: 181 pairs, set 0 as one 2-D
operand against every other set, the shape of a query row and of a
proxy-selection row, and 256 aligned pairs, the first PAIR_BLOCK pairs
(i, j), i < j, the shape of training extraction. Its `scores` variant
reads the scores alone, as proxy selection and the baseline and combiner
rankings do, and leaves the modes unbuilt; its `coords` variant reads both
sides' mode coordinates too, as training extraction and an lqts `Ranker`'s
proxy-target pairs do.
"""

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lqts import sampling, synth
from lqts.corpus import FaceSet, Gallery
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
    """A scorer on the workload's gallery, and the range of every gallery
    index, the row `Ranker.rank` reads."""
    gallery = workload_gallery(name)
    return GalleryScorer(gallery, WORKLOADS[name].baseline), range(len(gallery))


def bench_row(benchmark, scorer, q, everyone):
    """Time gallery set q's row against every gallery set, its scores and
    gallery-side mode coordinates read, and check them."""

    def row():
        out = scorer.pair(q, everyone)
        return out.score, out.coords_b

    score, coords = benchmark(row)
    assert score[q] == 1.0 and np.all((score >= 0.0) & (score <= 1.0))
    assert coords.shape == (len(everyone), max(scorer.members))


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_query_row(benchmark, name):
    scorer, everyone = query_row(name)
    bench_row(benchmark, scorer, 0, everyone)


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_mid_gallery_query_row(benchmark, name):
    scorer, everyone = query_row(name)
    bench_row(benchmark, scorer, len(everyone) // 2, everyone)


def test_ragged_query_row(benchmark):
    gallery, _ = synth.generate(synth.SynthConfig(seed=ACCEPTANCE_SEED))
    assert len({s.size for s in gallery.sets}) == 31
    bench_row(benchmark, GalleryScorer(gallery, "exemplar"), 0, range(len(gallery)))


@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_query_row_scores(benchmark, name):
    scorer, everyone = query_row(name)
    score = benchmark(lambda: scorer.pair(0, everyone).score)
    assert score[0] == 1.0 and np.all((score >= 0.0) & (score <= 1.0))


@pytest.mark.parametrize("read", ["scores", "coords"])
@pytest.mark.parametrize("name", ["exemplar-cap2000", "subspace-lane"])
def test_row_overhead(benchmark, name, read):
    scorer, everyone = query_row(name)
    assert max(m.size for m in scorer.members.values()) <= PAIR_BLOCK
    a = scorer.stacks[int(scorer.ks[0])][0]

    def kernel():
        outs = [scorer.compare(a, stack) for stack in scorer.stacks.values()]
        return [(out.score, out.coords_b if read == "coords" else None) for out in outs]

    def row():
        out = scorer.pair(0, everyone)
        return [(out.score, out.coords_b if read == "coords" else None)]

    seconds = np.empty((400, 2))
    for r, calls in enumerate([(kernel, row), (row, kernel)] * 200):
        for call in calls:
            t = time.perf_counter()
            call()
            seconds[r, int(call is row)] = time.perf_counter() - t
    kernel_us, row_us = np.median(seconds, axis=0) * 1e6
    fixed_us = np.median(seconds[:, 1] - seconds[:, 0]) * 1e6
    benchmark.extra_info.update(kernel_us=kernel_us, row_us=row_us, fixed_cost_us=fixed_us)
    got = benchmark(row)
    assert got[0][0].size == len(everyone) == sum(len(s) for s in scorer.stacks.values())


@pytest.mark.parametrize("name, sets", [("exemplar-cap2000", 720), ("subspace-lane", 727)])
def test_select_proxies(benchmark, name, sets):
    gallery = workload_gallery(name, n_identities=240)
    assert len(gallery) == sets
    args = (gallery, WORKLOADS[name].baseline, PROXY_K)
    table = benchmark.pedantic(select_proxies, args=args, rounds=3, iterations=1)
    assert len(table.entries) == len(gallery)


@pytest.mark.parametrize("baseline, sets", [("exemplar", 2837), ("subspace", 2869)])
def test_pair_list(benchmark, baseline, sets):
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    gallery = Gallery(sets=tuple(FaceSet(f"s{p}", rng.normal(size=(10, 96))) for p in range(sets)))
    scorer = GalleryScorer(gallery, baseline)
    target = np.repeat(np.arange(sets), PROXY_K)
    proxy = (target + rng.integers(1, sets, size=target.size)) % sets

    tracemalloc.start()
    try:
        out = scorer.pair(proxy, target)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out.coords
        coords_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    for name, value in (("scores_peak", peak), ("scores_held", held), ("coords_peak", coords_peak)):
        benchmark.extra_info[f"{name}_mib"] = value / 2**20

    def call():
        out = scorer.pair(proxy, target)
        return out.score, out.coords

    score, (proxy_coords, target_coords) = benchmark.pedantic(call, rounds=5, iterations=1)
    assert score.shape == (sets * PROXY_K,) and np.all((score >= 0.0) & (score <= 1.0))
    assert proxy_coords.shape == target_coords.shape == (sets * PROXY_K, max(scorer.members))


@pytest.mark.parametrize("read", ["scores", "coords"])
@pytest.mark.parametrize("pairs", [181, PAIR_BLOCK])
def test_max_corr_batch(benchmark, pairs, read):
    bases = np.stack([s.subspace for s in workload_gallery("subspace-lane").sets])
    assert bases.shape == (182, 6, 96)
    if pairs == 181:
        a, b = bases[0], bases[1:]
    else:
        i, j = (ix[:pairs] for ix in np.triu_indices(len(bases), 1))
        a, b = bases[i], bases[j]

    def call():
        out = max_corr_batch(a, b)
        return out.score, out.coords if read == "coords" else None

    score, coords = benchmark(call)
    assert score.shape == (pairs,) and np.all((score >= 0.0) & (score <= 1.0))
    if read == "coords":
        assert coords[0].shape == coords[1].shape == (pairs, 6)
