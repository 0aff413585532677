"""Layer microbenchmark of `lqts.sampling.robust_select` and its
pre-image loop, kept out of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_sampling.py --benchmark-autosave

One call of `test_robust_select` is the robust selection of a
pipeline-benchmark workload: every set of the workload's seed-11 gallery
reduced to the workload's sample count (`perfbench/workloads.py`). One
call of `test_pre_images` is the pre-image loop of that selection alone:
`pre_images` of every set larger than the sample count, at its evenly
spaced targets, with the kernel-PCA fits made once and not timed. The
gallery is generated once and not timed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lqts import sampling, synth

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402


def reduce_all(sets, samples):
    return [sampling.robust_select(s, samples) for s in sets]


def pre_images_all(fits):
    return [sampling.pre_images(m, targets) for m, targets in fits]


def workload_sets(name):
    w = WORKLOADS[name]
    gallery, _ = synth.generate(synth.SynthConfig(seed=ACCEPTANCE_SEED, **w.synth))
    return gallery.sets, w.samples


@pytest.mark.parametrize("name", ["exemplar-cap2000"])
def test_robust_select(benchmark, name):
    sets, samples = workload_sets(name)
    reduced = benchmark(reduce_all, sets, samples)
    assert all(r.size == min(s.size, samples) for s, r in zip(sets, reduced))


@pytest.mark.parametrize("name", ["exemplar-cap2000"])
def test_pre_images(benchmark, name):
    sets, samples = workload_sets(name)
    fits = []
    for s in sets:
        if s.size > samples:
            m = sampling.fit_kpca(s)
            lo, hi = float(m.projections.min()), float(m.projections.max())
            fits.append((m, np.linspace(lo, hi, samples)))
    points = benchmark(pre_images_all, fits)
    assert [p.shape for p in points] == [(samples, s.dim) for s in sets if s.size > samples]
