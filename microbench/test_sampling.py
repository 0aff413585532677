"""Layer microbenchmark of `lqts.sampling.robust_select`, kept out of the
test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_sampling.py --benchmark-autosave

One call is the robust selection of a pipeline-benchmark workload: every
set of the workload's seed-11 gallery reduced to the workload's sample
count (`perfbench/workloads.py`). The gallery is generated once and not
timed.
"""

import sys
from pathlib import Path

import pytest

from lqts import sampling, synth

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402


def reduce_all(sets, samples):
    return [sampling.robust_select(s, samples) for s in sets]


@pytest.mark.parametrize("name", ["exemplar-cap2000"])
def test_robust_select(benchmark, name):
    w = WORKLOADS[name]
    gallery, _ = synth.generate(synth.SynthConfig(seed=ACCEPTANCE_SEED, **w.synth))
    reduced = benchmark(reduce_all, gallery.sets, w.samples)
    assert all(r.size == min(s.size, w.samples) for s, r in zip(gallery.sets, reduced))
