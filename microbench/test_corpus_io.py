"""Layer microbenchmark of `lqts.corpus.save_gallery` and
`lqts.corpus.load_gallery`, kept out of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench/test_corpus_io.py --benchmark-autosave

One call writes, or reads back, the seed-11 `exemplar-cap2000` gallery as
the pipeline benchmark's set-up does before any robust selection: 173 set
files holding 6,116 exemplars, and the manifest. `test_save_gallery` and
`test_load_gallery` use the default lossless `QTS2` binary set files, and
the `_csv` cases the text set files of `save_gallery(..., binary=False)`.
The gallery is generated once and not timed; a load reads a copy written
once before timing.
"""

import sys
from pathlib import Path

import pytest

from lqts import synth
from lqts.corpus import load_gallery, save_gallery

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402

NAME = "exemplar-cap2000"


@pytest.fixture(scope="module")
def gallery():
    generated, _ = synth.generate(synth.SynthConfig(seed=ACCEPTANCE_SEED, **WORKLOADS[NAME].synth))
    assert (len(generated), sum(s.size for s in generated)) == (173, 6116)
    return generated


def test_save_gallery(benchmark, gallery, tmp_path):
    benchmark(save_gallery, gallery, tmp_path / "gallery")
    assert load_gallery(tmp_path / "gallery") == gallery


def test_load_gallery(benchmark, gallery, tmp_path):
    save_gallery(gallery, tmp_path / "gallery")
    assert benchmark(load_gallery, tmp_path / "gallery") == gallery


def test_save_gallery_csv(benchmark, gallery, tmp_path):
    benchmark(save_gallery, gallery, tmp_path / "gallery", binary=False)
    assert load_gallery(tmp_path / "gallery") == gallery


def test_load_gallery_csv(benchmark, gallery, tmp_path):
    save_gallery(gallery, tmp_path / "gallery", binary=False)
    assert benchmark(load_gallery, tmp_path / "gallery") == gallery
