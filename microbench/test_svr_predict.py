"""Layer microbenchmark of `lqts.svr.predict`, kept out of the test suite.

Run from the repository root, with one BLAS thread as the pipeline
benchmark uses:

    OPENBLAS_NUM_THREADS=1 python -m pytest microbench --benchmark-autosave

Results are saved under `.benchmarks/`. The shapes are one lqts query of
the `exemplar-cap2000` workload (860 distinct feature rows against the
model's 1,397 support vectors) and the same rows against a 4,095-SV
model, the size trained at cap 6000. The models are synthetic: support
vectors in the unit cube, and coefficients at the cost bound in
cancelling signs, as nearly all of a trained model's are.
"""

import numpy as np
import pytest

from lqts.svr import SvrConfig, SvrModel, predict

ROWS = 860


def model_at_bound(n_support: int, rng) -> SvrModel:
    """(k + 1) coefficients at +C, k at -C and two at -C/2, in random order:
    an odd count summing to zero."""
    c = SvrConfig().cost
    k = (n_support - 3) // 2
    coeff = np.concatenate([np.full(k + 1, c), np.full(k, -c), [-c / 2, -c / 2]])
    return SvrModel(
        support_vectors=rng.random((n_support, 5)),
        coefficients=rng.permutation(coeff),
        bias=-0.3,
        config=SvrConfig(),
    )


@pytest.mark.parametrize("n_support", [1397, 4095], ids=["exemplar-cap2000-1397sv", "4095sv"])
def test_predict(benchmark, n_support):
    rng = np.random.default_rng(0)
    model = model_at_bound(n_support, rng)
    rows = rng.random((ROWS, 5))
    out = benchmark(predict, model, rows)
    assert out.shape == (ROWS,) and np.all(np.isfinite(out))
