"""The benchmark's tracer (perfbench/tracing.py) patches lqts functions by
the module names their callers bind, and reads the training-feature table
through its hooks. A traced build and query must install cleanly and count
what the table holds."""

import sys
from pathlib import Path

import numpy as np

from lqts import metafeat, retrieval, svr
from lqts.corpus import Gallery

from conftest import random_set

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_traced_counts_match_the_table(rng):
    gallery = Gallery(sets=tuple(random_set(rng, f"s{i}", n=4, d=6) for i in range(6)))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        # called through their modules, so that the patched names run
        proxies = retrieval.select_proxies(gallery, "exemplar", 2)
        table = metafeat.build_training_corpus(gallery, proxies, cap=10**6)
        model = svr.train(table)
        config = retrieval.RetrievalConfig(method="lqts", k_p=2, model=model)
        retrieval.Ranker(gallery, config, proxies).rank("s0")
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["metafeat.rows_pos"] == int(np.sum(table.label == 1.0)) > 0
    assert counts["metafeat.rows_neg"] == int(np.sum(table.label == 0.0)) > 0
    assert counts["svr.rows"] == len(table)
    assert counts["svr.predict_rows"] > 0
    assert "retrieval.rank.lqts" in tracer.names
