#!/usr/bin/env python3
"""Retrieval quality of the benchmark lanes at several data seeds.

For `exemplar-cap2000` and `subspace-lane`, with the settings of
`perfbench/workloads.py`, this runs the benchmark's own
`perfbench/pipeline.py` `setup` and `build` at data seeds 11, 12, 13 and
14, ranks every admissible query with the baseline and with lqts, and
prints one line per lane and seed:

    workload  seed  queries  the baseline's and lqts's fractions of queries
    with ANR < 0.3 and the gain in points  both mean ANRs  the model's
    support vectors, free support vectors and bias

Each ANR record is `lqts.evaluation.anr_record`'s. The `lqts` package
comes from PYTHONPATH, so the same script reports on any tree:

    PYTHONPATH=src python scripts/quality_seeds.py

BLAS is pinned to one thread, as in the benchmark, unless the
environment already sets it.
"""

import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from lqts import evaluation, retrieval  # noqa: E402

SEEDS = (11, 12, 13, 14)
WORKLOAD_NAMES = ("exemplar-cap2000", "subspace-lane")
COLUMNS = (
    "workload", "seed", "queries", "anr03_base", "anr03_lqts", "gain_pp",
    "mean_anr_base", "mean_anr_lqts", "svs", "free_svs", "bias",
)


def quality(workload, seed: int, work: Path) -> dict:
    """One lane's quality at one data seed, keyed by COLUMNS."""
    ops = pipeline.Ops()
    _, gallery = pipeline.setup(workload, seed, work, ops)
    gallery, proxies, model = pipeline.build(workload, gallery, work, ops)
    labels = gallery.evaluation_labels()
    queries, _ = evaluation.admissible_query_ids(gallery)
    configs = pipeline.method_configs(workload, model)
    anrs = {}
    for method in ("baseline", "lqts"):
        ranker = retrieval.Ranker(gallery, configs[method], proxies)
        anrs[method] = [evaluation.anr_record(ranker.rank(q), labels).anr for q in queries]
    below = {m: sum(a < pipeline.ANR_THRESHOLD for a in v) / len(v) for m, v in anrs.items()}
    at_bound = sum(abs(c) >= model.config.cost for c in model.coefficients.tolist())
    return {
        "workload": workload.name,
        "seed": seed,
        "queries": len(queries),
        "anr03_base": below["baseline"],
        "anr03_lqts": below["lqts"],
        "gain_pp": 100.0 * (below["lqts"] - below["baseline"]),
        "mean_anr_base": sum(anrs["baseline"]) / len(queries),
        "mean_anr_lqts": sum(anrs["lqts"]) / len(queries),
        "svs": model.n_support,
        "free_svs": model.n_support - at_bound,
        "bias": model.bias,
    }


def row(q: dict) -> str:
    return (
        f"{q['workload']}\t{q['seed']}\t{q['queries']}\t{q['anr03_base']:.4f}\t"
        f"{q['anr03_lqts']:.4f}\t{q['gain_pp']:.2f}\t{q['mean_anr_base']:.6f}\t"
        f"{q['mean_anr_lqts']:.6f}\t{q['svs']}\t{q['free_svs']}\t{q['bias']:.5f}"
    )


def main() -> int:
    print("\t".join(COLUMNS))
    for name in WORKLOAD_NAMES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                print(row(quality(WORKLOADS[name], seed, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
