#!/usr/bin/env python3
"""sha256 digests of every pipeline output of the benchmark workloads.

For `exemplar-cap2000` and `subspace-lane`, with the settings of
`perfbench/workloads.py` and one data seed, this runs the benchmark's own
`perfbench/pipeline.py` `setup` and `build`: it generates the gallery,
writes and reloads it, reduces the sets where the workload asks for it,
and builds the proxy table, the training-feature table and the SVR model.
It reloads the proxy table and the model, ranks every admissible query
once with each of the bench's methods (baseline, arith and lqts) through
the bench's `rank_pass`, and prints one digest per output: the proxy
table, feature and model files, and each method's rankings and the ANR
records of the same rankings. The bench's ranking checks run on every
ranking; if one fails, the failures go to stderr and the exit status is 1.

Two source trees produce the same outputs when their digests agree. The
`lqts` package comes from PYTHONPATH, so the same script checks any tree:

    PYTHONPATH=src python scripts/output_digests.py --seed 11
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digests.py --seed 11

BLAS is pinned to one thread, as in the benchmark, unless the
environment already sets it.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from lqts import corpus, evaluation, retrieval  # noqa: E402

WORKLOAD_NAMES = ("exemplar-cap2000", "subspace-lane")


class Outputs(pipeline.Ops):
    """Ops that keep each stage's latest output, by stage name."""

    def __init__(self):
        super().__init__()
        self.latest = {}

    def call(self, what: str, fn, *args, **kwargs):
        self.latest[what] = result = super().call(what, fn, *args, **kwargs)
        return result


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workload, seed: int, work: Path, ops: Outputs) -> dict[str, str]:
    """Output name -> sha256 for one workload at one data seed; failed
    operations and checks go into ops."""
    _, gallery = pipeline.setup(workload, seed, work, ops)
    gallery, _, _ = pipeline.build(workload, gallery, work, ops)
    corpus.save_features(ops.latest["metafeat.build_training_corpus"], work / "features.tsv")
    out = {name: sha(work / name) for name in ("proxies.tsv", "features.tsv", "model.qts")}

    proxies = corpus.load_proxies(work / "proxies.tsv")
    model = corpus.load_model(work / "model.qts")
    labels = gallery.evaluation_labels()
    queries, _ = evaluation.admissible_query_ids(gallery)
    checker = pipeline.Checker(gallery, ops)
    for method, config in pipeline.method_configs(workload, model).items():
        ranker = retrieval.Ranker(gallery, config, proxies)
        _, results, records = pipeline.rank_pass(ranker, method, queries, checker, ops, labels)
        rankings = hashlib.sha256()
        for qid, ranking in results.items():
            retrieval.save_ranking(retrieval.RankedResult(qid, ranking), work / "ranking.tsv")
            rankings.update(qid.encode() + b"\n" + (work / "ranking.tsv").read_bytes())
        out[f"{method}.rankings"] = rankings.hexdigest()
        evaluation.write_anr_report(records, work / "records.tsv")
        out[f"{method}.anr"] = sha(work / "records.tsv")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--seed", type=int, required=True, help="data seed of the synthetic galleries")
    args = ap.parse_args(argv)
    ops = Outputs()
    for name in WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            for output, digest in digests(WORKLOADS[name], args.seed, Path(tmp), ops).items():
                print(f"{name}\tseed={args.seed}\t{output}\t{digest}")
    for failure in ops.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
