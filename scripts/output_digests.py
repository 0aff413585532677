#!/usr/bin/env python3
"""Every seeded output of the benchmark workloads: sha256 digests of the
pipeline's outputs and each method's retrieval quality.

For `exemplar-cap2000` and `subspace-lane`, with the settings of
`perfbench/workloads.py`, and for each data seed given, this runs the
benchmark's own `perfbench/pipeline.py` `setup` and `build` once: it
generates the gallery, writes and reloads it, reduces the sets where the
workload asks for it, and builds the proxy table, the training-feature
table and the SVR model. It reloads the proxy table and the model and ranks
every admissible query once with each method of `lqts.retrieval.METHODS`
through the bench's `rank_pass`. It prints one line
`workload <TAB> seed=N <TAB> name <TAB> value` per output:

* digests: `gallery`, of each reloaded set's id, shape and exemplar
  bytes in manifest order, so it shows that the written set files load
  the generated floats whatever their format; `proxies.tsv`,
  `features.tsv` and `model.qts`; and for each method `<method>.rankings`
  and `<method>.anr`, the digests of its rankings and of the ANR records
  of the same rankings;
* quality, each value printed with `repr`: `queries`, the admissible query
  count; for each method `<method>.anr03`, its fraction of queries with
  ANR < 0.3, and `<method>.mean_anr`; for each method but the baseline
  `<method>.gain_pp`, its anr03 gain over the baseline in points; and the
  model's `model.svs` support vectors, `model.free_svs` of them below the
  cost bound, and `model.bias`.

The bench's ranking checks run on every ranking; if one fails, the
failures go to stderr and the exit status is 1.

Two source trees produce the same outputs when their lines agree. The
`lqts` package comes from PYTHONPATH, so the same script checks any tree:

    PYTHONPATH=src python scripts/output_digests.py --seed 11 12
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digests.py --seed 11 12

BLAS is pinned to one thread, as in the benchmark, unless the
environment already sets it.
"""

import argparse
import dataclasses
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


def gallery_digest(gallery: corpus.Gallery) -> str:
    digest = hashlib.sha256()
    for s in gallery:
        digest.update(f"{s.set_id}\t{s.size}\t{s.dim}\n".encode() + s.exemplars.tobytes())
    return digest.hexdigest()


def lane_outputs(workload, seed: int, work: Path, ops: Outputs) -> dict[str, str]:
    """Output name -> digest or repr'd value for one workload at one data
    seed, from one build; failed operations and checks go into ops."""
    _, gallery = pipeline.setup(workload, seed, work, ops)
    out = {"gallery": gallery_digest(gallery)}
    gallery, _, _ = pipeline.build(workload, gallery, work, ops)
    corpus.save_features(ops.latest["metafeat.build_training_corpus"], work / "features.tsv")
    out |= {name: sha(work / name) for name in ("proxies.tsv", "features.tsv", "model.qts")}

    proxies = corpus.load_proxies(work / "proxies.tsv")
    model = corpus.load_model(work / "model.qts")
    labels = gallery.evaluation_labels()
    queries, _ = evaluation.admissible_query_ids(gallery)
    out["queries"] = repr(len(queries))
    checker = pipeline.Checker(gallery, ops)
    configs = pipeline.method_configs(workload, model)
    below = {}
    for method in retrieval.METHODS:
        # the bench ranks baseline, arith and lqts; geom and quad take arith's settings
        config = configs.get(method) or dataclasses.replace(configs["arith"], method=method)
        ranker = retrieval.Ranker(gallery, config, proxies)
        _, results, records = pipeline.rank_pass(ranker, method, queries, checker, ops, labels)
        rankings = hashlib.sha256()
        for qid, ranking in results.items():
            retrieval.save_ranking(retrieval.RankedResult(qid, ranking), work / "ranking.tsv")
            rankings.update(qid.encode() + b"\n" + (work / "ranking.tsv").read_bytes())
        out[f"{method}.rankings"] = rankings.hexdigest()
        evaluation.write_anr_report(records, work / "records.tsv")
        out[f"{method}.anr"] = sha(work / "records.tsv")
        anrs = [r.anr for r in records]
        below[method] = sum(a < pipeline.ANR_THRESHOLD for a in anrs) / len(anrs)
        out[f"{method}.anr03"] = repr(below[method])
        out[f"{method}.mean_anr"] = repr(sum(anrs) / len(anrs))
        if method != retrieval.METHOD_BASELINE:
            gain = 100.0 * (below[method] - below[retrieval.METHOD_BASELINE])
            out[f"{method}.gain_pp"] = repr(gain)
    at_bound = sum(abs(c) >= model.config.cost for c in model.coefficients.tolist())
    out["model.svs"] = repr(model.n_support)
    out["model.free_svs"] = repr(model.n_support - at_bound)
    out["model.bias"] = repr(model.bias)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--seed", type=int, nargs="+", required=True, help="data seeds of the synthetic galleries"
    )
    args = ap.parse_args(argv)
    ops = Outputs()
    for name in WORKLOAD_NAMES:
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                for output, value in lane_outputs(WORKLOADS[name], seed, Path(tmp), ops).items():
                    print(f"{name}\tseed={seed}\t{output}\t{value}", flush=True)
    for failure in ops.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
