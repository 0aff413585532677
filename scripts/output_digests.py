#!/usr/bin/env python3
"""sha256 digests of every pipeline output of the benchmark workloads.

For `exemplar-cap2000` and `subspace-lane`, with the settings of
`perfbench/workloads.py` and one data seed, this generates the gallery,
writes and reloads it, then builds as `perfbench/pipeline.build` does:
robust selection where the workload asks for it, a proxy table of width
PROXY_K, the training-feature table at the workload's cap and
CORPUS_SEED, and the SVR model. It reloads the proxy table and the model,
ranks every admissible query once with each of the baseline, arith and
lqts methods, and prints one digest per output: the proxy table, feature
and model files, and each method's rankings and the ANR records of the
same rankings.

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
from workloads import CORPUS_SEED, PROXY_K, TRAIN_SETS, WORKLOADS  # noqa: E402

from lqts import corpus, evaluation, metafeat, retrieval, sampling, svr, synth  # noqa: E402

WORKLOAD_NAMES = ("exemplar-cap2000", "subspace-lane")
METHODS = ("baseline", "arith", "lqts")


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workload, seed: int, work: Path) -> dict[str, str]:
    """Output name -> sha256 for one workload at one data seed."""
    generated, _ = synth.generate(synth.SynthConfig(seed=seed, **workload.synth))
    corpus.save_gallery(generated, work / "gallery")
    gallery = corpus.load_gallery(work / "gallery")
    if workload.samples is not None:
        reduced = tuple(sampling.robust_select(s, workload.samples) for s in gallery)
        gallery = corpus.Gallery(sets=reduced, labels=gallery.labels)

    proxies = retrieval.select_proxies(gallery, workload.baseline, PROXY_K)
    features = metafeat.build_training_corpus(
        gallery,
        proxies,
        workload.baseline,
        n_train_sets=TRAIN_SETS,
        cap=workload.cap,
        seed=CORPUS_SEED,
    )
    model = svr.train(features)
    corpus.save_proxies(proxies, work / "proxies.tsv")
    corpus.save_features(features, work / "features.tsv")
    corpus.save_model(model, work / "model.qts")
    out = {name: sha(work / name) for name in ("proxies.tsv", "features.tsv", "model.qts")}

    proxies = corpus.load_proxies(work / "proxies.tsv")
    model = corpus.load_model(work / "model.qts")
    labels = gallery.evaluation_labels()
    queries, _ = evaluation.admissible_query_ids(gallery)
    for method in METHODS:
        config = retrieval.RetrievalConfig(workload.baseline, method, workload.k_p, model)
        ranker = retrieval.Ranker(gallery, config, proxies)
        rankings, records = hashlib.sha256(), []
        for qid in queries:
            result = ranker.rank(qid)
            retrieval.save_ranking(result, work / "ranking.tsv")
            rankings.update(qid.encode() + b"\n" + (work / "ranking.tsv").read_bytes())
            records.append(evaluation.anr_record(result, labels))
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
    for name in WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            for output, digest in digests(WORKLOADS[name], args.seed, Path(tmp)).items():
                print(f"{name}\tseed={args.seed}\t{output}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
