#!/usr/bin/env python3
"""End-to-end retrieval experiment on a synthetic gallery.

Generates a gallery with transitive structure, runs the benchmark's own
unsupervised pipeline stages on it (`perfbench/pipeline.py` `setup` and
`build`) and prints each stage's seconds, then evaluates the baseline, the
three simple combiners and the learnt method, writing per-method report
files plus a summary table to stdout. Everything is seeded, so runs are
reproducible.

Usage:
    python scripts/run_pipeline.py --out-dir runs/demo
    python scripts/run_pipeline.py --baseline subspace --k-p 1 --spacing 2.2 --noise 0.25
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
# after PYTHONPATH, so that PYTHONPATH=<another tree>/src selects that tree
sys.path.append(str(ROOT / "src"))
import pipeline  # noqa: E402
from workloads import Workload  # noqa: E402

from lqts import corpus, similarity  # noqa: E402
from lqts.evaluation import evaluate_all, write_reports  # noqa: E402
from lqts.retrieval import METHODS, RetrievalConfig  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/pipeline")
    ap.add_argument("--baseline", choices=similarity.BASELINES, default=similarity.EXEMPLAR)
    ap.add_argument("--identities", type=int, default=60)
    ap.add_argument("--dim", type=int, default=96)
    ap.add_argument("--tau", type=float, default=0.7)
    ap.add_argument("--noise", type=float, default=0.15)
    ap.add_argument("--spacing", type=float, default=None)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--k-p", type=int, default=5)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--cap", type=int, default=6000)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workload = Workload(
        name="run_pipeline",
        baseline=args.baseline,
        cap=args.cap,
        k_p=args.k_p,
        samples=args.samples if args.baseline == similarity.EXEMPLAR else None,
        synth={
            "n_identities": args.identities,
            "dim": args.dim,
            "transitivity": args.tau,
            "noise": args.noise,
            "set_spacing": args.spacing,
        },
    )

    t0 = time.time()
    ops = pipeline.Ops()
    ops.timings = {}
    _, gallery = pipeline.setup(workload, args.seed, out, ops)
    gallery, proxies, model = pipeline.build(workload, gallery, out, ops)
    if workload.samples is not None:
        corpus.save_gallery(gallery, out / "gallery_sampled")
    stage_s: dict[str, float] = {}
    for key, (sec, _) in ops.timings.items():
        stage = key.split("/", 1)[1]
        stage_s[stage] = stage_s.get(stage, 0.0) + sec
    for stage, sec in stage_s.items():
        print(f"{stage:32s} {sec:7.2f}s")
    print(
        f"gallery: {len(gallery)} sets, dim {gallery.dim}; model: {model.n_support} support "
        f"vectors, KKT gap {model.kkt_violation:.1e}  [{time.time() - t0:.0f}s]"
    )

    summary = {}
    for name in METHODS:
        config = RetrievalConfig(args.baseline, name, args.k_p, model)
        t_stage = time.time()
        records = evaluate_all(gallery, config, proxies)
        t_stage = time.time() - t_stage
        write_reports(records, out / name)
        anrs = np.array([r.anr for r in records])
        summary[name] = (float(np.mean(anrs)), float(np.mean(anrs < 0.3)))
        print(f"evaluated {name:8s} in {t_stage:6.2f}s  [{time.time() - t0:.0f}s]")

    print(f"\n{'method':10s} {'mean ANR':>9s} {'ANR<0.3':>8s}")
    for name, (mean_anr, frac) in summary.items():
        print(f"{name:10s} {mean_anr:9.4f} {frac:8.3f}")
    base_frac = summary["baseline"][1]
    lqts_frac = summary["lqts"][1]
    print(f"\nlearnt method gain at ANR<0.3: {100 * (lqts_frac - base_frac):+.1f}pp")
    return 0


if __name__ == "__main__":
    sys.exit(main())
