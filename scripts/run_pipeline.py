#!/usr/bin/env python3
"""End-to-end retrieval experiment on a synthetic gallery.

Generates a gallery with transitive structure, runs the unsupervised
pipeline (robust selection, proxy table, feature extraction, regressor
training), then evaluates the baseline, the three simple combiners and
the learnt method, writing per-method report files plus a summary table
to stdout. Everything is seeded, so runs are reproducible.

Usage:
    python scripts/run_pipeline.py --out-dir runs/demo
    python scripts/run_pipeline.py --baseline subspace --k-p 1 --spacing 2.2 --noise 0.25
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from lqts import sampling, similarity, synth
from lqts.corpus import Gallery, save_gallery, save_model, save_proxies
from lqts.evaluation import evaluate_all, write_reports
from lqts.metafeat import build_training_corpus
from lqts.retrieval import METHODS, RetrievalConfig, select_proxies
from lqts.svr import train


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
    ap.add_argument("--train-sets", type=int, default=200)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    cfg = synth.SynthConfig(
        n_identities=args.identities,
        dim=args.dim,
        transitivity=args.tau,
        noise=args.noise,
        set_spacing=args.spacing,
        seed=args.seed,
    )
    gallery, _ = synth.generate(cfg)
    save_gallery(gallery, out / "gallery")
    if args.baseline == similarity.EXEMPLAR:
        gallery = Gallery(
            sets=tuple(sampling.robust_select(s, args.samples) for s in gallery),
            labels=gallery.labels,
        )
        save_gallery(gallery, out / "gallery_sampled")

    t_stage = time.time()
    proxies = select_proxies(gallery, args.baseline, 10)
    t_stage = time.time() - t_stage
    save_proxies(proxies, out / "proxies.tsv")
    print(
        f"gallery: {len(gallery)} sets, dim {gallery.dim}; proxy table in {t_stage:.2f}s  "
        f"[{time.time() - t0:.0f}s]"
    )
    features = build_training_corpus(
        gallery, proxies, args.baseline, n_train_sets=args.train_sets, cap=args.cap, seed=5
    )
    t_train = time.time()
    model = train(features)
    t_train = time.time() - t_train
    save_model(model, out / "model.qts")
    print(
        f"trained on {len(features)} features: {len(model.objective_trace) - 1} pair updates "
        f"in {t_train:.1f}s, {model.n_support} support vectors, "
        f"KKT gap {model.kkt_violation:.1e}  [{time.time() - t0:.0f}s]"
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
