#!/usr/bin/env python3
"""Error introduced by robust sample selection in the exemplar baseline.

Builds a gallery of large sets, reduces every set to a handful of
kernel-PCA pre-images, and compares max-maximorum similarities before
and after over random set pairs. Writes the per-pair absolute error and
its empirical CDF, and prints the cost reduction.

Usage:
    python scripts/sampling_error.py --out-dir runs/sampling
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from lqts import corpus, sampling, synth
from lqts.similarity import max_max_sim


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/sampling")
    ap.add_argument("--identities", type=int, default=60)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--min-exemplars", type=int, default=60)
    ap.add_argument("--max-exemplars", type=int, default=200)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--noise", type=float, default=0.03)
    ap.add_argument("--sigma-cond", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cfg = synth.SynthConfig(
        n_identities=args.identities,
        sets_per_identity=(1, 1),
        exemplars_per_set=(args.min_exemplars, args.max_exemplars),
        dim=args.dim,
        condition_spread=args.sigma_cond,
        noise=args.noise,
        seed=args.seed,
    )
    gallery, _ = synth.generate(cfg)
    t0 = time.perf_counter()
    reduced = {s.set_id: sampling.robust_select(s, args.samples) for s in gallery}
    select_time = time.perf_counter() - t0

    rng = np.random.default_rng(7)
    ids = gallery.set_ids
    rows = []
    for _ in range(args.pairs):
        i, j = (int(v) for v in rng.choice(len(ids), 2, replace=False))
        a, b = gallery.sets[i], gallery.sets[j]
        full = float(max_max_sim(a, b).score[0])
        red = float(max_max_sim(reduced[ids[i]], reduced[ids[j]]).score[0])
        rows.append((ids[i], ids[j], a.size * b.size, full, red, abs(full - red)))

    header = "set_a\tset_b\tcomparisons_before\tfull_score\treduced_score\tabs_error"
    corpus.write_lines(out / "pair_errors.tsv", [header, *("\t".join(map(str, r)) for r in rows)])

    errors = np.sort([r[5] for r in rows])
    cdf = [f"{e},{k / len(errors)}" for k, e in enumerate(errors, start=1)]
    corpus.write_lines(out / "error_cdf.csv", ["abs_error,fraction", *cdf])

    before = np.array([r[2] for r in rows], dtype=float)
    after = float(args.samples**2)
    print(f"selection of {len(gallery)} sets took {select_time:.1f}s")
    print(f"median |error| = {np.median(errors):.4f}, p90 = {np.percentile(errors, 90):.4f}")
    print(
        f"comparisons per pair: {before.mean():.0f} -> {after:.0f} "
        f"(mean speedup {before.mean() / after:.0f}x, min {before.min() / after:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
