"""qts: batch pipeline front end.

Subcommands cover the full pipeline: synth -> sample -> proxies ->
extract -> train -> retrieve / evaluate, plus the per-set kernel energy
report. `main` writes every successful run's JSON sidecar, its full
configuration, so an experiment can be reproduced from its outputs alone.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import corpus, evaluation, metafeat, retrieval, sampling, similarity, synth, svr
from .errors import DegenerateSetError, LqtsError, UsageError

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _write_sidecar(primary_out: Path, args: argparse.Namespace) -> None:
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    payload["command"] = args.func.__name__.removeprefix("_cmd_")
    target = primary_out / "run.json" if primary_out.is_dir() else Path(str(primary_out) + ".run.json")
    corpus.write_lines(target, [json.dumps(payload, indent=2, sort_keys=True)])


def _cmd_synth(args) -> int:
    config = synth.SynthConfig(
        n_identities=args.identities,
        sets_per_identity=(args.sets_min, args.sets_max),
        exemplars_per_set=(args.exemplars_min, args.exemplars_max),
        dim=args.dim,
        identity_spread=args.sigma_id,
        condition_spread=args.sigma_cond,
        transitivity=args.tau,
        descriptor_floor=args.floor,
        seed=args.seed,
        noise=args.noise,
        set_spacing=args.spacing,
    )
    gallery, _ = synth.generate(config)
    out = Path(args.out)
    corpus.save_gallery(gallery, out)
    print(f"wrote {len(gallery)} sets (dim {gallery.dim}) to {out}")
    return 0


def _cmd_sample(args) -> int:
    gallery = corpus.load_gallery(args.gallery)
    reduced = [sampling.robust_select(s, args.samples, args.gamma) for s in gallery]
    out_gallery = corpus.Gallery(sets=tuple(reduced), labels=gallery.labels)
    out = Path(args.out)
    corpus.save_gallery(out_gallery, out)
    kept = sum(s.size for s in reduced)
    total = sum(s.size for s in gallery)
    print(f"reduced {total} exemplars to {kept} across {len(gallery)} sets -> {out}")
    return 0


def _csv_field(text: str) -> str:
    """`text` as one RFC 4180 field, quoted only where it must be."""
    csv.writer(buf := io.StringIO()).writerow([text])
    return buf.getvalue().removesuffix("\r\n")


def _cmd_energy(args) -> int:
    gallery = corpus.load_gallery(args.gallery)
    out = Path(args.out)
    skipped = 0
    lines = ["set_id,lambda2_ratio,lambda3_ratio"]
    for s in gallery:
        try:
            r2, r3 = sampling.energy_report(s)
        except DegenerateSetError:
            skipped += 1
            continue
        lines.append(f"{_csv_field(s.set_id)},{r2!r},{r3!r}")
    corpus.write_lines(out, lines)
    if skipped:
        print(f"skipped {skipped} sets without variation", file=sys.stderr)
    print(f"wrote kernel energy ratios for {len(gallery) - skipped} sets to {out}")
    return 0


def _cmd_proxies(args) -> int:
    gallery = corpus.load_gallery(args.gallery)
    table = retrieval.select_proxies(gallery, args.baseline, args.k)
    corpus.save_proxies(table, args.out)
    print(f"wrote {args.k} proxies per set for {len(gallery)} sets to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    gallery = corpus.load_gallery(args.gallery)
    table = corpus.load_proxies(args.proxies)
    features = metafeat.build_training_corpus(
        gallery,
        table,
        baseline=args.baseline,
        n_train_sets=args.train_sets,
        cap=args.cap,
        seed=args.seed,
    )
    corpus.save_features(features, args.out)
    n_pos = int(np.sum(features.label == 1.0))
    print(f"wrote {len(features)} features ({n_pos} positive) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = svr.SvrConfig(epsilon=args.epsilon, cost=args.cost, kernel_gamma=args.gamma)
    features = corpus.load_features(args.features)
    model = svr.train(features, config)
    corpus.save_model(model, args.out)
    print(
        f"trained on {len(features)} features: {model.n_support} support vectors, "
        f"bias {model.bias:.4f}, KKT gap {model.kkt_violation:.2e} -> {args.out}"
    )
    return 0


def _retrieval_config(args) -> tuple[retrieval.RetrievalConfig, corpus.ProxyTable | None]:
    # every artifact given is loaded; the library rules on what a method needs
    model = None if args.model is None else corpus.load_model(args.model)
    proxies = None if args.proxies is None else corpus.load_proxies(args.proxies)
    config = retrieval.RetrievalConfig(
        baseline=args.baseline, method=args.method, k_p=args.k, model=model
    )
    return config, proxies


def _cmd_retrieve(args) -> int:
    gallery = corpus.load_gallery(args.gallery)
    config, proxies = _retrieval_config(args)
    result = retrieval.Ranker(gallery, config, proxies).rank(args.query)
    retrieval.save_ranking(result, args.out)
    print(f"ranked {len(result.ranking)} sets for query {args.query!r} -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    gallery = corpus.load_gallery(args.gallery)
    config, proxies = _retrieval_config(args)
    records = evaluation.evaluate_all(gallery, config, proxies)
    evaluation.write_reports(records, args.out_dir, args.top_k)
    mean_anr = float(np.mean([r.anr for r in records]))
    print(f"evaluated {len(records)} queries, mean ANR {mean_anr:.4f} -> {args.out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qts", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a labelled synthetic gallery")
    defaults = synth.SynthConfig()
    p.add_argument("--out", required=True)
    p.add_argument("--identities", type=int, default=defaults.n_identities)
    p.add_argument("--sets-min", type=int, default=defaults.sets_per_identity[0])
    p.add_argument("--sets-max", type=int, default=defaults.sets_per_identity[1])
    p.add_argument("--dim", type=int, default=defaults.dim)
    p.add_argument("--tau", type=float, default=defaults.transitivity)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--exemplars-min", type=int, default=defaults.exemplars_per_set[0])
    p.add_argument("--exemplars-max", type=int, default=defaults.exemplars_per_set[1])
    p.add_argument("--sigma-id", type=float, default=defaults.identity_spread)
    p.add_argument("--sigma-cond", type=float, default=defaults.condition_spread)
    p.add_argument("--floor", type=float, default=defaults.descriptor_floor)
    p.add_argument("--noise", type=float, default=defaults.noise)
    p.add_argument("--spacing", type=float, default=defaults.set_spacing)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sample", help="robust-select every set of a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("--samples", type=int, default=sampling.DEFAULT_SAMPLES)
    p.add_argument("--gamma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("energy", help="kernel PCA energy ratios per set")
    p.add_argument("--gallery", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("proxies", help="nearest-set table under a baseline")
    p.add_argument("--gallery", required=True)
    p.add_argument("--baseline", choices=similarity.BASELINES, default=similarity.EXEMPLAR)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_proxies)

    p = sub.add_parser("extract", help="unsupervised training features")
    p.add_argument("--gallery", required=True)
    p.add_argument("--proxies", required=True)
    p.add_argument("--baseline", choices=similarity.BASELINES, default=similarity.EXEMPLAR)
    p.add_argument("--train-sets", type=int, default=metafeat.DEFAULT_TRAIN_SETS)
    p.add_argument("--cap", type=int, default=metafeat.DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="fit the similarity regressor")
    p.add_argument("--features", required=True)
    defaults = svr.SvrConfig()
    p.add_argument("--epsilon", type=float, default=defaults.epsilon)
    p.add_argument("--cost", type=float, default=defaults.cost)
    p.add_argument("--gamma", type=float, default=defaults.kernel_gamma)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    for name in ("retrieve", "evaluate"):
        p = sub.add_parser(name, help=f"{name} under a configured method")
        p.add_argument("--gallery", required=True)
        p.add_argument("--method", choices=retrieval.METHODS, default=retrieval.METHOD_BASELINE)
        p.add_argument("--baseline", choices=similarity.BASELINES, default=similarity.EXEMPLAR)
        p.add_argument("--model", default=None)
        p.add_argument("--proxies", default=None)
        p.add_argument("--k", type=int, default=10)
        if name == "retrieve":
            p.add_argument("--query", required=True)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_retrieve)
        else:
            p.add_argument("--top-k", type=int, default=evaluation.DEFAULT_TOP_K)
            p.add_argument("--out-dir", required=True)
            p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        _write_sidecar(Path(getattr(args, "out", None) or args.out_dir), args)
        return status
    except (UsageError, ValueError) as exc:  # ValueError: invalid parameter combinations
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LqtsError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
