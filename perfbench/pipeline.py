"""One workload process of the pipeline benchmark.

Runs the ``scripts/run_pipeline.py`` pipeline in-process, in three timed
phases, and prints one JSON object as its last stdout line:

* set-up: ``import lqts``, ``synth.generate``, ``save_gallery`` and
  ``load_gallery``, timed from the moment ``run.py`` started this process;
* build: robust selection (exemplar workloads), ``select_proxies(k=10)``,
  ``build_training_corpus(seed=5)``, ``svr.train``, ``save_proxies`` and
  ``save_model``;
* evaluation: reload the proxy table and model, rank every admissible
  query with ``baseline``, ``arith`` and ``lqts`` from a fresh ``Ranker``
  each, and compute ANR. ``geom`` and ``quad`` run the same
  ``_simple_scores`` path as ``arith`` and are left out.

Queries run closed loop, one client, back to back, in an order drawn
from the run seed. Every stage call and every query is an operation;
a failed check marks its operation failed.

The build runs MIN_BUILDS times back to back, then the evaluation, on
the latest build, at least MIN_EVALS times and until ``--seconds`` of
both are measured. Every build must reproduce the first one's proxy
table and model, and every evaluation the first one's ANR records and
rankings, exactly.

Each timed part (a stage call of a build, the reload, one query of one
method, the rest of a build or an evaluation) is recorded with the speed
probes taken around it (``speed.py``; a probe runs, untimed, after
set-up and after every PROBE_EVERY_S of timed work), so that it can be
scaled to seconds at reference speed. Build time is the sum over its
parts of each part's median over builds, and evaluation time the same
over its parts; a query's lqts latency is its median over evaluations
before p50/p90 are taken over queries. ``run.py`` takes these medians
over the repetitions of all its measurement processes together. The
unscaled figures are reported under ``raw``. Traced runs (``--seconds``
0) do not probe. ``--setup-only`` stops after set-up and two probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import speed
from workloads import CORPUS_SEED, PROXY_K, TRAIN_SETS, WORKLOADS, Workload

ANR_THRESHOLD = 0.3
# repetitions of identical work whose medians are reported
MIN_BUILDS = 2
MIN_EVALS = 2


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # when a dict, each call goes into it as log.part(seconds), keyed
        # "position/what"
        self.timings: dict | None = None
        self.log = speed.SpeedLog(on=False)

    def call(self, what: str, fn, *args, **kwargs):
        """One stage call; an exception fails it and aborts the workload."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.fail(what, traceback.format_exc(limit=2))
            raise
        if self.timings is not None:
            self.timings[f"{len(self.timings)}/{what}"] = self.log.part(time.perf_counter() - t)
        return result

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {why}")

    def check(self, what: str, ok: bool, why: str) -> None:
        """A check on an operation already counted as attempted."""
        if not ok:
            self.fail(what, why)


def setup(workload: Workload, data_seed: int, work: Path, ops: Ops):
    """Generate the workload gallery, write it and read it back."""
    from lqts import corpus, synth

    cfg = synth.SynthConfig(seed=data_seed, **workload.synth)
    generated, _ = ops.call("synth.generate", synth.generate, cfg)
    ops.call("corpus.save_gallery", corpus.save_gallery, generated, work / "gallery")
    gallery = ops.call("corpus.load_gallery", corpus.load_gallery, work / "gallery")
    return generated, gallery


def build(workload: Workload, gallery, work: Path, ops: Ops):
    """Reduce the sets, build the proxy table, extract, train and save."""
    from lqts import corpus, metafeat, retrieval, sampling, svr
    from lqts.corpus import Gallery

    if workload.samples is not None:
        reduced = tuple(
            ops.call("sampling.robust_select", sampling.robust_select, s, workload.samples)
            for s in gallery
        )
        gallery = Gallery(sets=reduced, labels=gallery.labels)
    proxies = ops.call(
        "retrieval.select_proxies", retrieval.select_proxies, gallery, workload.baseline, PROXY_K
    )
    features = ops.call(
        "metafeat.build_training_corpus",
        metafeat.build_training_corpus,
        gallery,
        proxies,
        workload.baseline,
        n_train_sets=TRAIN_SETS,
        cap=workload.cap,
        seed=CORPUS_SEED,
    )
    model = ops.call("svr.train", svr.train, features)
    ops.call("corpus.save_proxies", corpus.save_proxies, proxies, work / "proxies.tsv")
    ops.call("corpus.save_model", corpus.save_model, model, work / "model.qts")
    return gallery, proxies, model


def svr_check(model, ops: Ops) -> None:
    """KKT gap within tolerance, unless the solver ran out of passes."""
    updates = len(model.objective_trace) - 1
    hit = updates >= model.config.max_passes
    ops.check(
        "svr.train",
        hit or model.kkt_violation <= model.config.kkt_tolerance,
        f"KKT gap {model.kkt_violation} above {model.config.kkt_tolerance}",
    )


def method_configs(workload: Workload, model) -> dict:
    from lqts.retrieval import RetrievalConfig

    base = workload.baseline
    return {
        "baseline": RetrievalConfig(method="baseline", baseline=base),
        "arith": RetrievalConfig(method="arith", baseline=base, k_p=workload.k_p),
        "lqts": RetrievalConfig(method="lqts", baseline=base, k_p=workload.k_p, model=model),
    }


class Checker:
    """Per-ranking output checks, timed apart from the evaluation."""

    def __init__(self, gallery, ops: Ops):
        self.ids = set(gallery.set_ids)
        self.ops = ops
        self.baseline: dict[str, dict[str, float]] = {}
        self.seconds = 0.0

    def ranking(self, method: str, result) -> None:
        """Check one ranked query; any failed check fails the query once."""
        t = time.perf_counter()
        ids = [sid for sid, _ in result.ranking]
        scores = [score for _, score in result.ranking]
        why = []
        if len(ids) != len(self.ids) - 1 or set(ids) != self.ids - {result.query_id}:
            why.append("ranking is not a permutation of the other gallery sets")
        if any(a < b for a, b in zip(scores, scores[1:])):
            why.append("scores increase along the ranking")
        if method == "baseline":
            self.baseline[result.query_id] = dict(result.ranking)
        else:
            base = self.baseline.get(result.query_id, {})
            if any(score < base.get(sid, float("inf")) for sid, score in result.ranking):
                why.append("a target scores below its baseline score")
        if why:
            self.ops.fail(f"query {method} {result.query_id}", "; ".join(why))
        self.seconds += time.perf_counter() - t


def anr_record(result, labels):
    """The AnrRecord evaluate_all builds for one ranked query."""
    from lqts import evaluation

    want = labels[result.query_id]
    ranks = tuple(
        pos for pos, (sid, _) in enumerate(result.ranking, start=1) if labels[sid] == want
    )
    n = len(result.ranking)
    return evaluation.AnrRecord(
        query_id=result.query_id, n=n, c=len(ranks), ranks=ranks, anr=evaluation.anr(n, ranks)
    )


def rank_pass(ranker, method: str, queries, checker: Checker, ops: Ops, labels):
    """Rank every query back to back; returns (latency per query id, as
    ops.log.part(seconds), ranking per query id, ANR records). Checks and
    probes run outside the latencies."""
    latencies, results, records = {}, {}, []
    for qid in queries:
        ops.attempted += 1
        t = time.perf_counter()
        try:
            result = ranker.rank(qid)
        except Exception:
            ops.fail(f"query {method} {qid}", traceback.format_exc(limit=2))
            continue
        latencies[qid] = ops.log.part(time.perf_counter() - t)
        records.append(anr_record(result, labels))
        checker.ranking(method, result)
        results[qid] = result.ranking
    return latencies, results, records


def evaluate(workload: Workload, gallery, proxies, model, work: Path, order, ops: Ops):
    """Reload artifacts and rank every admissible query with each method.

    Returns (seconds per part, per-method ANR records, lqts ranking per
    query id), each part as ops.log.part(seconds). The parts are the
    reload, each "method/query id" ranking, and "other" for the rest
    (Ranker construction, ANR); checks and speed probes are timed apart
    and left out."""
    from lqts import corpus
    from lqts.retrieval import Ranker

    paused = ops.log.paused
    t = time.perf_counter()
    loaded_proxies = ops.call("corpus.load_proxies", corpus.load_proxies, work / "proxies.tsv")
    loaded_model = ops.call("corpus.load_model", corpus.load_model, work / "model.qts")
    parts: dict = {"reload": ops.log.part(time.perf_counter() - t)}
    labels = gallery.evaluation_labels()
    checker = Checker(gallery, ops)
    records, rankings = {}, {}
    for method, config in method_configs(workload, loaded_model).items():
        ops.attempted += 1  # the method's evaluation, failed by the acceptance gate
        ranker = Ranker(gallery, config, loaded_proxies)
        lat, res, records[method] = rank_pass(ranker, method, order, checker, ops, labels)
        parts.update((f"{method}/{qid}", sec) for qid, sec in lat.items())
        if method == "lqts":
            rankings = res
    elapsed = time.perf_counter() - t - (ops.log.paused - paused) - checker.seconds
    parts["other"] = ops.log.part(elapsed - sum(sec for sec, _ in parts.values()))
    ops.check("corpus.load_proxies", loaded_proxies == proxies, "reloaded proxy table differs")
    ops.check("corpus.load_model", loaded_model == model, "reloaded model differs")
    return parts, records, rankings


def timed_build(workload: Workload, loaded, work: Path, ops: Ops, region):
    """One build from the loaded gallery: (parts, (gallery, proxies,
    model)), each part as ops.log.part(seconds). The parts are the stage
    calls, keyed "position/stage", and "other" for the rest."""
    ops.timings = parts = {}
    paused = ops.log.paused
    t = time.perf_counter()
    try:
        with region("build"):
            artifacts = build(workload, loaded, work, ops)
    finally:
        ops.timings = None
    elapsed = time.perf_counter() - t - (ops.log.paused - paused)
    parts["other"] = ops.log.part(elapsed - sum(sec for sec, _ in parts.values()))
    svr_check(artifacts[2], ops)
    return parts, artifacts


def quality(records) -> dict[str, float]:
    def frac(method):
        recs = records[method]
        return sum(r.anr < ANR_THRESHOLD for r in recs) / len(recs)

    lqts = records["lqts"]
    return {
        "anr03_lqts": frac("lqts"),
        "anr03_gain_pp": 100.0 * (frac("lqts") - frac("baseline")),
        "mean_anr_lqts": sum(r.anr for r in lqts) / len(lqts),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def typical(repetitions: list[dict]) -> dict:
    """Each part's median seconds over repetitions of identical work."""
    return {key: statistics.median(p[key] for p in repetitions if key in p) for key in repetitions[0]}


def lqts_latencies(parts: dict) -> list:
    return [sec for key, sec in parts.items() if key.startswith("lqts/")]


def timings(builds: list[dict], evals: list[dict]) -> dict[str, float]:
    """Build, evaluation and lqts latency metrics from the seconds per part
    of each build and each evaluation.

    Build and evaluation time are sums over parts of each part's median
    over repetitions; a query's lqts latency is its median over
    evaluations before p50/p90 are taken over queries."""
    build, ev = typical(builds), typical(evals)
    best = lqts_latencies(ev)
    return {
        "build_s": sum(build.values()),
        "eval_s": sum(ev.values()),
        "query_p50_ms": 1e3 * percentile(best, 50),
        "query_p90_ms": 1e3 * percentile(best, 90),
    }


def digest(*outputs) -> str:
    """A digest of outputs whose repr is exact (tuples, floats, strings)."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def run(
    workload: Workload,
    data_seed: int,
    order_seed: int,
    work: Path,
    t0: float,
    seconds: float = 0.0,
    tracer=None,
    setup_only: bool = False,
) -> dict:
    """Run one workload in this process and return its result record.

    t0 is the time.monotonic() reading taken when the process was
    started. With seconds > 0 the build runs MIN_BUILDS times and the
    evaluation, on the latest build, at least MIN_EVALS times and until
    `seconds` of build and evaluation time are measured; with seconds <= 0
    each runs once. With a tracer, the tracer is installed right after
    import and restored on return.
    """
    ops = Ops()
    out: dict = {"workload": workload.name, "data_seed": data_seed, "order_seed": order_seed}
    region = tracer.region if tracer is not None else (lambda name: nullcontext())
    try:
        with region("setup"):
            import lqts  # noqa: F401  (import time is part of set-up)

            if tracer is not None:
                import tracing

                tracing.install(tracer)
            generated, loaded = setup(workload, data_seed, work, ops)
        setup_s = time.monotonic() - t0
        ops.check("corpus.load_gallery", loaded == generated, "reloaded gallery differs")
        # probe the machine's speed after set-up and then after every
        # PROBE_EVERY_S of timed work (speed.py)
        log = ops.log = speed.SpeedLog(on=seconds > 0 or setup_only)
        log.probe()
        if setup_only:
            log.probe()
            out["probes_s"] = log.probes
            out["raw"] = {"setup_s": setup_s}
            out["setup_s"] = setup_s * speed.PROBE_REF_S / statistics.fmean(log.probes)
            return _finish(out, ops)

        from lqts import evaluation

        queries, excluded = evaluation.admissible_query_ids(loaded)
        order = random.Random(order_seed).sample(queries, len(queries))
        min_builds, min_evals = (MIN_BUILDS, MIN_EVALS) if seconds > 0 else (1, 1)
        builds, evals, built, first = [], [], None, None
        while len(builds) < min_builds:
            parts, artifacts = timed_build(workload, loaded, work, ops, region)
            builds.append(parts)
            if built is None:
                built = artifacts[1:]
            else:
                ops.attempted += 1
                ops.check(f"build {len(builds)}", artifacts[1:] == built, "proxies or model differ")
        while len(evals) < min_evals or sum(sec for p in builds + evals for sec, _ in p.values()) < seconds:
            with region("eval"):
                parts, records, rankings = evaluate(workload, *artifacts, work, order, ops)
            evals.append(parts)
            if first is None:
                first = records, rankings
                out["e2e_s"] = time.monotonic() - t0
            else:
                ops.attempted += 1
                ops.check(f"evaluation {len(evals)}", (records, rankings) == first, "outputs differ")

        model, (records, rankings) = artifacts[2], first
        out["quality"] = quality(records)
        if workload.gate_pp is not None:
            gain = out["quality"]["anr03_gain_pp"]
            ops.check("evaluate lqts", gain >= workload.gate_pp, f"gain {gain:.2f}pp below gate")
        out["builds_s"] = [sum(sec for sec, _ in p.values()) for p in builds]
        out["evals_s"] = [sum(sec for sec, _ in p.values()) for p in evals]
        out["probes_s"] = log.probes
        out["build_parts"], out["eval_parts"] = builds, evals
        out["outputs_sha256"] = digest(sorted(records.items()), sorted(rankings.items()))
        raw = timings(*([speed.scaled(p, []) for p in reps] for reps in (builds, evals)))
        out["raw"] = {"setup_s": setup_s, **raw}
        out["setup_s"] = speed.scaled({"setup": [setup_s, 0]}, log.probes)["setup"]
        out.update(timings(*([speed.scaled(p, log.probes) for p in reps] for reps in (builds, evals))))
        out["latency_samples"] = len(lqts_latencies(evals[0]))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["queries"], out["excluded_queries"] = len(queries), excluded
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer, model, len(queries), excluded)
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.restore()
    return _finish(out, ops)


def _finish(out: dict, ops: Ops) -> dict:
    out["attempted"], out["failed"], out["failures"] = ops.attempted, ops.failed, ops.failures[:20]
    return out


def environment() -> dict:
    """Library versions and the BLAS thread count this process runs with."""
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = int(getter())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data-seed", type=int, required=True)
    ap.add_argument("--order-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, default=None, help="run on this CPU only")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    out = run(
        WORKLOADS[args.workload],
        args.data_seed,
        args.order_seed,
        Path(args.work_dir),
        args.t0,
        seconds=args.seconds,
        tracer=tracer,
        setup_only=args.setup_only,
    )
    if tracer is not None and args.spans_out:
        tracer.save(args.spans_out)
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
