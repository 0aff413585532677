"""Span tracing for the benchmark's traced run, and the per-layer metrics
derived from it.

The tracer wraps each layer's public functions at the module names their
callers bind (``lqts.retrieval.max_max_sim`` is what ``GalleryScorer``
calls, ``lqts.retrieval.predict`` what ``Ranker`` calls), plus
``GalleryScorer.pair``/``compare`` and ``Ranker.rank``. Every call becomes
one span (name, start, end, parent, query id), kept in flat arrays in
memory and written out once the run ends. A layer's self time is its
spans' duration minus the time covered by their child spans. Untraced
runs never install the tracer, so their timings carry no wrapper cost.
"""

from __future__ import annotations

import logging
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SIMILARITY_FNS = ("max_max_sim", "max_corr", "fit_subspace", "cosine_sim")
RANK_METHODS = ("baseline", "arith", "lqts")
_SKIP_RE = re.compile(r"skipped (\d+) degenerate projections")

# per-layer metric -> unit, in report order; every traced run reports all
# of them, with 0 for a layer the workload does not run
LAYER_UNITS = {
    "synth.generate_s": "s",
    "synth.exemplars": "count",
    "corpus.save_gallery_s": "s",
    "corpus.load_gallery_s": "s",
    "corpus.artifact_io_s": "s",
    "sampling.robust_select_s": "s",
    "sampling.sets_reduced": "count",
    "sampling.fit_kpca_s": "s",
    "sampling.pre_image_s": "s",
    "sampling.pre_image_calls": "count",
    "sampling.pre_image_fallbacks": "count",
    **{f"similarity.{fn}_calls": "count" for fn in SIMILARITY_FNS},
    **{f"similarity.{fn}_s": "s" for fn in SIMILARITY_FNS},
    "similarity.exemplar_flops": "computed-flop",
    "retrieval.select_proxies_s": "s",
    "retrieval.select_proxies_self_s": "s",
    **{f"retrieval.rank_s.{m}": "s" for m in RANK_METHODS},
    **{f"retrieval.rank_self_s.{m}": "s" for m in RANK_METHODS},
    "retrieval.pair_lookups": "count",
    "retrieval.pairs_computed": "count",
    "retrieval.pair_cache_hits": "count",
    "retrieval.pair_cache_hit_ratio": "ratio",
    "retrieval.feature_rows": "count",
    "metafeat.build_training_corpus_s": "s",
    "metafeat.rows_pos": "count",
    "metafeat.rows_neg": "count",
    "metafeat.subspace_skips": "count",
    "svr.train_s": "s",
    "svr.rows": "count",
    "svr.pair_updates": "count",
    "svr.updates_per_s": "1/s",
    "svr.kkt_gap": "1",
    "svr.n_support": "count",
    "svr.sv_at_bound": "count",
    "svr.sv_free": "count",
    "svr.max_passes_hit": "count",
    "svr.predict_calls": "count",
    "svr.predict_rows": "count",
    "svr.predict_s": "s",
    "svr.kernel_evals": "count",
    "evaluation.queries": "count",
    "evaluation.excluded_queries": "count",
    "evaluation.anr_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# counters that must repeat exactly for a fixed workload and data seed
DETERMINISTIC_COUNTERS = (
    "svr.pair_updates",
    "svr.n_support",
    *(f"similarity.{fn}_calls" for fn in SIMILARITY_FNS),
    "retrieval.pairs_computed",
)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._query_id = -1
        self._next_query = 0
        self._undo: list = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self._query_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code (a stage)."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def patch(self, owner, attr: str, name: str, hook=None, name_of=None, query=False):
        """Replace owner.attr by a wrapper recording a span per call.

        hook(counts, args, result) records counters at the boundary;
        name_of(args) picks a per-call span name; query=True gives the
        call and everything under it a fresh query id.
        """
        fn = getattr(owner, attr)
        fixed = self._intern(name)

        def traced(*args, **kwargs):
            nid = self._intern(name_of(args)) if name_of else fixed
            outer = self._query_id
            if query:
                self._query_id = self._next_query
                self._next_query += 1
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._query_id = outer
            if hook is not None:
                hook(self.counts, args, out)
            return out

        setattr(owner, attr, traced)
        self.on_restore(lambda: setattr(owner, attr, fn))

    def on_restore(self, undo) -> None:
        self._undo.append(undo)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "query": np.frombuffer(self.query, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        a = self.arrays()
        n, k = a["start"].size, len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(own[i])) for i, nm in enumerate(self.names)}

    def misses(self) -> int:
        """compare spans directly under a pair span: pair-cache misses."""
        pair, compare = self._ids.get("retrieval.pair"), self._ids.get("retrieval.compare")
        if pair is None or compare is None:
            return 0
        a = self.arrays()
        is_compare = (a["name"] == compare) & (a["parent"] >= 0)
        return int(np.sum(a["name"][a["parent"][is_compare]] == pair))


class _SkipLog(logging.Handler):
    """Reads the degenerate-projection skip count from lqts.metafeat's log."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        m = _SKIP_RE.search(record.getMessage())
        if m:
            self.counts["metafeat.subspace_skips"] += int(m.group(1))


# ---------------------------------------------------------------------------
# boundary hooks: hook(counts, args, result)


def _on_generate(counts, args, out):
    counts["synth.exemplars"] += sum(s.size for s in out[0])


def _on_robust_select(counts, args, out):
    counts["sampling.sets_reduced"] += out is not args[0]


def _on_pre_image(counts, args, out):
    counts["sampling.pre_image_fallbacks"] += bool(np.any(np.all(args[0].exemplars == out, axis=1)))


def _on_max_max_sim(counts, args, out):
    a, b = args[0], args[1]
    counts["similarity.exemplar_flops"] += 2 * a.size * b.size * a.dim


def _on_predict(counts, args, out):
    rows = np.atleast_2d(args[1]).shape[0]
    counts["svr.predict_rows"] += rows
    counts["svr.kernel_evals"] += rows * args[0].n_support


def _on_corpus(counts, args, out):
    counts["metafeat.rows_pos"] += sum(1 for f in out if f.label == 1.0)
    counts["metafeat.rows_neg"] += sum(1 for f in out if f.label == 0.0)


def _on_train(counts, args, out):
    counts["svr.rows"] += len(args[0])


def _rank_name(args) -> str:
    return f"retrieval.rank.{args[0].config.method}"


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the lqts package."""
    from lqts import corpus, evaluation, metafeat, retrieval, sampling, svr, synth

    tracer.patch(synth, "generate", "synth.generate", _on_generate)
    for fn in ("save_gallery", "load_gallery", "save_proxies", "load_proxies", "save_model", "load_model"):
        tracer.patch(corpus, fn, f"corpus.{fn}")
    for mod in (sampling, metafeat, retrieval):
        tracer.patch(mod, "robust_select", "sampling.robust_select", _on_robust_select)
    tracer.patch(sampling, "fit_kpca", "sampling.fit_kpca")
    tracer.patch(sampling, "pre_image", "sampling.pre_image", _on_pre_image)
    for mod in (retrieval, metafeat):
        for fn in SIMILARITY_FNS:
            hook = _on_max_max_sim if fn == "max_max_sim" else None
            tracer.patch(mod, fn, f"similarity.{fn}", hook)
    tracer.patch(retrieval, "select_proxies", "retrieval.select_proxies")
    tracer.patch(retrieval.Ranker, "rank", "retrieval.rank", name_of=_rank_name, query=True)
    tracer.patch(retrieval.GalleryScorer, "pair", "retrieval.pair")
    tracer.patch(retrieval.GalleryScorer, "compare", "retrieval.compare")
    tracer.patch(retrieval, "predict", "svr.predict", _on_predict)
    tracer.patch(metafeat, "build_training_corpus", "metafeat.build_training_corpus", _on_corpus)
    tracer.patch(svr, "train", "svr.train", _on_train)
    tracer.patch(evaluation, "anr", "evaluation.anr")

    handler = _SkipLog(tracer.counts)
    log = logging.getLogger(metafeat.__name__)
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    tracer.on_restore(lambda: (log.removeHandler(handler), log.setLevel(level)))


def layer_metrics(tracer: Tracer, model, queries: int, excluded: int) -> dict[str, float]:
    """Every LAYER_UNITS metric except trace.overhead_s, from the spans and
    counters of one traced run plus the trained model and query counts."""
    spans = tracer.per_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    lookups = calls("retrieval.pair")
    hits = lookups - tracer.misses()
    coeff = model.coefficients
    at_bound = int(np.sum(np.abs(coeff) >= model.config.cost))
    updates = len(model.objective_trace) - 1
    out = {
        "synth.generate_s": secs("synth.generate"),
        "synth.exemplars": counts["synth.exemplars"],
        "corpus.save_gallery_s": secs("corpus.save_gallery"),
        "corpus.load_gallery_s": secs("corpus.load_gallery"),
        "corpus.artifact_io_s": sum(
            secs(f"corpus.{fn}") for fn in ("save_proxies", "load_proxies", "save_model", "load_model")
        ),
        "sampling.robust_select_s": secs("sampling.robust_select"),
        "sampling.sets_reduced": counts["sampling.sets_reduced"],
        "sampling.fit_kpca_s": secs("sampling.fit_kpca"),
        "sampling.pre_image_s": secs("sampling.pre_image"),
        "sampling.pre_image_calls": calls("sampling.pre_image"),
        "sampling.pre_image_fallbacks": counts["sampling.pre_image_fallbacks"],
        **{f"similarity.{fn}_calls": calls(f"similarity.{fn}") for fn in SIMILARITY_FNS},
        **{f"similarity.{fn}_s": secs(f"similarity.{fn}") for fn in SIMILARITY_FNS},
        "similarity.exemplar_flops": counts["similarity.exemplar_flops"],
        "retrieval.select_proxies_s": secs("retrieval.select_proxies"),
        "retrieval.select_proxies_self_s": own("retrieval.select_proxies"),
        **{f"retrieval.rank_s.{m}": secs(f"retrieval.rank.{m}") for m in RANK_METHODS},
        **{f"retrieval.rank_self_s.{m}": own(f"retrieval.rank.{m}") for m in RANK_METHODS},
        "retrieval.pair_lookups": lookups,
        "retrieval.pairs_computed": calls("retrieval.compare"),
        "retrieval.pair_cache_hits": hits,
        "retrieval.pair_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "retrieval.feature_rows": counts["svr.predict_rows"],
        "metafeat.build_training_corpus_s": secs("metafeat.build_training_corpus"),
        "metafeat.rows_pos": counts["metafeat.rows_pos"],
        "metafeat.rows_neg": counts["metafeat.rows_neg"],
        "metafeat.subspace_skips": counts["metafeat.subspace_skips"],
        "svr.train_s": secs("svr.train"),
        "svr.rows": counts["svr.rows"],
        "svr.pair_updates": updates,
        "svr.updates_per_s": updates / secs("svr.train") if secs("svr.train") else 0.0,
        "svr.kkt_gap": float(model.kkt_violation),
        "svr.n_support": model.n_support,
        "svr.sv_at_bound": at_bound,
        "svr.sv_free": model.n_support - at_bound,
        "svr.max_passes_hit": int(updates >= model.config.max_passes),
        "svr.predict_calls": calls("svr.predict"),
        "svr.predict_rows": counts["svr.predict_rows"],
        "svr.predict_s": secs("svr.predict"),
        "svr.kernel_evals": counts["svr.kernel_evals"],
        "evaluation.queries": queries,
        "evaluation.excluded_queries": excluded,
        "evaluation.anr_s": secs("evaluation.anr"),
        "trace.spans": len(tracer.start),
    }
    return {k: out[k] for k in LAYER_UNITS if k in out}
