"""Retrieval quality measurement: average normalized rank and friends.

ANR averages the ranks of the matching sets and rescales so 0 means all
matches were retrieved first and 1 means they all came last. Identity
labels enter only here, through the gallery's evaluation-only accessor.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Gallery, ProxyTable, _check_ids, is_count, write_lines
from .errors import CorpusError
from .retrieval import RankedResult, Ranker, RetrievalConfig

log = logging.getLogger(__name__)

DEFAULT_TOP_K = 100
CDF_THRESHOLDS = [round(0.05 * i, 2) for i in range(21)]


@dataclass(frozen=True)
class AnrRecord:
    """Per-query outcome: gallery size n (query excluded), the c matching
    sets' 1-based ranks, and their average normalized rank."""

    query_id: str
    n: int
    c: int
    ranks: tuple[int, ...]
    anr: float


def anr(n: int, ranks) -> float:
    """(sum of match ranks - m) / (M - m) with m, M the best and worst
    attainable sums; 0 is perfect retrieval, 1 the worst possible."""
    ranks = sorted(int(r) for r in ranks)
    c = len(ranks)
    if c == 0:
        raise ValueError("at least one matching rank is required")
    if len(set(ranks)) != c:
        raise ValueError("ranks must be distinct")
    if ranks[0] < 1 or ranks[-1] > n:
        raise ValueError(f"ranks must lie in [1, {n}]")
    if c == n:
        raise ValueError("all gallery sets match the query: ANR undefined")
    m = c * (c + 1) / 2.0
    big_m = c * (2 * n - c + 1) / 2.0
    return float((sum(ranks) - m) / (big_m - m))


def anr_record(result: RankedResult, labels) -> AnrRecord:
    """One ranked query's record: its matches are the ranked sets that
    carry the query's label."""
    want = labels[result.query_id]
    ranks = tuple(pos for pos, (sid, _) in enumerate(result.ranking, 1) if labels[sid] == want)
    n = len(result.ranking)
    return AnrRecord(result.query_id, n, len(ranks), ranks, anr(n, ranks))


def admissible_query_ids(gallery: Gallery) -> tuple[list[str], int]:
    """set_ids usable as evaluation queries in gallery order, plus the
    number excluded. A query is admissible when its identity has at least
    two sets but not all of them: otherwise its retrieval has no right
    answer, or no wrong one."""
    labels = gallery.evaluation_labels()
    counts: dict[str, int] = defaultdict(int)
    for sid in gallery.set_ids:
        counts[labels[sid]] += 1
    admissible = [sid for sid in gallery.set_ids if 2 <= counts[labels[sid]] < len(gallery)]
    return admissible, len(gallery) - len(admissible)


def evaluate_all(
    gallery: Gallery,
    config: RetrievalConfig,
    proxies: ProxyTable | None = None,
) -> list[AnrRecord]:
    """Use every admissible gallery set as the query in turn.

    Queries that `admissible_query_ids` excludes are skipped; the skip
    count is logged. A gallery with no admissible query raises
    CorpusError.
    """
    labels = gallery.evaluation_labels()
    queries, skipped = admissible_query_ids(gallery)
    if not queries:
        raise CorpusError(
            f"no admissible query: each identity has one or all of the {len(gallery)} sets"
        )
    if skipped:
        log.info("excluded %d queries whose identity has one set or every set", skipped)
    ranker = Ranker(gallery, config, proxies)
    return [anr_record(ranker.rank(qid), labels) for qid in queries]


def anr_cdf(records, thresholds) -> list[tuple[float, float]]:
    """Fraction of queries with ANR <= t, for each threshold t."""
    if not records:
        raise ValueError("no records to aggregate")
    values = np.array([r.anr for r in records])
    return [(float(t), float(np.mean(values <= t))) for t in thresholds]


@dataclass(frozen=True)
class RankKStat:
    """Aggregate over queries having exactly k matches in the gallery."""

    k: int
    n_queries: int
    prob_hit: float  # share of queries with >= 1 match in the top K
    mean_count: float  # mean number of matches in the top K


def rank_k_stats(records, top_k: int = DEFAULT_TOP_K) -> list[RankKStat]:
    """Group queries by their number of matches k and report top-K hit
    probability and mean retrieved-match count per group. A top_k that is
    not an integer >= 1 raises ValueError."""
    if not is_count(top_k):
        raise ValueError(f"top_k must be an integer, got {top_k!r}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    groups: dict[int, list[AnrRecord]] = defaultdict(list)
    for r in records:
        groups[r.c].append(r)
    out = []
    for k in sorted(groups):
        recs = groups[k]
        hits = [sum(1 for r in rec.ranks if r <= top_k) for rec in recs]
        out.append(
            RankKStat(
                k=k,
                n_queries=len(recs),
                prob_hit=float(np.mean([h >= 1 for h in hits])),
                mean_count=float(np.mean(hits)),
            )
        )
    return out


def independence_prediction(p1: float, n1: float, k: int) -> tuple[float, float]:
    """Expected top-K behaviour for k matches if ranks were independent:
    hit probability 1 - (1 - p1)^k and match count k * n1, extrapolated
    from the single-match statistics (p1, n1)."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    if not is_count(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return float(1.0 - (1.0 - p1) ** k), float(k * n1)


# ---------------------------------------------------------------------------
# report files


def write_reports(records, out_dir, top_k: int = DEFAULT_TOP_K) -> None:
    """Write one evaluation's reports into out_dir, creating it: anr.tsv,
    cdf.csv at CDF_THRESHOLDS and rank{top_k}.csv (rank100.csv by default).
    No records or a top_k that is not an integer >= 1 raise ValueError, and
    a query id that `write_anr_report` rejects raises CorpusError, before
    anything is created."""
    cdf = anr_cdf(records, CDF_THRESHOLDS)
    rank_k_stats(records, top_k)  # the top_k check, before anything is written
    _check_ids(r.query_id for r in records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_anr_report(records, out / "anr.tsv")
    write_lines(out / "cdf.csv", ["threshold,fraction", *(f"{t:g},{frac!r}" for t, frac in cdf)])
    write_rank_k_report(records, out / f"rank{top_k}.csv", top_k)


def write_anr_report(records, path) -> None:
    _check_ids(r.query_id for r in records)
    rows = (f"{r.query_id}\t{r.n}\t{r.c}\t{repr(r.anr)}" for r in records)
    write_lines(path, ["query_id\tn\tc\tanr", *rows])


def write_rank_k_report(records, path, top_k: int = DEFAULT_TOP_K) -> None:
    """Per-k empirical stats next to the independence-based predictions
    extrapolated from the k = 1 group (nan when that group is absent)."""
    stats = rank_k_stats(records, top_k)
    by_k = {s.k: s for s in stats}
    base = by_k.get(1)
    lines = ["k,empirical_prob,predicted_prob,empirical_count,predicted_count"]
    for s in stats:
        if base is not None:
            pred_p, pred_c = independence_prediction(base.prob_hit, base.mean_count, s.k)
        else:
            pred_p, pred_c = float("nan"), float("nan")
        lines.append(f"{s.k},{repr(s.prob_hit)},{repr(pred_p)},{repr(s.mean_count)},{repr(pred_c)}")
    write_lines(path, lines)
