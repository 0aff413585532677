"""Named workloads of the pipeline benchmark.

Each workload is one seeded synthetic gallery plus the pipeline settings
of ``scripts/run_pipeline.py`` that run on it. The data seed defaults to
the acceptance seed; the run seed given to ``run.py --seed`` only orders
the queries, so quality metrics repeat exactly across run seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ACCEPTANCE_SEED = 11
PROXY_K = 10  # proxy-table width built offline; k_p <= PROXY_K is used at query time
CORPUS_SEED = 5
TRAIN_SETS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    baseline: str
    cap: int
    k_p: int
    # robust-selection target per set; None runs no robust selection
    samples: int | None
    synth: dict = field(default_factory=dict)
    # minimum lqts-over-baseline gain at ANR < 0.3, in points; None: no gate
    gate_pp: float | None = None
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exemplar-cap2000",
            baseline="exemplar",
            cap=2000,
            k_p=5,
            samples=10,
            gate_pp=5.0,
            why=(
                "acceptance exemplar gallery (173 sets) at cap 2000: SVR training owns the "
                "build and 1.4k-SV prediction plus per-pair work own query latency"
            ),
        ),
        Workload(
            name="exemplar-train",
            baseline="exemplar",
            cap=6000,
            k_p=5,
            samples=10,
            gate_pp=5.0,
            why=(
                "acceptance exemplar lane (173 sets, cap 6000): SVR training owns the build "
                "and 4k-SV prediction plus per-pair work own query latency"
            ),
        ),
        Workload(
            name="subspace-lane",
            baseline="subspace",
            cap=12000,
            k_p=1,
            samples=None,
            synth={"noise": 0.25, "set_spacing": 2.2},
            gate_pp=5.0,
            why=(
                "acceptance subspace lane (182 sets, cap 12000): SVD similarity, no sampling, "
                "twice the SVR rows and 20x fewer SVs than exemplar-train"
            ),
        ),
        Workload(
            name="exemplar-gallery",
            baseline="exemplar",
            cap=2000,
            k_p=5,
            samples=10,
            synth={"n_identities": 100},
            why=(
                "307 exemplar sets, cap 2000: n^2 pair work and the per-pair cache dominate "
                "while the SVR is small"
            ),
        ),
    )
}
