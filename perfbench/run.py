#!/usr/bin/env python3
"""Pipeline benchmark of the lqts reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exemplar-cap2000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload subspace-lane --seed 1 --trace 1
    python3 perfbench/run.py --workload exemplar-cap2000 --data-seed 12 --seed 1

Every measurement runs in a fresh process (``perfbench/pipeline.py``)
with one BLAS thread and ``src`` on the import path. ``--data-seed``
picks the synthetic gallery (default: the acceptance seed 11); ``--seed``
orders the queries. With ``--trace 0`` the command first times set-up in
SETUP_REPEATS processes one after the other, then runs the measurement
in one process per CPU, up to MEASURE_CPUS, each pinned to its own CPU
and all at once. Each measurement process builds and evaluates
repeatedly (see pipeline.py); bursts of slowness on a shared VM hit each
vCPU on its own (the correlation between the two vCPUs of a 2-vCPU VM
measured 0.07), so the second process doubles the repetitions that see
independent noise in the same time. The command prints the end-to-end
metrics: set-up time (median over the set-up processes), build and
evaluation time and lqts query latency p50/p90 (medians over all
repetitions of all measurement processes), peak RSS and three quality
metrics. The timings are in seconds at a reference machine speed: each
timed part is scaled by the fixed speed probe of speed.py run just
before and after it, so that the drift of a shared machine's speed does
not read as a change of the program. The environment line gives the
unscaled timings and the median probe time. Every measurement process
must produce the same ANR records and rankings.

With ``--trace 1`` it runs build and evaluation once untraced and once
traced, one process after the other, and prints the per-layer metrics,
which are not scaled, plus the tracing overhead (traced minus untraced
end-to-end time); spans are written to
``.perfbench_out/spans-<workload>.npz``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the environment. The full
record, with every worker's output, goes to ``.perfbench_out/``. The exit
code is 0 only when every operation and check passed; it is 2, with no
result printed, when the program under test is not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipeline  # noqa: E402
import speed  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# measurement processes run at once, each on a CPU of its own
MEASURE_CPUS = 2
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"
PIPELINE = Path(__file__).resolve().parent / "pipeline.py"

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "eval_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "anr03_lqts": "fraction",
    "anr03_gain_pp": "pp",
    "mean_anr_lqts": "anr",
}


# the end-to-end timings, which are scaled to reference speed
TIMINGS = ("setup_s", "build_s", "eval_s", "query_p50_ms", "query_p90_ms")


class WorkerError(RuntimeError):
    """A workload process died or printed no result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workers(root: Path, out_dir: Path, args, deadline: float, *extras: tuple) -> list[dict]:
    """Start one workload process per tuple of extra arguments, all at once,
    wait for every one of them and return their records in that order."""
    started = []
    try:
        for extra in extras:
            work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
            cmd = [
                sys.executable,
                str(PIPELINE),
                "--workload", args.workload,
                "--data-seed", str(args.data_seed),
                "--order-seed", str(args.seed),
                "--t0", repr(time.monotonic()),
                "--work-dir", work,
                *extra,
            ]
            proc = subprocess.Popen(
                cmd,
                cwd=root,
                env=worker_env(root),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            started.append((proc, work))
        records = []
        for proc, _ in started:
            try:
                stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired as exc:
                raise WorkerError(f"workload process exceeded the {DEADLINE_S:.0f}s deadline") from exc
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise WorkerError(f"workload process exited {proc.returncode}:\n{stderr[-4000:]}")
            records.append(json.loads(lines[-1]))
        return records
    finally:
        for proc, work in started:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
            shutil.rmtree(work, ignore_errors=True)


def run_worker(root: Path, out_dir: Path, args, deadline: float, *extra: str) -> dict:
    """Run one workload process and return its record."""
    return run_workers(root, out_dir, args, deadline, extra)[0]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "lqts").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def end_to_end(setups: list[dict], mains: list[dict], scale: bool = True) -> dict[str, float]:
    """The end-to-end metrics of set-up records and measurement records.

    Every part's time is scaled by the probes its own process took around
    it (or not, with scale=False) before the median over all repetitions
    of all measurement processes is taken."""

    def parts(r: dict, key: str) -> list[dict]:
        return [speed.scaled(p, r["probes_s"] if scale else []) for p in r[key]]

    setup = (r["setup_s"] if scale else r["raw"]["setup_s"] for r in setups)
    return {
        "setup_s": statistics.median(setup),
        **pipeline.timings(
            [p for r in mains for p in parts(r, "build_parts")],
            [p for r in mains for p in parts(r, "eval_parts")],
        ),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in mains),
        **mains[0]["quality"],
    }


def measurement_cpus() -> list[int | None]:
    """One CPU per measurement process: the first MEASURE_CPUS this process
    may run on, or a single unpinned process when it may run on one."""
    cpus = sorted(os.sched_getaffinity(0))[:MEASURE_CPUS]
    return cpus if len(cpus) > 1 else [None]


def measure(root: Path, out_dir: Path, args) -> tuple[list[dict], dict[str, float], dict]:
    """Run the workload processes of one invocation; (records, metrics,
    unscaled end-to-end timings)."""
    deadline = time.monotonic() + DEADLINE_S
    if not args.trace:
        setups = [
            run_worker(root, out_dir, args, deadline, "--setup-only") for _ in range(SETUP_REPEATS)
        ]
        mains = run_workers(
            root,
            out_dir,
            args,
            deadline,
            *(
                ("--seconds", str(args.seconds), *(() if cpu is None else ("--cpu", str(cpu))))
                for cpu in measurement_cpus()
            ),
        )
        records = setups + mains
        if any("error" in r for r in records):
            return records, {}, {}
        digests = {r["outputs_sha256"] for r in mains}
        for r in mains[1:]:
            r["attempted"] += 1
            if len(digests) > 1:
                r["failed"] += 1
                r["failures"].append("measurement processes disagree on ANR records or rankings")
        unscaled = end_to_end(setups, mains, scale=False)
        return records, end_to_end(setups, mains), unscaled
    spans = out_dir / f"spans-{args.workload}.npz"
    untraced = run_worker(root, out_dir, args, deadline)
    traced = run_worker(root, out_dir, args, deadline, "--trace", "1", "--spans-out", str(spans))
    records = [untraced, traced]
    if any("error" in r for r in records):
        return records, {}, {}
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["e2e_s"] - untraced["e2e_s"]
    return records, metrics, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="query-order seed")
    ap.add_argument("--data-seed", type=int, default=ACCEPTANCE_SEED, help="gallery seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="build and evaluation time to fill")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops and waits for its workload processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "lqts" / "__init__.py").is_file():
        print(f"error: no lqts package under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    try:
        records, metrics, unscaled = measure(root, out_dir, args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    errors = [r["error"] for r in records if "error" in r]
    correct = not errors and failed == 0 and set(metrics) == set(units)
    for r in records:
        for why in r["failures"]:
            print(f"FAILED {why}", file=sys.stderr)
    for err in errors:
        print(err, file=sys.stderr)

    main_rec = records[-1]
    env = dict(main_rec["env"])
    env.update(
        git_sha=git_sha(root),
        src_sha256=source_digest(root),
        workload=args.workload,
        data_seed=args.data_seed,
        order_seed=args.seed,
        trace=args.trace,
        builds=len(main_rec.get("builds_s", [])),
        evaluations=len(main_rec.get("evals_s", [])),
        latency_samples=main_rec.get("latency_samples"),
    )
    if unscaled:
        env["affinity_cpus"] = len(os.sched_getaffinity(0))
        env["measurement_processes"] = sum("build_parts" in r for r in records)
        env["probe_median_s"] = statistics.median(p for r in records for p in r["probes_s"])
        env["unscaled"] = {k: unscaled[k] for k in TIMINGS}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    name = f"{args.workload}-d{args.data_seed}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"env": env, "result": result, "records": records}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
