"""A fixed speed probe, to express timings at one reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by a
third or more over minutes while the code stays the same. A probe of
fixed work that uses none of the code under test, run between the timed
parts of a workload, measures that drift: a part's seconds times
PROBE_REF_S over the mean time of the probes just before and just after
it is the part's time at the speed where the probe takes PROBE_REF_S.
A change to the program moves the part's time and not the probe's, so
it moves the scaled time by the same factor as the raw one.

The probe mixes the kinds of work the pipeline does: a coordinate-
descent loop of small numpy vector operations (as in ``svr.train``), an
RBF kernel of a query batch against 1400 support vectors (as in
``svr.predict``), many calls on 64-vectors (as in ``cosine_sim``),
pure-Python dict and sort work (as in the retrieval layer's per-pair
bookkeeping) and small GEMMs (as in ``max_max_sim``). Slow spells of the
machine slow these by different factors, so the mix matters. One probe
call takes about 50 ms on a calm 2-vCPU Xeon VM; a probe keeps the
fastest of PROBE_CALLS calls, and SpeedLog probes after every
PROBE_EVERY_S of timed work.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_CALLS = 2
PROBE_EVERY_S = 1.0
# the probe's time on a calm 2-vCPU Xeon VM with one BLAS thread
PROBE_REF_S = 0.05

_RNG = np.random.default_rng(20260101)
_ROWS = _RNG.standard_normal((2000, 24))
_ROWS_SQ = np.sum(_ROWS * _ROWS, axis=1)
_A = _RNG.standard_normal((300, 48))
_B = _RNG.standard_normal((1000, 48))
_Q = _RNG.standard_normal((860, 4))
_SV = _RNG.standard_normal((1400, 4))
_COEF = _RNG.standard_normal(1400)
_U = _RNG.standard_normal((64, 64))
_KEYS = [(f"s{i % 97}", f"t{i % 89}") for i in range(4000)]
_VALUES = _RNG.standard_normal(4000).tolist()


def _descent(steps: int = 180) -> float:
    l = _ROWS.shape[0]
    sign = np.concatenate([np.ones(l), -np.ones(l)])
    g = np.linspace(-1.0, 1.0, 2 * l)
    theta = np.zeros(2 * l)
    for _ in range(steps):
        crit = -sign * g
        i = int(np.argmax(np.where(theta < 1.0, crit, -np.inf)))
        j = int(np.argmin(np.where(theta > -1.0, crit, np.inf)))
        ki = np.exp(-0.05 * np.maximum(_ROWS_SQ + _ROWS_SQ[i % l] - 2.0 * (_ROWS @ _ROWS[i % l]), 0.0))
        kj = np.exp(-0.05 * np.maximum(_ROWS_SQ + _ROWS_SQ[j % l] - 2.0 * (_ROWS @ _ROWS[j % l]), 0.0))
        theta[i] += 1e-3
        theta[j] -= 1e-3
        kdiff = ki - kj
        g += 1e-3 * sign * np.concatenate([kdiff, kdiff])
    return float(g[0])


def _kernel_block(repeats: int = 1) -> float:
    total = 0.0
    sq_a = np.sum(_A * _A, axis=1)
    sq_b = np.sum(_B * _B, axis=1)
    for _ in range(repeats):
        d2 = np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (_A @ _B.T), 0.0)
        total += float(np.exp(-0.02 * d2).sum())
    return total


def _predict_block(repeats: int = 1) -> float:
    total = 0.0
    sq_q = np.sum(_Q * _Q, axis=1)
    sq_s = np.sum(_SV * _SV, axis=1)
    for _ in range(repeats):
        d2 = sq_q[:, None] + sq_s[None, :] - 2.0 * (_Q @ _SV.T)
        total += float((np.exp(-0.5 * np.maximum(d2, 0.0)) @ _COEF).sum())
    return total


def _tiny_calls(repeats: int = 2500) -> float:
    total = 0.0
    for i in range(repeats):
        u = _U[i % 64]
        total += min(abs(float(u @ _U[(i * 7) % 64])), 1.0)
    return total


def _bookkeeping(repeats: int = 3) -> float:
    total = 0.0
    for _ in range(repeats):
        cache: dict = {}
        for key, value in zip(_KEYS, _VALUES):
            hit = cache.get(key)
            cache[key] = value if hit is None else max(hit, value)
        ranked = sorted(cache.items(), key=lambda kv: (-kv[1], kv[0]))
        total += sum(v for _, v in ranked[:50])
    return total


def probe_once() -> float:
    """Seconds one call of the fixed probe work takes."""
    t = time.perf_counter()
    _descent()
    _predict_block()
    _tiny_calls()
    _bookkeeping()
    _kernel_block()
    return time.perf_counter() - t


def probe() -> float:
    """The fastest of PROBE_CALLS probe calls, in seconds."""
    return min(probe_once() for _ in range(PROBE_CALLS))


class SpeedLog:
    """Probes taken between the timed parts of one process's work.

    part() records a part as [seconds, index of the next probe] and
    probes once PROBE_EVERY_S of timed work has passed since the last
    probe; `paused` is the time spent probing, to be left out of any
    timing that spans it. A log that is off records parts and never
    probes."""

    def __init__(self, on: bool = True):
        self.on = on
        self.probes: list[float] = []
        self.paused = 0.0
        self._since = 0.0

    def probe(self) -> None:
        if self.on:
            t = time.perf_counter()
            self.probes.append(probe())
            self._since = 0.0
            self.paused += time.perf_counter() - t

    def part(self, seconds: float) -> list:
        mark = [seconds, len(self.probes)]
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.probe()
        return mark


def scaled(parts: dict, probes: list[float]) -> dict[str, float]:
    """Each part's seconds at reference speed, from parts recorded by
    SpeedLog.part and that log's probes; unscaled when there are none."""
    out = {}
    for key, (seconds, after) in parts.items():
        near = probes[max(after - 1, 0) : after + 1]
        out[key] = seconds * PROBE_REF_S * len(near) / sum(near) if near else seconds
    return out
