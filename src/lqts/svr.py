"""Epsilon-insensitive support vector regression with an RBF kernel.

Trains the similarity predictor on labelled transitivity features
(targets 1 for same-identity, 0 for differing). Errors inside the wide
tube (default 0.4) are free; larger ones are charged at the heavy cost
(default 1000), so mislabelled training rows end up defining the
boundary while the correctly labelled bulk is pushed toward 0 and 1.

The dual box-constrained QP

    min  0.5 * b'Kb + eps * sum(a + a*) - y'b,   b = a - a*
    s.t. sum(b) = 0,  a, a* in [0, C]

is solved by pairwise coordinate descent with exact two-variable line
search and kernel rows computed on demand behind a small cache. The
solver state is theta, shape (2, l) (row 0 a, row 1 a*), and the KKT
criterion crit = -sign * gradient in one (4, l) array: rows 0-1, `upv`,
where a variable may still move up (-inf elsewhere) and rows 2-3, `lowv`,
where it may move down (+inf elsewhere). Each pair update takes the
maximal violator i (the argmax of upv) and, by second-order working-set
selection (Fan, Chen & Lin, JMLR 2005, as in LIBSVM), the j that may
move down and maximises b^2 / a, with b = max(upv) - crit_j > 0 and
a = 2 (1 - K_ij) floored at ETA_FLOOR, from the kernel row of i it
fetches anyway. Only the candidates, the entries of lowv below max(upv),
can win, and they are few (medians of 39 of about 4,500 entries of lowv
on the seed-11 `subspace-lane` bench corpus, 147 of about 2,900 on
`exemplar-cap2000`), so one pass over lowv finds them and b and a are
computed at those alone. An update then costs that pass, the argmax and
minimum that give i and the gap, and one broadcast subtract over the
active entries of all four rows, plus a refresh of the two entries whose
bound status may have changed; its scalars are Python floats.

Shrinking (Joachims 1999; LIBSVM section 5): every SHRINK_EVERY updates,
a row leaves the arrays when both of its variables sit where the gap
keeps them, each either only able to move up with crit below min(lowv)
or only able to move down with crit above max(upv). The loop, the row
cache (which narrows a cached row when it next reads it) and the
subtracts then run over the remaining rows. The criteria of the rows
that left are rebuilt from scratch, base - K[rows] @ beta, when the
active gap first falls to 10 * kkt_tolerance and again when it falls to
kkt_tolerance or the update budget runs out, and every row is active
again. So the stopping rule, the reported gap and the budget warning
always cover all 2l variables. The predictor is
h(x) = sum_i b_i * exp(-gamma ||x_i - x||^2) + bias.

`predict` evaluates it in row blocks whose kernel buffer stays under
PREDICT_BLOCK_BYTES: one GEMM of the augmented rows [x, |x|^2, 1] by a
per-model matrix [2 gamma sv, -gamma, -gamma |sv|^2]^T gives the
exponent -gamma ||x - sv||^2 directly, then the block is clamped to
<= 0, exponentiated in place and multiplied by the coefficients, so
memory does not grow with the number of rows. Training takes its
kernel rows from `_RowCache` and its criterion rebuilds and objective
from `_kernel_matvec`, which shares only the exponent weights with
`predict`, so models do not depend on how prediction is blocked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import is_count
from .errors import TrainingError

log = logging.getLogger(__name__)

ETA_FLOOR = 1e-12
COEFF_SUM_TOL = 1e-6
ROW_CACHE_BYTES = 64 * 2**20
# pair updates between two shrinking passes of `train`
SHRINK_EVERY = 1000
# kernel values per block when `train` multiplies kernel rows by the
# coefficients (criterion rebuilds and the final objective)
KERNEL_BLOCK_BYTES = 2**20
# prediction's rows x support-vectors kernel buffer: small enough to stay in
# a core's L2 cache, and for its exponent GEMM (7 multiply-adds per 8 bytes)
# to stay under OpenBLAS's small-matrix limit of 1e6, past which kernels
# that round rows differently mix; large enough that 1,397-SV blocks hold
# 46 rows
PREDICT_BLOCK_BYTES = 512 * 2**10


@dataclass(frozen=True)
class SvrConfig:
    epsilon: float = 0.4
    cost: float = 1000.0
    kernel_gamma: float = 0.2
    kkt_tolerance: float = 1e-3
    max_passes: int = 1_000_000

    def __post_init__(self):
        for name in ("epsilon", "cost", "kernel_gamma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite (got {value!r})")
        if not (np.isfinite(self.kkt_tolerance) and self.kkt_tolerance >= 0):
            raise ValueError(f"kkt_tolerance must be finite and >= 0 (got {self.kkt_tolerance!r})")
        if not is_count(self.max_passes) or self.max_passes < 0:
            raise ValueError(f"max_passes must be an integer >= 0 (got {self.max_passes!r})")


def _rbf_exponent_weights(sv: np.ndarray, gamma: float) -> np.ndarray:
    """(d + 2, len(sv)) W with [x, |x|^2, 1] @ W = -gamma ||x - sv||^2."""
    d = sv.shape[1]
    w = np.empty((d + 2, sv.shape[0]))
    w[:d] = (2.0 * gamma) * sv.T
    w[d] = -gamma
    w[d + 1] = -gamma * np.einsum("ij,ij->i", sv, sv)
    return w


@dataclass(frozen=True, eq=False)
class SvrModel:
    """Trained regressor: support vectors, dual coefficients, bias."""

    support_vectors: np.ndarray
    coefficients: np.ndarray
    bias: float
    config: SvrConfig
    kkt_violation: float = 0.0
    objective: float = 0.0
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        sv = np.atleast_2d(np.asarray(self.support_vectors, dtype=np.float64))
        if sv.size == 0:
            sv = sv.reshape(0, 5)
        coeff = np.asarray(self.coefficients, dtype=np.float64).reshape(-1)
        if sv.shape[0] != coeff.shape[0]:
            raise ValueError("support vector / coefficient count mismatch")
        if not (np.all(np.isfinite(sv)) and np.all(np.isfinite(coeff)) and np.isfinite(self.bias)):
            raise ValueError("support vectors, coefficients and bias must be finite")
        if coeff.size and abs(float(np.sum(coeff))) > COEFF_SUM_TOL:
            raise ValueError(
                f"dual coefficients must sum to zero (got {float(np.sum(coeff)):.3g})"
            )
        if np.any(np.abs(coeff) > self.config.cost + 1e-9):
            raise ValueError("dual coefficient exceeds the cost bound")
        if np.any(coeff == 0.0):
            raise ValueError("zero coefficients must not be stored")
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def n_support(self) -> int:
        return self.coefficients.shape[0]

    @cached_property
    def _exponent_weights(self) -> np.ndarray:
        return _rbf_exponent_weights(self.support_vectors, self.config.kernel_gamma)

    def __eq__(self, other):
        if not isinstance(other, SvrModel):
            return NotImplemented
        return (
            np.array_equal(self.support_vectors, other.support_vectors)
            and np.array_equal(self.coefficients, other.coefficients)
            and self.bias == other.bias
            and self.config.epsilon == other.config.epsilon
            and self.config.cost == other.config.cost
            and self.config.kernel_gamma == other.config.kernel_gamma
        )


def predict(model: SvrModel, x: np.ndarray):
    """h(x) = sum_i beta_i k(x_i, x) + bias, unclamped.

    Accepts one vector or a batch of rows; returns a float or an array
    to match. Rows go through in blocks whose rows x support-vectors
    kernel buffer stays under PREDICT_BLOCK_BYTES (two rows per block at
    least), so the kernel's working memory is bounded by the budget or
    two rows of support vectors, whatever the row count.

    Rounding: a row's estimate does not depend on the batch it comes in
    or its position there, so equal rows get equal estimates. The
    exponent GEMM always has at least two rows and stays below
    OpenBLAS's small-matrix size, where every row is rounded alike, and
    each row's coefficient sum is its own dot product. A BLAS that
    rounds a GEMM row by its position would move estimates by about
    1e-10 to 1e-9 on a 1.4k-SV model, whose coefficients sit at the cost
    bound 1000 and cancel in the sum, and could then split equal rows.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if not np.all(np.isfinite(rows)):
        raise TrainingError("prediction input contains non-finite values")
    n, d = rows.shape
    out = np.zeros(n)
    if model.n_support:
        block = max(2, min(n, PREDICT_BLOCK_BYTES // (8 * model.n_support)))
        aug = np.zeros((block, d + 2))
        aug[:, d + 1] = 1.0
        buf = np.empty((block, model.n_support))
        for start in range(0, n, block):
            stop = min(start + block, n)
            part, r = rows[start:stop], stop - start
            # a lone row rides with a stale or zero one: numpy sends one-row
            # products to gemv, which rounds unlike the GEMM
            a, k = aug[: max(r, 2)], buf[: max(r, 2)]
            aug[:r, :d] = part
            np.einsum("ij,ij->i", part, part, out=aug[:r, d])
            np.matmul(a, model._exponent_weights, out=k)
            # −γ‖x − s‖² ≤ 0 rounds above 0 only near a support vector; a
            # block with no such entry skips the clamp, which changes no bit
            if k.max() > 0.0:
                np.minimum(k, 0.0, out=k)
            np.exp(k, out=k)
            # one dot per row: gemv's summation order depends on the row's
            # position in the block
            np.vecdot(k[:r], model.coefficients, out=out[start:stop])
    out += model.bias
    return float(out[0]) if single else out


class _RowCache:
    """FIFO cache of at most ROW_CACHE_BYTES // (8 * active points) kernel
    rows, and two at least. `keep` copies no row: when next read, a row is
    narrowed through the masks kept since it was computed. So reads and
    FIFO order are those of narrowing every row at every `keep`, and no row
    holds more values than when it was computed or is held twice."""

    def __init__(self, x: np.ndarray, gamma: float):
        self.x = x
        self.gamma = gamma
        self.sq = np.sum(x * x, axis=1)
        self.masks: list[np.ndarray] = []
        self.rows: dict[int, tuple[int, np.ndarray]] = {}

    def keep(self, mask: np.ndarray) -> None:
        """Restrict to the points where mask is true, renumbering them in
        order; cached rows keep their values and their FIFO order."""
        pos = np.where(mask, np.cumsum(mask) - 1, -1).tolist()
        self.x, self.sq = self.x[mask], self.sq[mask]
        self.rows = {pos[i]: r for i, r in self.rows.items() if pos[i] >= 0}
        self.masks.append(mask)

    def row(self, i: int) -> np.ndarray:
        seen, r = self.rows.get(i, (len(self.masks), None))
        if r is None:
            d2 = np.maximum(self.sq + self.sq[i] - 2.0 * (self.x @ self.x[i]), 0.0)
            r = np.exp(-self.gamma * d2)
            if len(self.rows) >= max(2, ROW_CACHE_BYTES // (8 * self.sq.size)):
                self.rows.pop(next(iter(self.rows)))
        elif seen == len(self.masks):
            return r
        for mask in self.masks[seen:]:
            r = r[mask]
        self.rows[i] = (len(self.masks), r)
        return r


def _filed(crit: np.ndarray, theta: np.ndarray, c: float) -> np.ndarray:
    """(4, l): crit where a variable may move up (down), -inf (+inf) elsewhere,
    in rows 0-1 (2-3). Row 0 of theta holds alpha (sign +1), row 1 alpha*."""
    up = np.vstack([theta[0] < c, theta[1] > 0.0])
    low = np.vstack([theta[0] > 0.0, theta[1] < c])
    return np.vstack([np.where(up, crit, -np.inf), np.where(low, crit, np.inf)])


def _kernel_matvec(x: np.ndarray, sv: np.ndarray, coeff: np.ndarray, gamma: float) -> np.ndarray:
    """K(x, sv) @ coeff by the exponent GEMM that `predict` uses, in row
    blocks of at most KERNEL_BLOCK_BYTES of kernel values, so the kernel
    matrix never materializes."""
    n, d = x.shape
    aug = np.empty((n, d + 2))
    aug[:, :d] = x
    np.einsum("ij,ij->i", x, x, out=aug[:, d])
    aug[:, d + 1] = 1.0
    w = _rbf_exponent_weights(sv, gamma)
    out = np.empty(n)
    step = max(1, KERNEL_BLOCK_BYTES // (8 * max(sv.shape[0], 1)))
    for start in range(0, n, step):
        k = aug[start : start + step] @ w
        np.minimum(k, 0.0, out=k)
        np.exp(k, out=k)
        np.matmul(k, coeff, out=out[start : start + step])
    return out


def _second_order_j(lowv: np.ndarray, m_up: float, ki: np.ndarray) -> tuple[int, float]:
    """The flat index j into the (2, n) lowv that the second-order rule
    picks, and its curvature eta.

    The candidates are the variables that may move down with crit below
    m_up. j is the first of them to maximise b^2 / a, with b = m_up - crit
    and a = 2 (1 - K_ij) floored at ETA_FLOOR, read from i's kernel row
    ki; when every b^2 / a underflows to 0 that is the first candidate.
    No other entry can win, so the candidates alone are scored, each by
    the rule's own arithmetic.
    """
    cand = (lowv < m_up).ravel().nonzero()[0]
    # a candidate's kernel value sits at its column, its flat index mod n
    a = ki.take(cand, mode="wrap")
    np.subtract(1.0, a, out=a)
    a *= 2.0
    np.maximum(a, ETA_FLOOR, out=a)
    score = lowv.take(cand)
    np.subtract(m_up, score, out=score)
    score *= score
    score /= a
    best = score.argmax()
    return cand.item(best), a.item(best)


def train(features: np.recarray, config: SvrConfig = SvrConfig()) -> SvrModel:
    """Fit the dual QP to a training-feature table
    (`lqts.corpus.FEATURE_DTYPE`): rows `s`, targets `label`.

    Each pair update moves the maximal violator i and the variable j that
    the second-order rule picks, with shrinking every SHRINK_EVERY
    updates (see the module docstring). Stops when the KKT gap over all
    2l variables falls below config.kkt_tolerance or after
    config.max_passes pair updates; running out of updates is logged as
    a warning, and the reported gap is always that of the returned point
    over all variables. The bias is the average of the KKT-implied value
    over non-bound support vectors, or the target mean when none exist.
    Fully deterministic for fixed inputs.
    """
    x, y = np.ascontiguousarray(features.s), np.ascontiguousarray(features.label)
    if len(y) == 0:
        raise TrainingError("empty training corpus")
    # a finite row whose squared norm overflows would make its kernel values NaN
    if not (np.isfinite(np.einsum("ij,ij->i", x, x)).all() and np.isfinite(y).all()):
        raise TrainingError("training data contains non-finite values or an overflowing row norm")
    l = x.shape[0]
    c = config.cost
    eps = config.epsilon
    tol = config.kkt_tolerance
    gamma = config.kernel_gamma

    # row 0 holds alpha (sign +1), row 1 alpha* (sign -1); theta always
    # covers every row, the other state only the active ones
    theta = np.zeros((2, l))
    sign = np.array([[1.0], [-1.0]])
    base = -sign * np.vstack([eps - y, eps + y])  # -sign * gradient at theta = 0
    # every variable is in at least one of upv and lowv, so no gradient
    # array is kept; upv and lowv are rows 0-1 and 2-3 of one state
    state = _filed(base, theta, c)
    active = np.arange(l)  # the rows, in order, that the state and the cache hold
    cache = _RowCache(x, gamma)

    def refresh(r: int, a: int, row: int) -> None:
        """Re-file variable (r, a) after its bound status may have changed."""
        v = state[r, a] if state[r, a] != -np.inf else state[2 + r, a]
        th = theta.item(r, row)
        state[r, a] = v if (th < c if r == 0 else th > 0.0) else -np.inf
        state[2 + r, a] = v if (th > 0.0 if r == 0 else th < c) else np.inf

    def shrink(m_up: float, m_low: float) -> bool:
        """Drop the rows both of whose variables sit at a bound they would
        only leave after the gap closed past them; True if any were."""
        nonlocal state, active
        gone = ((lowv == np.inf) & (upv < m_low)) | ((upv == -np.inf) & (lowv > m_up))
        keep = ~(gone[0] & gone[1])
        if keep.all():
            return False
        # compress keeps it C-ordered; state[:, keep] would be Fortran-ordered
        state = np.compress(keep, state, axis=1)
        active = active[keep]
        cache.keep(keep)
        return True

    def unshrink() -> None:
        """Rebuild the dropped rows' criteria from scratch and make every
        row active again."""
        nonlocal state, active, cache
        crit = np.empty((2, l))
        crit[:, active] = np.where(upv != -np.inf, upv, lowv)
        stale = np.ones(l, dtype=bool)
        stale[active] = False
        beta = theta[0] - theta[1]
        sv = np.flatnonzero(beta)
        crit[:, stale] = base[:, stale] - _kernel_matvec(x[stale], x[sv], beta[sv], gamma)
        state = _filed(crit, theta, c)
        active = np.arange(l)
        cache = _RowCache(x, gamma)

    obj = 0.0
    trace = [0.0]
    updates = 0
    next_shrink = SHRINK_EVERY
    near = False  # the active gap has reached 10 * tol
    t = np.empty(0)  # work buffer, sized to the active rows
    while True:
        n = active.size
        upv, lowv = state[:2], state[2:]
        i = upv.argmax().item()
        ri, ia = divmod(i, n)
        m_up, m_low = upv.item(i), lowv.min().item()
        gap = m_up - m_low
        stop = not math.isfinite(gap) or gap <= tol or updates == config.max_passes
        first_near = not near and gap <= 10 * tol
        near = near or first_near
        if n < l and (stop or first_near):
            unshrink()
            continue
        if stop:
            break
        if updates == next_shrink:
            next_shrink += SHRINK_EVERY
            if shrink(m_up, m_low):
                continue  # select again on the compacted arrays

        if t.shape[0] != n:
            t = np.empty(n)
        ki = cache.row(ia)
        j, eta = _second_order_j(lowv, m_up, ki)
        rj, ja = divmod(j, n)
        kj = cache.row(ja)
        dg = lowv.item(j) - m_up  # negative by selection
        row_i, row_j = active.item(ia), active.item(ja)
        th_i, th_j = theta.item(ri, row_i), theta.item(rj, row_j)
        lim_i = (c - th_i) if ri == 0 else th_i
        lim_j = th_j if rj == 0 else (c - th_j)
        delta = min(-dg / eta, lim_i, lim_j)

        obj += delta * dg + 0.5 * delta * delta * eta
        trace.append(obj)
        updates += 1

        # land exactly on a bound when clipped, so bound checks stay exact
        if delta == lim_i:
            theta[ri, row_i] = c if ri == 0 else 0.0
        else:
            theta[ri, row_i] = th_i + delta if ri == 0 else th_i - delta
        if delta == lim_j:
            theta[rj, row_j] = 0.0 if rj == 0 else c
        else:
            theta[rj, row_j] = th_j - delta if rj == 0 else th_j + delta

        np.subtract(ki, kj, out=t)
        t *= delta
        state -= t
        refresh(ri, ia, row_i)
        refresh(rj, ja, row_j)

    gap = max(gap, 0.0) if np.isfinite(gap) else 0.0
    if updates == config.max_passes and gap > tol:
        log.warning(
            "SVR stopped after max_passes=%d pair updates with KKT gap %.3g",
            config.max_passes,
            gap,
        )

    beta = theta[0] - theta[1]
    nonbound = (theta > 0.0) & (theta < c)
    if np.any(nonbound):
        # a non-bound variable can move both ways, so upv holds its criterion
        bias = float(np.mean(upv[nonbound]))
    else:
        bias = float(np.mean(y))

    keep = beta != 0.0
    sv, coeff = x[keep], beta[keep]
    # exact objective at the returned point
    exact = eps * float(np.sum(theta)) - float(y @ beta)
    if coeff.size:
        exact += 0.5 * float(coeff @ _kernel_matvec(sv, sv, coeff, gamma))

    return SvrModel(
        support_vectors=sv,
        coefficients=coeff,
        bias=bias,
        config=config,
        kkt_violation=gap,
        objective=exact,
        objective_trace=np.asarray(trace),
    )
