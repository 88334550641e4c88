"""Parallel Monte-Carlo estimation of separability probabilities.

Work is split into fixed-size batches of ``BATCH_SIZE`` samples; batch ``b``
always draws from the random stream ``(seed, stream_id=b)`` regardless of how
batches are distributed over workers.  Totals are therefore bit-identical for
any ``n_streams`` and any scheduling, which the tests assert.

``n_streams`` controls only how many worker processes share the batches; each
worker accumulates a private :class:`RunStatistics` and a single final
:func:`merge` pass combines them.

The worker processes are forked once per worker count and reused by later
runs with the same count, so a worker sees module state as of its fork, not
as of the run it serves.  Interpreter exit joins them.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import EnsembleSpec, sample_states
from .errors import ConfigMismatch, EmptyRun, QsepError, RunAborted
from .rng import KEY_LIMIT, RngStream
from .separability import PPT_TOL, classify_states

#: Samples per batch; one batch = one random stream.  Fixed so that batch
#: boundaries (and hence every draw) are independent of the worker count.
BATCH_SIZE = 4096

Z95 = 1.959963984540054
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class RunConfig:
    """Full description of one estimation run."""

    spec: EnsembleSpec
    n_samples: int
    seed: int
    n_streams: int = 1
    n_bins: int = 20
    ppt_tol: float = PPT_TOL

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.seed < KEY_LIMIT:
            raise ValueError("seed must be in [0, 2**64)")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if not (math.isfinite(self.ppt_tol) and self.ppt_tol >= 0):
            raise ValueError("ppt_tol must be finite and >= 0")


@dataclass(frozen=True)
class RunStatistics:
    """Mergeable counters: totals plus per-Bloch-radius-bin tallies."""

    total: int
    separable: int
    bin_total: tuple[int, ...]
    bin_separable: tuple[int, ...]
    config: RunConfig
    elapsed_seconds: float = field(default=0.0, compare=False)
    valid: bool = True


@dataclass(frozen=True)
class BinReport:
    radius_lo: float
    radius_hi: float
    total: int
    separable: int
    p_sep: float | None
    ci95: tuple[float, float] | None


@dataclass(frozen=True)
class ProbabilityReport:
    p_sep: float
    std_error: float
    ci95: tuple[float, float]
    per_bin: tuple[BinReport, ...]


def zero_statistics(config: RunConfig) -> RunStatistics:
    """Identity element for :func:`merge`."""
    return RunStatistics(
        total=0,
        separable=0,
        bin_total=(0,) * config.n_bins,
        bin_separable=(0,) * config.n_bins,
        config=config,
    )


def merge(a: RunStatistics, b: RunStatistics) -> RunStatistics:
    """Counterwise sum of statistics from the same configuration."""
    if a.config != b.config:
        raise ConfigMismatch("cannot merge statistics from different configurations")
    if not (a.valid and b.valid):
        raise ConfigMismatch("cannot merge invalid (aborted) statistics")
    return RunStatistics(
        total=a.total + b.total,
        separable=a.separable + b.separable,
        bin_total=tuple(x + y for x, y in zip(a.bin_total, b.bin_total)),
        bin_separable=tuple(x + y for x, y in zip(a.bin_separable, b.bin_separable)),
        config=a.config,
        elapsed_seconds=a.elapsed_seconds + b.elapsed_seconds,
        valid=True,
    )


def bin_index(radius, n_bins: int):
    """Equal-width bin of a Bloch radius; values >= 1 clamp to the last bin."""
    idx = (np.asarray(radius) * n_bins).astype(np.int64)
    return np.minimum(idx, n_bins - 1)


def _batch_count(n_samples: int) -> int:
    return math.ceil(n_samples / BATCH_SIZE)


def _run_batch_range(config: RunConfig, lo: int, hi: int) -> RunStatistics:
    """Process batches [lo, hi); private per-worker accumulation."""
    t0 = time.perf_counter()
    spec = config.spec
    n_bins = config.n_bins
    total = 0
    separable = 0
    bin_total = np.zeros(n_bins, dtype=np.int64)
    bin_separable = np.zeros(n_bins, dtype=np.int64)
    for b in range(lo, hi):
        count = min(BATCH_SIZE, config.n_samples - b * BATCH_SIZE)
        states = sample_states(spec, RngStream(config.seed, stream_id=b), count)
        cls = classify_states(states, (spec.d_A, spec.d_B), config.ppt_tol)
        idx = bin_index(cls.bloch_radius, n_bins)
        bin_total += np.bincount(idx, minlength=n_bins)
        bin_separable += np.bincount(idx[cls.separable], minlength=n_bins)
        total += count
        separable += int(cls.separable.sum())
    return RunStatistics(
        total=total,
        separable=separable,
        bin_total=tuple(int(x) for x in bin_total),
        bin_separable=tuple(int(x) for x in bin_separable),
        config=config,
        elapsed_seconds=time.perf_counter() - t0,
    )


#: ``(owner pid, worker count, executor)`` of the pool that multi-worker runs
#: share, or None before the first one and after the pool was dropped.
_pool_state = None
_pool_lock = threading.Lock()


def _pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool of ``workers`` processes, forked on first use."""
    global _pool_state
    if _pool_state is None or _pool_state[:2] != (os.getpid(), workers):
        _drop_pool()
        _pool_state = (os.getpid(), workers, ProcessPoolExecutor(max_workers=workers))
    return _pool_state[2]


def _drop_pool() -> None:
    """Forget the shared pool, shutting it down if this process owns it.

    The shutdown waits, so no thread of the old pool is alive when the next
    one forks.  A pool inherited through a fork is left alone: its threads
    and workers belong to the parent.
    """
    global _pool_state
    if _pool_state is not None:
        pid, _, pool = _pool_state
        _pool_state = None
        if pid == os.getpid():
            pool.shutdown(wait=True)


def run(config: RunConfig) -> RunStatistics:
    """Estimate the configuration's separability counters.

    Exactly ``n_samples`` states are sampled and classified; the counters
    depend on ``(spec, n_samples, seed, n_bins, ppt_tol)`` only.  On a
    sampler failure or a dead worker the partial counters are attached,
    flagged invalid, to the raised :class:`RunAborted`; the shared pool is
    idle by then, and a broken one is replaced at the next run.
    """
    t0 = time.perf_counter()
    nb = _batch_count(config.n_samples)
    workers = min(config.n_streams, nb)
    bounds = [(nb * w // workers, nb * (w + 1) // workers) for w in range(workers)]
    acc = zero_statistics(config)
    try:
        if workers == 1:
            acc = merge(acc, _run_batch_range(config, 0, nb))
        else:
            with _pool_lock:
                futures = []
                try:
                    pool = _pool(workers)
                    futures = [pool.submit(_run_batch_range, config, lo, hi) for lo, hi in bounds]
                    for fut in futures:
                        acc = merge(acc, fut.result())
                except BrokenProcessPool:
                    _drop_pool()
                    raise
                finally:
                    for fut in futures:
                        fut.cancel()
                    wait(futures)
    except (QsepError, BrokenProcessPool) as exc:
        partial = replace(acc, valid=False, elapsed_seconds=time.perf_counter() - t0)
        raise RunAborted(f"run aborted: {exc}", partial_statistics=partial) from exc
    return replace(acc, elapsed_seconds=time.perf_counter() - t0)


def wilson_interval(successes: int, total: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; well behaved at p near 0 and 1."""
    if total < 1:
        raise EmptyRun("interval of an empty sample")
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total))
    # the interval always brackets the point estimate; rounding must not break that
    lo = min(max(0.0, center - half), p)
    hi = max(min(1.0, center + half), p)
    return (lo, hi)


def bin_edges(n_bins: int) -> list[tuple[float, float]]:
    """Equal-width Bloch-radius bin edges over [0, 1]."""
    return [(i / n_bins, (i + 1) / n_bins) for i in range(n_bins)]


def report(stats: RunStatistics) -> ProbabilityReport:
    """Probabilities with binomial standard error and Wilson 95% intervals.

    Bins with no samples are reported with ``None`` markers rather than 0/0.
    """
    if stats.total < 1:
        raise EmptyRun("no samples accumulated")
    p = stats.separable / stats.total
    std_error = math.sqrt(p * (1.0 - p) / stats.total)
    per_bin = []
    for (lo, hi), n, s in zip(bin_edges(stats.config.n_bins), stats.bin_total, stats.bin_separable):
        if n == 0:
            per_bin.append(BinReport(lo, hi, 0, 0, None, None))
        else:
            per_bin.append(BinReport(lo, hi, n, s, s / n, wilson_interval(s, n)))
    return ProbabilityReport(
        p_sep=p,
        std_error=std_error,
        ci95=wilson_interval(stats.separable, stats.total),
        per_bin=tuple(per_bin),
    )


def bin_flatness_violations(stats: RunStatistics, z: float = Z99) -> list[int]:
    """Indices of non-empty bins whose Wilson interval at ``z`` excludes the
    global separability probability."""
    if stats.total < 1:
        raise EmptyRun("no samples accumulated")
    p_global = stats.separable / stats.total
    out = []
    for i, (n, s) in enumerate(zip(stats.bin_total, stats.bin_separable)):
        if n == 0:
            continue
        lo, hi = wilson_interval(s, n, z)
        if not lo <= p_global <= hi:
            out.append(i)
    return out
