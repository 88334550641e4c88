"""Monte-Carlo engine: counters, merging, reporting, parallel invariance."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsepmc import estimator, linalg
from qsepmc.ensembles import EnsembleSpec
from qsepmc.errors import ConfigMismatch, EmptyRun, RankCollapse, RunAborted
from qsepmc.estimator import (
    BATCH_SIZE,
    RunConfig,
    RunStatistics,
    Z95,
    _batch_count,
    _run_batch_range,
    bin_flatness_violations,
    bin_index,
    merge,
    report,
    run,
    wilson_interval,
    zero_statistics,
)

HS22 = EnsembleSpec("hs", 2, 2, 4)


def small_config(**kw):
    defaults = dict(spec=HS22, n_samples=2_000, seed=11, n_streams=1, n_bins=20)
    defaults.update(kw)
    return RunConfig(**defaults)


def counters(stats):
    return (stats.total, stats.separable, stats.bin_total, stats.bin_separable)


def stats_from_counters(config, bin_total, bin_separable):
    return RunStatistics(
        total=sum(bin_total),
        separable=sum(bin_separable),
        bin_total=tuple(bin_total),
        bin_separable=tuple(bin_separable),
        config=config,
    )


# ------------------------------------------------------------------- run

def test_single_sample_run():
    stats = run(small_config(n_samples=1))
    assert stats.total == 1
    assert stats.separable in (0, 1)
    assert sum(stats.bin_total) == 1
    assert sum(1 for b in stats.bin_total if b) == 1


def test_run_solves_no_ranks(monkeypatch):
    # ranks are audit-only; run bins verdicts and Bloch radii alone
    def forbidden(*args, **kwargs):
        raise AssertionError("numerical_rank called inside run")

    monkeypatch.setattr(linalg, "numerical_rank", forbidden)
    for spec in (HS22, EnsembleSpec("bures", 2, 3, 6)):
        assert run(small_config(spec=spec)).total == 2_000


def test_run_reproducible():
    a = run(small_config())
    b = run(small_config())
    assert a == b  # elapsed_seconds is excluded from comparison


def test_counters_consistent():
    stats = run(small_config(n_samples=5_000))
    assert sum(stats.bin_total) == stats.total == 5_000
    assert sum(stats.bin_separable) == stats.separable
    assert all(s <= t for s, t in zip(stats.bin_separable, stats.bin_total))


# (total, separable, bin_total, bin_separable) at 12,288 samples, seed 0, as
# measured before the Gram-Schmidt Haar QR and the matmul state assembly
# replaced LAPACK QR and einsum.  A rounding-level change to sampling or
# classification that moves any verdict or Bloch-radius bin shows up here.
PINNED_COUNTERS = {
    EnsembleSpec("bures", 2, 3, 6): (
        12288, 15,
        (47, 278, 695, 1126, 1621, 1851, 1864, 1598, 1248, 922, 522, 291, 159, 48, 14, 4, 0, 0, 0, 0),
        (0, 0, 2, 1, 3, 3, 0, 4, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    EnsembleSpec("bures", 2, 3, 5): (
        12288, 2,
        (24, 212, 536, 879, 1213, 1541, 1694, 1482, 1374, 1079, 779, 555, 360, 229, 143, 84, 58, 36, 10, 0),
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    EnsembleSpec("bures", 2, 2, 4): (
        12288, 873,
        (12, 85, 239, 396, 595, 810, 969, 1211, 1208, 1279, 1310, 1206, 972, 820, 543, 362, 192, 66, 13, 0),
        (1, 5, 22, 31, 42, 72, 66, 74, 85, 98, 80, 84, 63, 60, 41, 25, 13, 6, 5, 0),
    ),
    HS22: (
        12288, 2987,
        (26, 142, 409, 710, 959, 1236, 1463, 1569, 1441, 1366, 1043, 845, 534, 301, 157, 56, 25, 6, 0, 0),
        (8, 32, 106, 178, 209, 332, 354, 367, 342, 339, 251, 205, 135, 71, 42, 12, 3, 1, 0, 0),
    ),
}


@pytest.mark.parametrize(
    "spec", list(PINNED_COUNTERS), ids=lambda s: f"{s.measure}-{s.d_A}x{s.d_B}-r{s.rank}"
)
def test_run_counters_pinned(spec):
    stats = run(RunConfig(spec=spec, n_samples=12_288, seed=0, n_streams=1, n_bins=20))
    assert counters(stats) == PINNED_COUNTERS[spec]


@pytest.mark.parametrize("streams", [2, 4, 8])
def test_stream_count_invariance(streams):
    n = 3 * BATCH_SIZE + 17
    base = run(small_config(n_samples=n, n_streams=1))
    other = run(small_config(n_samples=n, n_streams=streams))
    assert counters(base) == counters(other)


def test_worker_partials_merge_to_full_run():
    config = small_config(n_samples=4 * BATCH_SIZE)
    nb = _batch_count(config.n_samples)
    partials = [_run_batch_range(config, b, b + 1) for b in range(nb)]
    acc = zero_statistics(config)
    for p in partials:
        acc = merge(acc, p)
    assert counters(acc) == counters(run(config))


def test_run_aborts_with_invalid_partial(monkeypatch):
    def explode(spec, rng, count):
        raise RankCollapse("forced failure")

    monkeypatch.setattr(estimator, "sample_states", explode)
    with pytest.raises(RunAborted) as err:
        run(small_config())
    partial = err.value.partial_statistics
    assert partial is not None
    assert not partial.valid
    assert partial.total == 0


# ----------------------------------------------------------- worker pool

#: Seed whose batches the patched samplers below interfere with.
DOOMED_SEED = 666


@pytest.fixture
def fresh_pool():
    """Fork the shared pool inside the test, after its monkeypatches, and
    drop it afterwards, so that no later run reuses a patched worker."""
    estimator._drop_pool()
    yield
    estimator._drop_pool()


def _patch_sampler(monkeypatch, before_batch):
    """Call ``before_batch(stream_id)`` before each batch of ``DOOMED_SEED``,
    here and in every worker forked while the patch is in place."""
    real = estimator.sample_states

    def sampler(spec, rng, count):
        if rng.seed == DOOMED_SEED:
            before_batch(rng.stream_id)
        return real(spec, rng, count)

    monkeypatch.setattr(estimator, "sample_states", sampler)


def _assert_pool_serves_clean_run(n):
    base = run(small_config(n_samples=n, n_streams=1))
    assert counters(run(small_config(n_samples=n, n_streams=2))) == counters(base)


def test_dead_worker_aborts_run_and_pool_recovers(monkeypatch, fresh_pool):
    def die(stream_id):
        if stream_id == 0:
            os._exit(1)

    _patch_sampler(monkeypatch, die)
    n = 4 * BATCH_SIZE
    with pytest.raises(RunAborted) as err:
        run(small_config(n_samples=n, seed=DOOMED_SEED, n_streams=2))
    assert not err.value.partial_statistics.valid
    _assert_pool_serves_clean_run(n)


def test_failed_range_drains_pool_before_abort(monkeypatch, fresh_pool, tmp_path):
    # range 0 fails at once while range 1 (streams 2-3) is still running
    done = tmp_path / "range-1-done"

    def fail_or_stall(stream_id):
        if stream_id == 0:
            raise RankCollapse("forced failure")
        time.sleep(0.2)
        if stream_id == 3:
            done.touch()

    _patch_sampler(monkeypatch, fail_or_stall)
    n = 4 * BATCH_SIZE
    with pytest.raises(RunAborted) as err:
        run(small_config(n_samples=n, seed=DOOMED_SEED, n_streams=2))
    assert not err.value.partial_statistics.valid
    assert done.exists()  # run waited for the running range before it raised
    _assert_pool_serves_clean_run(n)


EXIT_SCRIPT = """
import multiprocessing
from qsepmc.ensembles import EnsembleSpec
from qsepmc.estimator import BATCH_SIZE, RunConfig, run
for streams in (2, 3):
    run(RunConfig(EnsembleSpec("hs", 2, 2, 4), n_samples=3 * BATCH_SIZE, seed=1, n_streams=streams))
    print(*(p.pid for p in multiprocessing.active_children()))
"""


def test_no_worker_outlives_interpreter():
    src = os.path.dirname(os.path.dirname(estimator.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(set(pids)) == 5  # two workers, then three new ones

    def alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    assert not [pid for pid in pids if alive(pid)]


# ----------------------------------------------------------------- merge

def test_merge_identity():
    stats = run(small_config())
    assert counters(merge(stats, zero_statistics(stats.config))) == counters(stats)


@given(data=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), min_size=3, max_size=3))
@settings(max_examples=50)
def test_merge_commutative_associative(data):
    config = small_config(n_bins=4)
    parts = []
    for total_seed, sep_seed in data:
        g = np.random.default_rng(total_seed * 2048 + sep_seed)
        bt = g.integers(0, 500, size=4)
        bs = np.minimum(g.integers(0, 500, size=4), bt)
        parts.append(stats_from_counters(config, bt.tolist(), bs.tolist()))
    a, b, c = parts
    assert counters(merge(a, b)) == counters(merge(b, a))
    assert counters(merge(merge(a, b), c)) == counters(merge(a, merge(b, c)))


def test_merge_rejects_different_configs():
    with pytest.raises(ConfigMismatch):
        merge(zero_statistics(small_config(seed=1)), zero_statistics(small_config(seed=2)))


def test_merge_rejects_invalid():
    stats = zero_statistics(small_config())
    from dataclasses import replace

    with pytest.raises(ConfigMismatch):
        merge(stats, replace(stats, valid=False))


# ---------------------------------------------------------------- report

def test_report_arithmetic_example():
    config = small_config(n_bins=1)
    stats = stats_from_counters(config, [10_000], [2424])
    rep = report(stats)
    assert rep.p_sep == 0.2424
    assert abs(rep.std_error - math.sqrt(0.2424 * 0.7576 / 10_000)) <= 1e-15
    assert rep.ci95[0] <= rep.p_sep <= rep.ci95[1]


def test_report_wilson_at_zero_successes():
    config = small_config(n_bins=1)
    stats = stats_from_counters(config, [100_000], [0])
    rep = report(stats)
    assert rep.p_sep == 0.0
    assert rep.ci95[0] == 0.0
    expected_hi = Z95**2 / (100_000 + Z95**2)  # ~3.84e-5
    assert abs(rep.ci95[1] - expected_hi) <= 1e-12
    assert rep.ci95[1] < 4e-5


def test_report_marks_empty_bins():
    config = small_config(n_bins=3)
    stats = stats_from_counters(config, [50, 0, 50], [10, 0, 25])
    rep = report(stats)
    assert rep.per_bin[1].p_sep is None
    assert rep.per_bin[1].ci95 is None
    assert rep.per_bin[0].p_sep == 0.2
    assert rep.per_bin[2].ci95[0] <= 0.5 <= rep.per_bin[2].ci95[1]
    assert [(-0.0 <= b.radius_lo <= b.radius_hi <= 1.0) for b in rep.per_bin]


def test_report_empty_run():
    with pytest.raises(EmptyRun):
        report(zero_statistics(small_config()))


def test_wilson_interval_brackets_mle():
    for s, n in [(0, 10), (5, 10), (10, 10), (1, 100_000)]:
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0


# ---------------------------------------------------------------- binning

def test_bin_index_clamps():
    idx = bin_index(np.array([0.0, 0.049, 0.05, 0.999, 1.0, 1.0000001]), 20)
    assert idx.tolist() == [0, 0, 1, 19, 19, 19]


def test_flatness_violations_detects_deviant_bin():
    config = small_config(n_bins=5)
    flat = stats_from_counters(config, [10_000] * 5, [2_000] * 5)
    assert bin_flatness_violations(flat) == []
    # small deviant bin: barely moves the global rate but sits far outside
    # its own interval
    bumped = stats_from_counters(
        config, [40_000, 40_000, 1_000, 40_000, 40_000], [8_000, 8_000, 300, 8_000, 8_000]
    )
    assert bin_flatness_violations(bumped) == [2]
    with_empty = stats_from_counters(config, [10_000, 0, 10_000, 10_000, 10_000], [2_000, 0, 2_000, 2_000, 2_000])
    assert bin_flatness_violations(with_empty) == []


# -------------------------------------------------- convergence (slow-ish)

def test_monotone_consistency_hs22():
    # successive estimates at growing n stay within 4 combined standard errors
    sizes = (10_000, 100_000, 1_000_000)
    reports = [
        report(run(RunConfig(spec=HS22, n_samples=n, seed=1905, n_streams=2)))
        for n in sizes
    ]
    for small, big in zip(reports, reports[1:]):
        gap = abs(small.p_sep - big.p_sep)
        combined = math.hypot(small.std_error, big.std_error)
        assert gap <= 4 * combined
