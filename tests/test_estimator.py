"""Monte-Carlo engine: counters, merging, reporting, parallel invariance."""

import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsepmc import estimator, linalg
from qsepmc.ensembles import EnsembleSpec, sample_states, uniform_draws_per_sample
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
    classify_states,
    merge,
    report,
    run,
    wilson_interval,
    zero_statistics,
)
from qsepmc.rng import RngStream
from test_ensembles import _count_irregular, _force, spec_id

HS22 = EnsembleSpec("hs", 2, 2, 4)


def small_config(**kw):
    defaults = dict(spec=HS22, n_samples=2_000, seed=11, n_streams=1, n_bins=20)
    defaults.update(kw)
    return RunConfig(**defaults)


def counters(stats):
    return (stats.total, stats.separable, stats.bin_total, stats.bin_separable)


def stats_from_counters(config, bin_total, bin_separable):
    return RunStatistics(bin_total=tuple(bin_total), bin_separable=tuple(bin_separable), config=config)


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


def test_config_settings_must_be_integers():
    # seed=1.5 used to give seed 1's counters; the float counts passed
    # validation and then raised a raw TypeError inside run
    for setting in ("seed", "n_samples", "n_streams", "n_bins"):
        for bad in (1.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match=f"{setting} must be an integer"):
                small_config(**{setting: bad})
    for setting, bad in (("seed", -1), ("seed", 1 << 64), ("n_samples", 0), ("n_streams", 0), ("n_bins", 0)):
        with pytest.raises(ValueError, match=f"{setting} must be an integer"):
            small_config(**{setting: bad})
    numpy_ints = small_config(
        n_samples=np.int64(2_000), seed=np.uint64(11), n_streams=np.int32(1), n_bins=np.int16(20)
    )
    assert numpy_ints == small_config()
    assert all(type(getattr(numpy_ints, f)) is int for f in ("n_samples", "seed", "n_streams", "n_bins"))
    assert counters(run(numpy_ints)) == counters(run(small_config()))


# (total, separable, bin_total, bin_separable) of every spec at 12,288
# samples, seed 0.  The seven values pinned first were measured before the
# Gram-Schmidt Haar QR and the matmul state assembly replaced LAPACK QR and
# einsum (three rank-k rows: before the pivot test moved from the Gram
# eigen-solve to A's inverse); the other thirteen were printed before run
# totals became sums of the bin tallies.  A rounding-level change to
# sampling or classification that moves any verdict or Bloch-radius bin
# shows up here.
PINNED_COUNTERS = {
    EnsembleSpec("hs", 2, 2, 1): (
        12288, 0,
        (1, 10, 25, 58, 93, 124, 208, 263, 304, 447, 501, 629, 783, 831, 1016, 1077, 1210, 1394, 1589, 1725),
        (0,) * 20,
    ),
    EnsembleSpec("hs", 2, 2, 2): (
        12288, 0,
        (5, 26, 80, 121, 249, 358, 436, 598, 710, 827, 918, 941, 994, 1118, 1002, 981, 910, 778, 665, 571),
        (0,) * 20,
    ),
    EnsembleSpec("hs", 2, 2, 3): (
        12288, 1184,
        (4, 101, 208, 398, 601, 821, 1006, 1122, 1233, 1205, 1120, 1034, 854, 708, 541, 377, 333, 248, 195, 179),
        (0, 10, 23, 42, 70, 86, 107, 108, 126, 144, 122, 83, 104, 69, 43, 15, 19, 7, 3, 3),
    ),
    EnsembleSpec("hs", 2, 2, 4): (
        12288, 2987,
        (26, 142, 409, 710, 959, 1236, 1463, 1569, 1441, 1366, 1043, 845, 534, 301, 157, 56, 25, 6, 0, 0),
        (8, 32, 106, 178, 209, 332, 354, 367, 342, 339, 251, 205, 135, 71, 42, 12, 3, 1, 0, 0),
    ),
    EnsembleSpec("hs", 2, 3, 1): (
        12288, 0,
        (0, 33, 79, 118, 223, 325, 414, 566, 705, 806, 912, 1006, 1087, 1164, 1149, 1151, 988, 799, 548, 215),
        (0,) * 20,
    ),
    EnsembleSpec("hs", 2, 3, 2): (
        12288, 0,
        (9, 50, 141, 248, 411, 519, 653, 780, 1004, 1050, 1138, 1127, 1146, 1046, 857, 741, 633, 424, 234, 77),
        (0,) * 20,
    ),
    EnsembleSpec("hs", 2, 3, 3): (
        12288, 0,
        (9, 61, 146, 263, 438, 621, 710, 824, 855, 922, 943, 890, 832, 768, 753, 734, 669, 626, 648, 576),
        (0,) * 20,
    ),
    EnsembleSpec("hs", 2, 3, 4): (
        12288, 3,
        (13, 137, 351, 573, 821, 942, 1084, 1136, 1088, 969, 799, 734, 640, 551, 521, 449, 424, 371, 350, 335),
        (0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    ),
    EnsembleSpec("hs", 2, 3, 5): (
        12288, 112,
        (61, 296, 780, 1193, 1548, 1595, 1572, 1251, 955, 739, 505, 394, 311, 230, 204, 182, 146, 129, 96, 101),
        (1, 5, 8, 20, 16, 15, 14, 11, 11, 4, 3, 3, 0, 1, 0, 0, 0, 0, 0, 0),
    ),
    EnsembleSpec("hs", 2, 3, 6): (
        12288, 333,
        (77, 547, 1252, 1853, 2252, 2077, 1723, 1220, 714, 348, 156, 52, 17, 0, 0, 0, 0, 0, 0, 0),
        (1, 15, 37, 50, 61, 51, 54, 28, 16, 15, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    EnsembleSpec("bures", 2, 2, 1): (
        12288, 0,
        (0, 8, 27, 61, 83, 137, 199, 233, 357, 399, 483, 576, 736, 855, 975, 1157, 1247, 1406, 1550, 1799),
        (0,) * 20,
    ),
    EnsembleSpec("bures", 2, 2, 2): (
        12288, 0,
        (2, 22, 63, 132, 248, 365, 471, 575, 729, 840, 958, 1063, 1082, 1161, 1139, 1061, 989, 755, 473, 160),
        (0,) * 20,
    ),
    EnsembleSpec("bures", 2, 2, 3): (
        12288, 360,
        (15, 59, 140, 277, 455, 630, 799, 929, 1059, 1112, 1262, 1220, 1114, 953, 802, 634, 416, 266, 107, 39),
        (1, 2, 5, 9, 8, 16, 30, 35, 41, 32, 35, 28, 36, 30, 22, 17, 8, 5, 0, 0),
    ),
    EnsembleSpec("bures", 2, 2, 4): (
        12288, 873,
        (12, 85, 239, 396, 595, 810, 969, 1211, 1208, 1279, 1310, 1206, 972, 820, 543, 362, 192, 66, 13, 0),
        (1, 5, 22, 31, 42, 72, 66, 74, 85, 98, 80, 84, 63, 60, 41, 25, 13, 6, 5, 0),
    ),
    EnsembleSpec("bures", 2, 3, 1): (
        12288, 0,
        (2, 24, 70, 158, 234, 341, 421, 542, 687, 776, 908, 1005, 1113, 1131, 1183, 1107, 955, 813, 603, 215),
        (0,) * 20,
    ),
    EnsembleSpec("bures", 2, 3, 2): (
        12288, 0,
        (12, 55, 150, 259, 445, 567, 781, 911, 1062, 1157, 1170, 1175, 1117, 1008, 899, 652, 446, 294, 112, 16),
        (0,) * 20,
    ),
    EnsembleSpec("bures", 2, 3, 3): (
        12288, 0,
        (16, 68, 205, 367, 585, 782, 947, 1087, 1103, 1255, 1159, 1183, 998, 814, 668, 472, 313, 180, 71, 15),
        (0,) * 20,
    ),
    EnsembleSpec("bures", 2, 3, 4): (
        12288, 0,
        (14, 128, 345, 559, 869, 1019, 1256, 1335, 1342, 1183, 1081, 938, 706, 548, 394, 277, 163, 92, 32, 7),
        (0,) * 20,
    ),
    EnsembleSpec("bures", 2, 3, 5): (
        12288, 2,
        (24, 212, 536, 879, 1213, 1541, 1694, 1482, 1374, 1079, 779, 555, 360, 229, 143, 84, 58, 36, 10, 0),
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    EnsembleSpec("bures", 2, 3, 6): (
        12288, 15,
        (47, 278, 695, 1126, 1621, 1851, 1864, 1598, 1248, 922, 522, 291, 159, 48, 14, 4, 0, 0, 0, 0),
        (0, 0, 2, 1, 3, 3, 0, 4, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
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


# (spec, forcing): HS 2x2 full rank, and two 2x3 specs with and without
# frequent irregular attempts
CHUNK_CASES = [
    (HS22, ""),
    (EnsembleSpec("bures", 2, 3, 6), ""),
    (EnsembleSpec("bures", 2, 3, 6), "qr"),
    (EnsembleSpec("hs", 2, 3, 3), ""),
    (EnsembleSpec("hs", 2, 3, 3), "pivot"),
]


@pytest.mark.parametrize("n_samples", [1, BATCH_SIZE, BATCH_SIZE + 17])
@pytest.mark.parametrize(
    "spec,force", CHUNK_CASES, ids=[f"{spec_id(s)}-{f or 'plain'}" for s, f in CHUNK_CASES]
)
def test_chunked_batches_match_one_call(monkeypatch, spec, force, n_samples):
    # 7-state chunks of each batch's stream give the counters of one
    # sample_states call per batch, also when irregular attempts are dropped
    # at the start of a chunk
    _force(monkeypatch, force)
    irregular = _count_irregular(monkeypatch)
    monkeypatch.setattr(estimator, "CHUNK_UNIFORMS", 7 * uniform_draws_per_sample(spec))
    sampler = estimator.sample_states
    chunk_starts_irregular = []

    def spy(spec, rng, count):
        # each case runs at most one regularity test per round, so the
        # first record a call adds lists its first round's irregular attempts
        first_round = len(irregular)
        states = sampler(spec, rng, count)
        assert count <= 7
        chunk_starts_irregular.append(first_round < len(irregular) and 0 in irregular[first_round])
        return states

    monkeypatch.setattr(estimator, "sample_states", spy)
    config = small_config(spec=spec, n_samples=n_samples, seed=23)
    nb = _batch_count(n_samples)
    chunked = _run_batch_range(config, 0, nb)
    counts = [min(BATCH_SIZE, n_samples - b * BATCH_SIZE) for b in range(nb)]
    assert len(chunk_starts_irregular) == sum(math.ceil(count / 7) for count in counts)
    if force and n_samples > 1:
        assert any(chunk_starts_irregular)

    bin_total = np.zeros(config.n_bins, dtype=np.int64)
    bin_separable = np.zeros(config.n_bins, dtype=np.int64)
    for b, count in enumerate(counts):
        states = sample_states(spec, RngStream(config.seed, b), count)
        cls = classify_states(states, (spec.d_A, spec.d_B), config.ppt_tol)
        idx = bin_index(cls.bloch_radius, config.n_bins)
        bin_total += np.bincount(idx, minlength=config.n_bins)
        bin_separable += np.bincount(idx[cls.separable], minlength=config.n_bins)
    assert chunked.bin_total == tuple(bin_total.tolist())
    assert chunked.bin_separable == tuple(bin_separable.tolist())


def test_full_rank_hs22_batch_is_one_chunk(monkeypatch):
    calls = []
    sampler = estimator.sample_states

    def spy(spec, rng, count):
        calls.append((rng.stream_id, count))
        return sampler(spec, rng, count)

    monkeypatch.setattr(estimator, "sample_states", spy)
    run(small_config(n_samples=3 * BATCH_SIZE + 17))
    assert calls == [(0, BATCH_SIZE), (1, BATCH_SIZE), (2, BATCH_SIZE), (3, 17)]


def test_bures23_batch_memory_bound():
    # one full-rank Bures 2x3 batch peaked at 15.75 MiB of numpy allocations
    # in one piece; in byte-bounded chunks it stays near 4 MiB
    config = small_config(spec=EnsembleSpec("bures", 2, 3, 6), n_samples=BATCH_SIZE)
    _run_batch_range(config, 0, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _run_batch_range(config, 0, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
