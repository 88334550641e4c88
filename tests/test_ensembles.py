"""Sampler contracts: distributions, fixed ranks, determinism, draw counts."""

import numpy as np
import pytest

from qsepmc import linalg
from qsepmc.ensembles import (
    DensityMatrix,
    EnsembleSpec,
    RETRY_LIMIT,
    assemble_rank_deficient,
    bures_state,
    hs_state,
    sample_ginibre,
    sample_haar_unitary,
    sample_rank_k_ginibre,
    sample_state,
    sample_states,
    uniform_draws_per_sample,
)
from qsepmc.errors import IllConditionedBlock, RankCollapse
from qsepmc.rng import RngStream

ALL_SPECS = [
    EnsembleSpec(measure, 2, d_b, rank)
    for measure in ("hs", "bures")
    for d_b in (2, 3)
    for rank in range(1, 2 * d_b + 1)
]


# ------------------------------------------------------------- EnsembleSpec

def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("hs", 2, 2, 5)
    with pytest.raises(ValueError):
        EnsembleSpec("hs", 2, 2, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("hs", 3, 3, 4)
    with pytest.raises(ValueError):
        EnsembleSpec("haar", 2, 2, 4)


def test_density_matrix_validation():
    with pytest.raises(Exception):
        DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 3)
    bad_trace = DensityMatrix(np.eye(4, dtype=complex), 2, 2)
    with pytest.raises(ValueError):
        bad_trace.validate()
    good = DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
    good.validate()


# ------------------------------------------------------------------ ginibre

def test_ginibre_reproducibility_contract():
    rng = RngStream(10, 0)
    first, second = sample_ginibre(4, rng), sample_ginibre(4, rng)
    assert not np.array_equal(first, second)
    replay = RngStream(10, 0)
    assert np.array_equal(sample_ginibre(4, replay), first)
    assert np.array_equal(sample_ginibre(4, replay), second)


def test_ginibre_component_statistics():
    # 1e5 draws of 4x4; per-component mean bound 3/sqrt(1e5), and
    # E|z|^2 = 2 with sd(|z|^2) = 2 pooled over 1.6e6 entries
    rng = RngStream(271828, 0)
    n_draws = 100_000
    z = rng.complex_normals((n_draws, 4, 4))
    assert np.abs(z.real.mean(axis=0)).max() <= 0.0095
    assert np.abs(z.imag.mean(axis=0)).max() <= 0.0095
    pooled = (np.abs(z) ** 2).mean()
    assert abs(pooled - 2.0) <= 3 * 2 / np.sqrt(z.size)
    # the pooled array is exactly what sequential sampling would produce
    replay = RngStream(271828, 0)
    assert np.array_equal(sample_ginibre(4, replay), z[0])
    assert np.array_equal(sample_ginibre(4, replay), z[1])


# ------------------------------------------------------------- rank-k block

def test_rank_k_degenerate_full_rank():
    a = sample_rank_k_ginibre(4, 4, RngStream(3, 0))
    b = sample_ginibre(4, RngStream(3, 0))
    assert np.array_equal(a, b)


def test_rank_one_all_ones_instance():
    z = assemble_rank_deficient(
        np.ones((1, 1)), np.ones((1, 3)), np.ones((3, 1))
    )
    assert np.array_equal(z, np.ones((4, 4)))
    assert linalg.numerical_rank(z @ z.conj().T) == 1


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (4, 3), (6, 2), (6, 5)])
def test_rank_k_realizes_rank(n, k):
    rng = RngStream(17, k)
    for _ in range(100):
        z = sample_rank_k_ginibre(n, k, rng)
        assert z.shape == (n, n)
        assert linalg.numerical_rank(z @ z.conj().T) == k
        assert np.isfinite(z).all()


def test_rank_k_pivot_retry_budget(monkeypatch):
    from qsepmc import ensembles

    monkeypatch.setattr(ensembles, "_pivot_ok", lambda a: np.asarray(False))
    with pytest.raises(IllConditionedBlock):
        sample_rank_k_ginibre(4, 2, RngStream(0, 0))


# ------------------------------------------------------------ haar unitary

def test_haar_unitary_properties():
    rng = RngStream(55, 0)
    for n in (2, 4, 6):
        for _ in range(50):
            u = sample_haar_unitary(n, rng)
            assert linalg.max_abs(u.conj().T @ u - np.eye(n)) <= 1e-10
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_haar_eigenphases_uniform():
    # Kolmogorov-Smirnov on pooled 2x2 eigenphases at significance 1e-3
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = RngStream(31415, 0)
    g = rng.complex_normals((100_000, 2, 2))
    u = linalg.qr_unitary(g)
    phases = np.angle(np.linalg.eigvals(u)).ravel()
    result = scipy_stats.kstest(phases, scipy_stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert result.pvalue >= 1e-3


# ------------------------------------------------------- state constructors

def test_hs_state_identity_input():
    assert np.allclose(hs_state(np.eye(4, dtype=complex)), np.eye(4) / 4, atol=1e-15)


def test_bures_state_degenerates_to_hs_for_identity_unitary():
    z = sample_ginibre(4, RngStream(8, 0))
    assert np.allclose(bures_state(z, np.eye(4)), hs_state(z), atol=1e-14)


def test_sample_state_returns_valid_density_matrix():
    for spec in ALL_SPECS:
        dm = sample_state(spec, RngStream(20, spec.rank))
        dm.validate()
        assert dm.dims == (spec.d_A, spec.d_B)
        assert linalg.numerical_rank(dm.matrix) == spec.rank


def test_hs_rank_two_samples_have_exactly_two_eigenvalues():
    spec = EnsembleSpec("hs", 2, 2, 2)
    states = sample_states(spec, RngStream(21, 0), 10_000)
    assert np.all(linalg.numerical_rank(states) == 2)
    traces = np.einsum("bii->b", states)
    assert np.abs(traces - 1.0).max() <= 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.measure}-{s.d_A}x{s.d_B}-r{s.rank}")
def test_invariants_hold_over_samples(spec):
    # zero violations allowed: Hermitian, unit trace, PSD, exact target rank
    states = sample_states(spec, RngStream(1000 + spec.rank, 0), 10_000)
    herm_defect = np.abs(states - linalg.adjoint(states)).max()
    assert herm_defect <= 1e-12
    assert np.abs(np.einsum("bii->b", states) - 1.0).max() <= 1e-12
    w = np.linalg.eigvalsh(states)
    assert np.all(w[:, 0] >= -1e-10 * np.maximum(w[:, -1], 0.0))
    assert np.all(linalg.numerical_rank(states) == spec.rank)


def test_sample_state_determinism():
    spec = EnsembleSpec("bures", 2, 3, 6)
    a = sample_state(spec, RngStream(5, 99)).matrix
    b = sample_state(spec, RngStream(5, 99)).matrix
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.measure}-{s.d_A}x{s.d_B}-r{s.rank}")
def test_batched_matches_per_sample(spec):
    batch = sample_states(spec, RngStream(33, 4), 64)
    rng = RngStream(33, 4)
    seq = np.stack([sample_state(spec, rng).matrix for _ in range(64)])
    assert np.array_equal(batch, seq)


def _assert_matches_sequential(spec, seed, count):
    """sample_states equals sequential sample_state in states and final draws."""
    rng = RngStream(seed, 0)
    batch = sample_states(spec, rng, count)
    ref = RngStream(seed, 0)
    seq = np.stack([sample_state(spec, ref).matrix for _ in range(count)])
    assert np.array_equal(batch, seq)
    assert rng.draws == ref.draws
    return rng.draws


def test_full_bures_batch_with_rank_rejections_matches_sequential():
    # about 2 of 4096 Bures 2x3 draws are rank-rejected; the stream must
    # move past each one exactly as the sequential sampler does
    spec = EnsembleSpec("bures", 2, 3, 6)
    draws = _assert_matches_sequential(spec, 7, 4096)
    assert draws > uniform_draws_per_sample(spec) * 4096


def _force_pivot_retries(monkeypatch):
    """Also reject every pivot block whose first entry has |real part| < 0.05."""
    from qsepmc import ensembles

    real = ensembles._pivot_ok
    monkeypatch.setattr(
        ensembles, "_pivot_ok", lambda a: real(a) & (np.abs(a[..., 0, 0].real) >= 0.05)
    )


IRREGULAR_CASES = [
    (EnsembleSpec("hs", 2, 2, 3), "pivot"),
    (EnsembleSpec("bures", 2, 3, 3), "pivot"),
    (EnsembleSpec("bures", 2, 3, 3), "qr"),
    (EnsembleSpec("bures", 2, 2, 4), "qr"),
    (EnsembleSpec("bures", 2, 3, 6), "qr"),
]


@pytest.mark.parametrize(
    "spec,force",
    IRREGULAR_CASES,
    ids=[f"{s.measure}-{s.d_A}x{s.d_B}-r{s.rank}-{f}" for s, f in IRREGULAR_CASES],
)
def test_irregular_attempts_match_sequential(monkeypatch, spec, force):
    # Irregular attempts (pivot or QR retries) take more draws than a regular
    # one; together with frequent rank rejections they exercise the rewind
    # to the pending sample's first attempt, also across rounds.
    from qsepmc import ensembles

    if force == "pivot":
        _force_pivot_retries(monkeypatch)
    else:
        monkeypatch.setattr(linalg, "QR_SINGULAR_RTOL", 0.1)
    real_rank = linalg.numerical_rank

    def rank(m, rel_tol=linalg.RANK_RTOL):
        # rank-reject every state whose first diagonal entry is below 0.05
        return np.where(np.asarray(m)[..., 0, 0].real < 0.05, -1, real_rank(m, rel_tol))

    monkeypatch.setattr(linalg, "numerical_rank", rank)
    per_sample = []
    real_sample_state = ensembles.sample_state
    monkeypatch.setattr(
        ensembles, "sample_state", lambda *a: per_sample.append(1) or real_sample_state(*a)
    )
    draws = _assert_matches_sequential(spec, 11, 512)
    assert per_sample  # the irregular-attempt path ran
    assert draws > uniform_draws_per_sample(spec) * 512


@pytest.mark.parametrize(
    "spec", [EnsembleSpec("hs", 2, 2, 4), EnsembleSpec("hs", 2, 2, 3)], ids=["hs-2x2-r4", "hs-2x2-r3"]
)
def test_batch_rank_collapse_at_sequential_position(monkeypatch, spec):
    # The stream's first RETRY_LIMIT attempts are rank-rejected and the rest
    # accepted.  Rejections of one sample count across rounds of 3 attempts,
    # and pivot retries among them (forced at rank 3) do not restart the
    # count, so the batch raises exactly where sequential sampling raises.
    _force_pivot_retries(monkeypatch)
    first = RngStream(3, 0)
    doomed = [sample_state(spec, first).matrix[0, 0].real for _ in range(RETRY_LIMIT)]
    real_rank = linalg.numerical_rank

    def rank(m, rel_tol=linalg.RANK_RTOL):
        return np.where(np.isin(np.asarray(m)[..., 0, 0].real, doomed), -1, real_rank(m, rel_tol))

    monkeypatch.setattr(linalg, "numerical_rank", rank)
    rng, ref = RngStream(3, 0), RngStream(3, 0)
    with pytest.raises(RankCollapse):
        sample_states(spec, rng, 3)
    with pytest.raises(RankCollapse):
        sample_state(spec, ref)
    assert rng.draws == ref.draws == first.draws
    # pivot retries happened at rank 3 only
    assert (ref.draws > RETRY_LIMIT * uniform_draws_per_sample(spec)) == (spec.rank < spec.dim)


def test_sample_state_rank_collapse_budget(monkeypatch):
    from qsepmc import ensembles

    monkeypatch.setattr(ensembles.linalg, "numerical_rank", lambda m, rel_tol=1e-9: -1)
    with pytest.raises(RankCollapse):
        sample_state(EnsembleSpec("hs", 2, 2, 4), RngStream(0, 0))


# -------------------------------------------------------------- draw counts

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.measure}-{s.d_A}x{s.d_B}-r{s.rank}")
def test_documented_draw_counts(spec):
    n, k = spec.dim, spec.rank
    expected = 2 * n * n if k == n else 2 * (k * k + 2 * k * (n - k))
    if spec.measure == "bures":
        expected += 2 * n * n
    assert uniform_draws_per_sample(spec) == expected
    rng = RngStream(7, 7)
    sample_state(spec, rng)
    assert rng.draws == expected  # retry-free at this seed


def test_retry_limit_is_a_hundred():
    assert RETRY_LIMIT == 100


# ------------------------------------------------- distribution sanity

def test_largest_eigenvalue_mean_stable_across_seeds():
    spec = EnsembleSpec("hs", 2, 2, 4)
    means = []
    ses = []
    for seed in (404, 808):
        lam_max = np.concatenate(
            [
                np.linalg.eigvalsh(sample_states(spec, RngStream(seed, b), 25_000))[:, -1]
                for b in range(4)
            ]
        )
        means.append(lam_max.mean())
        ses.append(lam_max.std(ddof=1) / np.sqrt(lam_max.size))
    combined_se = np.hypot(ses[0], ses[1])
    assert abs(means[0] - means[1]) <= 3 * combined_se
