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
    sample_state,
    sample_states,
    uniform_draws_per_sample,
)
from qsepmc.errors import RankCollapse
from qsepmc.rng import RngStream

ALL_SPECS = [
    EnsembleSpec(measure, 2, d_b, rank)
    for measure in ("hs", "bures")
    for d_b in (2, 3)
    for rank in range(1, 2 * d_b + 1)
]


def spec_id(spec):
    return f"{spec.measure}-{spec.d_A}x{spec.d_B}-r{spec.rank}"


def rank_is_pinned(spec):
    """Whether the construction fixes the numerical rank of every state.

    Full-rank Bures states are the exception: (I + U) can be nearly
    singular, and such valid draws are kept with numerical rank below n.
    """
    return spec.measure == "hs" or spec.rank < spec.dim


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


def test_spec_fields_must_be_integers():
    # 4.0 == 4 and (2.0, 2) == (2, 2), so only the type check rejects them
    for args in ((2, 2, 4.0), (2.0, 2, 4), (2, 3.0, 6), (2, 2, True), (2, 2, "4")):
        with pytest.raises(ValueError, match="must be an integer"):
            EnsembleSpec("hs", *args)
    spec = EnsembleSpec("bures", np.int64(2), np.uint8(3), np.int32(6))
    assert spec == EnsembleSpec("bures", 2, 3, 6)
    assert all(type(v) is int for v in (spec.d_A, spec.d_B, spec.rank))
    # sample_states(spec, rng, True) used to run as count 1, and 2.0 raised TypeError
    for count in (True, 2.0, 0):
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_states(spec, RngStream(0, 0), count)
    assert sample_states(spec, RngStream(0, 0), np.int64(2)).shape == (2, 6, 6)


def test_density_matrix_validation():
    with pytest.raises(Exception):
        DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 3)
    bad_trace = DensityMatrix(np.eye(4, dtype=complex), 2, 2)
    with pytest.raises(ValueError):
        bad_trace.validate()
    good = DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
    good.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_matrix_non_finite_entry_is_value_error(bad):
    for d_b in (2, 3):
        n = 2 * d_b
        one = np.eye(n, dtype=complex) / n
        one[0, 0] = bad
        for m in (one, np.full((n, n), bad, dtype=complex)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                DensityMatrix(m, 2, d_b).validate()


# ------------------------------------------------------------------ ginibre

def test_ginibre_reproducibility_contract():
    rng = RngStream(10, 0)
    first, second = rng.complex_normals((4, 4)), rng.complex_normals((4, 4))
    assert not np.array_equal(first, second)
    replay = RngStream(10, 0)
    assert np.array_equal(replay.complex_normals((4, 4)), first)
    assert np.array_equal(replay.complex_normals((4, 4)), second)


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
    assert np.array_equal(replay.complex_normals((4, 4)), z[0])
    assert np.array_equal(replay.complex_normals((4, 4)), z[1])


# ------------------------------------------------------------- rank-k block

def test_rank_k_degenerate_full_rank():
    # a full-rank attempt is one plain Ginibre draw
    spec = EnsembleSpec("hs", 2, 2, 4)
    state = sample_states(spec, RngStream(3, 0), 1)[0]
    assert np.array_equal(state, hs_state(RngStream(3, 0).complex_normals((4, 4))))


def test_rank_one_all_ones_instance():
    z = assemble_rank_deficient(
        np.ones((1, 1)), np.ones((1, 3)), np.ones((3, 1)), np.ones((1, 1))
    )
    assert np.array_equal(z, np.ones((4, 4)))
    assert linalg.numerical_rank(z @ z.conj().T) == 1


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (4, 3), (6, 2), (6, 5)])
def test_rank_k_realizes_rank(n, k):
    rng = RngStream(17, k)
    for _ in range(100):
        a = rng.complex_normals((k, k))
        z = assemble_rank_deficient(
            a, rng.complex_normals((k, n - k)), rng.complex_normals((n - k, k)), np.linalg.inv(a)
        )
        assert z.shape == (n, n)
        assert linalg.numerical_rank(z @ z.conj().T) == k
        assert np.isfinite(z).all()


def _first_pivots_irregular(monkeypatch, n):
    """Make the pivots of the stream's first ``n`` attempts irregular, all later ones regular."""
    from qsepmc import ensembles

    drawn = [0]

    def pivot_ok(a, a_inv):
        index = drawn[0] + np.arange(len(a))
        drawn[0] += len(a)
        return index >= n

    monkeypatch.setattr(ensembles, "_pivot_ok", pivot_ok)


def test_rank_k_pivot_retry_budget(monkeypatch):
    # RETRY_LIMIT consecutive irregular attempts raise, counted across
    # rounds of 3 attempts; one fewer does not
    from qsepmc import ensembles

    spec = EnsembleSpec("hs", 2, 2, 2)
    _first_pivots_irregular(monkeypatch, RETRY_LIMIT - 1)
    assert sample_states(spec, RngStream(0, 0), 3).shape == (3, 4, 4)
    _first_pivots_irregular(monkeypatch, RETRY_LIMIT)
    with pytest.raises(RankCollapse):
        sample_states(spec, RngStream(0, 0), 3)
    monkeypatch.setattr(ensembles, "_pivot_ok", lambda a, a_inv: np.zeros(len(a), dtype=bool))
    with pytest.raises(RankCollapse):
        sample_states(spec, RngStream(0, 0), 3)


@pytest.mark.parametrize(
    "eps,regular",
    [(1e-6, True), (1e-8, True), (1e-10, True), (1e-12, False), (1e-14, False), (0.0, False)],
)
def test_pivot_test_follows_its_threshold(eps, regular):
    # ||A||_F ||A^-1||_F is about 4 / eps for [[1, 1], [1, 1 + eps]]: regular
    # up to 4e10, irregular from 4e12 on, and at eps = 0 the block is
    # exactly singular
    from qsepmc import ensembles

    a = np.array([[[1, 1], [1, 1 + eps]]], dtype=complex)
    assert ensembles._pivot_ok(a, ensembles._pivot_inverse(a)).tolist() == [regular]


def test_singular_pivots_are_irregular():
    # Exactly singular blocks get a NaN inverse or a huge one and are
    # irregular; a regular block stacked with them keeps its own inverse.
    from qsepmc import ensembles

    rng = RngStream(5, 0)
    dependent = rng.complex_normals((500, 3, 3))
    dependent[:, 2] = dependent[:, 0] + dependent[:, 1]
    singular = [
        np.zeros((1, 1)),
        np.zeros((2, 2)),
        np.array([[1, 2], [2, 4]]),
        np.array([[1, 2, 3], [4, 5, 6], [5, 7, 9]]),
        *dependent,
    ]
    for block in singular:
        regular = rng.complex_normals(block.shape)
        stack = np.stack([regular, block]).astype(complex)
        a_inv = ensembles._pivot_inverse(stack)
        assert ensembles._pivot_ok(stack, a_inv).tolist() == [True, False]
        assert np.array_equal(a_inv[0], np.linalg.inv(regular))


def _zero_pivots(monkeypatch, zeroed):
    """Zero the 1x1 pivot block of every attempt whose stream index ``zeroed`` selects."""
    from qsepmc import ensembles

    drawn = [0]
    normals = ensembles.complex_normals_from_uniforms

    def zeroing_normals(u):
        z = normals(u)
        index = drawn[0] + np.arange(len(z))
        drawn[0] += len(z)
        z[zeroed(index), 0] = 0
        return z

    monkeypatch.setattr(ensembles, "complex_normals_from_uniforms", zeroing_normals)


def test_zero_pivot_is_dropped_whole(monkeypatch):
    # A rank-1 pivot is zero when its Box-Muller radius uniform is 0.0; that
    # attempt is irregular and dropped, not an error from inverting it.
    from qsepmc.estimator import RunConfig, run

    spec = EnsembleSpec("hs", 2, 2, 1)
    _zero_pivots(monkeypatch, lambda index: index == 1000)
    rng = RngStream(11, 0)
    batch = sample_states(spec, rng, 4096)
    assert batch.shape == (4096, 4, 4)
    assert rng.draws == uniform_draws_per_sample(spec) * 4097
    _zero_pivots(monkeypatch, lambda index: index == 1000)
    ref = RngStream(11, 0)
    seq = np.stack([sample_state(spec, ref).matrix for _ in range(4096)])
    assert np.array_equal(batch, seq)
    _zero_pivots(monkeypatch, lambda index: index == 7)
    assert run(RunConfig(spec=spec, n_samples=4096, seed=0, n_streams=1)).total == 4096


def test_all_zero_pivots_abort_the_run(monkeypatch):
    from qsepmc.errors import RunAborted
    from qsepmc.estimator import RunConfig, run

    spec = EnsembleSpec("hs", 2, 2, 1)
    _zero_pivots(monkeypatch, lambda index: np.ones(index.shape, dtype=bool))
    with pytest.raises(RankCollapse):
        sample_states(spec, RngStream(0, 0), 3)
    with pytest.raises(RunAborted) as err:
        run(RunConfig(spec=spec, n_samples=4096, seed=0, n_streams=1))
    assert isinstance(err.value.__cause__, RankCollapse)


# ------------------------------------------------------------ haar unitary

def test_haar_eigenphases_uniform():
    # Kolmogorov-Smirnov on pooled 2x2 eigenphases at significance 1e-3
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = RngStream(31415, 0)
    g = rng.complex_normals((100_000, 2, 2))
    u, regular = linalg.qr_unitary_rows(g)
    assert regular.all()
    phases = np.angle(np.linalg.eigvals(u)).ravel()
    result = scipy_stats.kstest(phases, scipy_stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert result.pvalue >= 1e-3


# ------------------------------------------------------- state constructors

def test_hs_state_identity_input():
    assert np.allclose(hs_state(np.eye(4, dtype=complex)), np.eye(4) / 4, atol=1e-15)


def test_bures_state_degenerates_to_hs_for_identity_unitary():
    z = RngStream(8, 0).complex_normals((4, 4))
    assert np.allclose(bures_state(z, np.eye(4)), hs_state(z), atol=1e-14)


def test_state_constructors_match_reference_formulas():
    # the textbook expressions, evaluated in another order; tolerance fixed at
    # 1e-14 on unit-trace states of size 6, a few hundred roundings
    rng = RngStream(12, 0)
    z = rng.complex_normals((500, 6, 6))
    u, regular = linalg.qr_unitary_rows(rng.complex_normals((500, 6, 6)))
    assert regular.all()

    def reference_hs(x):
        w = np.einsum("...ij,...kj->...ik", x, x.conj())
        return w / np.einsum("...ii->...", w).real[..., None, None]

    reference_bures = reference_hs(np.einsum("...ij,...jk->...ik", u + np.eye(6), z))
    assert np.abs(hs_state(z) - reference_hs(z)).max() <= 1e-14
    assert np.abs(bures_state(z, u) - reference_bures).max() <= 1e-14


def test_sample_state_returns_valid_density_matrix():
    for spec in ALL_SPECS:
        dm = sample_state(spec, RngStream(20, spec.rank))
        dm.validate()
        assert dm.dims == (spec.d_A, spec.d_B)
        if rank_is_pinned(spec):
            assert linalg.numerical_rank(dm.matrix) == spec.rank


def test_hs_rank_two_samples_have_exactly_two_eigenvalues():
    spec = EnsembleSpec("hs", 2, 2, 2)
    states = sample_states(spec, RngStream(21, 0), 10_000)
    assert np.all(linalg.numerical_rank(states) == 2)
    traces = np.einsum("bii->b", states)
    assert np.abs(traces - 1.0).max() <= 1e-12


#: Upper bounds on the count of full-rank Bures states with numerical rank
#: below n among 10,000 draws.  Pooled over 491,520 draws per spec, the rate
#: is 151 / 491,520 = 3.1e-4 (2x2) and 340 / 491,520 = 6.9e-4 (2x3).  At
#: that rate plus four standard errors (4.1e-4 and 8.4e-4) the count is
#: Binomial(10,000, p), and P(count > 13) = 9.1e-5 and P(count > 21) =
#: 6.9e-5, so each check has a false-alarm rate below 1e-4.
RANK_DEFICIENT_BOUND = {(2, 2): 13, (2, 3): 21}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_invariants_hold_over_samples(spec):
    # zero violations allowed: Hermitian, unit trace, PSD; exact target rank
    # where the construction pins it
    states = sample_states(spec, RngStream(1000 + spec.rank, 0), 10_000)
    herm_defect = np.abs(states - linalg.adjoint(states)).max()
    assert herm_defect <= 1e-12
    assert np.abs(np.einsum("bii->b", states) - 1.0).max() <= 1e-12
    w = np.linalg.eigvalsh(states)
    assert np.all(w[:, 0] >= -1e-10 * np.maximum(w[:, -1], 0.0))
    rank = linalg.numerical_rank(states)
    if rank_is_pinned(spec):
        assert np.all(rank == spec.rank)
    else:
        assert np.all(rank <= spec.rank)
        assert np.count_nonzero(rank < spec.rank) <= RANK_DEFICIENT_BOUND[spec.d_A, spec.d_B]


def test_sample_state_determinism():
    spec = EnsembleSpec("bures", 2, 3, 6)
    a = sample_state(spec, RngStream(5, 99)).matrix
    b = sample_state(spec, RngStream(5, 99)).matrix
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_batched_matches_per_sample(spec):
    rng, ref = RngStream(33, 4), RngStream(33, 4)
    batch = sample_states(spec, rng, 64)
    seq = np.stack([sample_state(spec, ref).matrix for _ in range(64)])
    assert np.array_equal(batch, seq)
    assert rng.draws == ref.draws == uniform_draws_per_sample(spec) * 64


def _force_pivot_retries(monkeypatch):
    """Also reject every pivot block whose first entry has |real part| < 0.05."""
    from qsepmc import ensembles

    real = ensembles._pivot_ok
    monkeypatch.setattr(
        ensembles,
        "_pivot_ok",
        lambda a, a_inv: real(a, a_inv) & (np.abs(a[..., 0, 0].real) >= 0.05),
    )


def _force(monkeypatch, force):
    """Make pivot or QR irregularity (or both) frequent."""
    if "pivot" in force:
        _force_pivot_retries(monkeypatch)
    if "qr" in force:
        monkeypatch.setattr(linalg, "QR_SINGULAR_RTOL", 0.1)


def _count_irregular(monkeypatch):
    """Count the attempts that fail the pivot or the QR test, as they are drawn."""
    from qsepmc import ensembles

    irregular = []
    pivot_ok, qr_rows = ensembles._pivot_ok, linalg.qr_unitary_rows

    def counted_pivot_ok(a, a_inv):
        ok = pivot_ok(a, a_inv)
        irregular.append(np.flatnonzero(~ok))
        return ok

    def counted_qr_rows(m):
        q, ok = qr_rows(m)
        irregular.append(np.flatnonzero(~ok))
        return q, ok

    monkeypatch.setattr(ensembles, "_pivot_ok", counted_pivot_ok)
    monkeypatch.setattr(linalg, "qr_unitary_rows", counted_qr_rows)
    return irregular


IRREGULAR_CASES = [
    (EnsembleSpec("hs", 2, 2, 3), "pivot"),
    (EnsembleSpec("bures", 2, 3, 3), "pivot"),
    (EnsembleSpec("bures", 2, 3, 3), "qr"),
    (EnsembleSpec("bures", 2, 2, 4), "qr"),
    (EnsembleSpec("bures", 2, 3, 6), "qr"),
]


@pytest.mark.parametrize(
    "spec,force", IRREGULAR_CASES, ids=[f"{spec_id(s)}-{f}" for s, f in IRREGULAR_CASES]
)
def test_irregular_attempts_match_sequential(monkeypatch, spec, force):
    # Each forced irregular attempt is dropped whole and nothing else is:
    # one 4096-state batch takes exactly D draws per regular attempt kept
    # and per irregular attempt dropped, and equals 4096 sequential
    # sample_state calls in states and draws.
    _force(monkeypatch, force)
    irregular = _count_irregular(monkeypatch)
    rng = RngStream(11, 0)
    batch = sample_states(spec, rng, 4096)
    dropped = sum(rows.size for rows in irregular)
    assert dropped > 0
    assert rng.draws == uniform_draws_per_sample(spec) * (4096 + dropped)
    ref = RngStream(11, 0)
    seq = np.stack([sample_state(spec, ref).matrix for _ in range(4096)])
    assert np.array_equal(batch, seq)
    assert ref.draws == rng.draws


# (spec, forcing, stream id): on stream (23, id) the first attempt is
# irregular under the forcing, so even the 1 + 1 split drops one.
SPLIT_FORCINGS = [
    (EnsembleSpec("hs", 2, 2, 3), "pivot", 2),
    (EnsembleSpec("bures", 2, 3, 3), "pivot+qr", 2),
    (EnsembleSpec("bures", 2, 2, 4), "qr", 9),
    (EnsembleSpec("bures", 2, 3, 6), "qr", 2),
]
SPLITS = [(1, 1), (1, 200), (200, 1), (150, 250)]
SPLIT_CASES = [(s, f, i, a, b) for s, f, i in SPLIT_FORCINGS for a, b in SPLITS]


@pytest.mark.parametrize(
    "spec,force,stream_id,a,b",
    SPLIT_CASES,
    ids=[f"{spec_id(s)}-{f}-{a}+{b}" for s, f, _, a, b in SPLIT_CASES],
)
def test_split_invariance(monkeypatch, spec, force, stream_id, a, b):
    # sample_states returns the first regular attempts of the stream and
    # leaves it just past the last one, so how a request is split does not
    # matter, in states or in draws
    _force(monkeypatch, force)
    irregular = _count_irregular(monkeypatch)
    rng = RngStream(23, stream_id)
    parts = np.concatenate([sample_states(spec, rng, a), sample_states(spec, rng, b)])
    assert sum(rows.size for rows in irregular) > 0
    whole = RngStream(23, stream_id)
    assert np.array_equal(parts, sample_states(spec, whole, a + b))
    assert rng.draws == whole.draws


def test_sample_state_rank_collapse_budget(monkeypatch):
    # every Haar QR input singular on a full-rank Bures spec
    monkeypatch.setattr(linalg, "QR_SINGULAR_RTOL", np.inf)
    with pytest.raises(RankCollapse):
        sample_states(EnsembleSpec("bures", 2, 3, 6), RngStream(0, 0), 3)
    with pytest.raises(RankCollapse):
        sample_state(EnsembleSpec("bures", 2, 2, 4), RngStream(0, 0))


# -------------------------------------------------------------- draw counts

@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
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
