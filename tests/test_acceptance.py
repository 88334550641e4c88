"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
heavy Monte-Carlo runs are shared across criteria through module-scoped
fixtures; total runtime is a few minutes on two cores.

Criteria 5 and 6 check the rank-3 HS and Bures estimates against
``reference_sampler``, an independent numpy-only implementation of the
README construction ``[[A, B], [C, C A^-1 B]]`` that imports nothing from
``qsepmc``.  Each criterion first checks that sampler at full rank against
criterion 1's or 3's reference band, so a wrong sampler fails the
criterion instead of passing it.  The reported rank-3 values 0.1652 (HS)
and 0.0494 (Bures) have no source in this repository and are not
reproduced by this construction, which measures about 0.097 and 0.031 in
both implementations; they stay on record in each criterion line and in
``cli.SUITE_ROWS``, so ``qsep-mc table-suite`` still reports the rank-3 rows
as FAIL at full sample counts.
"""


import numpy as np
import pytest

from qsepmc import linalg
from qsepmc.ensembles import EnsembleSpec, hs_state, sample_states
from qsepmc.estimator import (
    BATCH_SIZE,
    RunConfig,
    Z99,
    bin_flatness_violations,
    classify_states,
    report,
    run,
)
from qsepmc.rng import RngStream
from qsepmc.separability import PPT_TOL
from reference_sampler import reference_p_sep

STREAMS = 2

# (reference, tolerance) of the full-rank 2x2 rows, shared by criteria 1/5
# and 3/6.
HS22_FULL_RANK = (0.2424, 0.002)
BURES22_FULL_RANK = (0.0733, 0.0015)

# Reference-sampler draws per configuration and its one fixed seed.  At 1M
# samples the combined standard error of qsepmc and the sampler is about
# 4.2e-4 (HS) and 2.5e-4 (Bures) at rank 3, so criteria 5 and 6's bands of
# 0.002 and 0.0015 sit at 4.7 and 6 sigma: false-alarm rate below 1e-5.
REFERENCE_SAMPLES = 1_000_000
REFERENCE_SEED = 20170825


def criterion(num, ok, detail):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def run_config(measure, d_b, rank, n, seed):
    return run(
        RunConfig(
            spec=EnsembleSpec(measure, 2, d_b, rank),
            n_samples=n,
            seed=seed,
            n_streams=STREAMS,
            n_bins=20,
        )
    )


@pytest.fixture(scope="module")
def hs22_r4():
    return run_config("hs", 2, 4, 1_000_000, seed=101)


@pytest.fixture(scope="module")
def hs23_r6():
    return run_config("hs", 3, 6, 1_000_000, seed=102)


@pytest.fixture(scope="module")
def bures22_r4():
    return run_config("bures", 2, 4, 1_000_000, seed=103)


@pytest.fixture(scope="module")
def bures23_r6():
    return run_config("bures", 3, 6, 2_000_000, seed=104)


@pytest.fixture(scope="module")
def hs22_r3():
    return run_config("hs", 2, 3, 1_000_000, seed=105)


@pytest.fixture(scope="module")
def bures22_r3():
    return run_config("bures", 2, 3, 1_000_000, seed=106)


def _value_criterion(num, stats, reference, tolerance, extra=""):
    rep = report(stats)
    gap = abs(rep.p_sep - reference)
    detail = (
        f"p_sep={rep.p_sep:.4f} vs {reference} (|gap|={gap:.4f}, tol={tolerance})"
        f" ci95=[{rep.ci95[0]:.6f}, {rep.ci95[1]:.6f}]{extra}"
    )
    return rep, gap <= tolerance, detail


def test_criterion_01_hs_2x2_rank4(hs22_r4):
    _, ok, detail = _value_criterion(1, hs22_r4, *HS22_FULL_RANK)
    criterion(1, ok, detail)


def test_criterion_02_hs_2x3_rank6(hs23_r6):
    _, ok, detail = _value_criterion(2, hs23_r6, 0.0270, 0.0010)
    criterion(2, ok, detail)


def test_criterion_03_bures_2x2_rank4(bures22_r4):
    _, ok, detail = _value_criterion(3, bures22_r4, *BURES22_FULL_RANK)
    criterion(3, ok, detail)


def test_criterion_04_bures_2x3_rank6(bures23_r6):
    rep, in_band, detail = _value_criterion(4, bures23_r6, 0.0014, 0.0003)
    covered = rep.ci95[0] <= 0.0014 <= rep.ci95[1]
    criterion(4, in_band and covered, detail + f" covered={covered}")


def _rank3_against_reference(num, measure, stats, full_rank_band, tolerance, reported):
    """qsepmc's rank-3 estimate within ``tolerance`` of the reference
    sampler's, after the sampler itself lands in ``full_rank_band`` at rank 4."""
    full = reference_p_sep(measure, 2, 2, 4, REFERENCE_SAMPLES, REFERENCE_SEED)
    target, band = full_rank_band
    sampler_ok = abs(full.p_sep - target) <= band
    ref = reference_p_sep(measure, 2, 2, 3, REFERENCE_SAMPLES, REFERENCE_SEED)
    _, ok, detail = _value_criterion(
        num,
        stats,
        ref.p_sep,
        tolerance,
        f"; reference sampler rank 3 {ref.p_sep:.4f}+-{ref.std_err:.4f}"
        f", rank 4 {full.p_sep:.4f} vs {target}+-{band} ok={sampler_ok}"
        f"; reported {reported}, not reproduced",
    )
    criterion(num, sampler_ok and ok, detail)


def test_criterion_05_hs_2x2_rank3(hs22_r3):
    _rank3_against_reference(5, "hs", hs22_r3, HS22_FULL_RANK, 0.002, reported=0.1652)


def test_criterion_06_bures_2x2_rank3(bures22_r3):
    _rank3_against_reference(6, "bures", bures22_r3, BURES22_FULL_RANK, 0.0015, reported=0.0494)


def test_criterion_07_low_rank_zeros_and_witness():
    from qsepmc.ensembles import DensityMatrix
    from qsepmc.separability import audit_ranks, rank_witness

    n = 100_000
    parts = []
    ok = True
    for i, (measure, rank) in enumerate([("hs", 2), ("hs", 1), ("bures", 2), ("bures", 1)]):
        seed = 107 + i
        stats = run_config(measure, 2, rank, n, seed=seed)
        zero = stats.separable == 0
        # replay the identical streams to audit every sample of the run
        spec = EnsembleSpec(measure, 2, 2, rank)
        must_fire = 0
        fired_count = 0
        fired_but_separable = 0
        op_disagreements = 0
        done = 0
        b = 0
        while done < n:
            count = min(BATCH_SIZE, n - done)
            states = sample_states(spec, RngStream(seed, b), count)
            cls = classify_states(states, (2, 2))
            ranks = audit_ranks(states, (2, 2))
            scalar = np.array(
                [rank_witness(DensityMatrix(states[j], 2, 2)) for j in range(0, count, 509)]
            )
            op_disagreements += int(np.sum(scalar != ranks.witness[::509]))
            must_fire += int(np.sum(np.maximum(ranks.reduced_A, ranks.reduced_B) > ranks.state))
            fired_count += int(np.sum(ranks.witness))
            fired_but_separable += int(np.sum(ranks.witness & cls.separable))
            done += count
            b += 1
        # rank-1 states generically have a full-rank marginal: the witness
        # must certify every single sample; rank-2 fires are possible but
        # must never contradict the PPT verdict
        all_fire_ok = fired_count == n if rank == 1 else True
        part_ok = (
            zero
            and fired_count == must_fire
            and all_fire_ok
            and fired_but_separable == 0
            and op_disagreements == 0
        )
        ok = ok and part_ok
        parts.append(
            f"{measure}-rank{rank}: separable={stats.separable}, fired={fired_count}/{must_fire}"
            f", unsound fires={fired_but_separable}, op mismatches={op_disagreements}"
        )
    criterion(7, ok, "; ".join(parts))


def test_criterion_08_rank4_flat_over_bloch_radius(hs22_r4):
    violations = bin_flatness_violations(hs22_r4, z=Z99)
    criterion(8, len(violations) <= 1, f"99% interval violations={violations} (allowed <= 1)")


def test_criterion_09_rank3_deviates_over_bloch_radius(hs22_r3):
    violations = bin_flatness_violations(hs22_r3, z=Z99)
    criterion(9, len(violations) >= 3, f"99% interval violations={len(violations)} bins (need >= 3)")


def test_criterion_10_oracle_suites():
    details = []

    # Werner family: sign of the minimum PT eigenvalue matches (1 - 3p)/4,
    # and so does the batched classifier's verdict
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    singlet = np.outer(psi, psi.conj())
    ps = np.linspace(0.0, 1.0, 101)
    werner = np.stack([p * singlet + (1 - p) * np.eye(4) / 4 for p in ps])
    min_pt = linalg.hermitian_eigenvalues(
        linalg.partial_transpose(werner, (2, 2), subsystem="B")
    )[:, 0]
    expected = (1.0 - 3.0 * ps) / 4.0
    clear = np.abs(expected) > PPT_TOL
    sign_errors = int(np.sum(np.sign(min_pt[clear]) != np.sign(expected[clear])))
    verdict_errors = int(
        np.sum(classify_states(werner, (2, 2)).separable[clear] != (expected[clear] > 0))
    )
    werner_ok = sign_errors == 0 and verdict_errors == 0
    details.append(f"werner sign errors={sign_errors}, verdict errors={verdict_errors}")

    # product states: no false entangled verdicts over 1e4 cases
    rng = RngStream(999, 0)
    m = 10_000
    rho_a = hs_state(rng.complex_normals((m, 2, 2)))
    rho_b = hs_state(rng.complex_normals((m, 2, 2)))
    products = np.einsum("bij,bkl->bikjl", rho_a, rho_b).reshape(m, 4, 4)
    cls = classify_states(products, (2, 2))
    product_ok = bool(cls.separable.all())
    details.append(f"product false-entangled={int((~cls.separable).sum())}")

    # eigendecomposition reconstructs 1e3 random Hermitian inputs to 1e-9
    recon_failures = 0
    eig_rng = RngStream(424242, 0)
    for size in (4, 6):
        for _ in range(500):
            g = eig_rng.complex_normals((size, size))
            h = (g + g.conj().T) / 2
            w, v = linalg.hermitian_eigen(h)
            if linalg.max_abs((v * w) @ v.conj().T - h) > 1e-9 * linalg.max_abs(h):
                recon_failures += 1
    eigen_ok = recon_failures == 0
    details.append(f"eigen reconstruction failures={recon_failures}")

    # identical counters for any worker count
    base = None
    invariant = True
    for streams in (1, 2, 4, 8):
        stats = run(
            RunConfig(
                spec=EnsembleSpec("hs", 2, 2, 4),
                n_samples=4 * BATCH_SIZE,
                seed=111,
                n_streams=streams,
            )
        )
        key = (stats.total, stats.separable, stats.bin_total, stats.bin_separable)
        if base is None:
            base = key
        invariant = invariant and key == base
    details.append(f"stream-count invariance={invariant}")

    criterion(10, werner_ok and product_ok and eigen_ok and invariant, "; ".join(details))
