"""PPT verdicts against closed-form oracles, rank witness, Bloch vectors."""

import numpy as np
import pytest

from qsepmc.ensembles import DensityMatrix, EnsembleSpec, hs_state, sample_states
from qsepmc.errors import DimensionMismatch, UnsupportedDimensions
from qsepmc.estimator import classify_states
from qsepmc.rng import RngStream
from qsepmc.separability import (
    PPT_TOL,
    audit_ranks,
    bloch_vector,
    min_pt_eigenvalues,
    ppt_verdict,
    rank_witness,
)
from test_ensembles import ALL_SPECS, spec_id

def dm(matrix, d_a=2, d_b=2):
    return DensityMatrix(np.asarray(matrix, dtype=complex), d_a, d_b)

def bell_phi_plus():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return dm(np.outer(psi, psi.conj()))

def singlet():
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return np.outer(psi, psi.conj())

def werner(p):
    return dm(p * singlet() + (1 - p) * np.eye(4) / 4)

def kron_batch(a, b):
    na, nb = a.shape[-1], b.shape[-1]
    return np.einsum("bij,bkl->bikjl", a, b).reshape(-1, na * nb, na * nb)

# ------------------------------------------------------------- ppt_verdict

def test_maximally_mixed_verdict():
    v = ppt_verdict(dm(np.eye(4) / 4))
    assert v.separable
    assert abs(v.min_pt_eigenvalue - 0.25) <= 1e-14
    assert v.state_rank == 4
    assert v.reduced_rank_A == 2

def test_bell_state_verdict():
    v = ppt_verdict(bell_phi_plus())
    assert not v.separable
    assert abs(v.min_pt_eigenvalue + 0.5) <= 1e-12
    assert v.state_rank == 1
    assert v.reduced_rank_A == 2

def test_werner_family_boundary():
    # closed form: min PT eigenvalue (1 - 3p)/4, verdict flips at p = 1/3
    for p in np.linspace(0.0, 1.0, 101):
        v = ppt_verdict(werner(p))
        expected = (1.0 - 3.0 * p) / 4.0
        assert abs(v.min_pt_eigenvalue - expected) <= 1e-10
        if expected < -PPT_TOL:
            assert not v.separable
        else:
            assert v.separable
        assert np.sign(v.min_pt_eigenvalue) == np.sign(expected) or abs(expected) <= 1e-12

def test_unsupported_dimensions_rejected():
    rho = DensityMatrix(np.eye(9, dtype=complex) / 9, 3, 3)
    with pytest.raises(UnsupportedDimensions):
        ppt_verdict(rho)

def test_ppt_necessity_on_product_states():
    # 10^4 random product states must all come out separable
    rng = RngStream(1234, 0)
    n = 10_000
    rho_a = hs_state(rng.complex_normals((n, 2, 2)))
    for d_b in (2, 3):
        rho_b = hs_state(rng.complex_normals((n, d_b, d_b)))
        products = kron_batch(rho_a, rho_b)
        cls = classify_states(products, (2, d_b))
        assert bool(cls.separable.all())
        assert min_pt_eigenvalues(products, (2, d_b)).min() >= -PPT_TOL

def test_min_pt_lower_bound_two_qubits():
    # known bound: the partial transpose of any 2x2 state has eigenvalues >= -1/2
    for spec in [EnsembleSpec("hs", 2, 2, 4), EnsembleSpec("bures", 2, 2, 4),
                 EnsembleSpec("hs", 2, 2, 1)]:
        states = sample_states(spec, RngStream(77, 0), 5_000)
        assert min_pt_eigenvalues(states, (2, 2)).min() >= -0.5 - 1e-12

def test_classify_matches_per_state_verdicts():
    spec = EnsembleSpec("bures", 2, 3, 4)
    states = sample_states(spec, RngStream(88, 0), 100)
    cls = classify_states(states, (2, 3))
    min_pt = min_pt_eigenvalues(states, (2, 3))
    ranks = audit_ranks(states, (2, 3))
    for i in range(states.shape[0]):
        v = ppt_verdict(DensityMatrix(states[i], 2, 3))
        assert v.separable == bool(cls.separable[i])
        assert abs(v.min_pt_eigenvalue - min_pt[i]) <= 1e-15
        assert v.state_rank == ranks.state[i]
        assert v.reduced_rank_A == ranks.reduced_A[i]
        b = bloch_vector(DensityMatrix(states[i], 2, 3))
        assert abs(b.radius - cls.bloch_radius[i]) <= 1e-12

@pytest.mark.parametrize("ppt_tol", [0.0, 1e-10, 1e-3])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_determinant_verdicts_match_eigen_kernel(spec, ppt_tol):
    # the determinant shortcut must reach the eigen-solve's verdict on every
    # row; rows it decided carry NaN, the others the eigen kernel's value
    dims = (spec.d_A, spec.d_B)
    states = sample_states(spec, RngStream(2024, spec.rank), 4096)
    cls = classify_states(states, dims, ppt_tol)
    min_pt = min_pt_eigenvalues(states, dims)
    np.testing.assert_array_equal(cls.separable, min_pt >= -ppt_tol)
    solved = ~np.isnan(cls.min_pt_eigenvalue)
    np.testing.assert_array_equal(cls.min_pt_eigenvalue[solved], min_pt[solved])

def test_determinant_path_on_werner_boundary():
    # min PT eigenvalue (1 - 3p)/4 crosses -ppt_tol within 1e-12..1e-6 of
    # p = 1/3, so these rows test both shortcuts and the fallback band
    offsets = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1])
    ps = np.concatenate([1 / 3 - offsets, [1 / 3], 1 / 3 + offsets, [0.0, 1.0]])
    states = np.stack([werner(p).matrix for p in ps])
    expected = (1.0 - 3.0 * ps) / 4.0
    for ppt_tol in (0.0, PPT_TOL, 1e-9):
        cls = classify_states(states, (2, 2), ppt_tol)
        min_pt = min_pt_eigenvalues(states, (2, 2))
        np.testing.assert_array_equal(cls.separable, min_pt >= -ppt_tol)
        clear = np.abs(np.abs(expected) - ppt_tol) > 1e-14
        np.testing.assert_array_equal(cls.separable[clear], (expected >= -ppt_tol)[clear])

# ------------------------------------------------------------ rank witness

def test_witness_fires_on_bell_state():
    assert rank_witness(bell_phi_plus())

def test_witness_silent_on_maximally_mixed():
    assert not rank_witness(dm(np.eye(4) / 4))

def test_witness_sound_against_ppt_on_low_rank_samples():
    # every fired witness must coincide with an entangled PPT verdict
    for rank in (1, 2):
        spec = EnsembleSpec("hs", 2, 2, rank)
        states = sample_states(spec, RngStream(313, rank), 10_000)
        cls = classify_states(states, (2, 2))
        fired = audit_ranks(states, (2, 2)).witness
        assert not np.any(fired & cls.separable)
        if rank == 1:
            # generic pure states have a full-rank marginal
            assert fired.all()
        # spot check the scalar operation against the array path
        for i in range(0, 10_000, 997):
            assert rank_witness(DensityMatrix(states[i], 2, 2)) == bool(fired[i])

@pytest.mark.parametrize("measure", ["hs", "bures"])
@pytest.mark.parametrize("rank", [1, 2])
def test_two_sided_witness_on_low_rank_qubit_qutrit(measure, rank):
    # rank(rho) <= 2 < 3 = rank(rho_B) certifies every generic sample; the
    # A side alone (rank(rho_A) = 2) misses all rank-2 ones
    states = sample_states(EnsembleSpec(measure, 2, 3, rank), RngStream(41, rank), 4096)
    ranks = audit_ranks(states, (2, 3))
    assert ranks.witness.all()
    assert not np.any(ranks.witness & classify_states(states, (2, 3)).separable)
    for i in range(0, 4096, 1021):
        assert rank_witness(DensityMatrix(states[i], 2, 3))

def test_witness_silent_on_product_states():
    # rank(rho_A x rho_B) = rank(rho_A) rank(rho_B) >= both marginal ranks
    rng = RngStream(77, 3)
    rho_a = hs_state(rng.complex_normals((200, 2, 2)))
    rho_b = hs_state(rng.complex_normals((200, 3, 1)))
    ranks = audit_ranks(kron_batch(rho_a, rho_b), (2, 3))
    assert np.all(ranks.state == 2) and np.all(ranks.reduced_B == 1)
    assert not ranks.witness.any()

# ------------------------------------------------------------ bloch vector

def test_bloch_of_maximally_mixed_reduction():
    b = bloch_vector(dm(np.eye(4) / 4))
    assert b.components == (0.0, 0.0, 0.0)
    assert b.radius == 0.0

def test_bloch_of_pure_zero_state():
    rho_a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho = np.kron(rho_a, np.eye(2) / 2)
    b = bloch_vector(dm(rho))
    assert np.allclose(b.components, (0.0, 0.0, 1.0), atol=1e-14)
    assert abs(b.radius - 1.0) <= 1e-14

def test_bloch_linear_in_pauli_x():
    rho_a = 0.5 * (np.eye(2) + 0.6 * np.array([[0, 1], [1, 0]]))
    rho = np.kron(rho_a, np.eye(2) / 2)
    b = bloch_vector(dm(rho))
    assert np.allclose(b.components, (0.6, 0.0, 0.0), atol=1e-14)
    assert abs(b.radius - 0.6) <= 1e-14

def test_bloch_requires_qubit_subsystem():
    rho = DensityMatrix(np.eye(6, dtype=complex) / 6, 2, 3)
    assert bloch_vector(rho, "A").radius <= 1e-14
    with pytest.raises(DimensionMismatch):
        bloch_vector(rho, "B")

def test_bloch_radius_bounded_over_samples():
    spec = EnsembleSpec("bures", 2, 2, 4)
    states = sample_states(spec, RngStream(515, 0), 5_000)
    cls = classify_states(states, (2, 2))
    assert cls.bloch_radius.max() <= 1.0 + 1e-10
