"""PPT verdicts against closed-form oracles, rank witness, Bloch vectors."""

from collections import Counter

import numpy as np
import pytest

from qsepmc import linalg
from qsepmc.ensembles import DensityMatrix, EnsembleSpec, hs_state, sample_states
from qsepmc.errors import DimensionMismatch, NotHermitian, UnsupportedDimensions
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
    rho = dm(np.eye(4) / 4)
    v = ppt_verdict(rho)
    assert v.separable
    assert abs(v.min_pt_eigenvalue - 0.25) <= 1e-14
    ranks = audit_ranks(rho.matrix[None], rho.dims)
    assert (ranks.state[0], ranks.reduced_A[0]) == (4, 2)

def test_bell_state_verdict():
    rho = bell_phi_plus()
    v = ppt_verdict(rho)
    assert not v.separable
    assert abs(v.min_pt_eigenvalue + 0.5) <= 1e-12
    ranks = audit_ranks(rho.matrix[None], rho.dims)
    assert (ranks.state[0], ranks.reduced_A[0]) == (1, 2)

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

@pytest.mark.parametrize("ppt_tol", [np.nan, np.inf, -np.inf, -1.0, -1e-300, 0.0])
def test_ppt_tol_must_be_finite_and_non_negative(ppt_tol):
    # the verdict lambda_min >= -ppt_tol needs a finite ppt_tol >= 0; with a
    # NaN or negative one the determinant shortcut contradicts it
    for d_b in (2, 3):
        states = sample_states(EnsembleSpec("hs", 2, d_b, 2 * d_b), RngStream(1, 0), 64)
        product = dm(np.diag(np.eye(2 * d_b)[0]), 2, d_b)
        if ppt_tol == 0.0:
            assert classify_states(states, (2, d_b), ppt_tol).separable.shape == (64,)
            assert ppt_verdict(product, ppt_tol).separable
            continue
        with pytest.raises(ValueError, match="ppt_tol"):
            classify_states(states, (2, d_b), ppt_tol)
        with pytest.raises(ValueError, match="ppt_tol"):
            ppt_verdict(product, ppt_tol)

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_rejects_non_finite_states(bad):
    # before, an all-NaN stack or one inf entry made every row "entangled"
    for d_b in (2, 3):
        states = sample_states(EnsembleSpec("hs", 2, d_b, 2 * d_b), RngStream(3, 0), 8)
        one = states.copy()
        one[5, 1, 1] = bad
        for stack in (one, np.full_like(states, bad)):
            with pytest.raises(NotHermitian, match="NaN or infinite"):
                classify_states(stack, (2, d_b))

def test_unsupported_dimensions_rejected():
    # one dimension rule for the sampler and both verdict paths, and a ValueError
    assert issubclass(UnsupportedDimensions, ValueError)
    rho = DensityMatrix(np.eye(9, dtype=complex) / 9, 3, 3)
    with pytest.raises(UnsupportedDimensions, match="got 3x3"):
        ppt_verdict(rho)
    with pytest.raises(UnsupportedDimensions, match="got 3x3"):
        classify_states(rho.matrix[None], rho.dims)
    with pytest.raises(UnsupportedDimensions, match="got 3x3"):
        EnsembleSpec("hs", 3, 3, 9)

@pytest.mark.parametrize("rel_defect, rejected", [(1e-11, True), (1e-13, False)])
def test_one_hermiticity_rule_at_its_boundary(rel_defect, rejected):
    # linalg.HERMITICITY_RTOL = 1e-12 is the only Hermiticity rule: the one-state
    # validation, the eigen kernel and the classifier (on the PT, which permutes
    # entries and so keeps both the defect and the sup norm) all apply it
    assert issubclass(NotHermitian, ValueError)
    for d_b in (2, 3):
        states = sample_states(EnsembleSpec("hs", 2, d_b, 2 * d_b), RngStream(5, 0), 1)
        states[0, 0, 1] += rel_defect * np.abs(states).max()
        checks = (
            lambda: DensityMatrix(states[0], 2, d_b).validate(),
            lambda: linalg.hermitian_eigenvalues(states),
            lambda: classify_states(states, (2, d_b)),
        )
        for check in checks:
            if rejected:
                with pytest.raises(NotHermitian, match="hermiticity defect"):
                    check()
            else:
                check()

@pytest.mark.parametrize("part", [1.0, 1j, (1 + 1j) / np.sqrt(2)])
def test_hermiticity_judged_per_row(part):
    # eye(6)/6 with a defect of 5e-12 of its own sup norm is rejected alone;
    # stacked with a pure state of sup norm 1 it used to pass, judged against
    # the stack's sup norm
    def mixed(rel_defect):
        m = np.eye(6, dtype=complex) / 6
        m[0, 1] += part * rel_defect / 6
        return m

    with pytest.raises(NotHermitian, match="hermiticity defect"):
        DensityMatrix(mixed(5e-12), 2, 3).validate()
    pure = np.zeros((6, 6), dtype=complex)
    pure[0, 0] = 1
    stack = np.stack([pure, mixed(5e-12)])
    checks = (
        lambda: classify_states(stack, (2, 3)),
        lambda: linalg.hermitian_eigenvalues(stack),
        lambda: linalg.hermitian_determinant(stack),
    )
    for check in checks:
        with pytest.raises(NotHermitian, match="hermiticity defect 8.333e-13 exceeds 1e-12 \\* 1.667e-01"):
            check()
    classify_states(stack[:1], (2, 3))
    # just above and below the rule: the unit trace is six times the sup
    # norm, which the stack-wide shortcut must not take for it
    with pytest.raises(NotHermitian, match="hermiticity defect"):
        linalg.hermitian_eigenvalues(mixed(1.1e-12))
    linalg.hermitian_eigenvalues(mixed(0.9e-12))


def test_ppt_verdict_is_one_pass(monkeypatch):
    # one partial transpose, one Hermiticity scan and one eigen-solve per call
    calls = Counter()

    def counted(name):
        kernel = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("partial_transpose", "_require_hermitian", "hermitian_eigenvalues", "hermitian_determinant"):
        monkeypatch.setattr(linalg, name, counted(name))
    for rho in (bell_phi_plus(), dm(np.eye(6) / 6, 2, 3)):
        calls.clear()
        ppt_verdict(rho)
        assert calls == {"partial_transpose": 1, "_require_hermitian": 1, "hermitian_eigenvalues": 1}

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

@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_classify_matches_per_state_verdicts(spec):
    # ppt_verdict eigen-solves every state, classify_states mostly takes the
    # determinant: the two must agree row by row in every ensemble
    dims = (spec.d_A, spec.d_B)
    states = sample_states(spec, RngStream(88, 0), 64)
    cls = classify_states(states, dims)
    min_pt = min_pt_eigenvalues(states, dims)
    ranks = audit_ranks(states, dims)
    for i in range(states.shape[0]):
        rho = DensityMatrix(states[i], *dims)
        v = ppt_verdict(rho)
        assert v.separable == bool(cls.separable[i])
        assert abs(v.min_pt_eigenvalue - min_pt[i]) <= 1e-15
        one = audit_ranks(rho.matrix[None], rho.dims)
        assert (one.state[0], one.reduced_A[0]) == (ranks.state[i], ranks.reduced_A[i])
        b = bloch_vector(rho)
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
    if spec.d_B == 3 and spec.rank <= 3 and ppt_tol <= PPT_TOL:
        # every such state is entangled, and the PT's 4x4 principal blocks
        # decide it: all rows at ranks 1-2, all but at most 1e-3 at rank 3,
        # where a few rows have block determinants within the margin
        assert not cls.separable.any()
        assert solved.sum() <= (0 if spec.rank < 3 else 1e-3 * states.shape[0])

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
        verdicts = [ppt_verdict(werner(p), ppt_tol).separable for p in ps]
        np.testing.assert_array_equal(verdicts, cls.separable)
        clear = np.abs(np.abs(expected) - ppt_tol) > 1e-14
        np.testing.assert_array_equal(cls.separable[clear], (expected >= -ppt_tol)[clear])

def test_block_shortcut_on_qubit_qutrit_boundary():
    # p |phi+><phi+| + (1 - p) I/6 with phi+ = (|00> + |11>)/sqrt(2): its PT
    # has the one negative eigenvalue (1 - 4p)/6, so det PT is negative but
    # tiny near p = 1/4, and the block on B-levels {0, 1} holds that
    # eigenvalue.  A block determinant between -ppt_tol and 0 must not
    # decide the row.
    phi = np.zeros(6)
    phi[[0, 4]] = 1 / np.sqrt(2)
    offsets = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1])
    ps = np.concatenate([1 / 4 - offsets, [1 / 4], 1 / 4 + offsets, [0.0, 1.0]])
    states = np.stack([p * np.outer(phi, phi) + (1 - p) * np.eye(6) / 6 for p in ps]).astype(complex)
    expected = (1.0 - 4.0 * ps) / 6.0
    min_pt = min_pt_eigenvalues(states, (2, 3))
    np.testing.assert_allclose(min_pt, expected, rtol=0, atol=1e-15)
    for ppt_tol in (0.0, PPT_TOL, 1e-9, 1e-3):
        cls = classify_states(states, (2, 3), ppt_tol)
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
    # only 'A' and 'B' name a subsystem; nothing else falls back to B
    for state in (dm(np.diag([1.0, 0.0, 0.0, 0.0])), rho):
        for name in ("C", "a", ""):
            with pytest.raises(DimensionMismatch):
                bloch_vector(state, name)

def test_bloch_radius_bounded_over_samples():
    spec = EnsembleSpec("bures", 2, 2, 4)
    states = sample_states(spec, RngStream(515, 0), 5_000)
    cls = classify_states(states, (2, 2))
    assert cls.bloch_radius.max() <= 1.0 + 1e-10
