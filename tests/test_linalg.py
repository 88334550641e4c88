"""Linear-algebra kernels: frozen examples, exact oracles, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsepmc import linalg
from qsepmc.errors import DimensionMismatch, NoConvergence, NotHermitian, SingularInput
from qsepmc.rng import RngStream


def random_complex(seed, n):
    g = np.random.default_rng(seed)
    return g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))


def random_hermitian(seed, n):
    m = random_complex(seed, n)
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- adjoint

def test_adjoint_identity():
    assert np.array_equal(linalg.adjoint(np.eye(2, dtype=complex)), np.eye(2))


def test_adjoint_definition():
    m = np.array([[0, 1j], [0, 0]])
    expected = np.array([[0, 0], [-1j, 0]])
    assert np.array_equal(linalg.adjoint(m), expected)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4, 6]))
def test_adjoint_involution(seed, n):
    m = random_complex(seed, n)
    assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)


# ---------------------------------------------------------------- eigen

def test_eigen_identity():
    res = linalg.hermitian_eigen(np.eye(4, dtype=complex))
    assert np.allclose(res.eigenvalues, np.ones(4), atol=1e-14)


def test_eigen_diagonal_sorted_ascending():
    res = linalg.hermitian_eigen(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.allclose(res.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-14)


def test_eigen_2x2_hand_solved():
    # characteristic polynomial: trace 5, det = 6 - |1-i|^2 = 4, so
    # lambda^2 - 5 lambda + 4 = 0 with roots 1 and 4
    m = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    res = linalg.hermitian_eigen(m)
    assert np.allclose(res.eigenvalues, [1.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("n,count", [(4, 500), (6, 500)])
def test_eigen_reconstruction_tolerance(n, count):
    rng = RngStream(314, 0)
    for _ in range(count):
        g = rng.complex_normals((n, n))
        m = (g + g.conj().T) / 2
        w, v = linalg.hermitian_eigen(m)
        scale = linalg.max_abs(m)
        assert linalg.max_abs((v * w) @ v.conj().T - m) <= 1e-9 * scale
        assert linalg.max_abs(m @ v - v * w) <= 1e-10 * scale
        assert linalg.max_abs(v.conj().T @ v - np.eye(n)) <= 1e-10
        assert abs(w.sum() - np.trace(m).real) <= 1e-10 * scale
        assert np.all(np.diff(w) >= 0)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigen_wraps_solver_failure(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eigen(np.eye(2, dtype=complex))


# ---------------------------------------------------------------- qr_unitary

def test_qr_unitary_identity_fixed_point():
    q = linalg.qr_unitary(np.eye(3, dtype=complex))
    assert np.allclose(q, np.eye(3), atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 6]))
@settings(max_examples=50)
def test_qr_unitary_is_unitary(seed, n):
    q = linalg.qr_unitary(random_complex(seed, n))
    assert linalg.max_abs(q.conj().T @ q - np.eye(n)) <= 1e-10
    assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10


def test_qr_unitary_deterministic():
    m = random_complex(8, 4)
    assert np.array_equal(linalg.qr_unitary(m), linalg.qr_unitary(m.copy()))


def test_qr_unitary_singular_input():
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularInput):
        linalg.qr_unitary(m)


def test_qr_unitary_rows_flags_singular_slices():
    m = np.stack([random_complex(3, 2), np.ones((2, 2), dtype=complex)])
    q, regular = linalg.qr_unitary_rows(m)
    assert regular.tolist() == [True, False]
    assert np.array_equal(q[0], linalg.qr_unitary(m[0]))


def test_qr_unitary_haar_trace_mean():
    # E[tr U] = 0 under Haar; CLT bound frozen at 3 * sqrt(4 / 1e5)
    rng = RngStream(2718, 0)
    total = 0.0 + 0.0j
    n_draws = 100_000
    for _ in range(25):
        g = rng.complex_normals((n_draws // 25, 4, 4))
        q = linalg.qr_unitary(g)
        total += np.einsum("bii->b", q).sum()
    assert abs(total / n_draws) <= 0.019


# ------------------------------------------------------- partial transpose

def bell_phi_plus():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_pt_fixes_maximally_mixed():
    rho = np.eye(4, dtype=complex) / 4
    assert np.allclose(linalg.partial_transpose(rho, (2, 2)), rho, atol=1e-15)


def test_pt_product_state_spectrum_unchanged():
    a = random_hermitian(50, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(51, 2)
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    pt = linalg.partial_transpose(rho, (2, 2), subsystem="A")
    assert np.allclose(pt, np.kron(a.T, b), atol=1e-14)
    assert np.allclose(
        linalg.hermitian_eigenvalues(pt), linalg.hermitian_eigenvalues(rho), atol=1e-12
    )
    assert linalg.hermitian_eigenvalues(pt)[0] >= -1e-12


def test_pt_bell_state_spectrum():
    # hand eigendecomposition of the partially transposed Bell projector
    pt = linalg.partial_transpose(bell_phi_plus(), (2, 2), subsystem="B")
    w = linalg.hermitian_eigenvalues(pt)
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), sub=st.sampled_from(["A", "B"]),
       dims=st.sampled_from([(2, 2), (2, 3)]))
@settings(max_examples=60)
def test_pt_involution_trace_hermiticity(seed, sub, dims):
    n = dims[0] * dims[1]
    m = random_hermitian(seed, n)
    pt = linalg.partial_transpose(m, dims, subsystem=sub)
    assert np.array_equal(linalg.partial_transpose(pt, dims, subsystem=sub), m)
    assert abs(np.trace(pt) - np.trace(m)) <= 1e-14
    assert linalg.max_abs(pt - linalg.adjoint(pt)) <= 1e-14


def test_pt_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_transpose(np.eye(4, dtype=complex), (2, 3))
    with pytest.raises(DimensionMismatch):
        linalg.partial_transpose(np.eye(4, dtype=complex), (2, 2), subsystem="C")


# ----------------------------------------------------------- partial trace

def test_ptrace_product_state():
    a = random_hermitian(60, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(61, 3)
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    assert np.allclose(linalg.partial_trace(rho, (2, 3), keep="A"), a, atol=1e-12)
    assert np.allclose(linalg.partial_trace(rho, (2, 3), keep="B"), b, atol=1e-12)


def test_ptrace_bell_state():
    red = linalg.partial_trace(bell_phi_plus(), (2, 2), keep="A")
    assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_ptrace_maximally_mixed_2x3():
    red = linalg.partial_trace(np.eye(6, dtype=complex) / 6, (2, 3), keep="A")
    assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_ptrace_consistency_with_lifted_observable():
    # tr(rho_A X) must equal tr(rho (X kron I_B))
    rng = RngStream(99, 0)
    for dims in [(2, 2), (2, 3)]:
        n = dims[0] * dims[1]
        g = rng.complex_normals((n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho_a = linalg.partial_trace(rho, dims, keep="A")
        for _ in range(50):
            x = rng.complex_normals((2, 2))
            x = (x + x.conj().T) / 2
            lhs = np.trace(rho_a @ x)
            rhs = np.trace(rho @ np.kron(x, np.eye(dims[1])))
            assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------- numerical rank

def test_rank_identity():
    assert linalg.numerical_rank(np.eye(4, dtype=complex), 1e-9) == 4


def test_rank_below_threshold():
    m = np.diag([1.0, 1e-15, 0.0, 0.0]).astype(complex)
    assert linalg.numerical_rank(m, 1e-9) == 1


def test_rank_zero_matrix():
    assert linalg.numerical_rank(np.zeros((3, 3), dtype=complex)) == 0


def test_rank_two_block_construction_exact_oracle():
    # fixed Gaussian-integer instance of [[A, B], [C, C A^-1 B]]; sympy gives
    # the exact rank and vanishing 3x3 minors, the numerical path must agree
    sympy = pytest.importorskip("sympy")
    a = [[1, 1 + sympy.I], [0, 2]]
    b = [[2, sympy.I], [1, 0]]
    c = [[1, 0], [sympy.I, 1]]
    A, B, C = sympy.Matrix(a), sympy.Matrix(b), sympy.Matrix(c)
    D = C * A.inv() * B
    Z = sympy.Matrix(sympy.BlockMatrix([[A, B], [C, D]]))
    assert Z.rank() == 2
    minors = [
        Z[rows, cols].det()
        for rows in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for cols in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ]
    assert all(sympy.simplify(m) == 0 for m in minors)

    z_num = np.array(Z.evalf(), dtype=complex)
    assert linalg.numerical_rank(z_num @ z_num.conj().T) == 2


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_rank_full_rank_gram(seed):
    z = random_complex(seed, 4)
    assert linalg.numerical_rank(z @ z.conj().T) == 4
