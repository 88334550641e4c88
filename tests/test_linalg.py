"""Linear-algebra kernels: frozen examples, exact oracles, invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsepmc import linalg
from qsepmc.errors import DimensionMismatch, NoConvergence, NotHermitian
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
    w = linalg.hermitian_eigenvalues(np.eye(4, dtype=complex))
    assert np.allclose(w, np.ones(4), atol=1e-14)


def test_eigen_diagonal_sorted_ascending():
    w = linalg.hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.allclose(w, [-1.0, 2.0, 3.0], atol=1e-14)


def test_eigen_2x2_hand_solved():
    # characteristic polynomial: trace 5, det = 6 - |1-i|^2 = 4, so
    # lambda^2 - 5 lambda + 4 = 0 with roots 1 and 4
    m = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    w = linalg.hermitian_eigenvalues(m)
    assert np.allclose(w, [1.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("n,count", [(4, 500), (6, 500)])
def test_eigen_power_sums(n, count):
    # without eigenvectors, the spectrum is pinned by its power sums:
    # sum(w**p) = tr(m^p) for p = 1..n determines the n eigenvalues
    rng = RngStream(314, 0)
    for _ in range(count):
        g = rng.complex_normals((n, n))
        m = (g + g.conj().T) / 2
        w = linalg.hermitian_eigenvalues(m)
        assert np.all(np.diff(w) >= 0)
        for p in range(1, n + 1):
            trace = np.trace(np.linalg.matrix_power(m, p)).real
            assert abs((w**p).sum() - trace) <= 1e-9 * (np.abs(w) ** p).sum()


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def per_slice_hermiticity_rejects(stack):
    """Reference rule, one slice at a time: a non-finite entry, or a defect
    above HERMITICITY_RTOL times the slice's own sup norm."""
    for m in stack.reshape((-1,) + stack.shape[-2:]):
        scale = np.abs(m).max(initial=0.0)
        if not np.isfinite(scale):
            return True
        if np.abs(m - m.conj().T).max(initial=0.0) > linalg.HERMITICITY_RTOL * max(scale, 1e-300):
            return True
    return False


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 4, 6]),
    rows=st.integers(1, 4),
    exponents=st.lists(st.integers(-200, 200), min_size=4, max_size=4),
    kind=st.sampled_from(["hermitian", "traceless", "density"]),
    defect=st.sampled_from([0.0, 1e-14, 5e-13, 0.9e-12, 1.1e-12, 5e-12, 1e-6]),
    part=st.sampled_from([1.0, 1j, (1 + 1j) / np.sqrt(2)]),
    diagonal=st.booleans(),
    poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
)
@settings(max_examples=300)
def test_hermiticity_rule_matches_per_slice_reference(
    seed, n, rows, exponents, kind, defect, part, diagonal, poison
):
    # the stack-wide shortcut must reach the per-slice rule's verdict on
    # slices of any scale, traceless and unit-trace ones, and non-finite
    # real or imaginary parts, on or off the diagonal
    g = np.random.default_rng(seed)
    if kind == "density":
        z = np.stack([random_complex(seed + i, n) for i in range(rows)])
        stack = z @ z.conj().swapaxes(-1, -2)
        stack /= np.trace(stack, axis1=-2, axis2=-1)[:, None, None]
    else:
        stack = np.stack([random_hermitian(seed + i, n) for i in range(rows)])
    if kind == "traceless":
        stack -= np.trace(stack, axis1=-2, axis2=-1)[:, None, None] * np.eye(n) / n
    stack *= 10.0 ** np.array(exponents[:rows], dtype=float)[:, None, None]
    i, j = g.integers(rows), g.integers(n)
    k = j if diagonal else (j + 1) % n
    stack[i, j, k] += part * defect * np.abs(stack[i]).max()
    if poison is not None:
        (stack.real if part == 1.0 else stack.imag)[i, k, j] = poison
    if per_slice_hermiticity_rejects(stack):
        match = "NaN or infinite" if poison is not None else "hermiticity defect"
        with pytest.raises(NotHermitian, match=match):
            linalg._require_hermitian(stack)
    else:
        linalg._require_hermitian(stack)


def test_eigen_wraps_solver_failure(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eigenvalues(np.eye(2, dtype=complex))


def test_determinant_is_product_of_eigenvalues():
    stack = np.stack([random_hermitian(seed, 6) for seed in range(50)])
    scale = np.abs(stack).max()
    det = linalg.hermitian_determinant(stack / scale)
    assert det.dtype == np.float64 and det.shape == (50,)
    expected = np.prod(linalg.hermitian_eigenvalues(stack / scale), axis=-1)
    assert np.max(np.abs(det - expected)) <= 1e-12
    diagonal = np.diag([2.0, -3.0, 0.5]).astype(complex)
    assert abs(linalg.hermitian_determinant(diagonal) + 3.0) <= 1e-15


def test_determinant_rejects_non_hermitian():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    stack = np.stack([np.eye(2, dtype=complex), nilpotent])
    with pytest.raises(NotHermitian):
        linalg.hermitian_determinant(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel", [linalg.hermitian_eigenvalues, linalg.hermitian_determinant])
def test_non_finite_entry_rejected(kernel, bad):
    # a NaN Hermiticity defect compares false against every tolerance, so a
    # NaN or infinite entry must be caught by its scale before the defect
    full = np.full((2, 4, 4), bad, dtype=complex)
    one = np.stack([np.eye(4, dtype=complex) / 4] * 2)
    one[1, 2, 2] = bad
    for stack in (full, one, one[1]):
        with pytest.raises(NotHermitian, match="NaN or infinite"):
            kernel(stack)


# ----------------------------------------------------------- qr_unitary_rows

def test_qr_unitary_identity_fixed_point():
    q, regular = linalg.qr_unitary_rows(np.eye(3, dtype=complex))
    assert regular
    assert np.allclose(q, np.eye(3), atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 6]))
@settings(max_examples=50)
def test_qr_unitary_is_unitary(seed, n):
    q, regular = linalg.qr_unitary_rows(random_complex(seed, n))
    assert regular
    assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-10
    assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10


def test_qr_unitary_deterministic():
    m = random_complex(8, 4)
    q, regular = linalg.qr_unitary_rows(m)
    q_copy, regular_copy = linalg.qr_unitary_rows(m.copy())
    assert np.array_equal(q, q_copy) and regular == regular_copy


def test_qr_unitary_singular_input():
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    _, regular = linalg.qr_unitary_rows(m)
    assert regular.shape == () and not regular


def test_qr_unitary_rows_flags_singular_slices():
    m = np.stack([random_complex(3, 2), np.ones((2, 2), dtype=complex)])
    q, regular = linalg.qr_unitary_rows(m)
    assert regular.tolist() == [True, False]
    assert np.array_equal(q[0], linalg.qr_unitary_rows(m[0])[0])


def haar_characterisation_defects(g, q):
    """Per slice: unitarity defect of Q, and the defects of R = Q+ G from an
    upper triangle with a real positive diagonal, relative to max |G|."""
    n = g.shape[-1]
    unitarity = np.abs(linalg.adjoint(q) @ q - np.eye(n)).max(axis=(-2, -1))
    r = linalg.adjoint(q) @ g
    d = np.diagonal(r, axis1=-2, axis2=-1)
    scale = np.abs(g).max(axis=(-2, -1))
    lower = np.abs(np.tril(r, -1)).max(axis=(-2, -1)) / scale
    imag = np.abs(d.imag).max(axis=-1) / scale
    return unitarity, lower, imag, d.real.min(axis=-1)


def lapack_q_phase_fixed(g):
    """Reference Haar map: LAPACK QR with R's diagonal phase absorbed into Q."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def conditioned_stack(seed, n, count, smallest):
    """count n x n complex matrices with singular values from 1 down to smallest."""
    g = np.random.default_rng(seed)

    def haar():
        return lapack_q_phase_fixed(g.normal(size=(count, n, n)) + 1j * g.normal(size=(count, n, n)))

    s = np.exp(g.uniform(np.log(smallest), 0.0, size=(count, n)))
    s[:, 0], s[:, -1] = 1.0, smallest
    return (haar() * s[:, None, :]) @ linalg.adjoint(haar())


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("smallest", [None, 1e-4, 1e-10, 1e-13, 1e-16])
def test_qr_unitary_rows_characterisation(n, smallest):
    # Gaussian stacks (None) and stacks of condition number up to 1e16: each
    # slice is flagged irregular, or its Q is unitary to 1e-13 and Q+ G is
    # upper triangular with a real positive diagonal, relative to max |G|
    if smallest is None:
        g = RngStream(41, n).complex_normals((2000, n, n))
    else:
        g = conditioned_stack(n, n, 2000, smallest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, regular = linalg.qr_unitary_rows(g)
    assert q.shape == g.shape and regular.shape == (2000,)
    assert np.all(np.isfinite(q))
    unitarity, lower, imag, diag_min = haar_characterisation_defects(g, q)
    assert unitarity[regular].max(initial=0.0) <= 1e-13
    assert lower[regular].max(initial=0.0) <= 1e-13
    assert imag[regular].max(initial=0.0) <= 1e-13
    assert np.all(diag_min[regular] > 0.0)
    if smallest is None or smallest >= 1e-10:
        # QR_SINGULAR_RTOL = 1e-12 leaves these well inside the regular range
        assert regular.all()
    if smallest == 1e-16:
        assert not regular.any()


def test_qr_unitary_rows_matches_lapack_with_phase_fix():
    # the LAPACK reference on well-conditioned Gaussian input; tolerance
    # fixed at 1e-12
    for n in (2, 3, 4, 6):
        g = RngStream(43, n).complex_normals((1000, n, n))
        q, regular = linalg.qr_unitary_rows(g)
        assert regular.all()
        assert np.abs(q - lapack_q_phase_fixed(g)).max() <= 1e-12


def test_qr_unitary_rows_flags_exactly_singular_slices():
    g = RngStream(44, 0).complex_normals((6, 4, 4))
    g[0] = 0.0                                   # zero matrix
    g[1, :, 3] = g[1, :, 0]                      # repeated column
    g[2, :, 2] = 0.5j * g[2, :, 1] - g[2, :, 0]  # column in the span of the others
    g[3] = np.outer(g[3, :, 0], g[3, 0])         # rank one
    g[4, 2] = 0.0                                # zero row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, regular = linalg.qr_unitary_rows(g)
    assert regular.tolist() == [False] * 5 + [True]
    assert np.all(np.isfinite(q))


def test_qr_unitary_rows_slicewise_and_scale_free():
    # a slice's Q and verdict do not depend on the stack it comes in, on a
    # leading shape, or on scaling the slice by a power of two
    g = RngStream(45, 0).complex_normals((37, 6, 6))
    g[5, :, 1] = g[5, :, 0]
    q, regular = linalg.qr_unitary_rows(g)
    for lo, hi in [(0, 1), (3, 4), (5, 6), (0, 2), (1, 8), (9, 30), (30, 37)]:
        q_part, regular_part = linalg.qr_unitary_rows(g[lo:hi])
        assert np.array_equal(q_part, q[lo:hi])
        assert np.array_equal(regular_part, regular[lo:hi])
    q_one, regular_one = linalg.qr_unitary_rows(g[7])
    assert np.array_equal(q_one, q[7]) and regular_one == regular[7]
    q_nd, regular_nd = linalg.qr_unitary_rows(g[:36].reshape(4, 9, 6, 6))
    assert np.array_equal(q_nd.reshape(36, 6, 6), q[:36])
    assert np.array_equal(regular_nd.ravel(), regular[:36])
    for power in (-600, -3, 5, 600):
        q_scaled, regular_scaled = linalg.qr_unitary_rows(g * 2.0**power)
        assert np.array_equal(q_scaled, q)
        assert np.array_equal(regular_scaled, regular)


def test_qr_unitary_haar_trace_mean():
    # E[tr U] = 0 under Haar; CLT bound frozen at 3 * sqrt(4 / 1e5)
    rng = RngStream(2718, 0)
    total = 0.0 + 0.0j
    n_draws = 100_000
    for _ in range(25):
        g = rng.complex_normals((n_draws // 25, 4, 4))
        q, regular = linalg.qr_unitary_rows(g)
        assert regular.all()
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
    assert np.abs(pt - linalg.adjoint(pt)).max() <= 1e-14


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
    assert linalg.numerical_rank(np.eye(4, dtype=complex)) == 4


def test_rank_below_threshold():
    m = np.diag([1.0, 1e-15, 0.0, 0.0]).astype(complex)
    assert linalg.numerical_rank(m) == 1


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
