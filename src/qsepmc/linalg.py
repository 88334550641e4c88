"""Dense complex linear algebra for small bipartite systems (n <= 8).

All functions accept a single matrix of shape ``(n, n)`` or a stack of
matrices of shape ``(..., n, n)``; stacked inputs are processed slice by
slice with identical results, which the Monte-Carlo engine relies on.

Composite index convention: the bipartite basis label ``(i, mu)`` of an
``(d_A, d_B)`` system maps to the flat row index ``i * d_B + mu``, i.e.
subsystem A is the slow index.  Every partial operation below shares this
convention.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

# Relative tolerances, all against the entrywise sup norm or the largest
# eigenvalue of the input.  HERMITICITY_RTOL is the package's one Hermiticity
# rule; DensityMatrix.validate gets it from hermitian_eigenvalues.
HERMITICITY_RTOL = 1e-12
QR_SINGULAR_RTOL = 1e-12
RANK_RTOL = 1e-9

# Batch-axis padding of qr_unitary_rows: a multiple of every SIMD width.
_QR_LANES = 8


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as a complex array, unless a slice has a NaN or infinite entry or
    a Hermiticity defect max|m - m+| above HERMITICITY_RTOL times its own sup
    norm.

    Each slice is judged against its own scale, so a stack rejects exactly
    the slices that would be rejected alone.  The exact per-slice rule runs
    only when a stack-wide bound cannot settle it: an entry of m - m+ has
    modulus at most sqrt(2) times the larger of its real and imaginary parts,
    and |tr m| / n is at most the slice's sup norm.  The bound uses 2 for
    sqrt(2), a margin far above rounding, and is finite only when every entry
    of m is.
    """
    m = _require_square(m)
    re, im = m.real, m.imag
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN the bound catches
        d_re = re - np.swapaxes(re, -1, -2)
        d_im = im + np.swapaxes(im, -1, -2)
    bound = 2 * np.maximum(np.abs(d_re).max(initial=0.0), np.abs(d_im).max(initial=0.0))
    trace_scale = np.abs(np.einsum("...ii->...", m)).min(initial=np.inf) / max(m.shape[-1], 1)
    if np.isfinite(bound + trace_scale) and bound <= HERMITICITY_RTOL * trace_scale:
        return m
    scales = np.abs(m).max(axis=(-2, -1), initial=0.0)
    # a NaN defect would pass the comparison below, so check the scales first
    if not np.isfinite(scales).all():
        raise NotHermitian("matrix has a NaN or infinite entry")
    defects = np.hypot(d_re, d_im).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(defects > HERMITICITY_RTOL * np.maximum(scales, 1e-300))
    if bad.size:
        defect, scale = defects.flat[bad[0]], scales.flat[bad[0]]
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )
    return m


def hermitian_eigenvalues(m: np.ndarray, check_hermitian: bool = True) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    Raises NotHermitian if the input has a NaN or infinite entry or fails
    the hermiticity tolerance, and NoConvergence if the solver gives up.
    ``check_hermitian=False`` skips that check, for input that has passed
    it already.
    """
    if check_hermitian:
        m = _require_hermitian(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_determinant(m: np.ndarray, check_hermitian: bool = True) -> np.ndarray:
    """Real determinant of a Hermitian matrix, by LU with partial pivoting.

    The determinant of a Hermitian matrix is real; the rounding-level
    imaginary part of the complex LU result is dropped.  Raises NotHermitian
    like :func:`hermitian_eigenvalues`, whose ``check_hermitian`` it shares.
    """
    if check_hermitian:
        m = _require_hermitian(m)
    return np.linalg.det(m).real


def qr_unitary_rows(m: np.ndarray):
    """Unitary Q factor of m = Q R, R with a real positive diagonal, per slice,
    and a mask of regular slices.

    That R makes Q a deterministic function of m and, for Gaussian m,
    Haar-distributed on the unitary group (Mezzadri, Notices AMS 54, 592,
    2007).  Classical Gram-Schmidt with a second orthogonalisation pass
    (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069, 2005), run
    column by column over the whole stack: R's diagonal is the norm of each
    projected column, so no phase fix is needed.  A slice is regular unless
    some R diagonal entry is zero or below QR_SINGULAR_RTOL times the slice's
    entrywise sup norm; Q of an irregular slice is finite but need not be
    unitary.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    stack = m.reshape((-1, n, n))
    rows = stack.shape[0]
    # a[j, i, b] = m[b, i, j] / 2**e: column j of every slice, batch axis
    # innermost.  Scaling each slice's sup norm into [1/2, 1) by a power of
    # two keeps |v|^2 in range and changes no bit of Q.  The batch is padded
    # with identities to a multiple of _QR_LANES so that every complex product
    # runs on numpy's SIMD loop (its fused multiply-add rounds differently
    # from the scalar loop), and a slice's Q does not depend on its stack.
    sup, exponent = np.frexp(np.abs(stack).max(axis=(-2, -1)))
    width = -(-rows // _QR_LANES) * _QR_LANES
    a = np.empty((n, n, width), dtype=complex)
    np.multiply(stack.transpose(2, 1, 0), np.ldexp(1.0, -exponent), out=a[..., :rows])
    a[..., rows:] = np.eye(n)[..., None]
    r_diag = np.empty((n, width))
    for j in range(n):
        v = a[j]
        if j:
            q = a[:j]
            for _ in range(2):
                c = (q * v.conj()).sum(axis=1).conj()  # c[k] = <q_k, v>
                v -= (q * c[:, None]).sum(axis=0)
        squares = (v.view(np.float64) ** 2).sum(axis=0)
        norm = np.sqrt(squares[0::2] + squares[1::2])
        r_diag[j] = norm
        v *= 1.0 / np.where(norm > 0.0, norm, 1.0)
    q = np.ascontiguousarray(a[..., :rows].transpose(2, 1, 0)).reshape(m.shape)
    r_min = r_diag[:, :rows].min(axis=0)
    regular = (r_min > 0.0) & (r_min >= QR_SINGULAR_RTOL * sup)
    return q, regular.reshape(m.shape[:-2])


def _split_dims(m: np.ndarray, dims) -> tuple[int, int]:
    d_a, d_b = dims
    if d_a < 1 or d_b < 1 or m.shape[-1] != d_a * d_b:
        raise DimensionMismatch(
            f"dims {dims} incompatible with matrix size {m.shape[-1]}"
        )
    return d_a, d_b


def partial_transpose(m: np.ndarray, dims, subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one subsystem of a bipartite matrix.

    ``dims = (d_A, d_B)`` with subsystem A as the slow index.
    """
    m = _require_square(m)
    d_a, d_b = _split_dims(m, dims)
    t = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if subsystem == "A":
        t = np.swapaxes(t, -4, -2)
    elif subsystem == "B":
        t = np.swapaxes(t, -3, -1)
    else:
        raise DimensionMismatch(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(m.shape)


def partial_trace(m: np.ndarray, dims, keep: str = "A") -> np.ndarray:
    """Trace out one subsystem, keeping ``keep``."""
    m = _require_square(m)
    d_a, d_b = _split_dims(m, dims)
    t = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if keep == "A":
        return np.einsum("...imjm->...ij", t)
    if keep == "B":
        return np.einsum("...imin->...mn", t)
    raise DimensionMismatch(f"keep must be 'A' or 'B', got {keep!r}")


def numerical_rank(m: np.ndarray):
    """Count of eigenvalues above RANK_RTOL times the largest eigenvalue.

    Intended for Hermitian PSD inputs (density and Gram matrices); returns 0
    for the zero matrix.  Stacked inputs yield an integer array.
    """
    w = hermitian_eigenvalues(m)
    lam_max = np.maximum(w[..., -1], 0.0)
    rank = np.count_nonzero(w > RANK_RTOL * lam_max[..., None], axis=-1)
    return int(rank) if np.ndim(rank) == 0 else rank
