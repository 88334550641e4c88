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

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, SingularInput

# Relative tolerances, all against the entrywise sup norm or the largest
# eigenvalue of the input.
HERMITICITY_RTOL = 1e-10
QR_SINGULAR_RTOL = 1e-12
RANK_RTOL = 1e-9


class EigenResult(NamedTuple):
    """Hermitian eigendecomposition: eigenvalues ascending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def max_abs(m) -> float:
    """Entrywise sup norm, the reference scale for all relative tolerances."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    m = _require_square(m)
    scale = max_abs(m)
    defect = max_abs(m - adjoint(m))
    if defect > HERMITICITY_RTOL * max(scale, 1e-300):
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )
    return m


def hermitian_eigen(m: np.ndarray) -> EigenResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian if the input fails the hermiticity tolerance and
    NoConvergence if the underlying solver gives up.
    """
    m = _require_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenResult(w, v)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    m = _require_hermitian(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def qr_unitary_rows(m: np.ndarray):
    """Phase-fixed unitary Q factor of each slice, and a mask of regular slices.

    The diagonal-of-R phase is absorbed into Q, which makes Q a
    deterministic function of m and, for Gaussian-distributed m,
    Haar-distributed on the unitary group.  A slice is regular unless some
    R diagonal entry is below QR_SINGULAR_RTOL times its entrywise sup norm;
    exact zeros on the R diagonal keep phase 1.
    """
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(d)
    phase = np.where(absd > 0.0, d / np.where(absd > 0.0, absd, 1.0), 1.0)
    regular = absd.min(axis=-1) >= QR_SINGULAR_RTOL * np.abs(m).max(axis=(-2, -1))
    return q * phase[..., None, :], regular


def qr_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary Q factor of m with the diagonal-of-R phase fix.

    Raises SingularInput when any slice is not regular (see
    :func:`qr_unitary_rows`).
    """
    q, regular = qr_unitary_rows(_require_square(m))
    if not np.all(regular):
        raise SingularInput("QR diagonal underflow: input numerically singular")
    return q


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


def numerical_rank(m: np.ndarray, rel_tol: float = RANK_RTOL):
    """Count of eigenvalues above ``rel_tol`` times the largest eigenvalue.

    Intended for Hermitian PSD inputs (density and Gram matrices); returns 0
    for the zero matrix.  Stacked inputs yield an integer array.
    """
    w = hermitian_eigenvalues(m)
    lam_max = np.maximum(w[..., -1], 0.0)
    rank = np.count_nonzero(w > rel_tol * lam_max[..., None], axis=-1)
    return int(rank) if np.ndim(rank) == 0 else rank
