"""Separability tests for bipartite states: PPT verdict, rank witness, Bloch vector.

The PPT (positive partial transpose) criterion is necessary and sufficient
exactly for 2x2 and 2x3 systems, so the verdict refuses larger dimensions
where "separable" would be unsound.

Every stage has one batched kernel over a ``(count, n, n)`` stack of density
matrices: :func:`classify_states` (verdict and Bloch radius, the estimator's
hot path), :func:`min_pt_eigenvalues` (the eigen-solve) and
:func:`audit_ranks` (numerical ranks, off the hot path).  The one-state
functions are thin wrappers over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .ensembles import DensityMatrix, check_dims
from .errors import DimensionMismatch

#: States whose partial transpose dips below -PPT_TOL are declared entangled.
#: Boundary states are measure zero under both ensembles; the tolerance only
#: absorbs eigensolver rounding.
PPT_TOL = 1e-10

#: Upper bound on the rounding error of ``linalg.hermitian_determinant`` on
#: the partial transpose of a density matrix (n = 4 or 6, entries of modulus
#: at most 1, eigenvalues of modulus at most 1).  LU with partial pivoting
#: computes the exact factors of PT + E with |E| <= gamma_n |L||U| entrywise
#: (Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.3), where
#: |l_ij| <= 1 and |u_ij| <= 2^(i-1), so |E_ij| <= gamma_n (2^n - 1); for
#: n = 6 that is 6.7e-16 * 63 = 4.2e-14, or 6e-14 with complex arithmetic's
#: extra sqrt(2).  To first order the determinant moves by at most
#: sum |adj(PT)_ji E_ij| <= n^(3/2) max|E|, since the adjugate's eigenvalues
#: are products of n - 1 eigenvalues of modulus <= 1: at most 9e-13.  The
#: product of the U diagonal adds n u |det| < 1e-15.  Measured errors against
#: the product of ``eigvalsh`` eigenvalues are below 2e-16.
DET_MARGIN = 1e-12

#: Rows and columns of the 2x3 partial transpose's principal 4x4 blocks on
#: the B-levels {0, 1}, {0, 2} and {1, 2} (flat index i * 3 + mu).
_QUTRIT_PAIR_BLOCKS = np.array([[a, b, 3 + a, 3 + b] for a, b in ((0, 1), (0, 2), (1, 2))])

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass(frozen=True)
class SeparabilityVerdict:
    """PPT outcome of one state and its smallest partial-transpose eigenvalue."""

    separable: bool
    min_pt_eigenvalue: float


@dataclass(frozen=True, eq=False)
class BatchClassification:
    """Per-sample PPT verdicts and Bloch radii for a stack, as parallel arrays.

    ``min_pt_eigenvalue`` holds the smallest partial-transpose eigenvalue on
    the rows that needed an eigen-solve and NaN on the rows the determinant
    decided; :func:`min_pt_eigenvalues` gives it for every row.
    """

    separable: np.ndarray
    min_pt_eigenvalue: np.ndarray
    bloch_radius: np.ndarray


class RankAudit(NamedTuple):
    """Numerical ranks of each state and of both of its marginals."""

    state: np.ndarray
    reduced_A: np.ndarray
    reduced_B: np.ndarray

    @property
    def witness(self) -> np.ndarray:
        """True certifies entanglement: separable states have
        rank(rho) >= max(rank(rho_A), rank(rho_B)).  False is non-informative."""
        return self.state < np.maximum(self.reduced_A, self.reduced_B)


@dataclass(frozen=True)
class BlochVector:
    components: tuple[float, float, float]
    radius: float


def check_ppt_tol(ppt_tol: float) -> None:
    """Raise ValueError unless ``ppt_tol`` is finite and >= 0, which the
    verdict lambda_min >= -ppt_tol and its determinant shortcuts assume."""
    if not (math.isfinite(ppt_tol) and ppt_tol >= 0):
        raise ValueError("ppt_tol must be finite and >= 0")


def min_pt_eigenvalues(states: np.ndarray, dims) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose (on B) of each state."""
    pt = linalg.partial_transpose(states, dims, subsystem="B")
    return linalg.hermitian_eigenvalues(pt)[..., 0]


def classify_states(states: np.ndarray, dims, ppt_tol: float = PPT_TOL) -> BatchClassification:
    """PPT verdicts and Bloch radii for a (count, n, n) stack of density matrices.

    A row is separable when the smallest eigenvalue of its partial transpose
    is >= -ppt_tol.  Most rows are decided by determinants alone.  The PT
    keeps the Frobenius norm, so its eigenvalues, and those of each of its
    principal blocks, have modulus at most ||rho||_F <= 1; hence the
    determinant of the PT or of such a block is at most its smallest
    eigenvalue in modulus.  A 2x2 PT has at most one negative eigenvalue
    (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998) and a 2x3 PT at most two
    (Rana, PRA 87, 054301, 2013).  Hence, with DET_MARGIN bounding the
    determinant's rounding error (its n = 6 derivation covers n = 4):

    * det < -(ppt_tol + DET_MARGIN) proves lambda_min < -ppt_tol (2x2, 2x3);
    * det > DET_MARGIN proves lambda_min > 0 in 2x2;
    * in 2x3, a principal 4x4 block on the B-levels {0, 1}, {0, 2} or
      {1, 2} with det < -(ppt_tol + DET_MARGIN) has an eigenvalue below
      -ppt_tol, and by Cauchy interlacing lambda_min(PT) <= lambda_min(block),
      so the row is entangled.  This decides most entangled 2x3 rows with
      det PT > 0 (two negative eigenvalues), which the PT's own determinant
      cannot.

    Every other row (small |det|, or a 2x3 row no block decides) gets the
    eigen-solve.  So every row's verdict equals lambda_min >= -ppt_tol, the
    verdict of :func:`ppt_verdict`.  The transpose is taken on subsystem B;
    the criterion is side-symmetric.  The PT's Hermiticity is checked once,
    by the determinant; the blocks and the eigen-solve reuse it.  Raises
    ValueError unless ``ppt_tol`` is finite and >= 0 and the dims are 2x2 or
    2x3 (UnsupportedDimensions).
    """
    check_ppt_tol(ppt_tol)
    dims = check_dims(dims)
    entangled_below = -(ppt_tol + DET_MARGIN)
    pt = linalg.partial_transpose(states, dims, subsystem="B")
    det = linalg.hermitian_determinant(pt)
    if dims == (2, 2):
        separable = det > DET_MARGIN
    else:
        separable = np.zeros(det.shape, dtype=bool)
    rows = np.flatnonzero(~separable & (det >= entangled_below))
    if dims == (2, 3) and rows.size:
        idx = _QUTRIT_PAIR_BLOCKS
        blocks = pt[rows[:, None, None, None], idx[:, :, None], idx[:, None, :]]
        block_det = linalg.hermitian_determinant(blocks, check_hermitian=False)
        rows = rows[(block_det >= entangled_below).all(axis=1)]
    min_pt = np.full(det.shape, np.nan)
    if rows.size:
        min_pt[rows] = linalg.hermitian_eigenvalues(pt[rows], check_hermitian=False)[:, 0]
        separable[rows] = min_pt[rows] >= -ppt_tol
    return BatchClassification(
        separable=separable,
        min_pt_eigenvalue=min_pt,
        bloch_radius=np.linalg.norm(_bloch_components(states, dims, "A"), axis=-1),
    )


def audit_ranks(states: np.ndarray, dims) -> RankAudit:
    """Numerical ranks of each state and of its two marginals (any dims)."""
    return RankAudit(
        state=linalg.numerical_rank(states),
        reduced_A=linalg.numerical_rank(linalg.partial_trace(states, dims, keep="A")),
        reduced_B=linalg.numerical_rank(linalg.partial_trace(states, dims, keep="B")),
    )


def ppt_verdict(rho: DensityMatrix, ppt_tol: float = PPT_TOL) -> SeparabilityVerdict:
    """Classify one 2x2 or 2x3 state from its minimum PT eigenvalue: one
    partial transpose and one eigen-solve, the verdict of :func:`classify_states`."""
    check_ppt_tol(ppt_tol)
    lam = float(min_pt_eigenvalues(rho.matrix[None], check_dims(rho.dims))[0])
    return SeparabilityVerdict(separable=lam >= -ppt_tol, min_pt_eigenvalue=lam)


def rank_witness(rho: DensityMatrix) -> bool:
    """True certifies entanglement (see :attr:`RankAudit.witness`)."""
    return bool(audit_ranks(rho.matrix[None], rho.dims).witness[0])


def _bloch_components(states: np.ndarray, dims, subsystem: str) -> np.ndarray:
    reduced = linalg.partial_trace(states, dims, keep=subsystem)
    if reduced.shape[-1] != 2:
        raise DimensionMismatch(f"subsystem {subsystem} has dimension {reduced.shape[-1]}, not a qubit")
    return np.einsum("...ij,kji->...k", reduced, PAULIS).real


def bloch_vector(rho: DensityMatrix, subsystem: str = "A") -> BlochVector:
    """Bloch vector b_i = tr(rho_sub sigma_i) of qubit subsystem 'A' or 'B'."""
    comps = _bloch_components(rho.matrix, rho.dims, subsystem)
    return BlochVector(
        components=(float(comps[0]), float(comps[1]), float(comps[2])),
        radius=float(np.linalg.norm(comps)),
    )
