"""Random-matrix ensembles: Ginibre, fixed-rank Ginibre, Haar, HS and Bures states.

A state of a ``(d_A, d_B)`` system is built from an n x n complex Ginibre
matrix Z (n = d_A * d_B, entries with independent N(0, 1) real and imaginary
parts):

* Hilbert-Schmidt:  rho = Z Z+ / tr(Z Z+)
* Bures:            rho = (I + U) Z Z+ (I + U+) / tr(...)   with U Haar unitary

Rank-deficient states use a rank-k Ginibre matrix assembled from Gaussian
blocks A (k x k), B (k x (n-k)), C ((n-k) x k) with the closing block
D = C A^{-1} B, which pins the rank to exactly k.

Uniform draws one attempt consumes:

===========================  =============================
rank-k Ginibre               2 k (2 n - k), so 2 n^2 at k = n
Haar unitary                 2 n^2
HS state                     one rank-k Ginibre
Bures state                  one rank-k Ginibre, then one Haar unitary
===========================  =============================

An attempt whose pivot block A is ill-conditioned or whose Haar QR input is
numerically singular is irregular; an irregular attempt is dropped whole, so
every attempt consumes the draws above.  Both events are astronomically
rare.  Each round inverts its pivot blocks once, and that inverse serves both
the pivot test, ||A||_F ||A^{-1}||_F <= 1 / PIVOT_COND_RTOL, and the closing
block.  An exactly singular A (an exactly zero LU pivot) gets a NaN inverse
and so is irregular too.

No state is rejected for its numerical rank (``linalg.RANK_RTOL``): measured
over 491,520 draws each, 3.1e-4 of full-rank Bures 2x2 states and 6.9e-4 of
2x3 ones have numerical rank below n, because (I + U) is nearly singular.
They are valid Bures draws and are kept; every other ensemble pins its rank
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, RankCollapse, UnsupportedDimensions
from .rng import RngStream, check_int, complex_normals_from_uniforms

#: An attempt is irregular when its pivot block's Frobenius condition number
#: ||A||_F ||A^{-1}||_F exceeds 1 / PIVOT_COND_RTOL.  It lies between cond_2(A)
#: and k cond_2(A), so cond_2 up to 1e12 / k is always regular.
PIVOT_COND_RTOL = 1e-12

#: Consecutive irregular attempts after which sampling raises RankCollapse
#: instead of degrading silently.
RETRY_LIMIT = 100

#: Supported measures and ``(d_A, d_B)`` dimensions: PPT is conclusive on exactly these.
MEASURES = ("hs", "bures")
DIMS = ((2, 2), (2, 3))


def check_dims(dims) -> tuple[int, int]:
    """``dims`` as a ``(d_A, d_B)`` tuple: the one dimension rule.

    Raises UnsupportedDimensions, a ValueError, unless ``dims`` is in DIMS.
    """
    dims = tuple(dims)
    if dims not in DIMS:
        got = "x".join(map(str, dims))
        raise UnsupportedDimensions(f"PPT is conclusive only for 2x2 and 2x3 systems, got {got}")
    return dims


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: measure ('hs' or 'bures'), dimensions and target rank."""

    measure: str
    d_A: int
    d_B: int
    rank: int

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        for name in ("d_A", "d_B", "rank"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        check_dims((self.d_A, self.d_B))
        if not 1 <= self.rank <= self.dim:
            raise ValueError(f"rank must be in 1..{self.dim}, got {self.rank}")

    @property
    def dim(self) -> int:
        return self.d_A * self.d_B


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated bipartite state: Hermitian, unit trace, PSD, tagged (d_A, d_B)."""

    matrix: np.ndarray
    d_A: int
    d_B: int

    # Invariant tolerances (relative to the largest eigenvalue where sensible);
    # Hermiticity is linalg.HERMITICITY_RTOL.
    TRACE_ATOL = 1e-12
    PSD_RTOL = 1e-10

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.d_A * self.d_B
        if m.shape != (n, n):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match dims {self.d_A}x{self.d_B}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.d_A, self.d_B)

    def validate(self) -> "DensityMatrix":
        """Check finite entries, Hermiticity, unit trace and positivity; raise
        ValueError if not (NotHermitian, from the eigen-solve, for the first two)."""
        m = self.matrix
        w = linalg.hermitian_eigenvalues(m)
        if abs(np.trace(m).real - 1.0) > self.TRACE_ATOL or abs(np.trace(m).imag) > self.TRACE_ATOL:
            raise ValueError("density matrix trace differs from 1")
        if w[0] < -self.PSD_RTOL * max(w[-1], 0.0):
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        return self


def assemble_rank_deficient(a, b, c, a_inv) -> np.ndarray:
    """Assemble [[A, B], [C, (C A^{-1}) B]] from A's inverse ``a_inv``; the
    result has rank = A's size.

    Accepts stacked blocks with matching leading axes.
    """
    k = a.shape[-1]
    z = np.empty(a.shape[:-2] + (k + c.shape[-2],) * 2, dtype=complex)
    z[..., :k, :k] = a
    z[..., :k, k:] = b
    z[..., k:, :k] = c
    z[..., k:, k:] = (c @ a_inv) @ b
    return z


def _pivot_inverse(a: np.ndarray) -> np.ndarray:
    """A^{-1} of every pivot block; NaN for a block with an exactly zero LU pivot.

    Batched ``inv`` raises for the whole stack if one block is exactly
    singular; such a block gets a NaN inverse, which ``_pivot_ok`` rejects.
    """
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(a) == 0
        a_inv = np.full_like(a, np.nan)
        a_inv[~singular] = np.linalg.inv(a[~singular])
        return a_inv


def _pivot_ok(a: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    """True where ||A||_F ||A^{-1}||_F <= 1 / PIVOT_COND_RTOL.

    A non-finite inverse fails the comparison, so it is never regular.
    """
    cond = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(a_inv, axis=(-2, -1))
    return cond <= 1 / PIVOT_COND_RTOL


def hs_state(z: np.ndarray) -> np.ndarray:
    """Z Z+ normalized to unit trace (accepts stacked Z)."""
    w = z @ linalg.adjoint(z)
    tr = np.einsum("...ii->...", w).real
    # Scaling both parts by 1 / tr is, bit for bit, what numpy's complex
    # division by a real divisor computes, at a third of the cost.
    parts = w.view(np.float64)
    parts *= (1.0 / tr)[..., None, None]
    return w


def bures_state(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(I + U) Z Z+ (I + U+) normalized to unit trace (accepts stacks)."""
    return hs_state(z + u @ z)


def sample_state(spec: EnsembleSpec, rng: RngStream) -> DensityMatrix:
    """One density matrix from the requested ensemble: ``sample_states(spec, rng, 1)``."""
    return DensityMatrix(sample_states(spec, rng, 1)[0], spec.d_A, spec.d_B)


def _ginibre_normals(spec: EnsembleSpec) -> int:
    """Complex normals of a rank-k Ginibre draw: k^2 + 2 k (n - k), so n^2 at k = n."""
    return spec.rank * (2 * spec.dim - spec.rank)


def uniform_draws_per_sample(spec: EnsembleSpec) -> int:
    """Uniform draws one attempt consumes (see module docstring)."""
    haar = spec.dim**2 if spec.measure == "bures" else 0
    return 2 * (_ginibre_normals(spec) + haar)


def sample_states(spec: EnsembleSpec, rng: RngStream, count: int) -> np.ndarray:
    """The first ``count`` regular attempts of the stream as a (count, n, n) stack.

    Attempt j of a stream uses uniforms [j D, (j + 1) D), with D =
    :func:`uniform_draws_per_sample`.  It is regular if its pivot block A
    passes the PIVOT_COND_RTOL test ||A||_F ||A^{-1}||_F <= 1e12 (k < n; an
    exactly singular A has a NaN inverse and fails it) and its Haar QR input
    passes the ``linalg.QR_SINGULAR_RTOL`` test (Bures); an irregular attempt
    is dropped whole.  Each round draws the shortfall as one stack and keeps
    every regular attempt in it, so the stream ends just past the last state
    returned, and ``sample_states(a)`` followed by ``sample_states(b)``
    returns what ``sample_states(a + b)`` returns.  RETRY_LIMIT consecutive
    irregular attempts, counted across rounds, raise RankCollapse.
    """
    count = check_int("count", count, lo=1)
    rounds = []
    filled = 0
    irregular_run = 0
    while filled < count:
        states, regular = _attempts(spec, rng, count - filled)
        kept = np.flatnonzero(regular)
        gaps = np.diff(np.concatenate(([-1 - irregular_run], kept, [regular.size]))) - 1
        if gaps.max() >= RETRY_LIMIT:
            raise RankCollapse(
                f"{RETRY_LIMIT} consecutive irregular attempts; "
                "persistent irregularity indicates a tolerance bug"
            )
        irregular_run = int(gaps[-1])
        rounds.append(states)
        filled += kept.size
    return rounds[0] if len(rounds) == 1 else np.concatenate(rounds)


def _attempts(spec: EnsembleSpec, rng: RngStream, rows: int):
    """Draw the next ``rows`` attempts as one stack.

    Returns the states of the regular attempts, in stream order, and the
    mask of regular attempts.
    """
    n, k = spec.dim, spec.rank
    m = n - k
    n_z = _ginibre_normals(spec)
    # One Box-Muller pass over the attempt's uniforms, which are not kept:
    # Z takes the first n_z normals and the Haar input G the rest.
    u = rng.uniforms((rows, uniform_draws_per_sample(spec)))
    normals = complex_normals_from_uniforms(u.reshape(rows, -1, 2))
    del u
    z = normals[:, :n_z]
    regular = np.ones(rows, dtype=bool)
    if k < n:
        a = z[:, : k * k].reshape(rows, k, k)
        b = z[:, k * k : k * k + k * m].reshape(rows, k, m)
        c = z[:, k * k + k * m :].reshape(rows, m, k)
        a_inv = _pivot_inverse(a)
        regular &= _pivot_ok(a, a_inv)
    if spec.measure == "bures":
        q, qr_regular = linalg.qr_unitary_rows(normals[:, n_z:].reshape(rows, n, n))
        regular &= qr_regular

    keep = slice(None) if regular.all() else regular
    if k == n:
        z = z[keep].reshape(-1, n, n)
    else:
        z = assemble_rank_deficient(a[keep], b[keep], c[keep], a_inv[keep])
    states = bures_state(z, q[keep]) if spec.measure == "bures" else hs_state(z)
    return states, regular
