"""Random-matrix ensembles: Ginibre, fixed-rank Ginibre, Haar, HS and Bures states.

A state of a ``(d_A, d_B)`` system is built from an n x n complex Ginibre
matrix Z (n = d_A * d_B, entries with independent N(0, 1) real and imaginary
parts):

* Hilbert-Schmidt:  rho = Z Z+ / tr(Z Z+)
* Bures:            rho = (I + U) Z Z+ (I + U+) / tr(...)   with U Haar unitary

Rank-deficient states use a rank-k Ginibre matrix assembled from Gaussian
blocks A (k x k), B (k x (n-k)), C ((n-k) x k) with the closing block
D = C A^{-1} B, which pins the rank to exactly k.

Uniform draws consumed per sample (no retries), with m = n - k:

===========================  =============================
full Ginibre (k = n)         2 n^2
rank-k Ginibre (k < n)       2 (k^2 + 2 k m)   (+2 k^2 per pivot retry)
Haar unitary                 2 n^2             (+2 n^2 per singular retry)
HS state                     one rank-k Ginibre
Bures state                  one rank-k Ginibre, then one Haar unitary
===========================  =============================

A draw whose realized numerical rank (``linalg.RANK_RTOL``) misses the target
is rejected and redrawn whole.  For full-rank Bures states that happens to
about 3.2e-4 of 2x2 and 5.4e-4 of 2x3 draws, i.e. about 1.3 and 2.2 times
per 4096-state batch, when (I + U) is nearly singular; for every other
ensemble it is astronomically rare, as are pivot and QR retries.  A rejected
draw consumes exactly the draws of an accepted one, so only pivot and QR
retries change the draw count of an attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, IllConditionedBlock, RankCollapse, SingularInput
from .rng import RngStream, complex_normals_from_uniforms

#: Ratio of smallest to largest singular scale of the pivot block A below
#: which A is resampled (checked on the Gram matrix, hence squared).
PIVOT_COND_RTOL = 1e-12

#: Retry budget for ill-conditioned pivots, singular QR inputs and rank
#: collapse.  Exceeding it raises instead of degrading silently.
RETRY_LIMIT = 100

_MEASURES = ("hs", "bures")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: measure ('hs' or 'bures'), dimensions and target rank."""

    measure: str
    d_A: int
    d_B: int
    rank: int

    def __post_init__(self):
        if self.measure not in _MEASURES:
            raise ValueError(f"measure must be one of {_MEASURES}, got {self.measure!r}")
        if self.d_A != 2 or self.d_B not in (2, 3):
            raise ValueError(
                f"supported dimensions are 2x2 and 2x3, got {self.d_A}x{self.d_B}"
            )
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

    # Invariant tolerances (relative to the largest eigenvalue where sensible).
    HERMITICITY_RTOL = 1e-12
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
        """Check Hermiticity, unit trace and positivity; raise ValueError if violated."""
        m = self.matrix
        scale = max(linalg.max_abs(m), 1e-300)
        if linalg.max_abs(m - linalg.adjoint(m)) > self.HERMITICITY_RTOL * scale:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > self.TRACE_ATOL or abs(np.trace(m).imag) > self.TRACE_ATOL:
            raise ValueError("density matrix trace differs from 1")
        w = linalg.hermitian_eigenvalues(m)
        if w[0] < -self.PSD_RTOL * max(w[-1], 0.0):
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        return self


def sample_ginibre(n: int, rng: RngStream) -> np.ndarray:
    """n x n matrix with all 2 n^2 real components drawn i.i.d. N(0, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.complex_normals((n, n))


def assemble_rank_deficient(a, b, c) -> np.ndarray:
    """Assemble [[A, B], [C, C A^{-1} B]]; the result has rank = A's size.

    Accepts stacked blocks with matching leading axes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    d = np.einsum("...ij,...jk,...kl->...il", c, np.linalg.inv(a), b)
    top = np.concatenate([a, b], axis=-1)
    bottom = np.concatenate([c, d], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _pivot_ok(a: np.ndarray) -> np.ndarray:
    """True where the smallest singular scale of A is above the tolerance.

    Conditioning is measured on the Gram matrix A A+, so the singular-value
    ratio threshold appears squared.
    """
    gram = np.einsum("...ij,...kj->...ik", a, a.conj())
    w = np.linalg.eigvalsh(gram)
    return w[..., 0] >= (PIVOT_COND_RTOL**2) * np.maximum(w[..., -1], 0.0)


def sample_rank_k_ginibre(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Rank-k n x n Ginibre matrix; identical to sample_ginibre when k = n.

    The pivot block A is redrawn (at most RETRY_LIMIT times) if its singular
    scales span more than PIVOT_COND_RTOL, then B and C are drawn and the
    closing block computed.
    """
    if not 1 <= k <= n:
        raise ValueError(f"rank must be in 1..{n}, got {k}")
    if k == n:
        return sample_ginibre(n, rng)
    m = n - k
    a = rng.complex_normals((k, k))
    for _ in range(RETRY_LIMIT):
        if _pivot_ok(a):
            break
        a = rng.complex_normals((k, k))
    else:
        raise IllConditionedBlock(f"pivot block stayed ill-conditioned after {RETRY_LIMIT} draws")
    b = rng.complex_normals((k, m))
    c = rng.complex_normals((m, k))
    return assemble_rank_deficient(a, b, c)


def sample_haar_unitary(n: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre draw."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for _ in range(RETRY_LIMIT):
        g = rng.complex_normals((n, n))
        try:
            return linalg.qr_unitary(g)
        except SingularInput:
            continue
    raise SingularInput(f"no numerically regular Ginibre draw in {RETRY_LIMIT} tries")


def hs_state(z: np.ndarray) -> np.ndarray:
    """Z Z+ normalized to unit trace (accepts stacked Z)."""
    w = np.einsum("...ij,...kj->...ik", z, z.conj())
    tr = np.einsum("...ii->...", w).real
    return w / tr[..., None, None]


def bures_state(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(I + U) Z Z+ (I + U+) normalized to unit trace (accepts stacks)."""
    n = z.shape[-1]
    y = np.einsum("...ij,...jk->...ik", u + np.eye(n), z)
    return hs_state(y)


def sample_state(spec: EnsembleSpec, rng: RngStream) -> DensityMatrix:
    """One density matrix from the requested ensemble, rank enforced.

    Draws Z (rank spec.rank), then for Bures an independent Haar U, and
    resamples the whole state (at most RETRY_LIMIT times) in the rare event
    the realized numerical rank differs from the target.
    """
    n = spec.dim
    for _ in range(RETRY_LIMIT):
        z = sample_rank_k_ginibre(n, spec.rank, rng)
        if spec.measure == "bures":
            mat = bures_state(z, sample_haar_unitary(n, rng))
        else:
            mat = hs_state(z)
        if linalg.numerical_rank(mat) == spec.rank:
            return DensityMatrix(mat, spec.d_A, spec.d_B)
    raise RankCollapse(
        f"no draw realized rank {spec.rank} in {RETRY_LIMIT} tries; "
        "persistent collapse indicates a tolerance bug"
    )


def uniform_draws_per_sample(spec: EnsembleSpec) -> int:
    """Uniform draws one retry-free sample consumes (see module docstring)."""
    n, k = spec.dim, spec.rank
    d = 2 * n * n if k == n else 2 * (k * k + 2 * k * (n - k))
    if spec.measure == "bures":
        d += 2 * n * n
    return d


def sample_states(spec: EnsembleSpec, rng: RngStream, count: int) -> np.ndarray:
    """``count`` states as a (count, n, n) stack: the same states, and the
    same final stream position, as ``count`` sequential :func:`sample_state`
    calls on the same stream.

    Each round draws one retry-free attempt per missing state with stacked
    kernels.  A rank-rejected attempt is dropped, just as :func:`sample_state`
    drops it and goes on to its next attempt, and the next round draws the
    shortfall.  Only an irregular attempt (ill-conditioned pivot or singular
    QR input) consumes a different number of draws: the stream is rewound to
    where that sample's first attempt began and :func:`sample_state` draws
    that one sample.  No batch is ever replayed as a whole.  After
    RETRY_LIMIT consecutive rejections for one sample, counted across rounds,
    RankCollapse is raised at the same stream position as sequentially.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = None
    filled = 0
    # The pending sample is the next one to fill.  So far it has had
    # ``rejected`` attempts; its first one is attempt ``pending[1]`` of the
    # round that began at stream snapshot ``pending[0]``.
    rejected = 0
    while filled < count:
        start = rng.state
        if rejected == 0:
            pending = (start, 0)
        rows = count - filled
        states, accepted = _attempts(spec, rng, rows)
        if out is None and accepted.size == count and accepted.all():
            return states
        if out is None:
            out = np.empty((count, spec.dim, spec.dim), dtype=complex)
        keep = np.flatnonzero(accepted)
        runs = np.diff(np.concatenate(([-1 - rejected], keep, [accepted.size]))) - 1
        collapsed = np.flatnonzero(runs >= RETRY_LIMIT)
        if collapsed.size:
            keep = keep[: collapsed[0]]
        np.take(states, keep, axis=0, out=out[filled : filled + keep.size])
        filled += keep.size
        if keep.size:
            pending = (start, int(keep[-1]) + 1)
        if collapsed.size or accepted.size < rows:
            # Attempt accepted.size is irregular, so only the sequential
            # sampler knows how many draws it takes, or the pending sample
            # ran out of retries and sample_state raises RankCollapse.
            snapshot, offset = pending
            rng.state = snapshot
            rng.uniforms(offset * uniform_draws_per_sample(spec))
            out[filled] = sample_state(spec, rng).matrix
            filled += 1
            rejected = 0
        else:
            rejected = int(runs[-1])
    return out


def _attempts(spec: EnsembleSpec, rng: RngStream, rows: int):
    """Draw ``rows`` retry-free attempts as one stack.

    Returns the states of the attempts before the first irregular one
    (ill-conditioned pivot or singular QR input) and a mask of those with
    the target numerical rank.  Attempts from the first irregular one on are
    dropped, because each of them starts at an unknown stream position.
    """
    n, k = spec.dim, spec.rank
    m = n - k
    d_z = 2 * n * n if k == n else 2 * (k * k + 2 * k * m)
    u = rng.uniforms((rows, uniform_draws_per_sample(spec)))

    z_entries = complex_normals_from_uniforms(u[:, :d_z].reshape(rows, -1, 2))
    regular = np.ones(rows, dtype=bool)
    if k < n:
        a = z_entries[:, : k * k].reshape(rows, k, k)
        b = z_entries[:, k * k : k * k + k * m].reshape(rows, k, m)
        c = z_entries[:, k * k + k * m :].reshape(rows, m, k)
        regular &= _pivot_ok(a)
    if spec.measure == "bures":
        g = complex_normals_from_uniforms(u[:, d_z:].reshape(rows, n, n, 2))
        q, diag = linalg._qr_phase_fixed(g)
        scale = np.abs(g).max(axis=(-2, -1))
        regular &= np.abs(diag).min(axis=-1) >= linalg.QR_SINGULAR_RTOL * scale

    stop = rows if regular.all() else int(np.argmin(regular))
    if k == n:
        z = z_entries[:stop].reshape(stop, n, n)
    else:
        z = assemble_rank_deficient(a[:stop], b[:stop], c[:stop])
    states = bures_state(z, q[:stop]) if spec.measure == "bures" else hs_state(z)
    return states, linalg.numerical_rank(states) == k
