"""Counter-based random streams for reproducible parallel sampling.

Each :class:`RngStream` is an independent Philox-4x64 stream keyed by
``(seed, stream_id)``.  Distinct stream ids under one seed give
statistically independent, non-overlapping sequences, and the same pair
always replays the identical sequence bit for bit, on any platform and
under any scheduling.

All randomness used by the samplers flows through :meth:`RngStream.uniforms`
(one 64-bit draw per uniform double).  Normal variates are produced with the
Box-Muller transform, so every complex Gaussian entry consumes exactly two
uniform draws and stream positions stay aligned across runs.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def complex_normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Box-Muller: map uniform pairs ``(..., 2)`` to complex N(0,1)+iN(0,1).

    Shared by :meth:`RngStream.complex_normals` and the batched sampler in
    ``ensembles``, so both consume the stream identically.
    """
    # 1 - u lies in (0, 1], which keeps the log finite for u == 0.
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = (2.0 * np.pi) * u[..., 1]
    return r * np.cos(theta) + 1j * (r * np.sin(theta))


class RngStream:
    """One reproducible random stream identified by ``(seed, stream_id)``."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = self.seed | (self.stream_id << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.draws = 0

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniforms(self, shape) -> np.ndarray:
        """Uniform doubles in [0, 1); consumes one draw per element."""
        out = self._gen.random(shape)
        self.draws += out.size
        return out

    def complex_normals(self, shape) -> np.ndarray:
        """Complex entries with independent N(0, 1) real and imaginary parts.

        Box-Muller on uniform pairs: each complex entry consumes exactly two
        uniform draws.
        """
        if np.isscalar(shape):
            shape = (shape,)
        return complex_normals_from_uniforms(self.uniforms(tuple(shape) + (2,)))
