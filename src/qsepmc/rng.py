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

#: Seeds and stream ids lie in [0, KEY_LIMIT): each is one 64-bit word of
#: the 128-bit Philox key.
KEY_LIMIT = 1 << 64


def check_int(name: str, value, lo: int = 0) -> int:
    """``value`` as an ``int``: the one rule for every integer setting.

    Raises ValueError unless ``value`` is a Python or numpy integer (a bool
    or a float is not one) in [lo, 2**64), the range of a Philox key word.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and lo <= int(value) < KEY_LIMIT):
        raise ValueError(f"{name} must be an integer in [{lo}, 2**64), got {value!r}")
    return int(value)


def complex_normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Box-Muller: map uniform pairs ``(..., 2)`` to complex N(0,1)+iN(0,1).

    Entry ``r cos(theta) + i r sin(theta)``, with ``r = sqrt(-2 log(1 - u0))``
    and ``theta = 2 pi u1``, written part by part into one complex array.
    Shared by :meth:`RngStream.complex_normals` and the batched sampler in
    ``ensembles``, so both consume the stream identically.
    """
    out = np.empty(u.shape[:-1], dtype=complex)
    # 1 - u lies in (0, 1], which keeps the log finite for u == 0.
    r = np.negative(u[..., 0])
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    # cos and sin map contiguous theta to a contiguous scratch array, the
    # numpy loop the expression r * cos(theta) + 1j * (r * sin(theta)) runs,
    # so the values equal that expression's.
    theta = u[..., 1] * (2.0 * np.pi)
    t = np.cos(theta)
    np.multiply(r, t, out=out.real)
    np.sin(theta, out=t)
    np.multiply(r, t, out=out.imag)
    return out


class RngStream:
    """One reproducible random stream identified by ``(seed, stream_id)``.

    Both must be integers in [0, 2**64); anything else raises ValueError
    rather than rounding or wrapping onto another stream's key.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = check_int("seed", seed)
        self.stream_id = check_int("stream_id", stream_id)
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
