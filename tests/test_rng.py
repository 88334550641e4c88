"""Stream reproducibility, independence and draw accounting."""

import numpy as np
import pytest

from qsepmc.rng import RngStream, complex_normals_from_uniforms


def box_muller_reference(u):
    """The textbook Box-Muller expression the kernel must reproduce."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = (2.0 * np.pi) * u[..., 1]
    return r * np.cos(theta) + 1j * (r * np.sin(theta))


def test_same_key_replays_bit_for_bit():
    a = RngStream(123, 7)
    b = RngStream(123, 7)
    assert np.array_equal(a.uniforms(100), b.uniforms(100))
    assert np.array_equal(a.complex_normals((4, 4)), b.complex_normals((4, 4)))


def test_distinct_streams_differ():
    a = RngStream(123, 0).uniforms(64)
    b = RngStream(123, 1).uniforms(64)
    c = RngStream(124, 0).uniforms(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_in_unit_interval():
    u = RngStream(5, 0).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_draw_counter():
    rng = RngStream(1, 1)
    rng.uniforms((3, 4))
    assert rng.draws == 12
    rng.complex_normals((2, 2))
    assert rng.draws == 12 + 8  # two uniforms per complex entry


def test_sequential_calls_match_one_big_call():
    # stream consumption is contiguous across calls; sample_states relies on
    # this for its fixed stride of draws per attempt
    a = RngStream(77, 3)
    parts = [a.uniforms(13), a.uniforms((2, 5)), a.uniforms(7)]
    b = RngStream(77, 3)
    whole = b.uniforms(13 + 10 + 7)
    assert np.array_equal(np.concatenate([p.ravel() for p in parts]), whole)


def test_box_muller_consumes_pairs():
    a = RngStream(42, 0)
    z = a.complex_normals((5,))
    b = RngStream(42, 0)
    u = b.uniforms((5, 2))
    assert np.array_equal(z, complex_normals_from_uniforms(u))


def test_box_muller_moments():
    z = RngStream(2024, 0).complex_normals(200_000)
    assert abs(z.real.mean()) < 0.01
    assert abs(z.imag.mean()) < 0.01
    assert abs(z.real.var() - 1.0) < 0.02
    assert abs(z.imag.var() - 1.0) < 0.02


def test_box_muller_matches_reference_formula():
    # equal values (a zero part may differ in sign where u0 == 0) on 1e5
    # random pairs, the edge uniforms 0 and 1 - 2**-53 in both slots, and a
    # (rows, entries, 2) stack sliced after the transform
    u = RngStream(99, 0).uniforms((100_000, 2))
    assert np.array_equal(complex_normals_from_uniforms(u), box_muller_reference(u))
    top = 1.0 - 2.0**-53
    edges = np.array([[0.0, 0.0], [0.0, top], [top, 0.0], [top, top], [0.5, 0.25]])
    assert np.array_equal(complex_normals_from_uniforms(edges), box_muller_reference(edges))
    assert np.all(np.isfinite(complex_normals_from_uniforms(edges)))
    stack = RngStream(99, 1).uniforms((64, 144)).reshape(64, -1, 2)
    assert np.array_equal(complex_normals_from_uniforms(stack)[:, 36:], box_muller_reference(stack[:, 36:]))


def test_seed_and_stream_id_bounds():
    # both key words must lie in [0, 2**64); a key outside must raise, not
    # wrap onto another stream's draws
    top = (1 << 64) - 1
    for key in [(0, 0), (top, 0), (0, top), (top, top)]:
        rng = RngStream(*key)
        assert (rng.seed, rng.stream_id) == key
        assert rng.uniforms(4).shape == (4,)
    for key in [(-1, 0), (top + 1, 0), (0, -1), (0, top + 1)]:
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            RngStream(*key)


def test_seed_and_stream_id_must_be_integers():
    # RngStream(1.5) must not silently become seed 1
    for key in [(1.5, 0), (1.0, 0), (0, 2.0), (True, 0), (0, False), ("1", 0)]:
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(*key)
    rng = RngStream(np.uint64((1 << 64) - 1), np.int8(3))
    assert (rng.seed, rng.stream_id) == ((1 << 64) - 1, 3)
    assert np.array_equal(rng.uniforms(8), RngStream((1 << 64) - 1, 3).uniforms(8))
