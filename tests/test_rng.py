"""Stream reproducibility, independence and draw accounting."""

import numpy as np

from qsepmc.rng import RngStream, complex_normals_from_uniforms


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


def test_seed_masking_accepts_any_integer():
    a = RngStream(-1, 0)
    b = RngStream((1 << 64) - 1, 0)
    assert np.array_equal(a.uniforms(8), b.uniforms(8))
