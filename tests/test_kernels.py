import tracemalloc

import numpy as np

from xilab.baker_akhiezer import integrand
from xilab.kernels import FOURIER_CHUNK_TERMS, fourier_eval


def direct_fourier_sum(xs, env, zs):
    """sum_j env_j e^{i z x_j}, one z at a time."""
    return np.array([np.sum(env * np.exp(1j * z * xs)) for z in zs])


def test_fourier_paths_agree():
    """The blocked kernel against the direct sum: on one z, on a grid of
    three full blocks plus a partial one, and on the README ``psi`` grid of
    eta_gamma_corrected, whose integrand is not even, so psi is complex."""
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(-3, 3, 4000))
    env = np.exp(-(xs ** 4)) * rng.uniform(0.5, 1.5, xs.size)
    rows = FOURIER_CHUNK_TERMS // xs.size
    eta = integrand("eta_gamma_corrected")()
    readme_grid = np.arange(0, 25 + 0.02 / 2, 0.02)  # as ``xilab psi`` forms it
    for nodes, weights, zs in ((xs, env, np.array([1.5])),
                               (xs, env, np.linspace(0, 20, 3 * rows + rows // 2)),
                               (eta.xs, eta.env, readme_grid)):
        want = direct_fourier_sum(nodes, weights, zs)
        got = fourier_eval(nodes, weights, zs)
        assert got.shape == zs.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fourier_eval_memory_is_bounded():
    """The eta_gamma_corrected node count on a 400-point grid stays in blocks:
    two real blocks of one row each here (a block holds 2^15 terms or one
    row, whichever is more: 324 KiB), where the full complex phase matrix
    would take 16 B x 400 x 41408 = 253 MiB."""
    xs = np.linspace(-20, 20, 41408)
    env = np.exp(-xs ** 2)
    zs = np.linspace(0, 26, 400)
    tracemalloc.start()
    try:
        fourier_eval(xs, env, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20

