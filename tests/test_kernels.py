import tracemalloc

import numpy as np

from xilab.baker_akhiezer import QUADRATURE_INTEGRANDS
from xilab.kernels import (FOURIER_CHUNK_TERMS, fourier_eval, master_cost,
                           master_residuals)


def direct_fourier_sum(xs, env, zs):
    """sum_j env_j e^{i z x_j}, one z at a time."""
    return np.array([np.sum(env * np.exp(1j * z * xs)) for z in zs])


def elementwise_residuals(p_mom, a, b, vp_coeffs, g, eta1, eta2):
    """The quenched residuals entry by entry, V'(a + I) by Horner's rule, and
    eps^2 times the sum of |term|^2 over every term of every entry."""
    n = a.shape[0]
    vp = np.zeros((n, n), dtype=complex)
    for c in vp_coeffs[::-1]:
        vp = vp @ a
        for i in range(n):
            vp[i, i] += c
    E = np.empty((n, n), dtype=complex)
    F = np.empty((n, n), dtype=complex)
    sq = 0.0
    for k in range(n):
        for l in range(n):
            d = 1j * (p_mom[k] - p_mom[l])
            E[k, l] = d * a[k, l] + vp[k, l] / g - b[k, l] / g - eta1[k, l]
            F[k, l] = d * b[k, l] - a[k, l] / g - eta2[k, l]
            sq += sum(abs(t) ** 2 for t in (d * a[k, l], vp[k, l] / g, b[k, l] / g,
                                              eta1[k, l], d * b[k, l], a[k, l] / g,
                                              eta2[k, l]))
    return E, F, np.finfo(np.float64).eps ** 2 * sq


def test_fourier_paths_agree():
    """The blocked kernel against the direct sum: on one z, on a grid of
    three full blocks plus a partial one, and on the README ``psi`` grid of
    eta_gamma_corrected, whose integrand is not even, so psi is complex."""
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(-3, 3, 4000))
    env = np.exp(-(xs ** 4)) * rng.uniform(0.5, 1.5, xs.size)
    rows = FOURIER_CHUNK_TERMS // xs.size
    eta = QUADRATURE_INTEGRANDS["eta_gamma_corrected"]()
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
    two real blocks of 2^18 terms, 4 MiB, where the full complex phase matrix
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


def test_residual_paths_agree():
    rng = np.random.default_rng(1)
    N = 5
    p = rng.uniform(-np.pi, np.pi, N)
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    a = (a + a.conj().T) / 2
    b = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    b = (b + b.conj().T) / 2
    vp = np.array([0.3, -1.2, 0.7, 0.05], dtype=complex)
    eta1 = 0.1 * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    eta2 = 0.1 * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    E1, F1, floor1 = master_residuals(p, a, b, vp, 0.21, eta1, eta2)
    E2, F2, floor2 = elementwise_residuals(p, a, b, vp, 0.21, eta1, eta2)
    assert np.max(np.abs(E1 - E2)) < 1e-12
    assert np.max(np.abs(F1 - F2)) < 1e-12
    assert abs(floor1 - floor2) <= 1e-12 * floor2
    assert abs(master_cost(E1, F1) - master_cost(E2, F2)) < 1e-10
