"""Float64 hot kernels, one plain-numpy implementation each.

The quadrature scan (thousands of Fourier sums over a fixed node set) and
the master-field cost evaluation dominate runtime at double precision.
``fourier_eval`` forms the z-by-node phase matrix in row blocks of at most
``FOURIER_CHUNK_TERMS`` terms, so its workspace stays a few tens of MB
whatever the grid. ``perfbench/run.py --workload float64 --trace 1`` times
both kernels.
"""

from __future__ import annotations

import numpy as np

#: the array library the kernels run on; recorded in CLI and benchmark output
BACKEND = "numpy"

#: phase-matrix terms per block of ``fourier_eval``: 2^20 complex terms, 16 MiB
FOURIER_CHUNK_TERMS = 1 << 20


# ---------------------------------------------------------------------------
# Fourier evaluation: psi(z) = sum_j env_j * exp(i z x_j)


def fourier_eval(xs, env, zs):
    """sum_j env_j e^{i z x_j} for each z; xs/env float64, zs float64 array."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    env = np.ascontiguousarray(env, dtype=np.float64).astype(np.complex128)
    zs = np.ascontiguousarray(zs, dtype=np.float64)
    out = np.empty(zs.shape[0], dtype=np.complex128)
    rows = max(1, FOURIER_CHUNK_TERMS // max(1, xs.shape[0]))
    for i in range(0, zs.shape[0], rows):
        out[i:i + rows] = np.exp(1j * np.outer(zs[i:i + rows], xs)) @ env
    return out


# ---------------------------------------------------------------------------
# master-field residuals
#
# E = i(p_k - p_l) a_kl + (1/g) Vp(a)_kl - (1/g) b_kl - eta1_kl
# F = i(p_k - p_l) b_kl - (1/g) a_kl - eta2_kl
# with Vp(a) = V'(a + I) evaluated as the matrix polynomial sum c_m a^m.


def _matrix_poly(a, vp_coeffs):
    n = a.shape[0]
    acc = np.zeros((n, n), dtype=np.complex128)
    for c in vp_coeffs[::-1]:
        acc = acc @ a
        acc += c * np.eye(n)
    return acc


def master_residuals(p_mom, a, b, vp_coeffs, g, eta1, eta2):
    """Residual matrices (E, F) of the quenched equations."""
    p_mom = np.ascontiguousarray(p_mom, dtype=np.float64)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    vp_coeffs = np.ascontiguousarray(vp_coeffs, dtype=np.complex128)
    eta1 = np.ascontiguousarray(eta1, dtype=np.complex128)
    eta2 = np.ascontiguousarray(eta2, dtype=np.complex128)
    g = float(g)
    d = 1j * (p_mom[:, None] - p_mom[None, :])
    vp = _matrix_poly(a, vp_coeffs)
    E = d * a + vp / g - b / g - eta1
    F = d * b - a / g - eta2
    return E, F


def master_cost(E, F) -> float:
    """C = sum |E_kl|^2 + |F_kl|^2."""
    return float(np.sum(np.abs(E) ** 2) + np.sum(np.abs(F) ** 2))
