"""Float64 hot kernels, one plain-numpy implementation each.

The quadrature scan (thousands of Fourier sums over a fixed trapezoid
node set of a few hundred to a few thousand nodes) and the master-field
cost evaluation dominate runtime at double precision. ``fourier_eval``
forms the real z-by-node phase matrix in row blocks of at most
``FOURIER_CHUNK_TERMS`` terms and sums its cosine and sine against the real
envelope, so its workspace is two such blocks, 4 MiB, whatever the z grid.
``perfbench/run.py --workload float64 --trace 1`` times both kernels.
"""

from __future__ import annotations

import numpy as np

#: the array library the kernels run on; recorded in CLI and benchmark output
BACKEND = "numpy"

#: phase-matrix terms per block of ``fourier_eval``: 2^18 float64 terms, 2 MiB
FOURIER_CHUNK_TERMS = 1 << 18

_EPS2 = np.finfo(np.float64).eps ** 2  # float64 unit roundoff squared, ~4.9e-32


# ---------------------------------------------------------------------------
# Fourier evaluation: psi(z) = sum_j env_j * exp(i z x_j)


def fourier_eval(xs, env, zs):
    """sum_j env_j e^{i z x_j} for each z; xs/env float64, zs float64 array.

    The weights are real, so each block is two real products:
    cos(z x) @ env and sin(z x) @ env, the sine taken in place of the phase.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    env = np.ascontiguousarray(env, dtype=np.float64)
    zs = np.ascontiguousarray(zs, dtype=np.float64)
    out = np.empty(zs.shape[0], dtype=np.complex128)
    rows = max(1, FOURIER_CHUNK_TERMS // max(1, xs.shape[0]))
    for i in range(0, zs.shape[0], rows):
        phase = np.outer(zs[i:i + rows], xs)
        out.real[i:i + rows] = np.cos(phase) @ env
        out.imag[i:i + rows] = np.sin(phase, out=phase) @ env
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
    """Residual matrices (E, F) of the quenched equations, and their floor.

    The floor is eps^2 * sum |t|^2 over the entries of every term t of E
    and F (d*a, Vp(a)/g, b/g, eta1, d*b, a/g, eta2): the order of the cost
    that float64 rounding of those terms alone leaves in E and F.
    """
    p_mom = np.ascontiguousarray(p_mom, dtype=np.float64)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    vp_coeffs = np.ascontiguousarray(vp_coeffs, dtype=np.complex128)
    eta1 = np.ascontiguousarray(eta1, dtype=np.complex128)
    eta2 = np.ascontiguousarray(eta2, dtype=np.complex128)
    g = float(g)
    d = 1j * (p_mom[:, None] - p_mom[None, :])
    da, db = d * a, d * b
    vpg, bg, ag = _matrix_poly(a, vp_coeffs) / g, b / g, a / g
    E = da + vpg - bg - eta1
    F = db - ag - eta2
    floor = _EPS2 * sum(np.vdot(t, t).real for t in (da, vpg, bg, eta1, db, ag, eta2))
    return E, F, float(floor)


def master_cost(E, F) -> float:
    """C = sum |E_kl|^2 + |F_kl|^2."""
    return float(np.sum(np.abs(E) ** 2) + np.sum(np.abs(F) ** 2))
