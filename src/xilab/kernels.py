"""The float64 Fourier kernel of the Baker-Akhiezer quadrature.

A zero scan is a few hundred Fourier sums on its z grid, in a few calls,
plus one per refinement step; a ``psi`` grid is one sum per row. Each is over
a fixed trapezoid node set of a few hundred to a few thousand nodes.
``fourier_eval`` forms the real z-by-node phase matrix in row blocks of at most
``FOURIER_CHUNK_TERMS`` terms and sums its cosine and sine against the real
weights, so its workspace is two such blocks, 512 KiB, whatever the z grid.
An even potential's nodes are folded onto x >= 0 and its sine sum vanishes,
so its callers skip the sine block.
Each row is summed on its own, so the value at a z is the same bits in
whichever grid or block it is summed.
``perfbench/run.py --workload float64 --trace 1`` times it.
"""

from __future__ import annotations

import numpy as np

#: the array library the kernel runs on; the benchmark records it in each run's
#: environment (the CLI does not print it: it has one value)
BACKEND = "numpy"

#: phase-matrix terms per block of ``fourier_eval``: 2^15 float64 terms,
#: 256 KiB; the row sums write and reread each block, cheap while it sits in
#: a core's L2 cache
FOURIER_CHUNK_TERMS = 1 << 15


def fourier_eval(xs, env, zs, sine=True):
    """sum_j env_j e^{i z x_j} for each z; xs/env float64, zs float64 array.

    The weights are real, so each block is two real sums per row: of
    cos(z x) env and of sin(z x) env, the products formed in place. With
    ``sine`` false the sine sums are skipped and the imaginary parts are 0:
    the cosine sum over folded nodes of an even potential. Each row
    is reduced alone, pairwise (numpy's sum along a contiguous axis); a BLAS
    gemv sums rows in groups, so its value at a z would depend on the z's
    place in the block.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    env = np.ascontiguousarray(env, dtype=np.float64)
    zs = np.ascontiguousarray(zs, dtype=np.float64)
    out = np.zeros(zs.shape[0], dtype=np.complex128)
    rows = max(1, FOURIER_CHUNK_TERMS // max(1, xs.shape[0]))
    for i in range(0, zs.shape[0], rows):
        phase = np.outer(zs[i:i + rows], xs)
        terms = np.cos(phase)
        terms *= env
        out.real[i:i + rows] = terms.sum(axis=1)
        if sine:
            np.sin(phase, out=phase)
            phase *= env
            out.imag[i:i + rows] = phase.sum(axis=1)
    return out
