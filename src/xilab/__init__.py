"""xilab: a numerical laboratory for (p,1) two-matrix models.

Potential expansion, coupling extraction, characteristic polynomials,
root classification against the critical-line proxy, Baker-Akhiezer
quadrature and zero calibration, plus quenched master-field and
saddle-point solvers.
"""

from .precision import (DEFAULT_DPS, extra_dps, local_dps, set_working_dps,
                        working_dps, xcomplex, xreal)
from .series import BiSeries, TaylorSeries, series_compose, series_exp, series_log
from .potentials import KernelValue, PotentialSpec, phi_ramanujan, phi_riemann, \
    taylor_u, u_eta_gamma, u_eta_gamma_prime
from .scaling import (ModelParams, ScaledPotential, cosh_couplings,
                      double_scaling, rescale_potential)
from .matrix_model import (CharPolynomial, HessenbergMatrix, ModelPotential,
                           build_potential, hermite_q, jacobi_matrix,
                           q_polynomial, q_polynomial_gf, q_sequence)
from .roots import RootSet, classify, find_roots, reconstruct_coefficients
from .baker_akhiezer import (BAFunction, ReferenceZeros, magnitude_minima,
                             psi_zeros, quadrature_zeros, reference_table)
from .calibration import (Calibration, TableRow, ZeroReport, airy_fixed_map,
                          estimate_zeros, fit_linear)
from .pipeline import (ROW_IDS, ModelRun, RowResult, build_table1, run_from_spec,
                       run_model, run_row)
from .master_field import (MasterConfig, MasterResult, MasterState, SaddleResult,
                           cost_at, cost_gradient, optimize, residuals,
                           saddle_residual, saddle_solve)

__version__ = "0.1.0"
