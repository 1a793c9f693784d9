"""xilab: a numerical laboratory for (p,1) two-matrix models.

Potential expansion, coupling extraction, characteristic polynomials,
root classification against the critical-line proxy, Baker-Akhiezer
quadrature and zero calibration, plus quenched master-field and
saddle-point solvers.
"""

from .precision import DEFAULT_DPS
from .series import series_exp, series_log, series_mul
from .potentials import PotentialSpec, taylor_u
from .scaling import (ModelParams, ScaledPotential, cosh_couplings,
                      double_scaling, rescale_potential)
from .matrix_model import (CharPolynomial, ModelPotential, build_potential,
                           q_polynomial)
from .roots import RootSet, find_roots
from .baker_akhiezer import (BAFunction, magnitude_minima, psi_zeros,
                             quadrature_zeros, reference_table)
from .calibration import Calibration, airy_fixed_map, estimate_zeros, fit_linear
from .pipeline import (ROW_IDS, ModelRun, RowResult, ZeroReport, build_model,
                       build_table1, run_from_spec, run_model, run_row)
from .master_field import (MasterConfig, MasterResult, MasterState, SaddleResult,
                           optimize, saddle_solve)

__version__ = "0.1.0"
