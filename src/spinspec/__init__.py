"""Dirac spectra on surfaces of revolution with boundary.

Computes eigenvalues of the spin Dirac operator under chirality-bag
(local) and APS-type spectral boundary conditions, verifies the integral
spinor identities behind the Friedrich / energy-momentum / conformal
eigenvalue lower bounds, and optimizes those bounds over modifier pairs.
"""

from .bounds import (BoundEntry, BoundReport, OptimizerResult,
                     canned_modifiers, evaluate_bounds, feasibility_margin,
                     friedrich_bound, optimize_modifiers)
from .dirac_core import (BC_VARIANTS, BoundaryConditionSpec, Eigenpair,
                         ModeOperator, NumericalError, Spectrum, aggregate,
                         eigenpairs, solve_mode)
from .geometry import (DIM, BoundaryData, ConfigError, ConformalRescaling,
                       RadialFunction, WarpedSurface, boundary_data, catalog,
                       conformal_law_residuals, conformal_rescale,
                       make_surface, modes_for, parse_radial_spec,
                       radial_laplacian, scalar_curvature)
from .identities import (ConformalPush, EnergyMomentum, IdentityReport,
                         ModifierPair, SpinorField, VanishingSpinorError,
                         apply_dirac, boundary_dirac_matrix,
                         conformal_modified_scalar, conformal_push,
                         energy_momentum, eq_residual, killing_residual,
                         modified_gradient_norm, modified_scalar,
                         rtc2_residual, sl_residual, spinor_gradient)
from .spin_algebra import FRAME, CliffordFrame, chirality, pairing

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
