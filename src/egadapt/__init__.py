"""Adaptive enriched Galerkin solver for linear parabolic problems.

The package discretizes d(p)/dt - div(K grad p) = f on quadtree meshes of
the unit square or the L-shaped domain, in space by a continuous Q_k
Lagrange space enriched with one discontinuous constant per cell (interior
penalty coupling, SIPG/IIPG/NIPG), in time by backward Euler.  Residual
error indicators drive per-step coarsening and bulk refinement.
"""

from .mesh import (ConfigError, DomainShape, EdgeKind, Mesh, MeshError,
                   all_dirichlet, build_initial)
from .quadrature import QuadratureRule, cell_rule, edge_rule, gauss_1d
from .space import (DiscreteField, EGSpace, TransferredField, broken_h1_error,
                    interpolate)
from .assembly import (CondensedSolver, PenaltySpec, SolverError,
                       assemble_A_theta, assemble_mass, assemble_rhs,
                       assemble_stiffness, galerkin_residual)
from .estimator import CellIndicators, StepReport, compute_indicators, effectivity
from .adapt import AdaptParams, AdaptState, adapt_step, coarsen_mark, dorfler_mark
from .problems import ProblemSpec, by_name, example1, example2, smoke_linear
from .driver import (CycleSummary, RunConfig, cli_main, order_dofs,
                     parse_config_file, run_cycles, run_timeloop,
                     write_cycle_csv)
from . import writers

__version__ = "0.1.0"
