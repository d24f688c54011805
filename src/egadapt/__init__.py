"""Adaptive enriched Galerkin solver for linear parabolic problems.

The package discretizes d(p)/dt - div(K grad p) = f on quadtree meshes of
the unit square or the L-shaped domain, in space by a continuous Q_k
Lagrange space enriched with one discontinuous constant per cell (interior
penalty coupling, SIPG/IIPG/NIPG), in time by backward Euler.  Residual
error indicators drive per-step coarsening and bulk refinement.
"""

from .mesh import (Cell, ConfigError, DomainShape, Edge, EdgeKind, Mesh,
                   MeshError, Point2, all_dirichlet, build_initial)
from .quadrature import QuadratureRule, cell_rule, edge_rule, gauss_1d, map_to_edge
from .space import (DiscreteField, EGSpace, TransferredField, broken_h1_error,
                    interpolate, transfer)
from .assembly import (CondensedSolver, PenaltySpec, SolverError,
                       apply_constraints_and_solve, assemble_A_theta,
                       assemble_mass, assemble_rhs, assemble_stiffness,
                       galerkin_residual)
from .estimator import CellIndicators, StepReport, compute_indicators, effectivity
from .adapt import AdaptParams, AdaptState, RunTracker, adapt_step, coarsen_mark, dorfler_mark
from .problems import ProblemSpec, by_name, clockwise_angle, example1, example2, smoke_linear
from .driver import (CycleSummary, RunConfig, cli_main, order_dofs,
                     parse_config_file, run_cycles, run_timeloop,
                     write_cycle_csv)
from . import writers

__version__ = "0.1.0"
