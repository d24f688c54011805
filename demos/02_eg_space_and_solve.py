"""One backward-Euler step of the enriched Galerkin discretization.

The EG space is the continuous Q1 space plus one discontinuous constant
per cell.  This script assembles the penalized bilinear form, takes a
single implicit step of the heat equation with the linear solution
p = x + y, and verifies that the step is exact and that the jump-based
error indicators are silent.
"""

import numpy as np

from egadapt import (CondensedSolver, DiscreteField, EGSpace, PenaltySpec,
                     assemble_A_theta, assemble_mass, assemble_rhs,
                     broken_h1_error, build_initial, compute_indicators,
                     galerkin_residual, interpolate, smoke_linear)

prob = smoke_linear()
mesh = build_initial(prob.shape, 0.25, prob.partition)
space = EGSpace(mesh, k=1)
print(f"{mesh.n_active} cells -> {space.n_cg} nodal dofs + "
      f"{space.n_const} cell constants = {space.n_dofs} dofs")

dt = 0.05
penalty = PenaltySpec(alpha=1.0, theta=0)   # incomplete interior penalty
A = assemble_A_theta(space, prob.K, penalty)
M = assemble_mass(space)
S = (M / dt + A).tocsr()

p_old = interpolate(space, prob.p0)
rhs = (M @ p_old.coeffs) / dt + assemble_rhs(space, prob, dt, penalty)
# the unknowns are the free dofs; the solve returns the full coefficients
p_new = DiscreteField(space, CondensedSolver(S, space).solve(rhs))

err = broken_h1_error(p_new, lambda x, y: x + y,
                      lambda x, y: (np.ones_like(x), np.ones_like(x)))
print(f"broken H1 error after one step: {err:.2e} (representable solution)")
print(f"discrete residual against every basis function: "
      f"{galerkin_residual(S, rhs, p_new):.2e}")

ind = compute_indicators(space, p_new, p_old.cell_values(0), prob, dt, dt, 1.0)
print(f"total indicator {ind.total:.2e}; value-jump part "
      f"{np.sqrt(ind.eta4_sq.sum()):.2e} (zero: the solution is continuous)")
