"""Quadtree meshes: refinement, coarsening and hanging half-edges.

Builds the L-shaped domain, refines toward the re-entrant corner, shows
how 1-irregularity closure and sibling-quadruple coarsening behave, and
writes an SVG sketch plus a legacy-VTK grid into the current directory.
"""

import numpy as np

from egadapt import DomainShape, build_initial, writers

mesh = build_initial(DomainShape.L_SHAPE, 0.25)
print(f"initial mesh: {mesh.n_active} cells, "
      f"{len(mesh.interior_edges())} interior edges, area {mesh.area():.1f}")

# refine the cells closest to the re-entrant corner, three rounds
for round_ in range(3):
    near = [c.id for c in mesh.active_cells()
            if np.hypot(c.center.x, c.center.y) < 0.3]
    mesh = mesh.refine(near)
    hang = sum(e.hanging for e in mesh.edges)
    print(f"round {round_ + 1}: {mesh.n_active} cells, h_min = {mesh.h_min}, "
          f"{hang} hanging half-edges, area still {mesh.area():.1f}")

# every hanging half-edge pairs a fine cell with its coarser neighbor
e = next(e for e in mesh.edges if e.hanging)
print(f"sample half-edge: length {e.length}, fine side level "
      f"{mesh.cell(e.minus_cell).level}, coarse side level "
      f"{mesh.cell(e.plus_cell).level}")

# coarsening honors only complete sibling quadruples
finest = [c.id for c in mesh.active_cells() if c.side == mesh.h_min]
coarsened = mesh.coarsen(finest)
print(f"coarsening the finest level: {mesh.n_active} -> {coarsened.n_active} cells")

writers.mesh_svg(mesh, "corner_mesh.svg")
writers.mesh_vtk(mesh, "corner_mesh.vtk")
print("wrote corner_mesh.svg and corner_mesh.vtk")
