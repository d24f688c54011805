"""Quadtree meshes: refinement, coarsening and hanging half-edges.

Builds the L-shaped domain, refines toward the re-entrant corner, shows
how 1-irregularity closure and sibling-quadruple coarsening behave, and
writes an SVG sketch plus a legacy-VTK grid into the current directory.
A mesh is a set of arrays: per active cell ``level``, ``side``, ``x0`` and
``y0``, and per edge the rows in ``edge_arrays``.
"""

import numpy as np

from egadapt import DomainShape, build_initial, writers

mesh = build_initial(DomainShape.L_SHAPE, 0.25)
print(f"initial mesh: {mesh.n_active} cells, "
      f"{np.sum(mesh.edge_arrays.plus >= 0)} interior edges, "
      f"area {mesh.area():.1f}")

# refine the cells closest to the re-entrant corner, three rounds
for round_ in range(3):
    near = np.hypot(mesh.x0 + mesh.side / 2, mesh.y0 + mesh.side / 2) < 0.3
    mesh = mesh.refine(mesh.active_ids[near])
    hang = np.sum(mesh.edge_arrays.hanging)
    print(f"round {round_ + 1}: {mesh.n_active} cells, h_min = {mesh.h_min}, "
          f"{hang} hanging half-edges, area still {mesh.area():.1f}")

# every hanging half-edge pairs a fine cell (minus) with its coarser
# neighbor (plus); the edge is as long as the fine cell's side
e = mesh.edge_arrays
fine, coarse = e.minus[e.hanging][0], e.plus[e.hanging][0]
print(f"sample half-edge: length {mesh.side[fine]}, fine side level "
      f"{mesh.level[fine]}, coarse side level {mesh.level[coarse]}")

# coarsening honors only complete sibling quadruples
finest = mesh.active_ids[mesh.side == mesh.h_min]
coarsened = mesh.coarsen(finest)
print(f"coarsening the finest level: {mesh.n_active} -> {coarsened.n_active} cells")

writers.mesh_svg(mesh, "corner_mesh.svg")
writers.mesh_vtk(mesh, "corner_mesh.vtk")
print("wrote corner_mesh.svg and corner_mesh.vtk")
