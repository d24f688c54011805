"""Plain-text output: SVG mesh sketches, legacy-VTK grids, MatrixMarket dumps."""

from __future__ import annotations

import numpy as np

from .mesh import first_encounter

#: cell corners (a, b) in counterclockwise order SW, SE, NE, NW
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def mesh_svg(mesh, path, size=640):
    """Write the active-cell outlines as an SVG drawing, one rect per cell."""
    xmin, ymin, xmax, ymax = mesh.bbox
    span = max(xmax - xmin, ymax - ymin)
    scale = size / span
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
    ]
    for x0, y0, side in zip(mesh.x0.tolist(), mesh.y0.tolist(),
                            mesh.side.tolist()):
        x = (x0 - xmin) * scale
        # flip y so the drawing matches mathematical orientation
        y = (ymax - y0 - side) * scale
        w = side * scale
        lines.append(f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" '
                     f'height="{w:.3f}" fill="none" stroke="black" '
                     f'stroke-width="0.5"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _corner_points(mesh):
    """Unique active-cell corners in first-encounter order, per-cell
    connectivity (CCW quads) and each point's first (row, corner)."""
    quads, first = first_encounter(mesh.lattice_keys(1, _CORNERS))
    row, corner = np.divmod(first, 4)
    a, b = np.array(_CORNERS, dtype=float).T
    points = zip((mesh.x0[row] + a[corner] * mesh.side[row]).tolist(),
                 (mesh.y0[row] + b[corner] * mesh.side[row]).tolist())
    return list(points), quads.tolist(), (row, corner)


def _vtk_header(fh, title, points, quads):
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write(title + "\n")
    fh.write("ASCII\n")
    fh.write("DATASET UNSTRUCTURED_GRID\n")
    fh.write(f"POINTS {len(points)} double\n")
    for x, y in points:
        fh.write(f"{x:.12g} {y:.12g} 0\n")
    fh.write(f"CELLS {len(quads)} {5 * len(quads)}\n")
    for q in quads:
        fh.write("4 " + " ".join(str(i) for i in q) + "\n")
    fh.write(f"CELL_TYPES {len(quads)}\n")
    fh.write("9\n" * len(quads))


def mesh_vtk(mesh, path, title="quadtree mesh"):
    """ASCII legacy-VTK unstructured grid of the active cells (quad type 9)."""
    points, quads, _ = _corner_points(mesh)
    with open(path, "w", encoding="utf-8") as fh:
        _vtk_header(fh, title, points, quads)


def field_vtk(field, path, title="EG field"):
    """Legacy-VTK dump: continuous part at cell corners, constants per cell."""
    space = field.space
    k = space.k
    points, quads, (row, corner) = _corner_points(space.mesh)
    local = [a * k + b * k * (k + 1) for a, b in _CORNERS]
    cg = field.coeffs[space.cell_dofs[row, np.take(local, corner)]]
    with open(path, "w", encoding="utf-8") as fh:
        _vtk_header(fh, title, points, quads)
        fh.write(f"POINT_DATA {len(points)}\n")
        fh.write("SCALARS cg_part double\nLOOKUP_TABLE default\n")
        for v in cg.tolist():
            fh.write(f"{v:.12g}\n")
        fh.write(f"CELL_DATA {len(quads)}\n")
        fh.write("SCALARS const_part double\nLOOKUP_TABLE default\n")
        consts = field.coeffs[space.n_cg:]
        for v in consts:
            fh.write(f"{v:.12g}\n")


def matrix_market(matrix, path, comment="assembled system"):
    """MatrixMarket coordinate dump of a sparse matrix (for debugging)."""
    from scipy.io import mmwrite
    mmwrite(path, matrix, comment=comment)
