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
    """Unique active-cell corners in first-encounter order as (n, 2)
    coordinates, per-cell connectivity (CCW quads) and each point's first
    (row, corner)."""
    quads, first = first_encounter(mesh.lattice_keys(1, _CORNERS))
    row, corner = np.divmod(first, 4)
    a, b = np.array(_CORNERS, dtype=float).T
    points = np.column_stack([mesh.x0[row] + a[corner] * mesh.side[row],
                              mesh.y0[row] + b[corner] * mesh.side[row]])
    return points, quads, (row, corner)


def _lines(fmt, values, per_line=1):
    """One ``fmt`` line per ``per_line`` consecutive values, in one string."""
    values = values.ravel().tolist()
    return (fmt * (len(values) // per_line)) % tuple(values)


def _vtk_header(title, points, quads):
    return "".join([
        f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n",
        _lines("%.12g %.12g 0\n", points, 2),
        f"CELLS {len(quads)} {5 * len(quads)}\n",
        _lines("4 %d %d %d %d\n", quads, 4),
        f"CELL_TYPES {len(quads)}\n",
        "9\n" * len(quads)])


def mesh_vtk(mesh, path, title="quadtree mesh"):
    """ASCII legacy-VTK unstructured grid of the active cells (quad type 9)."""
    points, quads, _ = _corner_points(mesh)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_vtk_header(title, points, quads))


def field_vtk(field, path, title="EG field"):
    """Legacy-VTK dump: continuous part at cell corners, constants per cell."""
    space = field.space
    k = space.k
    points, quads, (row, corner) = _corner_points(space.mesh)
    local = [a * k + b * k * (k + 1) for a, b in _CORNERS]
    cg = field.coeffs[space.cell_dofs[row, np.take(local, corner)]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([
            _vtk_header(title, points, quads),
            f"POINT_DATA {len(points)}\n"
            "SCALARS cg_part double\nLOOKUP_TABLE default\n",
            _lines("%.12g\n", cg),
            f"CELL_DATA {len(quads)}\n"
            "SCALARS const_part double\nLOOKUP_TABLE default\n",
            _lines("%.12g\n", field.coeffs[space.n_cg:])]))


def matrix_market(matrix, path, comment="assembled system"):
    """MatrixMarket coordinate dump of a sparse matrix (for debugging)."""
    from scipy.io import mmwrite
    mmwrite(path, matrix, comment=comment)
