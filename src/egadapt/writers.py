"""Plain-text output: SVG mesh sketches and legacy-VTK grids and fields."""

from __future__ import annotations

import numpy as np

#: cell corners (a, b) in counterclockwise order SW, SE, NE, NW
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
#: width and height of an SVG drawing, in user units
SVG_SIZE = 640
#: title lines of the VTK mesh and field files
MESH_TITLE, FIELD_TITLE = "quadtree mesh", "EG field"


def mesh_svg(mesh, path):
    """Write the active-cell outlines as an SVG drawing, one rect per cell."""
    xmin, ymin, xmax, ymax = mesh.bbox
    span = max(xmax - xmin, ymax - ymin)
    scale = SVG_SIZE / span
    w = mesh.side * scale
    # flip y so the drawing matches mathematical orientation
    rects = np.column_stack([(mesh.x0 - xmin) * scale,
                             (ymax - mesh.y0 - mesh.side) * scale, w, w])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
            f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n',
            _lines('<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" '
                   'fill="none" stroke="black" stroke-width="0.5"/>\n',
                   rects, 4),
            "</svg>\n"]))


def _lines(fmt, values, per_line=1):
    """One ``fmt`` line per ``per_line`` consecutive values, in one string."""
    values = values.ravel().tolist()
    return (fmt * (len(values) // per_line)) % tuple(values)


def _vtk_grid(mesh):
    """The grid of the active cells, shared by a snapshot's VTK files: the
    text from the dataset line to the cell types, and each point's first
    (row, corner).  Points are the cell corners as the mesh's degree-1
    lattice points (:meth:`Mesh.lattice_points`); cells are CCW quads."""
    quads, points, (row, corner) = mesh.lattice_points(1, _CORNERS)
    text = "".join([
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n",
        _lines("%.12g %.12g 0\n", points, 2),
        f"CELLS {len(quads)} {5 * len(quads)}\n",
        _lines("4 %d %d %d %d\n", quads, 4),
        f"CELL_TYPES {len(quads)}\n",
        "9\n" * len(quads)])
    return text, (row, corner)


def _vtk_header(title):
    return f"# vtk DataFile Version 3.0\n{title}\nASCII\n"


def mesh_vtk(mesh, path):
    """ASCII legacy-VTK unstructured grid of the active cells (quad type 9).

    Returns the grid, which :func:`field_vtk` can take for a field on
    this mesh instead of building it again.
    """
    grid = _vtk_grid(mesh)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_vtk_header(MESH_TITLE))
        fh.write(grid[0])
    return grid


def field_vtk(field, path, grid=None):
    """Legacy-VTK dump: continuous part at cell corners, constants per cell.

    ``grid`` is what :func:`mesh_vtk` returned for the field's mesh, or
    None to build it here.
    """
    space = field.space
    k = space.k
    text, (row, corner) = _vtk_grid(space.mesh) if grid is None else grid
    local = [a * k + b * k * (k + 1) for a, b in _CORNERS]
    cg = field.coeffs[space.cell_dofs[row, np.take(local, corner)]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([
            _vtk_header(FIELD_TITLE), text,
            f"POINT_DATA {len(row)}\n"
            "SCALARS cg_part double\nLOOKUP_TABLE default\n",
            _lines("%.12g\n", cg),
            f"CELL_DATA {space.n_const}\n"
            "SCALARS const_part double\nLOOKUP_TABLE default\n",
            _lines("%.12g\n", field.coeffs[space.n_cg:])]))

