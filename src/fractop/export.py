"""Deterministic exports: legacy-VTK field snapshots, load-displacement
curves and optimization convergence histories.

All floating-point output is written at 9 significant digits so repeated
runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .forward import FieldSet, Trajectory
from .levelset import heaviside_exact
from .material import QuadState
from .mesh import Mesh

_CELL_TYPE = {2: 9, 3: 12}  # VTK quad / hexahedron


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def write_snapshot(path, mesh: Mesh, fields: FieldSet,
                   qstate: QuadState = None, title: str = "fractop fields"):
    """Legacy ASCII VTK unstructured grid with the nodal fields and the
    quadrature-averaged path variables."""
    path = Path(path)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID"]

    n = mesh.n_nodes
    lines.append(f"POINTS {n} double")
    coords = mesh.coords
    for i in range(n):
        x = coords[i]
        z = x[2] if mesh.dimension == 3 else 0.0
        lines.append(f"{_fmt(x[0])} {_fmt(x[1])} {_fmt(z)}")

    nen = mesh.nodes_per_elem
    lines.append(f"CELLS {mesh.n_elems} {mesh.n_elems * (nen + 1)}")
    for row in mesh.conn:
        lines.append(str(nen) + " " + " ".join(str(int(v)) for v in row))
    lines.append(f"CELL_TYPES {mesh.n_elems}")
    lines.extend([str(_CELL_TYPE[mesh.dimension])] * mesh.n_elems)

    lines.append(f"POINT_DATA {n}")
    lines.append("VECTORS displacement double")
    u = fields.u.reshape(n, mesh.dimension)
    for i in range(n):
        z = u[i, 2] if mesh.dimension == 3 else 0.0
        lines.append(f"{_fmt(u[i, 0])} {_fmt(u[i, 1])} {_fmt(z)}")
    for name, values in (("crack", fields.d), ("phi", fields.phi),
                         ("heaviside", heaviside_exact(fields.phi))):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in values)

    if qstate is not None:
        lines.append(f"CELL_DATA {mesh.n_elems}")
        for name, values in (("alpha", qstate.alpha.mean(axis=1)),
                             ("history", qstate.history.mean(axis=1))):
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(v) for v in values)

    path.write_text("\n".join(lines) + "\n")


def write_curves(path, trajectory: Trajectory):
    """Load-displacement table: one row per committed step."""
    path = Path(path)
    lines = ["step,prescribed_displacement,total_reaction"]
    for n in range(len(trajectory.load_factor)):
        lines.append(f"{n},{_fmt(trajectory.load_factor[n])},"
                     f"{_fmt(trajectory.reaction[n])}")
    path.write_text("\n".join(lines) + "\n")


def write_history(path, records):
    """Optimization convergence table (iteration, J, chi_v, lambda_V)."""
    path = Path(path)
    lines = ["iteration,objective,volume_ratio,lambda_v"]
    for rec in records:
        lines.append(f"{rec.iteration},{_fmt(rec.objective)},"
                     f"{_fmt(rec.volume_ratio)},{_fmt(rec.lambda_v)}")
    path.write_text("\n".join(lines) + "\n")


def write_fd_report(path, report):
    """Sensitivity verification table with per-node errors."""
    path = Path(path)
    lines = ["node,analytic,fd,rel_error"]
    # a failed probe has NaN fd and rel_error, written as "nan"
    for node, *values in zip(report.nodes, report.analytic, report.fd,
                             report.rel_error):
        lines.append(",".join([str(int(node))] + [_fmt(v) for v in values]))
    path.write_text("\n".join(lines) + "\n")


def snapshot_steps(n_steps: int, cadence: int):
    """Steps at which snapshots are written: every ``cadence`` steps plus
    the final one; cadence 0 writes the final state only."""
    if cadence <= 0:
        return [n_steps]
    steps = list(range(cadence, n_steps + 1, cadence))
    if not steps or steps[-1] != n_steps:
        steps.append(n_steps)
    return steps
