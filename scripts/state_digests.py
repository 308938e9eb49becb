"""Print one SHA-256 digest per state array of five shipped scenarios: the
band patterns of K_uu and K_dd and the mesh's CSR patterns, every level's
fields and quadrature state, the solver statistics and reactions of the load
history, and every adjoint and G_S of Formulations 1 and 2.  Three
of them also digest the finite-difference sensitivity at two interior solid
nodes, whose forward solves use the regularized transition.  After each
scenario's digests, a ``tape bytes <label> <n>`` line gives the bytes of the
distinct arrays its load history keeps (an array that several levels share
counts once).

Run from the repository root with ``PYTHONPATH=src``.  Two versions of the
code compute the same bits when their outputs are identical on one machine;
across machines the digests may differ, since OpenBLAS picks its kernels by
CPU.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from fractop import config
from fractop.forward import run_load_history
from fractop.sensitivity import adjoint_sweep, solid_sensitivity
from fractop.verify import fd_sensitivity, interior_solid_nodes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (label, config, changes to its run configuration)
CASES = (
    ("bend_20x8", "bend2d.ini", {}),
    ("bend_80x32", "bend2d.ini", {"counts": (80, 32)}),
    ("strip_48x16", "ductile_strip2d.ini", {"counts": (48, 16), "steps": 32}),
    ("strip_12x4", "ductile_strip2d.ini", {"counts": (12, 4), "steps": 25}),
    ("block3d", "block3d_elastic.ini", {}),
)
# scenarios whose finite-difference sensitivity is digested as well
FD_CASES = ("bend_20x8", "strip_12x4", "block3d")
FD_DELTA = 1e-4


def digest(value) -> str:
    data = (value.tobytes() if isinstance(value, np.ndarray)
            else repr(value).encode())
    return hashlib.sha256(data).hexdigest()


def tape_bytes(traj) -> int:
    """Bytes of the distinct arrays that the levels of ``traj`` hold."""
    arrays = {id(a): a for f, q in zip(traj.fields, traj.qstates)
              for a in (f.u, f.d, f.phi, f.p_u, q.eps_p, q.alpha, q.history,
                        q.lambda_p)}
    return sum(a.nbytes for a in arrays.values())


def items(name, changes, with_fd, tape):
    """(item, value) pairs of one scenario, in a fixed order; the load
    history's ``tape_bytes`` go into ``tape["bytes"]``."""
    cfg = replace(config.load_config(CONFIGS / name), **changes)
    problem = config.build_problem(cfg)
    mesh = problem.mesh
    for name in ("uu_band", "dd_band"):
        band = getattr(problem, name)
        for attr in ("order", "entries", "slots", "bandwidth"):
            yield f"{name} {attr}", getattr(band, attr)
    for width in (mesh.nodes_per_elem, mesh.elem_udofs.shape[1]):
        pattern = mesh.csr_pattern(width, width)
        for attr in ("order", "slots", "indices", "indptr"):
            yield f"csr {width}x{width} {attr}", getattr(pattern, attr)
    traj = run_load_history(problem, cfg.steps, cfg.displacement_per_step,
                            cfg.solver)
    for n, (fields, qstate) in enumerate(zip(traj.fields, traj.qstates)):
        for attr in ("u", "d", "phi", "p_u"):
            yield f"level {n} {attr}", getattr(fields, attr)
        for attr in ("eps_p", "alpha", "history", "lambda_p"):
            yield f"level {n} {attr}", getattr(qstate, attr)
    tape["bytes"] = tape_bytes(traj)
    yield "stats", traj.stats
    yield "reaction", np.array(traj.reaction)
    for formulation in (1, 2):
        adjoints = adjoint_sweep(problem, traj, formulation)
        for n, adj in enumerate(adjoints, start=1):
            yield f"F{formulation} step {n} lambda_u", adj.lambda_u
            if adj.lambda_d is not None:
                yield f"F{formulation} step {n} lambda_d", adj.lambda_d
        yield f"F{formulation} G_S", solid_sensitivity(adjoints)
    if with_fd:
        nodes = interior_solid_nodes(problem)
        for node in nodes[[0, nodes.size // 2]]:
            yield f"FD node {node}", np.array(fd_sensitivity(
                problem, int(node), FD_DELTA, cfg.steps,
                cfg.displacement_per_step, cfg.solver))


def main():
    for label, name, changes in CASES:
        tape = {}
        for item, value in items(name, changes, label in FD_CASES, tape):
            print(f"{label} {item} {digest(value)}")
        print(f"tape bytes {label} {tape['bytes']}")


if __name__ == "__main__":
    main()
