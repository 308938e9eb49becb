"""Drive the bend beam through its load peak and print the softening
branch of the load-displacement curve."""

import numpy as np

from fractop import material as mat
from fractop import mesh as fm
from fractop.forward import Problem, SolverSettings, run_load_history


def main():
    params = mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                                yield_stress=1e16, psi_c=5e-4, zeta=1.0,
                                eta_f=1e-4, l_f=0.6)
    mesh = fm.build_structured_mesh(2, [20, 8], [8.0, 2.0])
    fm.tag_box(mesh, [(0, 0), (0, 2)], "left")
    fm.tag_box(mesh, [(8, 8), (0, 2)], "right")
    fm.tag_box(mesh, [(3, 5), (2, 2)], "top")
    problem = Problem(mesh=mesh, params=params,
                      supports=[("left", (0, 1)), ("right", (1,))],
                      driven=("top", (1,)))
    settings = SolverSettings(stagger_max_iter=600)
    traj = run_load_history(problem, 56, -1e-3, settings)

    print(f"{'step':>4} {'u':>9} {'|P|':>10} {'max d':>7} {'stagger':>7}")
    for n in range(0, traj.n_steps + 1, 4):
        stag = traj.stats[n - 1].stagger_iterations if n else 0
        print(f"{n:>4} {traj.load_factor[n]:>9.4f} "
              f"{abs(traj.reaction[n]):>10.5f} "
              f"{traj.fields[n].d.max():>7.3f} {stag:>7}")
    r = np.abs(traj.reaction)
    peak = int(np.argmax(r))
    print(f"\npeak |P| = {r[peak]:.5f} at step {peak}; "
          f"final |P| = {r[-1]:.5f} ({100 * r[-1] / r[peak]:.1f}% of peak)")


if __name__ == "__main__":
    main()
