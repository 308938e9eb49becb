import numpy as np
import pytest

from fractop import forward as fwd
from fractop import material as mat
from fractop import mesh as fm
from fractop import sensitivity as sens
from fractop import verify

from conftest import make_cantilever


def ductile():
    return mat.MaterialParams(bulk_modulus=175.0, shear_modulus=80.76,
                              hardening_modulus=200.0, yield_stress=543.0,
                              psi_c=13.0, zeta=10.0, l_f=0.18)


class TestRelativeError:
    def test_floor_prevents_blowup(self):
        err = verify.relative_error(0.0, 1e-20)
        assert err < 1e-5

    def test_self_comparison_is_zero(self):
        vals = np.array([1.0, -2.0, 3e-7])
        assert np.all(verify.relative_error(vals, vals) == 0.0)


class TestFdSensitivity:
    def test_central_difference_antisymmetry(self):
        prob = make_cantilever(nx=6, ny=3)
        settings = fwd.SolverSettings()
        node = 8
        a = verify.fd_sensitivity(prob, node, 1e-4, 1, -1e-3, settings)
        # swapping the arms flips the sign of the difference
        base = np.ones(prob.mesh.n_nodes)
        lp = verify._lagrangian
        phi_p = base.copy()
        phi_p[node] += 1e-4
        phi_m = base.copy()
        phi_m[node] -= 1e-4
        fwd_diff = lp(prob, phi_p, 1, -1e-3, settings) \
            - lp(prob, phi_m, 1, -1e-3, settings)
        rev_diff = lp(prob, phi_m, 1, -1e-3, settings) \
            - lp(prob, phi_p, 1, -1e-3, settings)
        assert fwd_diff == pytest.approx(-rev_diff, abs=1e-18)
        assert a == pytest.approx(-fwd_diff / 2e-4)

    def test_probe_solves_on_the_callers_problem(self, monkeypatch):
        # the FD arm asks the caller's own problem for a regularized load
        # history and leaves its fields and caches as they were
        prob = make_cantilever(nx=4, ny=2)
        traj = fwd.run_load_history(prob, 1, -1e-3)
        sens.adjoint_sweep(prob, traj, 1)     # builds every cache
        before = dict(vars(prob))
        assert {"uu_band", "dd_band", "operators"} <= before.keys()
        arrays = {name: value.copy() for name, value in before.items()
                  if isinstance(value, np.ndarray)}
        patterns = dict(prob.adjoint_patterns)
        calls = []

        def recording_run(problem, *args, **kwargs):
            calls.append((problem, kwargs))
            return fwd.run_load_history(problem, *args, **kwargs)

        monkeypatch.setattr(verify, "run_load_history", recording_run)
        verify._lagrangian(prob, np.ones(prob.mesh.n_nodes), 1, -1e-3,
                           fwd.SolverSettings())
        ((problem, kwargs),) = calls
        assert problem is prob
        assert kwargs["regularized"] is True
        assert vars(prob).keys() == before.keys()
        assert all(vars(prob)[name] is value
                   for name, value in before.items())
        assert all(np.array_equal(vars(prob)[name], value)
                   for name, value in arrays.items())
        assert prob.adjoint_patterns.keys() == patterns.keys()
        assert all(prob.adjoint_patterns[key] is value
                   for key, value in patterns.items())

    def test_probes_on_a_fresh_problem_build_the_caches_once(self,
                                                            monkeypatch):
        # the FD arm solves on the caller's problem, so its probes share
        # the mesh caches even when no analytic solve ran first
        built = []
        element_operators = fwd._element_operators
        bands = []
        band_pattern = fm.Mesh.band_pattern

        def counted(mesh):
            built.append(mesh)
            return element_operators(mesh)

        def counted_band(mesh, order, width):
            bands.append(order.size)
            return band_pattern(mesh, order, width)

        monkeypatch.setattr(fwd, "_element_operators", counted)
        monkeypatch.setattr(fm.Mesh, "band_pattern", counted_band)
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        counts = []
        for node in verify.interior_solid_nodes(prob)[:2]:
            verify.fd_sensitivity(prob, int(node), 1e-4, 1, -1e-3, settings)
            counts.append(len(built))
            built.clear()
        assert counts == [1, 0]
        assert sorted(bands) == [prob.mesh.n_nodes, prob.free_dofs.size]

    def test_deep_void_probe_in_dead_zone_is_negligible(self):
        # void block in the top-right corner, away from the load path
        prob = make_cantilever(nx=8, ny=4)
        settings = fwd.SolverSettings()
        mesh = prob.mesh
        phi = np.ones(mesh.n_nodes)
        dead = (mesh.coords[:, 0] > 1.2) & (mesh.coords[:, 1] > 0.7)
        phi[dead] = -1.0
        deep = np.flatnonzero(np.isclose(mesh.coords[:, 0], 1.75)
                              & np.isclose(mesh.coords[:, 1], 1.0))[0]
        v_deep = verify.fd_sensitivity(prob, int(deep), 1e-4, 1, -1e-3,
                                       settings, phi=phi)
        # load-path reference: bending fibers next to the clamp
        refs = [verify.fd_sensitivity(prob, int(n), 1e-4, 1, -1e-3, settings,
                                      phi=phi)
                for n in np.flatnonzero(
                    np.isclose(mesh.coords[:, 0], 0.25))]
        assert abs(v_deep) < 0.1 * max(abs(v) for v in refs)

    def test_one_element_matches_dense_reimplementation(self):
        # independent dense-numpy forward solve in both FD arms
        params = mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                                    psi_c=1e9, l_f=0.5)
        mesh = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
        fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
        fm.tag_box(mesh, [(1, 1), (0, 1)], "right")
        prob = fwd.Problem(mesh=mesh, params=params,
                           supports=[("left", (0, 1)), ("right", (1,))],
                           driven=("right", (0,)))
        settings = fwd.SolverSettings()
        du = 1e-3
        node = int(mesh.node_sets["left"][0])

        def dense_objective(phi):
            # dense displacement solve with the regularized transition
            f_qp = mat.transition_f(mesh.interpolate(phi), params.kappa,
                                    l_delta=5.0)
            dmat = (params.bulk_modulus * mat._J_VOL
                    + 2 * params.shear_modulus * mat.P_DEV)
            rows = [0, 1, 5]
            d2d = dmat[np.ix_(rows, rows)]
            ke_local = np.zeros((8, 8))
            for q in range(4):
                b = mesh.b_u[0, q]
                ke_local += f_qp[0, q] * mesh.w_detj[0, q] * b.T @ d2d @ b
            # scatter connectivity-ordered DOFs into global numbering
            edofs = np.array([2 * n + c for n in mesh.conn[0]
                              for c in (0, 1)])
            ke = np.zeros((8, 8))
            ke[np.ix_(edofs, edofs)] = ke_local
            pres = prob.prescribed_dofs
            free = prob.free_dofs
            u = np.zeros(8)
            u[prob.driven_dofs] = du
            if free.size:
                u[free] = np.linalg.solve(ke[np.ix_(free, free)],
                                          -ke[np.ix_(free, pres)] @ u[pres])
            reaction = (ke @ u)[prob.driven_dofs].sum()
            return -0.5 * reaction * du  # single-step trapezoid with P0 = 0

        phi = np.ones(4)
        h = 1e-4
        pp = phi.copy()
        pp[node] += h
        pm = phi.copy()
        pm[node] -= h
        dense_fd = -(dense_objective(pp) - dense_objective(pm)) / (2 * h)
        shipped = verify.fd_sensitivity(prob, node, h, 1, du, settings)
        assert shipped == pytest.approx(dense_fd, rel=1e-6)


class TestCompareSensitivities:
    def test_elastic_formulation1_passes_default_gate(self):
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        nodes = verify.interior_solid_nodes(prob)[::4]
        report = verify.compare_sensitivities(prob, nodes, 2, -1e-3,
                                              settings, formulation=1)
        assert report.mean_rel_error < 1e-2
        assert not report.invalid.any()

    def test_larger_kappa_shrinks_errors(self):
        # weaker stiffness contrast between the exact and regularized
        # transition reduces the disagreement on a part-void layout
        def report_for(kappa):
            params = mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                                        psi_c=1e9, l_f=0.2, kappa=kappa)
            mesh = fm.build_structured_mesh(2, [10, 5], [2.0, 1.0])
            fm.tag_box(mesh, [(0, 0), (0, 1)], "clamp")
            fm.tag_box(mesh, [(2, 2), (0.4, 0.6)], "tip")
            prob = fwd.Problem(mesh=mesh, params=params,
                               supports=[("clamp", (0, 1))],
                               driven=("tip", (1,)))
            rng = np.random.default_rng(9)
            phi = rng.uniform(0.05, 1.0, mesh.n_nodes)
            phi[np.isclose(mesh.coords[:, 1], 1.0)
                & (mesh.coords[:, 0] > 0.9)] = -0.4
            nodes = verify.interior_solid_nodes(prob, phi)[::5]
            return verify.compare_sensitivities(
                prob, nodes, 1, -1e-3, fwd.SolverSettings(), phi=phi,
                formulation=1)

        loose = report_for(1e-4)
        tight = report_for(1e-8)
        assert loose.mean_rel_error <= tight.mean_rel_error

    def test_probe_errors_other_than_solve_failures_propagate(self,
                                                             monkeypatch):
        # only a failed forward solve makes a NaN probe; a programming
        # error inside a probe surfaces
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword argument")

        monkeypatch.setattr(verify, "_lagrangian", broken)
        prob = make_cantilever(nx=4, ny=2)
        nodes = verify.interior_solid_nodes(prob)[:1]
        with pytest.raises(TypeError, match="unexpected keyword"):
            verify.compare_sensitivities(prob, nodes, 1, -1e-3)

    def test_identical_pipelines_zero_error(self):
        rep = verify.FDReport(nodes=np.arange(3),
                              analytic=np.array([1.0, 2.0, 3.0]),
                              fd=np.array([1.0, 2.0, 3.0]),
                              rel_error=verify.relative_error(
                                  np.array([1.0, 2.0, 3.0]),
                                  np.array([1.0, 2.0, 3.0])),
                              delta_phi=1e-4)
        assert rep.max_rel_error == 0.0

    def test_failed_probe_is_nan_and_left_out_of_the_statistics(self):
        analytic = np.array([1.0, 2.0, 4.0])
        fd = np.array([1.0, np.nan, 2.0])
        rep = verify.FDReport(nodes=np.arange(3), analytic=analytic, fd=fd,
                              rel_error=verify.relative_error(analytic, fd),
                              delta_phi=1e-4)
        assert rep.invalid.tolist() == [False, True, False]
        assert rep.rel_error.size == 3 and np.isnan(rep.rel_error[1])
        assert rep.mean_rel_error == 0.25
        assert rep.max_rel_error == 0.5

    def test_all_probes_failed_reads_nan(self):
        fd = np.full(2, np.nan)
        rep = verify.FDReport(nodes=np.arange(2), analytic=np.ones(2), fd=fd,
                              rel_error=verify.relative_error(1.0, fd),
                              delta_phi=1e-4)
        assert np.isnan(rep.mean_rel_error)
        assert np.isnan(rep.max_rel_error)


class TestFdTangent:
    def test_elastic_states(self):
        rng = np.random.default_rng(0)
        eps = rng.normal(scale=0.3, size=(30, 6))
        err, _ = verify.fd_tangent_check(ductile(), eps,
                                         mat.QuadState.zeros(30),
                                         np.zeros(30), np.ones(30))
        assert err < 1e-7

    def test_plastic_states(self):
        rng = np.random.default_rng(1)
        eps = rng.normal(scale=9.0, size=(30, 6))
        p = ductile()
        res = mat.return_map(eps, mat.QuadState.zeros(30), 0.0, 1.0, p)
        assert np.all(res.new_state.lambda_p > 0)  # inside plastic branch
        err, _ = verify.fd_tangent_check(p, eps, mat.QuadState.zeros(30),
                                         np.zeros(30), np.ones(30))
        assert err < 1e-4

    def test_fully_broken_tension(self):
        eps = np.array([[0.05, 0.02, 0.01, 0.0, 0.0, 0.01]])
        err, _ = verify.fd_tangent_check(ductile(), eps,
                                         mat.QuadState.zeros(1),
                                         np.ones(1), np.ones(1))
        assert err < 1e-7
