import numpy as np
import pytest

from fractop import forward as fwd
from fractop import material as mat
from fractop import mesh as fm

from conftest import make_bend_beam, make_cantilever


def elastic_params(psi_c=1e9):
    return mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                              psi_c=psi_c, l_f=0.3)


def small_problem(**kw):
    params = elastic_params(**kw)
    mesh = fm.build_structured_mesh(2, [4, 2], [2.0, 1.0])
    fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
    fm.tag_box(mesh, [(2, 2), (0, 1)], "right")
    return fwd.Problem(mesh=mesh, params=params,
                       supports=[("left", (0, 1))], driven=("right", (0,)))


class TestAssembleRu:
    def test_rest_state_zero_residual(self):
        prob = small_problem()
        fields = prob.initial_fields()
        res, _, phi_qp = fwd.constitutive_sweep(
            prob, fields.u, fields.d, fields.phi, prob.initial_state())
        residual, _ = fwd.assemble_ru(prob, fields, res, phi_qp)
        assert np.abs(residual).max() == 0.0

    def test_elastic_patch_interior_residual_vanishes(self):
        prob = small_problem()
        mesh = prob.mesh
        grad = np.array([[1e-3, 2e-4], [3e-4, -5e-4]])
        fields = prob.initial_fields()
        fields.u = (mesh.coords @ grad.T).ravel()
        res, _, phi_qp = fwd.constitutive_sweep(
            prob, fields.u, fields.d, fields.phi, prob.initial_state())
        residual, _ = fwd.assemble_ru(prob, fields, res, phi_qp)
        fm.tag_box(mesh, [(0.4, 1.6), (0.4, 0.6)], "interior")
        interior = mesh.node_sets["interior"]
        assert np.abs(residual[mesh.udofs_of(interior)]).max() < 1e-10

    def test_stiffness_matches_fd_of_residual(self):
        prob = small_problem()
        mesh = prob.mesh
        rng = np.random.default_rng(0)
        u = 1e-3 * rng.normal(size=mesh.n_udof)
        d = rng.uniform(0, 0.5, mesh.n_nodes)
        fields = prob.initial_fields()
        fields.u, fields.d = u, d
        state = prob.initial_state()

        def residual_at(uvec):
            f = prob.initial_fields()
            f.u, f.d = uvec, d
            res, _, phi_qp = fwd.constitutive_sweep(prob, uvec, d, f.phi,
                                                    state)
            r, _ = fwd.assemble_ru(prob, f, res, phi_qp)
            return r

        res, _, phi_qp = fwd.constitutive_sweep(prob, u, d, fields.phi, state)
        _, k_uu = fwd.assemble_ru(prob, fields, res, phi_qp)
        h = 1e-7
        cols = rng.choice(mesh.n_udof, size=8, replace=False)
        for j in cols:
            up = u.copy()
            up[j] += h
            um = u.copy()
            um[j] -= h
            fd = (residual_at(up) - residual_at(um)) / (2 * h)
            col = k_uu[:, j].toarray().ravel()
            scale = max(np.abs(col).max(), 1e-6)
            assert np.abs(fd - col).max() / scale < 1e-5


class TestAssembleRd:
    def test_no_driving_force_keeps_crack_closed(self):
        prob = small_problem()
        mesh = prob.mesh
        settings = fwd.SolverSettings()
        zeros = np.zeros((mesh.n_elems, 4))
        phi_qp = np.ones((mesh.n_elems, 4))
        d, overshoot = fwd.solve_crack_field(prob, np.zeros(mesh.n_nodes),
                                             zeros, phi_qp, settings)
        assert np.abs(d).max() == 0.0
        assert overshoot == 0.0

    def test_uniform_history_plateau(self):
        # pointwise algebraic limit of the crack equation with viscosity:
        # d = (1-k) H / (1 + (1-k) H + eta/tau)
        prob = small_problem()
        mesh = prob.mesh
        settings = fwd.SolverSettings(tau_f=1e-4)
        hval = 7.3
        hist = np.full((mesh.n_elems, 4), hval)
        phi_qp = np.ones((mesh.n_elems, 4))
        d, _ = fwd.solve_crack_field(prob, np.zeros(mesh.n_nodes), hist,
                                     phi_qp, settings)
        kappa = prob.params.kappa
        visc = prob.params.eta_f / settings.tau_f
        expected = (1 - kappa) * hval / (1 + (1 - kappa) * hval + visc)
        # uniform driving keeps the gradient term inert: plateau everywhere
        assert np.abs(d - expected).max() < 1e-10

    def test_kdd_matches_fd_and_is_spd(self):
        prob = small_problem()
        mesh = prob.mesh
        settings = fwd.SolverSettings()
        rng = np.random.default_rng(1)
        d = rng.uniform(0, 0.8, mesh.n_nodes)
        d_prev = np.clip(d - 0.05, 0, 1)
        hist = rng.uniform(0, 3, (mesh.n_elems, 4))
        phi_qp = np.ones((mesh.n_elems, 4))

        def residual_at(dv):
            r, _ = fwd.assemble_rd(prob, dv, d_prev, hist, phi_qp, settings)
            return r

        _, k_dd = fwd.assemble_rd(prob, d, d_prev, hist, phi_qp, settings)
        h = 1e-7
        for j in rng.choice(mesh.n_nodes, size=6, replace=False):
            dp = d.copy()
            dp[j] += h
            dm = d.copy()
            dm[j] -= h
            fd = (residual_at(dp) - residual_at(dm)) / (2 * h)
            col = k_dd[:, j].toarray().ravel()
            assert np.abs(fd - col).max() / np.abs(col).max() < 1e-5
        dense = k_dd.toarray()
        assert np.allclose(dense, dense.T, atol=1e-12)
        assert np.linalg.eigvalsh(dense).min() > 0.0


class TestStaggeredStep:
    def test_elastic_subcritical_converges_in_one_pass(self):
        prob = small_problem()
        settings = fwd.SolverSettings()
        fields, qstate, stats = fwd.staggered_step(
            prob, prob.initial_fields(), prob.initial_state(), 1e-3,
            settings)
        assert stats.stagger_iterations == 1
        assert fields.d.max() == 0.0

    def test_supercritical_single_element_balance(self):
        # one fully driven element in uniaxial stretch: compare the crack
        # value against the scalar fixed point of the algebraic system
        params = mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                                    psi_c=1e-4, l_f=0.5, eta_f=1e-6)
        mesh = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
        fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
        fm.tag_box(mesh, [(1, 1), (0, 1)], "right")
        prob = fwd.Problem(mesh=mesh, params=params,
                           supports=[("left", (0,)),
                                     ("left", (1,)),
                                     ("right", (1,))],
                           driven=("right", (0,)))
        settings = fwd.SolverSettings(tau_f=1e-4)
        stretch = 0.05
        fields, qstate, stats = fwd.staggered_step(
            prob, prob.initial_fields(), prob.initial_state(), stretch,
            settings)
        d = fields.d
        assert d.max() > 0.0
        assert d.std() < 1e-9  # uniform state
        # scalar oracle: d = (1-k)H / (1 + (1-k)H + eta/tau) at the
        # effective-energy driving of the uniform strain state
        eps = np.zeros((1, 6))
        eps[0, 0] = stretch
        res = mat.return_map(eps, mat.QuadState.zeros(1), 0.0, 1.0, params)
        hval = params.zeta * max(
            (res.psi_plus[0] + res.psi_p[0]) / params.psi_c - 1.0, 0.0)
        kappa = params.kappa
        visc = params.eta_f / settings.tau_f
        expected = (1 - kappa) * hval / (1 + (1 - kappa) * hval + visc)
        assert d.mean() == pytest.approx(expected, rel=1e-8)

    def test_rerun_is_deterministic_fixed_point(self):
        prob = make_bend_beam()
        settings = fwd.SolverSettings(tau_f=1e-4)
        f1, q1, s1 = fwd.staggered_step(prob, prob.initial_fields(),
                                        prob.initial_state(), -0.03,
                                        settings)
        f2, q2, s2 = fwd.staggered_step(prob, prob.initial_fields(),
                                        prob.initial_state(), -0.03,
                                        settings)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.d, f2.d)
        assert s1.stagger_iterations == s2.stagger_iterations

    def test_stalled_exit_is_reported(self):
        # with zero tolerances only the fixed-point exit can accept the step
        prob = small_problem()
        strict = fwd.SolverSettings(stagger_tol=0.0, stagger_tol_abs=0.0)
        for settings, stalled in ((fwd.SolverSettings(), False),
                                  (strict, True)):
            _, _, stats = fwd.staggered_step(
                prob, prob.initial_fields(), prob.initial_state(), 1e-3,
                settings)
            assert stats.stalled is stalled

    def test_no_repeated_sweeps_or_discarded_tangents(self, monkeypatch):
        # each pass reuses the previous pass's last Newton sweep, and the
        # consistent tangent is built only for a Newton correction
        prob = make_bend_beam()
        calls = {"sweep": 0, "tangent": 0, "solve": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fwd, "constitutive_sweep",
                            counted("sweep", fwd.constitutive_sweep))
        monkeypatch.setattr(mat, "_tangent", counted("tangent", mat._tangent))
        monkeypatch.setattr(fwd, "linear_solve",
                            counted("solve", fwd.linear_solve))
        _, _, stats = fwd.staggered_step(
            prob, prob.initial_fields(), prob.initial_state(), -0.03,
            fwd.SolverSettings(tau_f=1e-4))
        assert stats.stagger_iterations > 2
        assert calls["sweep"] == (1 + stats.stagger_iterations
                                  + stats.newton_iterations)
        assert calls["tangent"] == stats.newton_corrections
        assert calls["solve"] == (stats.stagger_iterations
                                  + stats.newton_corrections)

    def test_warm_start_from_converged_state_needs_no_corrections(self):
        prob = small_problem()
        settings = fwd.SolverSettings()
        fields, qstate, _ = fwd.staggered_step(
            prob, prob.initial_fields(), prob.initial_state(), 1e-3,
            settings)
        again, _, stats = fwd.staggered_step(prob, fields,
                                             prob.initial_state(), 1e-3,
                                             settings)
        assert stats.newton_corrections == 0
        assert np.allclose(again.u, fields.u)


class TestLoadHistory:
    def test_zero_load_trivial_trajectory(self):
        prob = small_problem()
        traj = fwd.run_load_history(prob, 1, 0.0)
        assert traj.n_steps == 1
        assert np.all(traj.fields[1].u == 0.0)
        assert traj.reaction[1] == 0.0

    def test_elastic_reaction_linear_in_displacement(self):
        prob = small_problem()
        traj = fwd.run_load_history(prob, 4, 1e-3)
        r = np.array(traj.reaction[1:])
        lf = np.array(traj.load_factor[1:])
        stiff = r / lf
        assert np.abs(stiff - stiff[0]).max() / stiff[0] < 1e-8

    def test_reaction_balances_body_force(self):
        params = elastic_params()
        mesh = fm.build_structured_mesh(2, [4, 2], [2.0, 1.0])
        fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
        fm.tag_box(mesh, [(2, 2), (0, 1)], "right")
        prob = fwd.Problem(mesh=mesh, params=params,
                           supports=[("left", (0, 1))],
                           driven=("right", (0,)),
                           body_force=np.array([0.0, -0.01]))
        traj = fwd.run_load_history(prob, 1, 0.0)
        reactions_y = traj.fields[1].p_u.reshape(-1, 2)[:, 1]
        weight = 0.01 * mesh.total_volume()
        assert reactions_y.sum() == pytest.approx(weight, rel=1e-8)

    def test_brittle_beam_softens_after_peak(self):
        # bend-beam analog pushed through its load peak
        prob = make_bend_beam()
        settings = fwd.SolverSettings(tau_f=1e-4, stagger_max_iter=600)
        traj = fwd.run_load_history(prob, 52, -1e-3, settings)
        r = np.abs(np.array(traj.reaction))
        peak = int(np.argmax(r))
        assert 0 < peak < traj.n_steps          # interior peak
        assert r[-1] < 0.9 * r[peak]            # clear decline

    def test_crack_field_never_decreases(self):
        prob = make_bend_beam()
        settings = fwd.SolverSettings(tau_f=1e-4, stagger_max_iter=600)
        traj = fwd.run_load_history(prob, 30, -1.4e-3, settings)
        assert traj.fields[-1].d.max() > 0.05
        worst = 0.0
        for n in range(1, len(traj.fields)):
            worst = min(worst, float((traj.fields[n].d
                                      - traj.fields[n - 1].d).min()))
        assert worst >= -1e-10
        # moderate cracking keeps the pre-clamp overshoot tiny
        assert max(t.d_overshoot for t in traj.stats) < 1e-3

    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            fwd.run_load_history(small_problem(), 0, 1e-3)

    def test_hexahedral_block_linear_and_patch(self):
        params = elastic_params()
        mesh = fm.build_structured_mesh(3, [2, 2, 2], [1.0, 1.0, 1.0])
        fm.tag_box(mesh, [(0, 0), (0, 1), (0, 1)], "back")
        fm.tag_box(mesh, [(1, 1), (0, 1), (0, 1)], "front")
        prob = fwd.Problem(mesh=mesh, params=params,
                           supports=[("back", (0, 1, 2))],
                           driven=("front", (0,)))
        traj = fwd.run_load_history(prob, 3, 1e-3)
        r = np.array(traj.reaction[1:])
        lf = np.array(traj.load_factor[1:])
        stiff = r / lf
        assert np.abs(stiff - stiff[0]).max() / stiff[0] < 1e-8
        # linear field reproduces exactly: interior residual vanishes
        grad = np.array([[1e-3, 2e-4, -1e-4],
                         [3e-4, -5e-4, 2e-4],
                         [-2e-4, 1e-4, 4e-4]])
        fields = prob.initial_fields()
        fields.u = (mesh.coords @ grad.T).ravel()
        res, _, phi_qp = fwd.constitutive_sweep(
            prob, fields.u, fields.d, fields.phi, prob.initial_state())
        residual, _ = fwd.assemble_ru(prob, fields, res, phi_qp)
        center = fm.tag_box(mesh, [(0.4, 0.6)] * 3, "mid").node_sets["mid"]
        assert np.abs(residual[mesh.udofs_of(center)]).max() < 1e-10

    def test_nonconvergence_carries_partial_trajectory(self):
        prob = make_bend_beam()
        settings = fwd.SolverSettings(tau_f=1e-4, stagger_max_iter=3)
        with pytest.raises(fwd.SolverError) as err:
            fwd.run_load_history(prob, 40, -1.5e-3, settings)
        traj = err.value.partial_trajectory
        assert traj is not None
        assert not traj.complete
        assert traj.n_steps >= 1


class TestTangentBlocks:
    def test_kuu_symmetric_at_converged_state(self):
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 2, -1e-3, settings)
        blocks = fwd.assemble_tangent_blocks(prob, traj.fields[2],
                                             traj.qstates[1],
                                             traj.fields[1].d, settings)
        k = blocks.k_uu.toarray()
        assert np.abs(k - k.T).max() <= 1e-8 * np.abs(k).max()

    def test_coupling_blocks_vanish_without_stress_or_damage(self):
        prob = small_problem()
        settings = fwd.SolverSettings()
        fields = prob.initial_fields()
        blocks = fwd.assemble_tangent_blocks(prob, fields,
                                             prob.initial_state(),
                                             fields.d, settings)
        assert blocks.k_ud.nnz == 0 or np.abs(blocks.k_ud.data).max() == 0.0
        assert blocks.k_du.nnz == 0 or np.abs(blocks.k_du.data).max() == 0.0

    def test_kud_matches_fd_of_ru_wrt_d(self):
        prob = make_bend_beam(psi_c=1e9)  # keep history inactive
        mesh = prob.mesh
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 1, -0.02, settings)
        fields = traj.fields[1]
        rng = np.random.default_rng(3)
        fields.d = rng.uniform(0.05, 0.6, mesh.n_nodes)
        state0 = traj.qstates[0]
        blocks = fwd.assemble_tangent_blocks(prob, fields, state0,
                                             traj.fields[0].d, settings)

        def ru_at(dv):
            res, _, phi_qp = fwd.constitutive_sweep(prob, fields.u, dv,
                                                    fields.phi, state0)
            r, _ = fwd.assemble_ru(prob, fields, res, phi_qp)
            return r

        h = 1e-7
        for j in rng.choice(mesh.n_nodes, size=5, replace=False):
            dp = fields.d.copy()
            dp[j] += h
            dm = fields.d.copy()
            dm[j] -= h
            fd = (ru_at(dp) - ru_at(dm)) / (2 * h)
            col = blocks.k_ud[:, j].toarray().ravel()
            scale = max(np.abs(col).max(), 1e-8)
            assert np.abs(fd - col).max() / scale < 1e-4
