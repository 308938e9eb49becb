import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky_banded, solveh_banded
from scipy.sparse.linalg import spsolve

from fractop import config
from fractop import forward as fwd
from fractop import material as mat
from fractop import mesh as fm
from fractop.levelset import dirac_regularized, heaviside_regularized

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
        res, _, _ = fwd.constitutive_sweep(
            prob, fields.u, fields.d, prob.layout(fields.phi),
            prob.initial_state())
        residual = fwd.assemble_ru(prob, res)
        assert np.abs(residual).max() == 0.0

    def test_elastic_patch_interior_residual_vanishes(self):
        prob = small_problem()
        mesh = prob.mesh
        grad = np.array([[1e-3, 2e-4], [3e-4, -5e-4]])
        fields = prob.initial_fields()
        fields.u = (mesh.coords @ grad.T).ravel()
        res, _, _ = fwd.constitutive_sweep(
            prob, fields.u, fields.d, prob.layout(fields.phi),
            prob.initial_state())
        residual = fwd.assemble_ru(prob, res)
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
        layout = prob.layout(fields.phi)

        def residual_at(uvec):
            res, _, _ = fwd.constitutive_sweep(prob, uvec, d, layout, state)
            return fwd.assemble_ru(prob, res)

        res, _, _ = fwd.constitutive_sweep(prob, u, d, layout, state)
        k_uu = mesh.assemble(fwd._kuu_blocks(prob, res))
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
        zeros = np.zeros((mesh.n_elems, 4))
        d_prev = np.zeros(mesh.n_nodes)
        d, overshoot = fwd.solve_crack_field(prob, d_prev, fwd.crack_operator(
            prob, d_prev, zeros, prob.layout(np.ones(mesh.n_nodes))))
        assert np.abs(d).max() == 0.0
        assert overshoot == 0.0

    def test_uniform_history_plateau(self):
        # pointwise algebraic limit of the crack equation with viscosity:
        # d = (1-k) H / (1 + (1-k) H + eta/tau)
        prob = small_problem()
        mesh = prob.mesh
        hval = 7.3
        hist = np.full((mesh.n_elems, 4), hval)
        d_prev = np.zeros(mesh.n_nodes)
        d, _ = fwd.solve_crack_field(prob, d_prev, fwd.crack_operator(
            prob, d_prev, hist, prob.layout(np.ones(mesh.n_nodes))))
        kappa = prob.params.kappa
        visc = prob.params.eta_f / prob.params.tau_f
        expected = (1 - kappa) * hval / (1 + (1 - kappa) * hval + visc)
        # uniform driving keeps the gradient term inert: plateau everywhere
        assert np.abs(d - expected).max() < 1e-10

    def test_solve_never_drops_below_previous_crack(self):
        # without driving force the viscous solve relaxes d toward 0:
        # d = visc d_prev / (1 + visc) = 0.15 for visc = 1, d_prev = 0.3.
        # Irreversibility holds d at d_prev and reports the 0.15 undershoot.
        prob = small_problem()
        mesh = prob.mesh
        prob.params = replace(prob.params, tau_f=prob.params.eta_f)
        zeros = np.zeros((mesh.n_elems, 4))
        d_prev = np.full(mesh.n_nodes, 0.3)
        d, overshoot = fwd.solve_crack_field(prob, d_prev, fwd.crack_operator(
            prob, d_prev, zeros, prob.layout(np.ones(mesh.n_nodes))))
        assert np.array_equal(d, d_prev)
        assert overshoot == pytest.approx(0.15, rel=1e-10)

    def test_kdd_matches_fd_and_is_spd(self):
        prob = small_problem()
        mesh = prob.mesh
        rng = np.random.default_rng(1)
        d = rng.uniform(0, 0.8, mesh.n_nodes)
        d_prev = np.clip(d - 0.05, 0, 1)
        hist = rng.uniform(0, 3, (mesh.n_elems, 4))
        operator = fwd.crack_operator(prob, d_prev, hist,
                                      prob.layout(np.ones(mesh.n_nodes)))

        def residual_at(dv):
            return fwd.assemble_rd(prob, dv, operator)

        k_dd = mesh.assemble(operator[0])
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


class TestLayout:
    """``Problem.layout`` is the one place that picks the transition."""

    @pytest.fixture
    def case(self):
        prob = make_cantilever()
        rng = np.random.default_rng(5)
        phi = rng.uniform(-1.0, 1.0, prob.mesh.n_nodes)
        phi[:4] = (0.0, -0.0, 1e-3, -1e-3)
        return prob, phi, prob.mesh.interpolate(phi)

    def test_exact_transition_by_default(self, case):
        prob, phi, phi_qp = case
        expected = mat.transition_f(phi_qp, prob.params.kappa)
        assert prob.layout(phi).fphi.tobytes() == expected.tobytes()

    def test_regularized_transition_on_request(self, case):
        prob, phi, phi_qp = case
        expected = mat.transition_f(phi_qp, prob.params.kappa, prob.l_delta)
        layout = prob.layout(phi, regularized=True)
        assert layout.fphi.tobytes() == expected.tobytes()
        assert not np.array_equal(layout.fphi, prob.layout(phi).fphi)

    @pytest.mark.parametrize("regularized", [False, True])
    def test_slope_is_the_regularized_one(self, case, regularized):
        # the expression dR/dPhi evaluated at every step before the layout
        # carried it
        prob, phi, phi_qp = case
        expected = (2.0 * (1.0 - prob.params.kappa)
                    * heaviside_regularized(phi_qp, prob.l_delta)
                    * dirac_regularized(phi_qp, prob.l_delta))
        layout = prob.layout(phi, regularized=regularized)
        assert layout.dfphi.tobytes() == expected.tobytes()


class TestStaggeredStep:
    def test_elastic_subcritical_converges_in_one_pass(self):
        prob = small_problem()
        settings = fwd.SolverSettings()
        start = prob.initial_fields()
        fields, qstate, stats = fwd.staggered_step(
            prob, start, prob.initial_state(), 1e-3, settings,
            prob.layout(start.phi))
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
        settings = fwd.SolverSettings()
        stretch = 0.05
        start = prob.initial_fields()
        fields, qstate, stats = fwd.staggered_step(
            prob, start, prob.initial_state(), stretch, settings,
            prob.layout(start.phi))
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
        visc = params.eta_f / params.tau_f
        expected = (1 - kappa) * hval / (1 + (1 - kappa) * hval + visc)
        assert d.mean() == pytest.approx(expected, rel=1e-8)

    def test_rerun_is_deterministic_fixed_point(self):
        prob = make_bend_beam()
        settings = fwd.SolverSettings()
        start = prob.initial_fields()
        layout = prob.layout(start.phi)
        f1, q1, s1 = fwd.staggered_step(prob, start, prob.initial_state(),
                                        -0.03, settings, layout)
        f2, q2, s2 = fwd.staggered_step(prob, start, prob.initial_state(),
                                        -0.03, settings, layout)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.d, f2.d)
        assert s1.stagger_iterations == s2.stagger_iterations

    def test_stalled_exit_is_reported(self, monkeypatch):
        # with zero tolerances only the fixed-point exit can accept the step
        prob = small_problem()

        def stalled():
            start = prob.initial_fields()
            _, _, stats = fwd.staggered_step(
                prob, start, prob.initial_state(), 1e-3,
                fwd.SolverSettings(), prob.layout(start.phi))
            return stats.stalled

        assert stalled() is False
        monkeypatch.setattr(fwd, "STAGGER_TOL", 0.0)
        monkeypatch.setattr(fwd, "STAGGER_TOL_ABS", 0.0)
        assert stalled() is True

    def test_no_repeated_sweeps_or_discarded_tangents(self, monkeypatch):
        # each pass reuses the previous pass's last Newton sweep, the tangent
        # moduli are built only for a Newton correction, the 6x6 tangent
        # never is, and one set of K_dd blocks serves a pass's residual and
        # the next pass's crack solve
        prob = make_bend_beam()
        calls = {"sweep": 0, "moduli": 0, "tangent": 0, "solve": 0,
                 "kdd": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fwd, "constitutive_sweep",
                            counted("sweep", fwd.constitutive_sweep))
        monkeypatch.setattr(mat, "tangent_moduli",
                            counted("moduli", mat.tangent_moduli))
        monkeypatch.setattr(mat, "_tangent", counted("tangent", mat._tangent))
        monkeypatch.setattr(fwd, "linear_solve",
                            counted("solve", fwd.linear_solve))
        monkeypatch.setattr(fwd, "_kdd_blocks",
                            counted("kdd", fwd._kdd_blocks))
        start = prob.initial_fields()
        _, _, stats = fwd.staggered_step(
            prob, start, prob.initial_state(), -0.03, fwd.SolverSettings(),
            prob.layout(start.phi))
        assert stats.stagger_iterations > 2
        assert calls["sweep"] == (1 + stats.stagger_iterations
                                  + stats.newton_iterations)
        assert calls["moduli"] == stats.newton_corrections
        assert calls["tangent"] == 0
        assert calls["solve"] == (stats.stagger_iterations
                                  + stats.newton_corrections)
        assert calls["kdd"] == stats.stagger_iterations + 1

    def test_warm_start_from_converged_state_needs_no_corrections(self):
        prob = small_problem()
        settings = fwd.SolverSettings()
        start = prob.initial_fields()
        layout = prob.layout(start.phi)
        fields, qstate, _ = fwd.staggered_step(
            prob, start, prob.initial_state(), 1e-3, settings, layout)
        again, _, stats = fwd.staggered_step(prob, fields,
                                             prob.initial_state(), 1e-3,
                                             settings, layout)
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
        settings = fwd.SolverSettings(stagger_max_iter=600)
        traj = fwd.run_load_history(prob, 52, -1e-3, settings)
        r = np.abs(np.array(traj.reaction))
        peak = int(np.argmax(r))
        assert 0 < peak < traj.n_steps          # interior peak
        assert r[-1] < 0.9 * r[peak]            # clear decline

    def test_crack_field_never_decreases(self):
        prob = make_bend_beam()
        settings = fwd.SolverSettings(stagger_max_iter=600)
        traj = fwd.run_load_history(prob, 30, -1.4e-3, settings)
        assert traj.fields[-1].d.max() > 0.05
        worst = 0.0
        for n in range(1, len(traj.fields)):
            worst = min(worst, float((traj.fields[n].d
                                      - traj.fields[n - 1].d).min()))
        assert worst >= -1e-10
        # moderate cracking keeps the pre-clamp overshoot tiny
        assert max(t.d_overshoot for t in traj.stats) < 1e-3

    def test_load_history_assembles_through_the_module_functions(
            self, monkeypatch):
        # Newton and the staggered step look both residuals up as module
        # globals, so a wrapper on the module (a tracer's) sees every call
        calls = {"assemble_ru": 0, "assemble_rd": 0}
        for name in calls:
            func = getattr(fwd, name)

            def counted(*args, _name=name, _func=func, **kwargs):
                calls[_name] += 1
                return _func(*args, **kwargs)

            monkeypatch.setattr(fwd, name, counted)
        traj = fwd.run_load_history(make_bend_beam(), 3, -0.01,
                                    fwd.SolverSettings())
        passes = sum(s.stagger_iterations for s in traj.stats)
        assert calls["assemble_rd"] == passes > 0
        assert calls["assemble_ru"] >= passes

    @staticmethod
    def _history_case(case):
        if case == "bend":
            cfg, prob = config_problem("bend2d.ini")
            return prob, cfg.steps, cfg.displacement_per_step, cfg.solver
        cfg, prob = config_problem("ductile_strip2d.ini", (12, 4))
        return prob, 25, cfg.displacement_per_step, cfg.solver

    @pytest.mark.parametrize("case", ["bend", "strip"])
    def test_history_equals_steps_that_each_open_with_a_sweep(self, case):
        # after a level without plastic increment the history skips the
        # step's opening sweep, which would repeat the level's last sweep;
        # stepping by hand computes every opening sweep
        prob, steps, du, settings = self._history_case(case)
        traj = fwd.run_load_history(prob, steps, du, settings)
        plastic = [bool(np.any(q.lambda_p)) for q in traj.qstates[:-1]]
        if case == "bend":   # brittle: the rule fires at every step
            assert not any(plastic) and traj.fields[-1].d.max() > 0.1
        else:                # plastic levels take the opening sweep
            assert 0 < sum(plastic) < steps
        fields, qstate = prob.initial_fields(), prob.initial_state()
        layout = prob.layout(fields.phi)
        for n in range(1, steps + 1):
            fields, qstate, stats = fwd.staggered_step(
                prob, fields, qstate, n * du, settings, layout)
            assert stats == traj.stats[n - 1]
            for name in ("u", "d", "p_u"):
                assert np.array_equal(getattr(fields, name),
                                      getattr(traj.fields[n], name))
            for name in ("eps_p", "alpha", "history", "lambda_p"):
                assert np.array_equal(getattr(qstate, name),
                                      getattr(traj.qstates[n], name))

    @pytest.mark.parametrize("case", ["bend", "strip"])
    def test_history_sweeps_and_crack_operators(self, case, monkeypatch):
        # one sweep per Newton iteration, one opening sweep per step whose
        # previous level took a plastic increment, and K_dd blocks once
        # per pass plus once for the opening crack solve
        calls = {"constitutive_sweep": 0, "_kdd_blocks": 0}
        for name in calls:
            func = getattr(fwd, name)

            def counted(*args, _name=name, _func=func, **kwargs):
                calls[_name] += 1
                return _func(*args, **kwargs)

            monkeypatch.setattr(fwd, name, counted)
        prob, steps, du, settings = self._history_case(case)
        traj = fwd.run_load_history(prob, steps, du, settings)
        passes = sum(s.stagger_iterations for s in traj.stats)
        newton = sum(s.newton_iterations for s in traj.stats)
        openings = sum(bool(np.any(q.lambda_p)) for q in traj.qstates[:-1])
        assert calls["constitutive_sweep"] == passes + newton + openings
        assert calls["_kdd_blocks"] == passes + steps

    @pytest.fixture(scope="class")
    def histories(self):
        return {case: fwd.run_load_history(*self._history_case(case))
                for case in ("bend", "strip")}

    def test_brittle_levels_share_the_plastic_state_and_phi(self, histories):
        # the bend never yields, so its levels hold level 0's arrays
        traj = histories["bend"]
        first, first_q = traj.fields[0], traj.qstates[0]
        for fields, qstate in zip(traj.fields, traj.qstates):
            assert fields.phi is first.phi
            for name in ("eps_p", "alpha", "lambda_p"):
                assert getattr(qstate, name) is getattr(first_q, name)

    def test_only_a_plastic_step_holds_fresh_plastic_arrays(self,
                                                             histories):
        traj = histories["strip"]
        kinds = set()
        for prev, qstate in zip(traj.qstates, traj.qstates[1:]):
            plastic = bool(np.any(qstate.lambda_p))
            kinds.add(plastic)
            for name in ("eps_p", "alpha"):
                shared = getattr(qstate, name) is getattr(prev, name)
                assert shared is not plastic
        assert kinds == {False, True}
        assert all(f.phi is traj.fields[0].phi for f in traj.fields)

    @pytest.mark.parametrize("case", ["bend", "strip"])
    def test_committed_arrays_are_read_only(self, histories, case):
        # a write would edit every level that shares the array
        traj = histories[case]
        for fields, qstate in zip(traj.fields, traj.qstates):
            for array in (fields.u, fields.d, fields.phi, fields.p_u,
                          qstate.eps_p, qstate.alpha, qstate.history,
                          qstate.lambda_p):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_bend_history_allocation_peak(self):
        # one bend 20x8 history on a Problem whose patterns and operators
        # exist peaks at about 0.82 MB of allocations: 2.4 MB with a copy
        # of every array per level, and about 0.97-0.99 MB when Newton or
        # the staggered pass keeps its spent sweep while it takes the next
        prob, steps, du, settings = self._history_case("bend")
        fwd.run_load_history(prob, steps, du, settings)
        tracemalloc.start()
        try:
            fwd.run_load_history(prob, steps, du, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 950_000

    def test_bend_tape_bytes(self, histories):
        # the distinct arrays the bend 20x8 tape keeps: about 0.36 MB, and
        # 1.38 MB when every level held a copy of each array
        traj = histories["bend"]
        arrays = {id(a): a for f, q in zip(traj.fields, traj.qstates)
                  for a in (f.u, f.d, f.phi, f.p_u, q.eps_p, q.alpha,
                            q.history, q.lambda_p)}
        assert sum(a.nbytes for a in arrays.values()) <= 450_000

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
        res, _, _ = fwd.constitutive_sweep(
            prob, fields.u, fields.d, prob.layout(fields.phi),
            prob.initial_state())
        residual = fwd.assemble_ru(prob, res)
        center = fm.tag_box(mesh, [(0.4, 0.6)] * 3, "mid").node_sets["mid"]
        assert np.abs(residual[mesh.udofs_of(center)]).max() < 1e-10

    def test_onset_step_is_the_first_level_above_the_threshold(self):
        prob = small_problem()
        traj = fwd.Trajectory()
        for d_max in (0.0, 0.05, fwd.ONSET_CRACK, 0.2, 0.15):
            fields = prob.initial_fields()
            fields.d[0] = d_max
            traj.fields.append(fields)
        assert traj.onset_step == 3
        del traj.fields[3:]
        assert traj.onset_step is None

    def test_nonconvergence_carries_partial_trajectory(self):
        prob = make_bend_beam()
        settings = fwd.SolverSettings(stagger_max_iter=3)
        with pytest.raises(fwd.SolverError) as err:
            fwd.run_load_history(prob, 40, -1.5e-3, settings)
        traj = err.value.partial_trajectory
        assert traj is not None
        assert traj.n_steps >= 1


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def config_problem(name, counts=None):
    cfg = config.load_config(CONFIG_DIR / name)
    if counts is not None:
        cfg = replace(cfg, counts=counts)
    return cfg, config.build_problem(cfg)


def band_to_dense(band):
    """Symmetric dense matrix from LAPACK lower band storage."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for k in range(band.shape[0]):
        idx = np.arange(n - k)
        dense[idx + k, idx] = band[k, :n - k]
        dense[idx, idx + k] = band[k, :n - k]
    return dense


class TestBandedSolve:
    @pytest.fixture(scope="class")
    def ductile_state(self):
        # the ductile strip at step 25: plastic everywhere, crack growing
        cfg, prob = config_problem("ductile_strip2d.ini", (12, 4))
        traj = fwd.run_load_history(prob, 25, cfg.displacement_per_step,
                                    cfg.solver)
        fields, qstate_prev = traj.fields[25], traj.qstates[24]
        assert fields.d.max() > 0.1
        assert np.all(traj.qstates[25].alpha > 0.0)
        return prob, fields, qstate_prev, traj.qstates[25]

    def test_matches_sparse_lu_at_cracked_plastic_state(self, ductile_state):
        prob, fields, qstate_prev, qstate = ductile_state
        mesh = prob.mesh
        rng = np.random.default_rng(7)
        result, _, layout = fwd.constitutive_sweep(
            prob, fields.u, fields.d, prob.layout(fields.phi), qstate_prev)
        free = prob.free_dofs
        cases = (
            (prob.uu_band, fwd._kuu_blocks(prob, result),
             mesh.assemble(fwd._kuu_blocks(prob, result))[free][:, free],
             free, mesh.n_udof),
            (prob.dd_band,
             fwd._kdd_blocks(prob, qstate.history, layout),
             mesh.assemble(fwd._kdd_blocks(prob, qstate.history, layout)),
             np.arange(mesh.n_nodes), mesh.n_nodes),
        )
        for pattern, blocks, csr, unknowns, size in cases:
            rhs = rng.normal(size=size)
            banded = np.zeros(size)
            banded[pattern.order] = fwd.linear_solve(
                pattern.assemble(blocks), rhs[pattern.order])
            ref = spsolve(csr.tocsc(), rhs[unknowns])
            err = np.abs(banded[unknowns] - ref).max() / np.abs(ref).max()
            assert err < 1e-10

    def test_equals_solveh_banded_bit_for_bit(self, ductile_state):
        # the band path calls the LAPACK routine solveh_banded runs, and
        # leaves the band's Cholesky factor in it: the reference solves and
        # factors copies taken before
        prob, fields, qstate_prev, qstate = ductile_state
        result, _, layout = fwd.constitutive_sweep(
            prob, fields.u, fields.d, prob.layout(fields.phi), qstate_prev)
        rng = np.random.default_rng(11)
        for pattern, blocks in (
                (prob.uu_band, fwd._kuu_blocks(prob, result)),
                (prob.dd_band,
                 fwd._kdd_blocks(prob, qstate.history, layout))):
            band = pattern.assemble(blocks)
            rhs = rng.normal(size=band.shape[1])
            ref = solveh_banded(band.copy(), rhs, lower=True,
                                check_finite=False)
            factor = cholesky_banded(band.copy(), lower=True)
            assert np.array_equal(fwd.linear_solve(band, rhs), ref)
            assert np.array_equal(band, factor)

    @pytest.fixture(scope="class")
    def block_state(self):
        # the elastic 4x2x2 hexahedral block at its last step, with a
        # random crack driving force so that K_dd is not just N_a N_b
        cfg, prob = config_problem("block3d_elastic.ini")
        traj = fwd.run_load_history(prob, cfg.steps,
                                    cfg.displacement_per_step, cfg.solver)
        last = traj.qstates[-1]
        history = np.random.default_rng(3).uniform(0.0, 5.0,
                                                    last.history.shape)
        return (prob, traj.fields[-1], traj.qstates[-2],
                replace(last, history=history))

    def test_band_repeats_the_csr_matrix_bit_for_bit(self, ductile_state,
                                                     block_state):
        # the band sums each entry in the order tocsr does, so the forward
        # solves see the same matrix as the CSR blocks of the adjoint, on
        # quadrilaterals and on hexahedra
        for prob, fields, qstate_prev, qstate in (ductile_state, block_state):
            result, _, layout = fwd.constitutive_sweep(
                prob, fields.u, fields.d, prob.layout(fields.phi),
                qstate_prev)
            cases = (
                (prob.uu_band, fwd._kuu_blocks(prob, result)),
                (prob.dd_band,
                 fwd._kdd_blocks(prob, qstate.history, layout)),
            )
            for pattern, blocks in cases:
                csr = prob.mesh.assemble(blocks)
                order = pattern.order
                ref = np.tril(csr[order][:, order].toarray())
                assert np.array_equal(np.tril(band_to_dense(
                    pattern.assemble(blocks))), ref)
                rows, cols = np.nonzero(ref)
                assert (rows - cols).max() == pattern.bandwidth

    @pytest.mark.parametrize("name,counts,uu,dd", [
        ("bend2d.ini", (80, 32), 69, 34),
        ("bend2d.ini", (20, 8), 21, 10),
        ("ductile_strip2d.ini", (48, 16), 37, 18),
        ("block3d_elastic.ini", None, 41, 13),
    ])
    def test_half_bandwidth_of_structured_order(self, name, counts, uu, dd):
        # an element's far corner comes s nodes after its first one:
        # s = ny + 2 in 2D, 1 + 3 + 3 * 3 on the 5x3x3-node block; the
        # interleaved DOFs widen that to dim (s + 1) - 1
        cfg, prob = config_problem(name, counts)
        dim = prob.mesh.dimension
        assert prob.dd_band.bandwidth == dd
        assert prob.uu_band.bandwidth == dim * (dd + 1) - 1 == uu
        assert prob.uu_band.order.size == prob.free_dofs.size

    def test_indefinite_matrix_raises(self):
        # [[1, 2], [2, 1]] has eigenvalues 3 and -1
        band = np.array([[1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(fwd.SolverError, match="positive definite"):
            fwd.linear_solve(band, np.ones(2))

    def test_problems_keep_their_own_orderings(self):
        # same node count, transposed grids: the orderings differ, so a
        # pattern shared between the two would give wrong solves
        def strip(counts, extents):
            mesh = fm.build_structured_mesh(2, counts, extents)
            fm.tag_box(mesh, [(0, 0), (0, extents[1])], "left")
            fm.tag_box(mesh, [(extents[0], extents[0]), (0, extents[1])],
                       "right")
            return fwd.Problem(mesh=mesh, params=elastic_params(),
                               supports=[("left", (0, 1))],
                               driven=("right", (0,)))

        grids = {"wide": ([4, 2], [2.0, 1.0]), "tall": ([2, 4], [1.0, 2.0])}
        alone = {key: fwd.run_load_history(strip(*grid), 2, 1e-3).reaction
                 for key, grid in grids.items()}
        probs = {key: strip(*grid) for key, grid in grids.items()}
        for _ in range(2):
            for key, prob in probs.items():
                traj = fwd.run_load_history(prob, 2, 1e-3)
                # linear elasticity: one exact solve per step converges
                assert [s.newton_corrections for s in traj.stats] == [1, 1]
                assert traj.reaction == alone[key]
        assert not np.array_equal(probs["wide"].dd_band.order,
                                  probs["tall"].dd_band.order)

    def test_load_history_builds_each_pattern_once(self, monkeypatch):
        built = []
        band_pattern = fm.Mesh.band_pattern

        def counted(mesh, order, width):
            built.append(order.size)
            return band_pattern(mesh, order, width)

        monkeypatch.setattr(fm.Mesh, "band_pattern", counted)
        prob = make_bend_beam()
        for _ in range(2):
            traj = fwd.run_load_history(prob, 3, -0.01)
        assert sum(s.newton_corrections for s in traj.stats) > 3
        assert sorted(built) == [prob.mesh.n_nodes, prob.free_dofs.size]


class TestElementOperators:
    """The operator-based kernels against the direct quadrature formulas
    (the einsums they replaced)."""

    @pytest.fixture(scope="class")
    def states(self):
        # the elastic 20x8 bend, the plastic and cracked 12x4 ductile strip
        # at step 25 and an elastic 4x2x2 hexahedral block
        out = {}
        for key, name, counts, steps in (
                ("bend", "bend2d.ini", (20, 8), 24),
                ("strip", "ductile_strip2d.ini", (12, 4), 25),
                ("block", "block3d_elastic.ini", (4, 2, 2), 2)):
            cfg, prob = config_problem(name, counts)
            traj = fwd.run_load_history(prob, steps,
                                        cfg.displacement_per_step, cfg.solver)
            fields = traj.fields[steps]
            result, _, layout = fwd.constitutive_sweep(
                prob, fields.u, fields.d, prob.layout(fields.phi),
                traj.qstates[steps - 1])
            out[key] = (prob, result, layout, fields.d,
                        traj.fields[steps - 1].d, traj.qstates[steps].history)
        prob, result, _, d, _, _ = out["strip"]
        assert np.all(result.moduli[2] != 0.0) and d.max() > 0.1
        assert not np.any(out["bend"][1].moduli[2])
        return out

    @staticmethod
    def _close(new, ref, rtol):
        assert np.abs(new - ref).max() <= rtol * np.abs(ref).max()

    @pytest.mark.parametrize("key", ["bend", "strip", "block"])
    def test_kuu_matches_bdb_with_full_tangent(self, states, key):
        prob, result, _, _, _, _ = states[key]
        mesh = prob.mesh
        rows = mesh.voigt_rows
        dmat = result.tangent[..., rows, :][..., :, rows]
        ref = np.einsum("eqsi,eqst,eqtj,eq->eij", mesh.b_u, dmat, mesh.b_u,
                        mesh.w_detj)
        self._close(fwd._kuu_blocks(prob, result), ref, 1e-13)

    @pytest.mark.parametrize("key", ["bend", "strip", "block"])
    def test_crack_kernels_match_quadrature_formulas(self, states, key):
        prob, _, layout, d, d_prev, hist = states[key]
        mesh = prob.mesh
        p = prob.params
        kappa = p.kappa
        visc = p.eta_f / p.tau_f
        gradw = mesh.w_detj * p.l_f ** 2 * mat.transition_f(layout.phi_qp,
                                                            kappa)
        react = (1.0 - kappa) * hist + 1.0 + visc
        k_ref = np.einsum("eq,eq,qa,qb->eab", mesh.w_detj, react,
                          mesh.shape_n, mesh.shape_n)
        k_ref += np.einsum("eq,eqad,eqbd->eab", gradw, mesh.dn_dx,
                           mesh.dn_dx)
        operator = fwd.crack_operator(prob, d_prev, hist, layout)
        self._close(operator[0], k_ref, 1e-14)

        def residual(dv):
            d_qp = mesh.interpolate(dv)
            bulk = ((1.0 - kappa) * (d_qp - 1.0) * hist + d_qp
                    + visc * (d_qp - mesh.interpolate(d_prev)))
            contrib = np.einsum("eq,eq,qa->ea", mesh.w_detj, bulk,
                                mesh.shape_n)
            contrib += np.einsum("eq,eqad,eqd->ea", gradw, mesh.dn_dx,
                                 mesh.qp_gradient(dv))
            return np.bincount(mesh.conn.ravel(), weights=contrib.ravel(),
                               minlength=mesh.n_nodes)

        # at the converged d the residual is roundoff, so scale by its terms
        load = np.abs(residual(np.zeros_like(d))).max()
        for dv in (d, np.zeros_like(d), np.full_like(d, 0.5)):
            err = np.abs(fwd.assemble_rd(prob, dv, operator)
                         - residual(dv)).max()
            assert err <= 1e-13 * max(load, np.abs(k_ref).max()
                                      * np.abs(dv).max())

    @pytest.mark.parametrize("key", ["bend", "strip", "block"])
    def test_moduli_rebuild_the_tangent(self, states, key):
        result = states[key][1]
        a, b, c = result.moduli
        nhat = result.nhat
        rebuilt = (a[..., None, None] * mat._J_VOL
                   + b[..., None, None] * mat.P_DEV
                   + c[..., None, None] * nhat[..., :, None]
                   * nhat[..., None, :])
        self._close(rebuilt, result.tangent, 1e-14)

    def test_load_history_builds_operators_once(self, monkeypatch):
        built = []
        element_operators = fwd._element_operators

        def counted(mesh):
            built.append(mesh)
            return element_operators(mesh)

        monkeypatch.setattr(fwd, "_element_operators", counted)
        prob = make_bend_beam()
        for _ in range(2):
            traj = fwd.run_load_history(prob, 3, -0.01)
        assert sum(s.newton_corrections for s in traj.stats) > 3
        assert built == [prob.mesh]


class TestTangentBlocks:
    def test_kuu_symmetric_at_converged_state(self):
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 2, -1e-3, settings)
        fields = traj.fields[2]
        sweep = fwd.constitutive_sweep(prob, fields.u, fields.d,
                                       prob.layout(fields.phi),
                                       traj.qstates[1])
        blocks = fwd.assemble_tangent_blocks(prob, sweep, traj.qstates[1])
        k = blocks.k_uu.toarray()
        assert np.abs(k - k.T).max() <= 1e-8 * np.abs(k).max()

    def test_coupling_blocks_vanish_without_stress_or_damage(self):
        prob = small_problem()
        fields = prob.initial_fields()
        state0 = prob.initial_state()
        layout = prob.layout(fields.phi)
        sweep = fwd.constitutive_sweep(prob, fields.u, fields.d, layout,
                                       state0)
        blocks = fwd.assemble_tangent_blocks(prob, sweep, state0)
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
        layout = prob.layout(fields.phi)
        sweep = fwd.constitutive_sweep(prob, fields.u, fields.d, layout,
                                       state0)
        blocks = fwd.assemble_tangent_blocks(prob, sweep, state0)

        def ru_at(dv):
            res, _, _ = fwd.constitutive_sweep(prob, fields.u, dv, layout,
                                               state0)
            return fwd.assemble_ru(prob, res)

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
