import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from fractop import config
from fractop import forward as fwd
from fractop import material as mat
from fractop import mesh as fm
from fractop import sensitivity as sens

from conftest import make_cantilever

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def sweep_of(prob, fields, qstate_prev):
    return fwd.constitutive_sweep(prob, fields.u, fields.d, fields.phi,
                                  qstate_prev)


class TestObjectiveIncrement:
    def test_constant_reaction(self):
        p = np.array([2.0, 0.0])
        du = np.array([0.5, 0.0])
        assert sens.objective_increment(p, p, du) == pytest.approx(-1.0)

    def test_zero_increment(self):
        p = np.array([3.0])
        assert sens.objective_increment(p, p, np.zeros(1)) == 0.0

    def test_linear_ramp_reproduces_quadratic_work(self):
        # P = k u: summed trapezoids equal the exact -k u^2 / 2
        k = 7.0
        n = 16
        u_end = 2.0
        total = 0.0
        for i in range(1, n + 1):
            u0 = (i - 1) / n * u_end
            u1 = i / n * u_end
            total += sens.objective_increment(np.array([k * u1]),
                                              np.array([k * u0]),
                                              np.array([u1 - u0]))
        assert total == pytest.approx(-0.5 * k * u_end ** 2, abs=1e-10)

    def test_trapezoid_consistency_under_step_refinement(self):
        # elastic problem: halving the steps changes the total J negligibly
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        t_coarse = fwd.run_load_history(prob, 2, -1e-3, settings)
        t_fine = fwd.run_load_history(prob, 4, -5e-4, settings)
        j_coarse = sens.objective_total(t_coarse)
        j_fine = sens.objective_total(t_fine)
        assert j_fine == pytest.approx(j_coarse, rel=1e-8)


class TestAdjointSolve:
    def test_prescribed_entries_pinned_to_half_increment(self):
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 2, -1e-3, settings)
        for formulation in (1, 2):
            adjs = sens.adjoint_sweep(prob, traj, formulation)
            for n, adj in enumerate(adjs, start=1):
                du = traj.fields[n].u - traj.fields[n - 1].u
                pres = prob.prescribed_dofs
                assert np.array_equal(adj.lambda_u[pres], 0.5 * du[pres])

    def test_single_element_dense_oracle(self):
        # one element, one free DOF chain: compare against a dense solve
        params = mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                                    psi_c=1e9, l_f=0.5)
        mesh = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
        fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
        fm.tag_box(mesh, [(1, 1), (0, 1)], "right")
        prob = fwd.Problem(mesh=mesh, params=params,
                           supports=[("left", (0, 1)), ("right", (1,))],
                           driven=("right", (0,)))
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 1, 1e-3, settings)
        blocks = fwd.assemble_tangent_blocks(
            prob, sweep_of(prob, traj.fields[1], traj.qstates[0]),
            traj.qstates[0])
        du = traj.fields[1].u - traj.fields[0].u
        lam, _ = sens.adjoint_solve(blocks, du, prob, 1)
        # dense reconstruction
        k = blocks.k_uu.toarray()
        pres = prob.prescribed_dofs
        free = prob.free_dofs
        pinned = 0.5 * du[pres]
        rhs = -k.T[np.ix_(free, pres)] @ pinned
        lam_free = np.linalg.solve(k.T[np.ix_(free, free)], rhs)
        assert np.allclose(lam[free], lam_free, rtol=1e-12)
        assert np.allclose(lam[pres], pinned)

    def test_zero_increment_gives_zero_adjoint(self):
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 1, -1e-3, settings)
        blocks = fwd.assemble_tangent_blocks(
            prob, sweep_of(prob, traj.fields[1], traj.qstates[0]),
            traj.qstates[0])
        lam, lam_d = sens.adjoint_solve(blocks, np.zeros(prob.mesh.n_udof),
                                        prob, 2)
        assert np.abs(lam).max() == 0.0
        assert np.abs(lam_d).max() == 0.0

    def test_formulations_coincide_for_uncoupled_elastic(self):
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        traj = fwd.run_load_history(prob, 2, -1e-3, settings)
        a1 = sens.adjoint_sweep(prob, traj, 1)
        a2 = sens.adjoint_sweep(prob, traj, 2)
        g1 = sens.solid_sensitivity(a1)
        g2 = sens.solid_sensitivity(a2)
        scale = np.abs(g1).max()
        assert np.abs(g1 - g2).max() <= 1e-10 * scale

    def test_one_sweep_and_one_solve_per_step(self, monkeypatch):
        # each committed level is return-mapped once and solved once: no
        # second pass for dR/dPhi and no step-0 solve
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        n_steps = 3
        traj = fwd.run_load_history(prob, n_steps, -1e-3, settings)
        calls = {"return_map": 0, "adjoint_solve": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mat, "return_map",
                            counted("return_map", mat.return_map))
        monkeypatch.setattr(sens, "adjoint_solve",
                            counted("adjoint_solve", sens.adjoint_solve))
        for formulation in (1, 2):
            calls.update(return_map=0, adjoint_solve=0)
            adjs = sens.adjoint_sweep(prob, traj, formulation)
            sens.solid_sensitivity(adjs)
            assert calls == {"return_map": n_steps,
                             "adjoint_solve": n_steps}

    def test_formulation_1_builds_only_k_uu(self, monkeypatch):
        # the F1 adjoint solves K_uu^T alone, so the sweep never assembles
        # the coupling blocks that only Formulation 2 pairs with
        prob = make_cantilever()
        traj = fwd.run_load_history(prob, 2, -1e-3, fwd.SolverSettings())
        calls = []
        coupling = fwd.assemble_coupling_blocks

        def counted(*args, **kwargs):
            calls.append(1)
            return coupling(*args, **kwargs)

        monkeypatch.setattr(fwd, "assemble_coupling_blocks", counted)
        sens.adjoint_sweep(prob, traj, 1)
        assert calls == []
        blocks = fwd.assemble_tangent_blocks(
            prob, sweep_of(prob, traj.fields[1], traj.qstates[0]),
            traj.qstates[0], 1)
        assert (blocks.k_ud, blocks.k_du, blocks.k_dd) == (None, None, None)
        sens.adjoint_sweep(prob, traj, 2)
        assert len(calls) == traj.n_steps


def shipped(name, **changes):
    cfg = replace(config.load_config(CONFIG_DIR / name), **changes)
    prob = config.build_problem(cfg)
    return prob, fwd.run_load_history(prob, cfg.steps,
                                      cfg.displacement_per_step, cfg.solver)


@pytest.fixture(scope="module")
def strip_and_block():
    # the plastic, cracked 12x4 ductile strip at 25 steps and the elastic
    # hexahedral block
    return {"strip": shipped("ductile_strip2d.ini", counts=(12, 4),
                             steps=25),
            "block": shipped("block3d_elastic.ini")}


class TestAdjointSystemFill:
    @pytest.mark.parametrize("case", ["strip", "block"])
    @pytest.mark.parametrize("formulation", [1, 2])
    def test_adjoints_have_the_bytes_of_the_sparse_chain(
            self, strip_and_block, case, formulation):
        # reference: the system built per step by bmat, a transpose, the
        # row and column slices and spsolve
        prob, traj = strip_and_block[case]
        if case == "strip":
            assert traj.qstates[-1].alpha.max() > 0.0
            assert traj.fields[-1].d.max() > fwd.ONSET_CRACK
        ku = prob.mesh.n_udof
        pres = prob.prescribed_dofs
        for n in range(1, traj.n_steps + 1):
            blocks = fwd.assemble_tangent_blocks(
                prob, sweep_of(prob, traj.fields[n], traj.qstates[n - 1]),
                traj.qstates[n - 1], formulation)
            du = traj.fields[n].u - traj.fields[n - 1].u
            lam_u, lam_d = sens.adjoint_solve(blocks, du, prob, formulation)

            if formulation == 1:
                system = blocks.k_uu
                unknown = prob.free_dofs
            else:
                system = sp.bmat([[blocks.k_uu, blocks.k_ud],
                                  [blocks.k_du, blocks.k_dd]], format="csr")
                unknown = np.concatenate(
                    [prob.free_dofs, ku + np.arange(prob.mesh.n_nodes)])
            pinned = 0.5 * du[pres]
            lam = np.zeros(system.shape[0])
            lam[pres] = pinned
            rows = system.T.tocsr()[unknown]
            lam[unknown] = spsolve(rows[:, unknown].tocsc(),
                                   -rows[:, pres] @ pinned)
            assert lam_u.tobytes() == lam[:ku].tobytes()
            if formulation == 2:
                assert lam_d.tobytes() == lam[ku:].tobytes()
            else:
                assert lam_d is None

    @pytest.mark.parametrize("formulation", [1, 2])
    def test_no_bmat_or_coo_conversion_after_the_first_step(
            self, monkeypatch, formulation):
        # the patterns are built while step 1 is solved; later steps only
        # gather into them
        prob = make_cantilever()
        traj = fwd.run_load_history(prob, 3, -1e-3, fwd.SolverSettings())
        calls = {"bmat": 0, "coo_tocsr": 0}
        at_step = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        def opening(*args, **kwargs):
            at_step.append(dict(calls))
            return fwd.constitutive_sweep(*args, **kwargs)

        monkeypatch.setattr(sp, "bmat", counted("bmat", sp.bmat))
        monkeypatch.setattr(sp._coo._coo_base, "tocsr",
                            counted("coo_tocsr", sp._coo._coo_base.tocsr))
        monkeypatch.setattr(sens, "constitutive_sweep", opening)
        sens.adjoint_sweep(prob, traj, formulation)
        assert at_step[0] == {"bmat": 0, "coo_tocsr": 0}
        assert at_step[1]["coo_tocsr"] > 0
        assert at_step[1]["bmat"] == (1 if formulation == 2 else 0)
        assert at_step[1] == at_step[2] == calls


class TestResidualPhiDerivative:
    def test_zero_strain_state_has_zero_derivative(self):
        prob = make_cantilever()
        fields = prob.initial_fields()
        dru, drd = sens.residual_phi_derivative(
            prob, fields.d, sweep_of(prob, fields, prob.initial_state()))
        assert np.abs(dru.toarray()).max() == 0.0
        assert np.abs(drd.toarray()).max() == 0.0

    def test_deep_void_columns_gated_to_near_zero(self):
        # top-half notch keeps the load path alive through the bottom half
        prob = make_cantilever()
        mesh = prob.mesh
        settings = fwd.SolverSettings()
        phi = np.ones(mesh.n_nodes)
        notch = ((mesh.coords[:, 0] > 0.65) & (mesh.coords[:, 0] < 1.55)
                 & (mesh.coords[:, 1] > 0.45))
        phi[notch] = -1.0
        traj = fwd.run_load_history(prob, 1, -1e-3, settings, phi=phi)
        dru, _ = sens.residual_phi_derivative(
            prob, traj.fields[1].d,
            sweep_of(prob, traj.fields[1], traj.qstates[0]))
        dense = np.abs(dru.toarray())
        # node surrounded by fully void elements: the quadratic transition
        # gates its column two orders below the load-path columns
        deep = np.flatnonzero(np.isclose(mesh.coords[:, 0], 1.0)
                              & np.isclose(mesh.coords[:, 1], 0.8))
        assert deep.size == 1
        assert dense[:, deep].max() < 1e-2 * dense.max()

    @pytest.mark.parametrize("body_force", [None, (0.3, -0.2)],
                             ids=["no_body_force", "body_force"])
    def test_columns_match_fd_of_residual(self, body_force):
        # central difference with the regularized transition in both arms;
        # a body force adds its f(phi)-weighted load to dR_u/dPhi
        prob = replace(make_cantilever(), body_force=body_force)
        mesh = prob.mesh
        settings = fwd.SolverSettings()
        rng = np.random.default_rng(2)
        phi = np.clip(rng.uniform(0.2, 1.0, mesh.n_nodes), -1, 1)
        traj = fwd.run_load_history(prob, 1, -1e-3, settings, phi=phi)
        fields = traj.fields[1]
        state0 = traj.qstates[0]
        dru, _ = sens.residual_phi_derivative(prob, fields.d,
                                              sweep_of(prob, fields, state0))
        smooth = copy.copy(prob)
        smooth.regularized = True

        def ru_at(phiv):
            res, _, _ = fwd.constitutive_sweep(smooth, fields.u, fields.d,
                                               phiv, state0)
            return fwd.assemble_ru(smooth, res)

        h = 1e-5
        for j in rng.choice(mesh.n_nodes, size=5, replace=False):
            pp = phi.copy()
            pp[j] += h
            pm = phi.copy()
            pm[j] -= h
            fd = (ru_at(pp) - ru_at(pm)) / (2 * h)
            col = dru[:, j].toarray().ravel()
            scale = max(np.abs(col).max(), 1e-10)
            assert np.abs(fd - col).max() / scale < 1e-3


class TestTotalSensitivity:
    def test_matches_central_difference_of_objective(self):
        # single-step elastic problem probed at a handful of nodes
        from fractop import verify
        prob = make_cantilever()
        settings = fwd.SolverSettings()
        nodes = verify.interior_solid_nodes(prob)[::7]
        report = verify.compare_sensitivities(prob, nodes, 1, -1e-3,
                                              settings, formulation=1,
                                              delta_phi=1e-4)
        assert report.mean_rel_error < 1e-2


class TestVelocity:
    def test_constant_positive_field_maps_to_minus_one(self):
        v = sens.velocity_from_sensitivity(np.full(10, 3.7))
        assert np.allclose(v, -1.0)

    def test_degenerate_field_warns_and_passes_through(self):
        with pytest.warns(UserWarning):
            v = sens.velocity_from_sensitivity(np.zeros(5))
        assert np.all(v == 0.0)

    def test_normalization_preserves_ordering(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=50)
        v = sens.velocity_from_sensitivity(g)
        assert np.array_equal(np.argsort(-g), np.argsort(v))

    def test_largest_sensitivity_gets_most_negative_velocity(self):
        g = np.array([0.1, 5.0, 2.0])
        v = sens.velocity_from_sensitivity(g)
        assert v.argmin() == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sens.velocity_from_sensitivity(np.array([1.0, np.nan]))
