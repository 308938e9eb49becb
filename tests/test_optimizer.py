import math

import numpy as np
import pytest

from fractop import forward as fwd
from fractop import levelset as ls
from fractop import mesh as fm
from fractop import optimizer as opt
from fractop import sensitivity as sens

from conftest import make_cantilever


class TestExpectedVolume:
    def test_first_step_from_full(self):
        assert opt.expected_volume(1.0, 0.4, 0.05) == pytest.approx(0.97)

    def test_fixed_point_at_target(self):
        assert opt.expected_volume(0.4, 0.4, 0.05) == pytest.approx(0.4)

    def test_iterated_sequence_is_geometric(self):
        chi = 1.0
        seq = []
        for _ in range(200):
            chi = opt.expected_volume(chi, 0.4, 0.05)
            seq.append(chi)
        seq = np.array(seq)
        assert np.all(np.diff(seq) < 0)
        assert seq[-1] == pytest.approx(0.4, abs=1e-3)
        ratios = (seq[1:] - 0.4) / (seq[:-1] - 0.4)
        assert np.allclose(ratios, 0.95, atol=1e-12)


def test_first_multiplier_iterate_is_exactly_one():
    assert math.sqrt(1e-8 * 1e8) == 1.0


class TestBisection:
    def make_toy(self):
        # two-element strip, load on the right edge
        from fractop import material as mat
        params = mat.MaterialParams(bulk_modulus=17.3, shear_modulus=8.0,
                                    psi_c=1e9, l_f=0.5)
        mesh = fm.build_structured_mesh(2, [2, 1], [2.0, 1.0])
        fm.tag_box(mesh, [(0, 0), (0, 1)], "left")
        fm.tag_box(mesh, [(2, 2), (0, 1)], "right")
        return fwd.Problem(mesh=mesh, params=params,
                           supports=[("left", (0, 1))],
                           driven=("right", (0,)))

    def test_zero_sensitivity_ratchets_lower_bound(self):
        # nothing can be removed at the paper's defaults (tiny tau), so the
        # lower bound chases the upper one until the bisection converges;
        # every candidate is the incoming solid field, so the first trial
        # multiplier is the one accepted
        prob = self.make_toy()
        topo = ls.TopoParams()  # tau 1e-4: interface cannot cross zero
        settings = opt.OptimizationSettings(target_volume=0.4, r_min=0.5,
                                            velocity_cap=0.0)
        state = opt.OptimizerState(phi=np.ones(prob.mesh.n_nodes))
        state.expected_volume = 0.97
        g_zero = np.zeros(prob.mesh.n_nodes)
        phi_new, lam, diag = opt.bisection_step(prob, state, g_zero, topo,
                                                settings)
        assert diag["chi"] == 1.0
        assert diag["converged"]
        assert lam == 1.0
        assert diag["bracket_ok"]

    def test_converges_to_scanned_multiplier(self):
        # oracle: scan lambda on a grid, find the smallest achieving the
        # expected volume, and require the bisection result to bracket it
        prob = self.make_toy()
        mesh = prob.mesh
        rng = np.random.default_rng(4)
        g_s = -np.abs(rng.uniform(0.5, 2.0, mesh.n_nodes)) * 1e-4
        topo = ls.TopoParams(eta_phi=1.0, l_phi=0.1, tau_phi=1.0)
        settings = opt.OptimizationSettings(target_volume=0.4, r_min=0.5,
                                            velocity_cap=0.0)
        state = opt.OptimizerState(phi=np.ones(mesh.n_nodes))
        state.expected_volume = 0.7
        w = ls.dirac_volume_vector(mesh, state.phi, prob.l_delta)

        system = ls.reaction_diffusion_system(mesh, topo, prob.driven_nodes)

        def chi_of(lam):
            v = sens.velocity_from_sensitivity(g_s + lam * w)
            phi = ls.solve_reaction_diffusion(system, state.phi, v)
            return ls.volume_ratio(mesh, phi)

        lams = np.logspace(-8, 8, 1601)
        chis = np.array([chi_of(l) for l in lams])
        meets = np.flatnonzero(chis < 0.7)
        lam_star = lams[meets[0]] if meets.size else np.inf

        phi_new, lam, diag = opt.bisection_step(prob, state, g_s, topo,
                                                settings)
        assert diag["converged"]
        assert diag["iterations"] <= 60
        # bisection lands within bracket resolution of the scan crossing
        assert lam == pytest.approx(lam_star, rel=0.05)

    def test_one_factorization_per_bisection(self, monkeypatch):
        # the level-set matrix is the same for every trial of one call, so
        # it is factored once however many trials the bracket takes
        prob = self.make_toy()
        topo = ls.TopoParams(eta_phi=1.0, l_phi=0.1, tau_phi=1.0)
        settings = opt.OptimizationSettings(target_volume=0.4, r_min=0.5)
        factored = []
        splu = ls.splu

        def counted(matrix):
            factored.append(matrix.shape)
            return splu(matrix)

        monkeypatch.setattr(ls, "splu", counted)
        for expected in (0.8, 0.6):
            factored.clear()
            state = opt.OptimizerState(phi=np.ones(prob.mesh.n_nodes))
            state.expected_volume = expected
            g_s = -1e-4 * np.ones(prob.mesh.n_nodes)
            _, _, diag = opt.bisection_step(prob, state, g_s, topo, settings)
            assert diag["iterations"] > 1
            assert len(factored) == 1

    def test_bracket_invariant_held(self):
        prob = self.make_toy()
        mesh = prob.mesh
        topo = ls.TopoParams(eta_phi=1.0, l_phi=0.1, tau_phi=1.0)
        settings = opt.OptimizationSettings(target_volume=0.4, r_min=0.5)
        state = opt.OptimizerState(phi=np.ones(mesh.n_nodes))
        state.expected_volume = 0.8
        g_s = -1e-4 * np.ones(mesh.n_nodes)
        _, lam, diag = opt.bisection_step(prob, state, g_s, topo, settings)
        assert diag["bracket_ok"]
        assert 1e-8 <= lam <= 1e8


class TestRunOptimization:
    def test_full_target_is_noop(self):
        prob = make_cantilever()
        topo = ls.TopoParams()
        settings = opt.OptimizationSettings(target_volume=1.0, n_steps=1,
                                            du_per_step=-1e-3, r_min=0.4)
        res = opt.run_optimization(prob, topo, settings)
        assert res.converged
        assert len(res.records) == 1
        assert np.all(res.phi == 1.0)
        assert res.records[0].volume_ratio == 1.0

    def test_solver_error_carries_the_completed_iterations(self,
                                                           monkeypatch):
        prob = make_cantilever()
        settings = opt.OptimizationSettings(target_volume=0.5, r_min=0.4,
                                            n_steps=2, du_per_step=-1e-3)
        histories, phis = [], []
        run_load_history = opt.run_load_history

        def failing(*args, **kwargs):
            if len(histories) == 2:
                raise fwd.SolverError("injected failure")
            histories.append(run_load_history(*args, **kwargs))
            return histories[-1]

        monkeypatch.setattr(opt, "run_load_history", failing)
        with pytest.raises(fwd.SolverError) as err:
            opt.run_optimization(
                prob, ls.TopoParams(tau_phi=1.0), settings,
                callback=lambda rec, state: phis.append(state.phi.copy()))
        partial = err.value.partial_result
        assert [r.iteration for r in partial.records] == [1, 2]
        assert not partial.converged
        assert partial.trajectory is histories[-1]
        assert np.array_equal(partial.phi, phis[-1])
        assert len(partial.expected_volumes) == 2

    @pytest.mark.slow
    def test_elastic_cantilever_hits_half_volume(self):
        prob = make_cantilever(nx=16, ny=8)
        topo = ls.TopoParams(eta_phi=1.0, l_phi=0.15, tau_phi=1.0)
        settings = opt.OptimizationSettings(
            target_volume=0.5, r_min=0.3, n_steps=2, du_per_step=-1e-3,
            max_outer_iterations=120, velocity_cap=1.5)
        res = opt.run_optimization(prob, topo, settings)
        chi = ls.volume_ratio(prob.mesh, res.phi)
        assert chi == pytest.approx(0.5, abs=0.01)
        assert res.bracket_ok
        # load-region nodes stay pinned solid throughout
        assert np.all(res.phi[prob.driven_nodes] == 1.0)
        # volume follows the expected-volume schedule until the target is hit
        chis = [r.volume_ratio for r in res.records]
        arrival = next(i for i, c in enumerate(chis)
                       if abs(c - 0.5) <= settings.volume_tol)
        err = [abs(c - e)
               for c, e in zip(chis[:arrival], res.expected_volumes[:arrival])]
        assert max(err) <= 1e-2
