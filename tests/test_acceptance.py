"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity.  Run with ``pytest tests/test_acceptance.py -v -s``.

The bend-beam optimization scenario is executed once per session and shared
by the criteria that interrogate it.
"""

import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fractop import cli
from fractop import material as mat
from fractop import verify
from fractop.config import build_problem, load_config, optimization_settings
from fractop.forward import run_load_history
from fractop.levelset import heaviside_exact, TopoParams
from fractop.optimizer import VOLUME_TOL, OptimizerState, bisection_step, \
    run_optimization
from fractop import sensitivity as sens
from fractop import filtering

pytestmark = pytest.mark.acceptance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def worst_crack_drift(trajectory):
    worst = 0.0
    for n in range(1, len(trajectory.fields)):
        worst = min(worst, float((trajectory.fields[n].d
                                  - trajectory.fields[n - 1].d).min()))
    return worst


@pytest.fixture(scope="module")
def bend_run():
    """Full optimization of the shipped bend scenario plus forward runs of
    the original and final layouts."""
    cfg = load_config(CONFIG_DIR / "bend2d.ini")
    problem = build_problem(cfg)
    settings = optimization_settings(cfg)
    tic = time.perf_counter()
    result = run_optimization(problem, cfg.topo, settings, cfg.solver)
    wall = time.perf_counter() - tic
    baseline = run_load_history(problem, cfg.steps,
                                cfg.displacement_per_step, cfg.solver)
    final = run_load_history(problem, cfg.steps, cfg.displacement_per_step,
                             cfg.solver, phi=result.phi)
    return SimpleNamespace(cfg=cfg, problem=problem, settings=settings,
                           result=result, wall=wall, baseline=baseline,
                           final=final)


@pytest.fixture(scope="module")
def shipped_trajectories(bend_run):
    """Committed trajectories of every shipped scenario."""
    runs = {"bend2d/original": bend_run.baseline,
            "bend2d/optimized": bend_run.final}
    for name in ("cantilever2d_elastic", "ductile_strip2d",
                 "block3d_elastic"):
        cfg = load_config(CONFIG_DIR / f"{name}.ini")
        problem = build_problem(cfg)
        runs[name] = run_load_history(problem, cfg.steps,
                                      cfg.displacement_per_step, cfg.solver)
    return runs


def test_criterion_01_adjoint_fd_agreement():
    cfg = load_config(CONFIG_DIR / "cantilever2d_elastic.ini")
    problem = build_problem(cfg)
    assert problem.mesh.n_elems <= 200
    tic = time.perf_counter()
    nodes = verify.interior_solid_nodes(problem)
    report = verify.compare_sensitivities(
        problem, nodes, cfg.steps, cfg.displacement_per_step, cfg.solver,
        formulation=1, delta_phi=1e-4)
    wall = time.perf_counter() - tic
    assert wall < 120.0
    assert report.mean_rel_error < 1e-2
    print(f"\n[PASS] criterion 1: adjoint vs FD mean rel. error "
          f"{report.mean_rel_error:.2e} over {nodes.size} interior nodes "
          f"({wall:.1f} s)")


def test_criterion_02_crack_profile_energy():
    total = {}
    for l_f in (0.25, 0.5, 1.0):
        half, n = 8.0 * l_f, 4000
        x = np.linspace(-half, half, n + 1)
        d = np.exp(-np.abs(x) / l_f)
        g = 0.5 / np.sqrt(3.0)
        acc = 0.0
        for q in (-g, g):
            xm = 0.5 * (x[:-1] + x[1:]) + q * np.diff(x)
            t = (xm - x[:-1]) / np.diff(x)
            dq = (1 - t) * d[:-1] + t * d[1:]
            grad = (d[1:] - d[:-1]) / np.diff(x)
            acc += 0.5 * np.diff(x) @ mat.crack_density(dq, grad[:, None],
                                                        l_f)
        total[l_f] = acc
        assert acc == pytest.approx(1.0, rel=2e-2)
    print(f"\n[PASS] criterion 2: crack-profile energy integrals "
          f"{ {k: round(v, 4) for k, v in total.items()} } within 2%")


def test_criterion_03_return_mapping_exactness():
    p = mat.MaterialParams(bulk_modulus=175.0, shear_modulus=80.76,
                           hardening_modulus=200.0, yield_stress=543.0,
                           psi_c=13.0, zeta=10.0, l_f=0.18)
    K, mu, h, sy = (p.bulk_modulus, p.shear_modulus, p.hardening_modulus,
                    p.yield_stress)
    e_y = sy / (2 * mu)
    state = mat.QuadState.zeros(1)
    worst_elastic = worst_plastic = worst_beta = worst_kkt = 0.0
    for e in np.linspace(0.0, 3 * e_y, 60):
        eps = np.zeros((1, 6))
        eps[0, 0] = e
        res = mat.return_map(eps, state, 0.0, 1.0, p)
        state = res.new_state
        q = np.sqrt(1.5) * mat.tensor_norm(
            2 * mu * mat.deviator(eps - state.eps_p))
        beta = float(q[0] - (sy + h * state.alpha[0]))
        if state.lambda_p[0] > 0:
            worst_beta = max(worst_beta, abs(beta))
        worst_kkt = max(worst_kkt, abs(float(state.lambda_p[0]) * min(beta, 0.0)),
                        -min(float(state.lambda_p[0]), 0.0), max(beta, 0.0))
        if 2 * mu * e <= sy:
            ref = (K + 4 * mu / 3) * e
            if ref:
                worst_elastic = max(worst_elastic,
                                    abs(res.sigma[0, 0] - ref) / abs(ref))
        else:
            lam = (2 * mu * e - sy) / (3 * mu + h)
            ref = K * e + 2 * mu * (2 * e / 3 - lam)
            worst_plastic = max(worst_plastic,
                                abs(res.sigma[0, 0] - ref) / abs(ref))
    assert worst_elastic < 1e-8
    assert worst_plastic < 1e-6
    assert worst_beta <= 1e-8 * sy
    assert worst_kkt <= 1e-10 * sy
    print(f"\n[PASS] criterion 3: bilinear response (elastic {worst_elastic:.1e},"
          f" plastic {worst_plastic:.1e}), yield residual {worst_beta:.1e},"
          f" KKT {worst_kkt:.1e}")


def test_criterion_04_consistent_tangent_fd():
    p = mat.MaterialParams(bulk_modulus=175.0, shear_modulus=80.76,
                           hardening_modulus=200.0, yield_stress=543.0,
                           psi_c=13.0, zeta=10.0, l_f=0.18)
    rng = np.random.default_rng(21)
    eps_el = rng.normal(scale=0.4, size=(100, 6))
    err_el, _ = verify.fd_tangent_check(p, eps_el, mat.QuadState.zeros(100),
                                        np.zeros(100), np.ones(100))
    eps_pl = rng.normal(scale=9.0, size=(100, 6))
    check = mat.return_map(eps_pl, mat.QuadState.zeros(100), 0.0, 1.0, p)
    assert np.all(check.new_state.lambda_p > 0)
    err_pl, _ = verify.fd_tangent_check(p, eps_pl, mat.QuadState.zeros(100),
                                        np.zeros(100), np.ones(100))
    assert err_el < 1e-7
    assert err_pl < 1e-4
    print(f"\n[PASS] criterion 4: tangent FD error elastic {err_el:.1e}, "
          f"plastic {err_pl:.1e} over 100 random states each")


def test_criterion_05_brittle_reduction(bend_run):
    assert bend_run.cfg.material.yield_stress == 1e16
    worst = 0.0
    for traj in (bend_run.baseline, bend_run.final):
        worst = max(worst, max(float(q.alpha.max()) for q in traj.qstates))
    assert worst == 0.0
    print(f"\n[PASS] criterion 5: max equivalent plastic strain {worst} "
          f"with yield stress 1e16 over the brittle benchmark runs")


def test_criterion_06_irreversibility(shipped_trajectories):
    worst = 0.0
    for name, traj in shipped_trajectories.items():
        drift = worst_crack_drift(traj)
        worst = min(worst, drift)
        assert drift >= -1e-10, name
    print(f"\n[PASS] criterion 6: worst crack-field drift {worst:.2e} "
          f"across {len(shipped_trajectories)} shipped scenarios")


def test_criterion_07_volume_schedule(bend_run):
    res = bend_run.result
    chis = [r.volume_ratio for r in res.records]
    target = bend_run.settings.target_volume
    arrival = next(i for i, c in enumerate(chis)
                   if abs(c - target) <= VOLUME_TOL)
    errors = [abs(c - e)
              for c, e in zip(chis[:arrival], res.expected_volumes[:arrival])]
    assert max(errors) <= 1e-2
    assert res.bracket_ok
    print(f"\n[PASS] criterion 7: schedule tracked to "
          f"{max(errors):.4f} over {arrival} iterations before reaching "
          f"{target}; bracket invariant held")


def test_criterion_08_bisection_fixed_point(bend_run):
    assert math.sqrt(1e-8 * 1e8) == 1.0
    # one bisection pass on the shipped scenario state
    problem = bend_run.problem
    cfg = bend_run.cfg
    settings = bend_run.settings
    traj = bend_run.baseline
    adj = sens.adjoint_sweep(problem, traj, cfg.optimization.formulation)
    g_s = sens.solid_sensitivity(adj)
    kernel = filtering.build_kernel(problem.mesh, cfg.optimization.r_min)
    g_hat = filtering.filter_field(kernel, g_s)
    state = OptimizerState(phi=np.ones(problem.mesh.n_nodes))
    state.expected_volume = 0.97
    topo = TopoParams(eta_phi=cfg.topo.eta_phi, l_phi=cfg.topo.l_phi,
                      tau_phi=8.0)
    _, _, diag = bisection_step(problem, state, g_hat, topo, settings)
    assert diag["converged"]
    assert diag["iterations"] <= 60
    print(f"\n[PASS] criterion 8: first iterate sqrt(1e-8*1e8) == 1.0; "
          f"Res_V converged in {diag['iterations']} iterations")


def test_criterion_09_projection_endpoints():
    kappa = 1e-8
    assert mat.degradation_g(0.0, kappa) == 1.0
    assert mat.degradation_g(1.0, kappa) == kappa
    assert mat.transition_f(0.5, kappa) == 1.0
    assert mat.transition_f(0.0, kappa) == 1.0
    assert mat.transition_f(-0.5, kappa) == kappa
    for phi in (-0.8, -0.1, 0.0, 0.4, 1.0):
        h = heaviside_exact(phi)
        assert h ** 2 == h
        assert h ** 3 == h
    print("\n[PASS] criterion 9: degradation/transition endpoints and "
          "Heaviside idempotence exact")


def test_criterion_10_end_to_end_trend(bend_run):
    res = bend_run.result
    assert bend_run.problem.mesh.n_elems == 160
    assert bend_run.wall < 1800.0
    assert res.converged, "stagnation rule did not terminate the loop"
    target = bend_run.settings.target_volume
    chis = [r.volume_ratio for r in res.records]
    objs = [r.objective for r in res.records]
    first = next(i for i, c in enumerate(chis) if abs(c - target) <= 1e-2)
    assert objs[-1] > objs[first]
    onset0 = bend_run.baseline.onset_step
    onset1 = bend_run.final.onset_step
    assert onset0 is not None, "original domain never reaches onset"
    assert onset1 is None or onset1 >= onset0
    print(f"\n[PASS] criterion 10: converged in {len(res.records)} "
          f"iterations ({bend_run.wall:.0f} s); objective "
          f"{objs[first]:.3e} -> {objs[-1]:.3e}; onset step {onset0} -> "
          f"{onset1 if onset1 is not None else 'none'}")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        monkeypatch.setenv("FRACTOP_OUTPUT_DIR", str(out))
        code = cli.main(["forward-only",
                         str(CONFIG_DIR / "ductile_strip2d.ini")])
        assert code == 0
        code = cli.main(["run",
                         str(CONFIG_DIR / "cantilever2d_elastic.ini")])
        assert code == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"\n[PASS] criterion 11: {len(files_a)} exported files "
          f"byte-identical across repeated runs")
