from pathlib import Path

import numpy as np
import pytest

from fractop import cli
from fractop import forward as fwd

CANTILEVER = "configs/cantilever2d_elastic.ini"
DUCTILE = "configs/ductile_strip2d.ini"
BLOCK3D = "configs/block3d_elastic.ini"
BEND = "configs/bend2d.ini"


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("FRACTOP_OUTPUT_DIR", str(out))
    return out


def test_missing_config_exits_2(outdir, capsys):
    assert cli.main(["forward-only", "does_not_exist.ini"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_value_exits_2(outdir, tmp_path, capsys):
    text = Path(CANTILEVER).read_text().replace("bulk_modulus = 17.3",
                                                "bulk_modulus = -1")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["forward-only", str(path)]) == 2
    assert "config error: [material] bulk_modulus = -1" in \
        capsys.readouterr().err


def test_non_finite_load_value_exits_2(outdir, tmp_path, capsys):
    # caught before any solve, which would see non-finite strains
    text = Path(CANTILEVER).read_text().replace(
        "displacement_per_step = -1e-3", "displacement_per_step = nan")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["forward-only", str(path)]) == 2
    assert "config error: [loading] displacement_per_step = nan" in \
        capsys.readouterr().err
    assert not (outdir / "curves.csv").exists()


def test_infinite_l_delta_exits_2(outdir, tmp_path, capsys):
    # it used to reach the sensitivity and end in a ValueError traceback
    path = tmp_path / "bad.ini"
    path.write_text(Path(CANTILEVER).read_text().replace(
        "target_volume = 1.0", "target_volume = 0.9\nl_delta = inf"))
    assert cli.main(["run", str(path)]) == 2
    assert "config error: [topology] l_delta = inf" in capsys.readouterr().err
    assert not (outdir / "history.csv").exists()


def test_empty_load_region_exits_2(outdir, tmp_path, capsys):
    # a load box off the mesh used to run with zero reactions and exit 0
    text = Path(CANTILEVER).read_text().replace("load_box = 2 2 0.4 0.6",
                                                "load_box = 5 5 0.4 0.6")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["forward-only", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: [loading] load_box = 5 5 0.4 0.6" in err
    assert "Warning" not in err
    assert not (outdir / "curves.csv").exists()


def test_bad_arguments_exit_2():
    assert cli.main(["no-such-command"]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--delta", "0"), ("--delta", "nan"), ("--delta", "-1e-4"),
    ("--delta", "inf"), ("--tolerance", "-1"), ("--tolerance", "0"),
])
def test_verify_sensitivity_rejects_bad_step_or_tolerance(outdir, capsys,
                                                           flag, value):
    # a usage error, not a failed check: nothing runs and nothing is written
    assert cli.main(["verify-sensitivity", CANTILEVER, f"{flag}={value}"]) == 2
    assert "not a finite positive number" in capsys.readouterr().err
    assert not outdir.exists()


def test_forward_only_writes_curves_and_snapshot(outdir):
    assert cli.main(["forward-only", CANTILEVER]) == 0
    assert (outdir / "curves.csv").exists()
    assert (outdir / "step_0003.vtk").exists()


def test_forward_only_failure_keeps_committed_steps(outdir, monkeypatch,
                                                   capsys):
    # the elastic cantilever commits a step with two solves (one crack
    # solve, one Newton correction), so the fifth solve fails step 3
    calls = []
    linear_solve = fwd.linear_solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise fwd.SolverError("injected failure")
        return linear_solve(*args, **kwargs)

    monkeypatch.setattr(fwd, "linear_solve", failing)
    assert cli.main(["forward-only", CANTILEVER]) == 1
    assert "injected failure" in capsys.readouterr().err
    curves = (outdir / "curves.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in curves[1:]] == ["0", "1", "2"]
    assert float(curves[-1].split(",")[1]) == pytest.approx(-2e-3)
    assert (outdir / "step_0002.vtk").exists()
    assert not (outdir / "step_0003.vtk").exists()


def test_forward_only_failure_in_first_step_writes_nothing(outdir,
                                                          monkeypatch):
    def failing(*args, **kwargs):
        raise fwd.SolverError("injected failure")

    monkeypatch.setattr(fwd, "linear_solve", failing)
    assert cli.main(["forward-only", CANTILEVER]) == 1
    assert not (outdir / "curves.csv").exists()


def test_forward_only_ductile_with_cadence(outdir):
    assert cli.main(["forward-only", DUCTILE]) == 0
    assert (outdir / "step_0010.vtk").exists()
    assert (outdir / "step_0020.vtk").exists()


def test_forward_only_3d(outdir):
    assert cli.main(["forward-only", BLOCK3D]) == 0
    assert (outdir / "step_0002.vtk").exists()


def test_run_with_full_target_is_single_iteration(outdir):
    assert cli.main(["run", CANTILEVER]) == 0
    history = (outdir / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header + one record
    assert (outdir / "final_0003.vtk").exists()


def test_run_logs_the_fracture_summary(outdir, caplog):
    # original against optimized layout, after the exports
    caplog.set_level("INFO")
    assert cli.main(["run", CANTILEVER]) == 0
    assert "volume ratio 1.0000 (target 1); objective" in caplog.text
    assert "fracture onset step None -> None; peak |reaction|" in caplog.text


def test_run_failure_keeps_the_completed_iterations(outdir, monkeypatch,
                                                    caplog):
    # the third outer iteration's load history fails: the two completed
    # iterations and the second one's load history are written
    from fractop import optimizer

    calls = []
    run_load_history = optimizer.run_load_history

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise fwd.SolverError("injected failure")
        return run_load_history(*args, **kwargs)

    monkeypatch.setattr(optimizer, "run_load_history", failing)
    caplog.set_level("INFO")
    assert cli.main(["run", BEND]) == 1
    history = (outdir / "history.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in history[1:]] == ["1", "2"]
    assert (outdir / "curves.csv").exists()
    assert (outdir / "final_0024.vtk").exists()
    assert "fracture onset" not in caplog.text


def test_exported_volume_ratio_matches_exported_field(outdir):
    # recompute chi from the phi field written to the final snapshot and
    # compare with the last history record at printed precision
    from fractop.config import build_problem, load_config
    from fractop.levelset import volume_ratio

    assert cli.main(["run", CANTILEVER]) == 0
    lines = (outdir / "final_0003.vtk").read_text().splitlines()
    start = lines.index("SCALARS phi double 1") + 2
    cfg = load_config(CANTILEVER)
    problem = build_problem(cfg)
    n = problem.mesh.n_nodes
    phi = np.array([float(v) for v in lines[start:start + n]])
    chi_exported = float(
        (outdir / "history.csv").read_text().splitlines()[-1].split(",")[2])
    assert volume_ratio(problem.mesh, phi) == pytest.approx(chi_exported,
                                                            abs=1e-9)


def test_run_exports_the_layout_it_returns(outdir, tmp_path, caplog):
    # two outer iterations that remove material: the curves and the final
    # snapshot are those of the returned layout, after the last update,
    # the one the summary's optimized history is solved on
    from fractop.config import build_problem, load_config
    from fractop.levelset import volume_ratio

    text = Path(CANTILEVER).read_text().replace(
        "target_volume = 1.0",
        "target_volume = 0.8\ntau_phi = 1.0\nmax_iterations = 2")
    path = tmp_path / "carve.ini"
    path.write_text(text)
    caplog.set_level("INFO")
    assert cli.main(["run", str(path)]) == 0
    history = (outdir / "history.csv").read_text().splitlines()
    assert len(history) == 3
    chi_exported = float(history[-1].split(",")[2])

    lines = (outdir / "final_0003.vtk").read_text().splitlines()
    start = lines.index("SCALARS phi double 1") + 2
    mesh = build_problem(load_config(path)).mesh
    phi = np.array([float(v) for v in lines[start:start + mesh.n_nodes]])
    assert chi_exported < 1.0
    assert volume_ratio(mesh, phi) == pytest.approx(chi_exported, abs=1e-9)

    curves = (outdir / "curves.csv").read_text().splitlines()[1:]
    peak = max(abs(float(row.split(",")[2])) for row in curves)
    assert "peak |reaction| " in caplog.text
    assert caplog.text.split("peak |reaction| ")[1].split(" -> ")[1] \
        .startswith(f"{peak:.4e}")


def test_verify_sensitivity_elastic_fixture_passes(outdir):
    code = cli.main(["verify-sensitivity", CANTILEVER,
                     "--formulation", "1", "--delta", "1e-4",
                     "--max-probes", "12"])
    assert code == 0
    report = (outdir / "fd_report.csv").read_text().splitlines()
    assert report[0] == "node,analytic,fd,rel_error"
    assert len(report) > 4


def test_verify_sensitivity_fails_when_threshold_unmet(outdir):
    code = cli.main(["verify-sensitivity", CANTILEVER,
                     "--max-probes", "6", "--tolerance", "1e-12"])
    assert code == 1


def test_verify_sensitivity_fails_when_a_probe_fails(outdir, monkeypatch,
                                                    caplog):
    # the mean error covers the valid probes only, so failed probes must
    # fail the check on their own
    from fractop import verify

    def failing(*args, **kwargs):
        raise fwd.SolverError("injected failure")

    monkeypatch.setattr(verify, "_lagrangian", failing)
    code = cli.main(["verify-sensitivity", CANTILEVER, "--max-probes", "4"])
    assert code == 1
    assert "4 finite-difference probes failed" in caplog.text
    rows = (outdir / "fd_report.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",nan,nan") for row in rows)


def test_env_var_overrides_config_directory(tmp_path, monkeypatch):
    special = tmp_path / "elsewhere"
    monkeypatch.setenv("FRACTOP_OUTPUT_DIR", str(special))
    assert cli.main(["forward-only", CANTILEVER]) == 0
    assert (special / "curves.csv").exists()
