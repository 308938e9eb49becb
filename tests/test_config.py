import re
import textwrap
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from fractop.config import ConfigError, build_problem, load_config, \
    optimization_settings
from fractop.forward import SolverSettings
from fractop.levelset import TopoParams
from fractop.material import MaterialParams
from fractop.optimizer import OptimizationSettings

BASE = """
[mesh]
dimension = 2
counts = 4 2
extents = 2.0 1.0

[material]
bulk_modulus = 175.0
shear_modulus = 80.76
hardening_modulus = 200.0
yield_stress = 543.0
{material_extra}

[fracture]
{fracture}
length_scale = 0.18
zeta = 10.0

[loading]
support1_box = 0 0 0 1
support1_dofs = xy
load_box = 2 2 0 1
load_dofs = x
displacement_per_step = 1e-3
steps = 5
"""


def write(tmp_path, fracture="psi_c = 13.0", material_extra="", extra=""):
    text = BASE.format(fracture=fracture, material_extra=material_extra)
    text += textwrap.dedent(extra)
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def with_line(tmp_path, section, line):
    """``BASE`` with ``line`` set in ``section``, written to a file."""
    key = line.split("=")[0].strip()
    text = BASE.format(fracture="psi_c = 13.0", material_extra="")
    if key in ("sigma_c", "g_c"):   # one threshold source only
        text = text.replace("psi_c = 13.0\n", "")
    if re.search(rf"^{key} = ", text, flags=re.M):
        text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    elif f"[{section}]" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    else:
        text += f"\n[{section}]\n{line}\n"
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_ductile_benchmark_constants_accepted(self, tmp_path):
        cfg = load_config(write(tmp_path))
        assert cfg.material.bulk_modulus == 175.0
        assert cfg.material.shear_modulus == 80.76
        assert cfg.material.hardening_modulus == 200.0
        assert cfg.material.yield_stress == 543.0
        assert cfg.material.psi_c == 13.0
        assert cfg.material.zeta == 10.0

    def test_kappa_defaults_to_1e8(self, tmp_path):
        cfg = load_config(write(tmp_path))
        assert cfg.material.kappa == 1e-8

    def test_topology_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path))
        assert cfg.topo.eta_phi == 1.0
        assert cfg.topo.l_phi == 1e-2
        assert cfg.topo.tau_phi == 1e-4
        assert build_problem(cfg).l_delta == 5.0
        assert cfg.optimization.theta_v == 0.05
        assert cfg.optimization.r_min == pytest.approx(3 * 0.18)
        assert cfg.optimization.formulation == 2

    def test_sigma_c_converted_through_youngs_modulus(self, tmp_path):
        cfg = load_config(write(tmp_path, fracture="sigma_c = 10.0"))
        e_mod = cfg.material.youngs_modulus
        assert cfg.material.psi_c == pytest.approx(100.0 / (2 * e_mod))

    def test_g_c_converted_through_length_scale(self, tmp_path):
        cfg = load_config(write(tmp_path, fracture="g_c = 0.5"))
        assert cfg.material.psi_c == pytest.approx(
            3 * 0.5 / (8 * 0.18 * np.sqrt(2)))

    @pytest.mark.parametrize("fracture", ["psi_c = 13.0", "sigma_c = 10.0",
                                          "g_c = 0.5"])
    def test_psi_c_is_a_float_from_every_source(self, tmp_path, fracture):
        cfg = load_config(write(tmp_path, fracture=fracture))
        assert type(cfg.material.psi_c) is float

    def test_two_threshold_sources_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write(tmp_path,
                              fracture="sigma_c = 10.0\ng_c = 0.5"))

    def test_no_threshold_source_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write(tmp_path, fracture=""))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write(tmp_path, material_extra="poisson = 0.3"))

    @pytest.mark.parametrize("section, line", [
        ("topology", "volume_tol = 0"),
        ("topology", "stagnation_tol = -1e-4"),
        ("solver", "newton_max_iter = 2.5"),
        ("solver", "newton_tol_abs = -1"),
        ("solver", "newton_tol_rel = 1e-8"),
        ("solver", "stagger_tol = nan"),
        ("solver", "stagger_tol = -1"),
    ])
    def test_tolerance_keys_are_unknown(self, tmp_path, section, line):
        # the stopping rules are module constants, not settings: a file
        # that sets one fails whatever the value
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown key {key!r} in [{section}]")):
            load_config(write(tmp_path, extra=f"\n[{section}]\n{line}\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, extra="\n[magic]\nx = 1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_missing_support_rejected(self, tmp_path):
        text = BASE.format(fracture="psi_c = 13.0", material_extra="")
        text = text.replace("support1_box = 0 0 0 1\n", "")
        text = text.replace("support1_dofs = xy\n", "")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="support"):
            load_config(path)

    def test_invalid_formulation(self, tmp_path):
        with pytest.raises(ConfigError, match="formulation"):
            load_config(write(tmp_path,
                              extra="\n[topology]\nformulation = 3\n"))

    def test_zero_steps_rejected(self, tmp_path):
        text = BASE.format(fracture="psi_c = 13.0", material_extra="")
        text = text.replace("steps = 5", "steps = 0")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="steps"):
            load_config(path)

    @pytest.mark.parametrize("section, line", [
        ("material", "bulk_modulus = -1"),
        ("material", "bulk_modulus = soft"),
        ("material", "kappa = 1.5"),
        ("material", "bulk_modulus = inf"),
        ("material", "shear_modulus = inf"),
        ("material", "hardening_modulus = inf"),
        ("fracture", "length_scale = inf"),
        ("fracture", "zeta = inf"),
        ("fracture", "viscosity = inf"),
        ("topology", "eta_phi = inf"),
        ("topology", "l_phi = inf"),
        ("topology", "l_delta = inf"),
        ("fracture", "viscosity = -1"),
        ("fracture", "length_scale = 0"),
        ("fracture", "psi_c = 0"),
        ("fracture", "sigma_c = -2"),
        ("topology", "tau_phi = 0"),
        ("topology", "target_volume = 1.5"),
        ("topology", "formulation = 1.9"),
        ("topology", "max_iterations = many"),
        ("topology", "r_min = -1"),
        ("topology", "l_delta = 0"),
        ("topology", "theta_v = 0"),
        ("topology", "theta_v = 1.5"),
        ("topology", "max_iterations = 0"),
        ("topology", "velocity_cap = -1"),
        ("loading", "steps = three"),
        ("loading", "body_force = 0 x"),
        ("loading", "body_force = nan 0"),
        ("loading", "displacement_per_step = nan"),
        ("loading", "displacement_per_step = inf"),
        ("loading", "tau_f = 0"),
        ("loading", "tau_f = -1e-4"),
        ("loading", "support1_box = 0 0 0 one"),
        ("loading", "support1_box = 0 0 2 3"),
        ("loading", "load_box = 3 4 0 1"),
        ("mesh", "counts = 10 x"),
        ("mesh", "extents = nan 1.0"),
        ("mesh", "extents = inf 1.0"),
        ("mesh", "dimension = 2.5"),
        ("solver", "stagger_max_iter = 0"),
        ("output", "snapshot_cadence = often"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, section, line):
        # every malformed or out-of-range value is a ConfigError that
        # names the key, never a bare ValueError from the dataclasses;
        # l_delta and boxes that match no node are checked when the
        # Problem is built.  An infinite modulus, length or weight used to
        # reach the solvers and fail there.
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {line}")):
            build_problem(load_config(with_line(tmp_path, section, line)))

    @pytest.mark.parametrize("section, line", [
        ("material", "yield_stress = inf"),
        ("fracture", "psi_c = inf"),
        ("fracture", "sigma_c = inf"),
        ("fracture", "g_c = inf"),
        ("topology", "tau_phi = inf"),
        ("topology", "r_min = inf"),
        ("topology", "velocity_cap = inf"),
        ("loading", "tau_f = inf"),
        ("loading", "support1_box = 0 0 0 inf"),
    ])
    def test_infinite_thresholds_still_load(self, tmp_path, section, line):
        # inf here means "never" (no yield, no crack, no cap, a steady
        # level-set step), which the solvers run as such
        build_problem(load_config(with_line(tmp_path, section, line)))

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text(textwrap.dedent("""
            [mesh]
            dimension = 2
            counts = 2 1
            extents = 2.0 1.0
            [material]
            bulk_modulus = 10.0
            shear_modulus = 5.0
            [fracture]
            psi_c = 1.0
            length_scale = 0.5
            [loading]
            support1_box = 0 0 0 1
            support1_dofs = x
            load_box = 2 2 0 1
            load_dofs = x
            displacement_per_step = 1e-3
            steps = 2
            """))
        cfg = load_config(path)
        assert cfg.material == MaterialParams(
            bulk_modulus=10.0, shear_modulus=5.0, psi_c=1.0, l_f=0.5)
        assert cfg.topo == TopoParams()
        assert cfg.solver == SolverSettings()
        # the two defaults no dataclass holds
        assert optimization_settings(cfg) == OptimizationSettings(
            target_volume=1.0, r_min=3 * 0.5, n_steps=2, du_per_step=1e-3)
        assert cfg.body_force is None
        assert cfg.output_dir == "out"
        assert cfg.snapshot_cadence == 0

    def test_target_volume_and_r_min_have_no_dataclass_default(self):
        # their defaults are the configuration's (1 and 3 * length_scale)
        no_default = {f.name for f in fields(OptimizationSettings)
                      if f.default is MISSING
                      and f.default_factory is MISSING}
        assert {"target_volume", "r_min"} <= no_default

    def test_replaced_load_history_reaches_the_optimizer(self):
        base = load_config("configs/bend2d.ini")
        cfg = replace(base, steps=3, displacement_per_step=-1e-3)
        assert cfg.optimization.n_steps == 3
        assert cfg.optimization.du_per_step == -1e-3
        assert optimization_settings(cfg) == cfg.optimization
        # the file's config keeps its own load history
        assert base.optimization.n_steps == base.steps == 24
        assert base.optimization.du_per_step == base.displacement_per_step


class TestBuildProblem:
    def test_regions_tagged_and_constraints_built(self, tmp_path):
        cfg = load_config(write(tmp_path))
        prob = build_problem(cfg)
        mesh = prob.mesh
        assert mesh.n_elems == 8
        assert np.all(mesh.coords[mesh.node_sets["support1"], 0] == 0.0)
        assert np.all(mesh.coords[mesh.node_sets["load"], 0] == 2.0)
        # left edge x and y dofs plus right edge x dofs prescribed
        assert prob.driven_dofs.size == 3
        assert prob.prescribed_dofs.size == 9

    def test_empty_mesh_is_a_config_error(self, tmp_path):
        text = BASE.format(fracture="psi_c = 13.0", material_extra="")
        path = tmp_path / "bad.ini"
        path.write_text(text.replace("counts = 4 2", "counts = 0 2"))
        with pytest.raises(ConfigError, match=r"\[mesh\] element counts"):
            build_problem(load_config(path))

    def test_optimization_settings_passthrough(self, tmp_path):
        cfg = load_config(write(
            tmp_path,
            extra="\n[topology]\ntarget_volume = 0.4\nr_min = 0.9\n"
                  "velocity_cap = 1.5\n"))
        settings = optimization_settings(cfg)
        assert settings == cfg.optimization
        assert settings is not cfg.optimization
        assert settings.target_volume == 0.4
        assert settings.r_min == 0.9
        assert settings.velocity_cap == 1.5
        assert settings.n_steps == 5
        assert settings.du_per_step == 1e-3


def test_shipped_configs_parse():
    for name in ("bend2d", "cantilever2d_elastic", "ductile_strip2d",
                 "block3d_elastic"):
        cfg = load_config(f"configs/{name}.ini")
        prob = build_problem(cfg)
        assert prob.mesh.n_elems >= 1
