"""Run configuration: INI-style files with one block per concern, validated
against a fixed schema with defaults for every parameter the scenarios do
not override.

Regions are axis-aligned boxes (min/max per axis).  Exactly one of the
fracture threshold forms (psi_c directly, critical stress, or toughness)
must be given.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from . import phasefield
from .forward import Problem, SolverSettings
from .levelset import TopoParams
from .material import MaterialParams
from .mesh import build_structured_mesh, tag_box
from .optimizer import OptimizationSettings


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_DOF_LETTERS = {"x": 0, "y": 1, "z": 2}

_KNOWN_KEYS = {
    "mesh": {"dimension", "counts", "extents"},
    "material": {"bulk_modulus", "shear_modulus", "hardening_modulus",
                 "yield_stress", "kappa"},
    "fracture": {"psi_c", "sigma_c", "g_c", "length_scale", "zeta",
                 "viscosity"},
    "topology": {"eta_phi", "l_phi", "tau_phi", "l_delta", "r_min",
                 "theta_v", "target_volume", "formulation",
                 "max_iterations", "volume_tol", "stagnation_tol",
                 "velocity_cap"},
    "loading": {"load_box", "load_dofs", "displacement_per_step", "steps",
                "tau_f", "body_force"},
    "solver": {"newton_tol_abs", "newton_tol_rel", "newton_max_iter",
               "stagger_tol", "stagger_max_iter"},
    "output": {"directory", "snapshot_cadence"},
}


@dataclass
class RegionSpec:
    box: tuple
    components: tuple


@dataclass
class RunConfig:
    """Validated contents of one configuration file."""

    dimension: int
    counts: tuple
    extents: tuple
    material: MaterialParams
    topo: TopoParams
    supports: list                     # list[RegionSpec]
    load: RegionSpec
    displacement_per_step: float
    steps: int
    body_force: tuple = None
    target_volume: float = 1.0
    theta_v: float = 0.05
    formulation: int = 2
    r_min: float = None
    max_iterations: int = 300
    volume_tol: float = 1e-2
    stagnation_tol: float = 1e-4
    velocity_cap: float = 2.0
    solver: SolverSettings = field(default_factory=SolverSettings)
    output_dir: str = "out"
    snapshot_cadence: int = 0


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _dofs(text: str, dimension: int) -> tuple:
    comps = []
    for ch in text.strip().lower():
        if ch in " ,":
            continue
        if ch not in _DOF_LETTERS:
            raise ConfigError(f"unknown dof letter {ch!r}")
        c = _DOF_LETTERS[ch]
        if c >= dimension:
            raise ConfigError(f"dof {ch!r} out of range for {dimension}D")
        comps.append(c)
    if not comps:
        raise ConfigError("empty dof specification")
    return tuple(sorted(set(comps)))


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            known = _KNOWN_KEYS[section]
            if key in known:
                continue
            if section == "loading" and _is_support_key(key):
                continue
            raise ConfigError(f"unknown key {key!r} in [{section}]")

    for required in ("mesh", "material", "fracture", "loading"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    mesh_sec = parser["mesh"]
    dimension = mesh_sec.getint("dimension")
    if dimension not in (2, 3):
        raise ConfigError("mesh dimension must be 2 or 3")
    counts = _ints(_require(mesh_sec, "counts", "mesh"))
    extents = _floats(_require(mesh_sec, "extents", "mesh"))
    if len(counts) != dimension or len(extents) != dimension:
        raise ConfigError("counts/extents must have one entry per axis")

    m = parser["material"]
    bulk = m.getfloat("bulk_modulus")
    shear = m.getfloat("shear_modulus")
    if bulk is None or shear is None:
        raise ConfigError("bulk_modulus and shear_modulus are required")
    hardening = m.getfloat("hardening_modulus", fallback=0.0)
    yield_stress = m.getfloat("yield_stress", fallback=1e16)
    kappa = m.getfloat("kappa", fallback=1e-8)

    f = parser["fracture"]
    l_f = f.getfloat("length_scale")
    if l_f is None:
        raise ConfigError("fracture length_scale is required")
    given = [k for k in ("psi_c", "sigma_c", "g_c") if k in f]
    if len(given) != 1:
        raise ConfigError(
            "exactly one of psi_c / sigma_c / g_c must be given "
            f"(found {given or 'none'})")
    if given[0] == "psi_c":
        psi_c = f.getfloat("psi_c")
    elif given[0] == "sigma_c":
        e_mod = 9.0 * bulk * shear / (3.0 * bulk + shear)
        psi_c = phasefield.critical_psi(sigma_c=f.getfloat("sigma_c"),
                                        e_modulus=e_mod)
    else:
        psi_c = phasefield.critical_psi(g_c=f.getfloat("g_c"), l_f=l_f)
    zeta = f.getfloat("zeta", fallback=1.0)
    eta_f = f.getfloat("viscosity", fallback=1e-6)

    params = MaterialParams(bulk_modulus=bulk, shear_modulus=shear,
                            hardening_modulus=hardening,
                            yield_stress=yield_stress, psi_c=psi_c,
                            zeta=zeta, eta_f=eta_f, kappa=kappa, l_f=l_f)

    t = parser["topology"] if "topology" in parser else {}
    topo = TopoParams(
        eta_phi=_getf(t, "eta_phi", 1.0),
        l_phi=_getf(t, "l_phi", 1e-2),
        tau_phi=_getf(t, "tau_phi", 1e-4),
        l_delta=_getf(t, "l_delta", 5.0))
    target_volume = _getf(t, "target_volume", 1.0)
    theta_v = _getf(t, "theta_v", 0.05)
    formulation = int(_getf(t, "formulation", 2))
    if formulation not in (1, 2):
        raise ConfigError("formulation must be 1 or 2")
    r_min = _getf(t, "r_min", 3.0 * l_f)
    max_iterations = int(_getf(t, "max_iterations", 300))
    volume_tol = _getf(t, "volume_tol", 1e-2)
    stagnation_tol = _getf(t, "stagnation_tol", 1e-4)
    velocity_cap = _getf(t, "velocity_cap", 2.0)

    ld = parser["loading"]
    supports = []
    for key in sorted(k for k in ld if _is_support_key(k)
                      and k.endswith("_box")):
        stem = key[:-4]
        dof_key = stem + "_dofs"
        if dof_key not in ld:
            raise ConfigError(f"{key} given without {dof_key}")
        supports.append(RegionSpec(box=_floats(ld[key]),
                                   components=_dofs(ld[dof_key], dimension)))
    if not supports:
        raise ConfigError("at least one supportN_box region is required")
    load = RegionSpec(box=_floats(_require(ld, "load_box", "loading")),
                      components=_dofs(_require(ld, "load_dofs", "loading"),
                                       dimension))
    du = ld.getfloat("displacement_per_step")
    steps = ld.getint("steps")
    if du is None or steps is None:
        raise ConfigError("displacement_per_step and steps are required")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    tau_f = ld.getfloat("tau_f", fallback=1e-4)
    body_force = _floats(ld["body_force"]) if "body_force" in ld else None
    if body_force is not None and len(body_force) != dimension:
        raise ConfigError("body_force must have one entry per axis")

    s = parser["solver"] if "solver" in parser else {}
    solver = SolverSettings(
        newton_tol_abs=_getf(s, "newton_tol_abs", 1e-10),
        newton_tol_rel=_getf(s, "newton_tol_rel", 1e-8),
        newton_max_iter=int(_getf(s, "newton_max_iter", 25)),
        stagger_tol=_getf(s, "stagger_tol", 1e-6),
        stagger_max_iter=int(_getf(s, "stagger_max_iter", 200)),
        tau_f=tau_f)

    o = parser["output"] if "output" in parser else {}
    output_dir = o.get("directory", "out") if hasattr(o, "get") else "out"
    cadence = int(_getf(o, "snapshot_cadence", 0))

    return RunConfig(
        dimension=dimension, counts=counts, extents=extents,
        material=params, topo=topo, supports=supports, load=load,
        displacement_per_step=du, steps=steps, body_force=body_force,
        target_volume=target_volume, theta_v=theta_v,
        formulation=formulation, r_min=r_min,
        max_iterations=max_iterations, volume_tol=volume_tol,
        stagnation_tol=stagnation_tol, velocity_cap=velocity_cap,
        solver=solver, output_dir=output_dir, snapshot_cadence=cadence)


def _is_support_key(key: str) -> bool:
    if not key.startswith("support"):
        return False
    stem = key[len("support"):]
    for suffix in ("_box", "_dofs"):
        if stem.endswith(suffix) and stem[:-len(suffix)].isdigit():
            return True
    return False


def _require(section, key, name):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in [{name}]")
    return section[key]


def _getf(section, key, default):
    if hasattr(section, "getfloat"):
        return section.getfloat(key, fallback=default)
    return float(section.get(key, default)) if section else default


def build_problem(cfg: RunConfig) -> Problem:
    """Materialize the mesh, tagged regions and constraints of a config."""
    mesh = build_structured_mesh(cfg.dimension, cfg.counts, cfg.extents)
    supports = []
    for i, spec in enumerate(cfg.supports, start=1):
        name = f"support{i}"
        tag_box(mesh, _pairs(spec.box, cfg.dimension), name)
        supports.append((name, spec.components))
    tag_box(mesh, _pairs(cfg.load.box, cfg.dimension), "load")
    return Problem(mesh=mesh, params=cfg.material, supports=supports,
                   driven=("load", cfg.load.components),
                   body_force=cfg.body_force, l_delta=cfg.topo.l_delta)


def optimization_settings(cfg: RunConfig) -> OptimizationSettings:
    return OptimizationSettings(
        target_volume=cfg.target_volume, theta_v=cfg.theta_v,
        formulation=cfg.formulation, r_min=cfg.r_min,
        stagnation_tol=cfg.stagnation_tol, volume_tol=cfg.volume_tol,
        max_outer_iterations=cfg.max_iterations, n_steps=cfg.steps,
        du_per_step=cfg.displacement_per_step,
        velocity_cap=cfg.velocity_cap)


def _pairs(box, dimension):
    box = tuple(box)
    if len(box) != 2 * dimension:
        raise ConfigError("region boxes need min/max per axis")
    return [(box[2 * k], box[2 * k + 1]) for k in range(dimension)]
