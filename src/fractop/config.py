"""Run configuration: INI-style files with one block per concern, validated
against a fixed schema.

``_SCHEMA`` is that schema: each INI key fills one field of one dataclass,
either a settings object of the solvers (``MaterialParams``, ``TopoParams``,
``SolverSettings``, ``OptimizationSettings``) or the run-level ``RunConfig``
and its load ``RegionSpec``.  A key left out of the file takes the default
that its dataclass declares (``[topology] l_delta`` that of ``Problem``).
The solvers' tolerances are module constants (``forward.NEWTON_TOL_ABS``
and its siblings, ``optimizer.VOLUME_TOL``, ``optimizer.STAGNATION_TOL``),
not keys: a file that sets one fails as an unknown key.
Two defaults belong to the configuration itself, because
``OptimizationSettings`` holds none for them: ``r_min = 3 * length_scale``
and ``target_volume = 1``.  ``RunConfig`` owns the load history (``steps``,
``displacement_per_step``) and copies it into its ``OptimizationSettings``
whenever it is built, ``dataclasses.replace`` included.

Regions are axis-aligned boxes (min/max per axis).  Exactly one of the
fracture threshold forms (psi_c directly, critical stress, or toughness)
must be given; ``load_config`` converts the last two to psi_c from the
validated ``MaterialParams``: sigma_c^2 / (2 E) with E its Young's modulus,
or 3 g_c / (8 l_f sqrt(2)).  A malformed or out-of-range value raises
``ConfigError`` naming its key (the command line exits 2).  ``build_problem``
does the same for the two checks that need the mesh or the ``Problem``: a
region box that matches no node and an out-of-range ``l_delta``.
"""

from __future__ import annotations

import configparser
import math
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from .forward import Problem, SolverSettings
from .levelset import TopoParams
from .material import MaterialParams
from .mesh import build_structured_mesh, tag_box
from .optimizer import OptimizationSettings


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_DOF_LETTERS = {"x": 0, "y": 1, "z": 2}


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
    optimization: OptimizationSettings
    solver: SolverSettings
    body_force: tuple = None
    output_dir: str = "out"
    snapshot_cadence: int = 0
    l_delta: float = Problem.l_delta   # checked when the Problem is built

    def __post_init__(self):
        for name, values in (("extents", self.extents),
                             ("displacement_per_step",
                              (self.displacement_per_step,)),
                             ("body_force", self.body_force or ())):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
        # the optimizer's load history follows the run's, also on replace()
        self.optimization = replace(self.optimization, n_steps=self.steps,
                                    du_per_step=self.displacement_per_step)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# (section, key, dataclass, field, parser).  sigma_c and g_c fill psi_c and
# are converted in load_config, sigma_c^2 / 2E or 3 g_c / (8 l_f sqrt 2);
# load_dofs is parsed once the dimension is known.
_SCHEMA = (
    ("mesh", "dimension", RunConfig, "dimension", int),
    ("mesh", "counts", RunConfig, "counts", _ints),
    ("mesh", "extents", RunConfig, "extents", _floats),
    ("material", "bulk_modulus", MaterialParams, "bulk_modulus", float),
    ("material", "shear_modulus", MaterialParams, "shear_modulus", float),
    ("material", "hardening_modulus", MaterialParams, "hardening_modulus",
     float),
    ("material", "yield_stress", MaterialParams, "yield_stress", float),
    ("material", "kappa", MaterialParams, "kappa", float),
    ("fracture", "psi_c", MaterialParams, "psi_c", float),
    ("fracture", "sigma_c", MaterialParams, "psi_c", float),
    ("fracture", "g_c", MaterialParams, "psi_c", float),
    ("fracture", "length_scale", MaterialParams, "l_f", float),
    ("fracture", "zeta", MaterialParams, "zeta", float),
    ("fracture", "viscosity", MaterialParams, "eta_f", float),
    ("topology", "eta_phi", TopoParams, "eta_phi", float),
    ("topology", "l_phi", TopoParams, "l_phi", float),
    ("topology", "tau_phi", TopoParams, "tau_phi", float),
    ("topology", "l_delta", RunConfig, "l_delta", float),
    ("topology", "r_min", OptimizationSettings, "r_min", float),
    ("topology", "theta_v", OptimizationSettings, "theta_v", float),
    ("topology", "target_volume", OptimizationSettings, "target_volume",
     float),
    ("topology", "formulation", OptimizationSettings, "formulation", int),
    ("topology", "max_iterations", OptimizationSettings,
     "max_outer_iterations", int),
    ("topology", "velocity_cap", OptimizationSettings, "velocity_cap",
     float),
    ("loading", "load_box", RegionSpec, "box", _floats),
    ("loading", "load_dofs", RegionSpec, "components", str),
    ("loading", "displacement_per_step", RunConfig, "displacement_per_step",
     float),
    ("loading", "steps", RunConfig, "steps", int),
    ("loading", "tau_f", MaterialParams, "tau_f", float),
    ("loading", "body_force", RunConfig, "body_force", _floats),
    ("solver", "stagger_max_iter", SolverSettings, "stagger_max_iter", int),
    ("output", "directory", RunConfig, "output_dir", str),
    ("output", "snapshot_cadence", RunConfig, "snapshot_cadence", int),
)

_KNOWN_KEYS = {section: {key for s, key, *_ in _SCHEMA if s == section}
               for section, *_ in _SCHEMA}


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

    # dataclass -> {field: value} for every schema key the file sets, and
    # field -> where it was set, to name the key in a range error
    values = defaultdict(dict)
    source = {}
    for section, key, cls, name, parse in _SCHEMA:
        if section not in parser or key not in parser[section]:
            continue
        source[name] = f"[{section}] {key} = {parser[section][key]}"
        values[cls][name] = _parse(parser, section, key, parse)

    run = values[RunConfig]
    if run.get("dimension") not in (2, 3):
        raise ConfigError("mesh dimension must be 2 or 3")
    dimension = run["dimension"]
    for key in ("counts", "extents"):
        if key not in run:
            raise ConfigError(f"missing key {key!r} in [mesh]")
    if len(run["counts"]) != dimension or len(run["extents"]) != dimension:
        raise ConfigError("counts/extents must have one entry per axis")

    m = values[MaterialParams]
    if "bulk_modulus" not in m or "shear_modulus" not in m:
        raise ConfigError("bulk_modulus and shear_modulus are required")
    if "l_f" not in m:
        raise ConfigError("fracture length_scale is required")
    given = [k for k in ("psi_c", "sigma_c", "g_c") if k in parser["fracture"]]
    if len(given) != 1:
        raise ConfigError(
            "exactly one of psi_c / sigma_c / g_c must be given "
            f"(found {given or 'none'})")

    ld = parser["loading"]
    supports = []
    for key in sorted(k for k in ld if _is_support_key(k)
                      and k.endswith("_box")):
        stem = key[:-4]
        dof_key = stem + "_dofs"
        if dof_key not in ld:
            raise ConfigError(f"{key} given without {dof_key}")
        supports.append(RegionSpec(
            box=_parse(parser, "loading", key, _floats),
            components=_parse(parser, "loading", dof_key,
                              lambda text: _dofs(text, dimension))))
    if not supports:
        raise ConfigError("at least one supportN_box region is required")
    load = values[RegionSpec]
    for key, name in (("load_box", "box"), ("load_dofs", "components")):
        if name not in load:
            raise ConfigError(f"missing key {key!r} in [loading]")
    load["components"] = _parse(parser, "loading", "load_dofs",
                                lambda text: _dofs(text, dimension))
    if "displacement_per_step" not in run or "steps" not in run:
        raise ConfigError("displacement_per_step and steps are required")
    if run["steps"] < 1:
        raise ConfigError("steps must be >= 1")
    if "body_force" in run and len(run["body_force"]) != dimension:
        raise ConfigError("body_force must have one entry per axis")

    try:
        # psi_c holds the given threshold until it is converted
        params = MaterialParams(**m)
        if given[0] == "sigma_c":
            params = replace(params, psi_c=params.psi_c ** 2
                             / (2.0 * params.youngs_modulus))
        elif given[0] == "g_c":
            params = replace(params, psi_c=3.0 * params.psi_c
                             / (8.0 * params.l_f * math.sqrt(2.0)))
        optimization = OptimizationSettings(**{
            "target_volume": 1.0, "r_min": 3.0 * params.l_f,
            **values[OptimizationSettings]})
        return RunConfig(
            **run, material=params, topo=TopoParams(**values[TopoParams]),
            supports=supports, load=RegionSpec(**load),
            optimization=optimization,
            solver=SolverSettings(**values[SolverSettings]))
    except ValueError as err:
        # the dataclass checks name the fields they reject
        where = ", ".join(source[w] for w in re.findall(r"\w+", str(err))
                          if w in source)
        raise ConfigError(f"{where}: {err}" if where else str(err)) from err


def _parse(parser, section, key, parse):
    raw = parser[section][key]
    try:
        return parse(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw}: {err}") from err


def _is_support_key(key: str) -> bool:
    if not key.startswith("support"):
        return False
    stem = key[len("support"):]
    for suffix in ("_box", "_dofs"):
        if stem.endswith(suffix) and stem[:-len(suffix)].isdigit():
            return True
    return False


def build_problem(cfg: RunConfig) -> Problem:
    """Materialize the mesh, tagged regions and constraints of a config.

    A support or load box that matches no node is a ``ConfigError``."""
    try:
        mesh = build_structured_mesh(cfg.dimension, cfg.counts, cfg.extents)
    except ValueError as err:
        raise ConfigError(f"[mesh] {err}") from err
    supports = [(f"support{i}", spec)
                for i, spec in enumerate(cfg.supports, start=1)]
    for name, spec in supports + [("load", cfg.load)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # raised below instead
            tag_box(mesh, _pairs(spec.box, cfg.dimension), name)
        if mesh.node_sets[name].size == 0:
            raise ConfigError(f"[loading] {name}_box = {_text(spec.box)}: "
                              f"the box matches no node")
    try:
        return Problem(mesh=mesh, params=cfg.material,
                       supports=[(name, spec.components)
                                 for name, spec in supports],
                       driven=("load", cfg.load.components),
                       body_force=cfg.body_force, l_delta=cfg.l_delta)
    except ValueError as err:
        raise ConfigError(f"[topology] l_delta = {_text([cfg.l_delta])}: "
                          f"{err}") from err


def _text(values) -> str:
    return " ".join(f"{v:g}" for v in values)


def optimization_settings(cfg: RunConfig) -> OptimizationSettings:
    """A fresh copy of ``cfg.optimization``, which ``RunConfig`` keeps on
    its own load history."""
    return replace(cfg.optimization)


def _pairs(box, dimension):
    box = tuple(box)
    if len(box) != 2 * dimension:
        raise ConfigError("region boxes need min/max per axis")
    return [(box[2 * k], box[2 * k + 1]) for k in range(dimension)]
