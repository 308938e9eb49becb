"""Span tracer that times calls into fractop's public functions from outside
the package.

Every traced function is wrapped so that each call records a span: name,
start, end and the id of the enclosing traced call (its parent).  The
wrapper is installed on *every* module attribute bound to the function,
because several modules import functions by name when they are imported
(``from .forward import linear_solve`` in ``sensitivity``, scipy's
``spsolve`` in ``forward`` and ``levelset``); a wrapper placed only on the
defining module would silently miss those calls.  Spans stay in memory and
are written out when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "fractop"
                                    or name.startswith("fractop."))]


class Patches:
    """Module attribute replacements that can be undone."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, module, attr, make_wrapper):
        """Replace every fractop binding of ``module.attr``; returns the
        qualified names that were replaced."""
        target = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(target)
        replaced = []
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is target:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrapper)
                    replaced.append(f"{mod.__name__}.{name}")
        return replaced

    def replace_one(self, module, attr, make_wrapper):
        """Replace the binding in one module only."""
        mod = sys.modules[module]
        value = getattr(mod, attr)
        self._saved.append((mod, attr, value))
        setattr(mod, attr, make_wrapper(value))
        return [f"{module}.{attr}"]

    def restore(self):
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()


def _qp_count(args, kwargs, result):
    return int(args[0].size // args[0].shape[-1])


def _rhs_size(args, kwargs, result):
    return int(args[1].size)


def _file_bytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


# (span name, defining module, attribute, work measure or None).  Several
# export writers share one span name.
TRACED = (
    ("config.load_config", "fractop.config", "load_config", None),
    ("config.build_problem", "fractop.config", "build_problem", None),
    ("material.return_map", "fractop.material", "return_map", _qp_count),
    ("forward.constitutive_sweep", "fractop.forward", "constitutive_sweep",
     None),
    ("forward.assemble_ru", "fractop.forward", "assemble_ru", None),
    ("forward.assemble_rd", "fractop.forward", "assemble_rd", None),
    ("forward.assemble_coupling_blocks", "fractop.forward",
     "assemble_coupling_blocks", None),
    ("forward.assemble_tangent_blocks", "fractop.forward",
     "assemble_tangent_blocks", None),
    ("forward.staggered_step", "fractop.forward", "staggered_step", None),
    ("forward.linear_solve", "fractop.forward", "linear_solve", _rhs_size),
    ("forward.run_load_history", "fractop.forward", "run_load_history",
     None),
    ("sensitivity.adjoint_sweep", "fractop.sensitivity", "adjoint_sweep",
     None),
    ("sensitivity.adjoint_solve", "fractop.sensitivity", "adjoint_solve",
     None),
    ("sensitivity.residual_phi_derivative", "fractop.sensitivity",
     "residual_phi_derivative", None),
    ("sensitivity.solid_sensitivity", "fractop.sensitivity",
     "solid_sensitivity", None),
    ("levelset.solve_reaction_diffusion", "fractop.levelset",
     "solve_reaction_diffusion", None),
    ("optimizer.bisection_step", "fractop.optimizer", "bisection_step", None),
    ("filtering.build_kernel", "fractop.filtering", "build_kernel", None),
    ("filtering.filter_field", "fractop.filtering", "filter_field", None),
    ("verify.fd_sensitivity", "fractop.verify", "fd_sensitivity", None),
    ("export.write", "fractop.export", "write_curves", _file_bytes),
    ("export.write", "fractop.export", "write_snapshot", _file_bytes),
)

# scipy's spsolve is one function bound in two modules; each binding is the
# sparse direct solve of a different layer, so each gets its own span name.
TRACED_PER_BINDING = (
    ("forward.spsolve", "fractop.forward", "spsolve"),
    ("levelset.spsolve", "fractop.levelset", "spsolve"),
)

# Names callers look up that a wrapper on the defining module alone would
# miss; install() fails if any of them is left unwrapped.
EXPECTED_BINDINGS = (
    "fractop.optimizer.run_load_history",
    "fractop.verify.run_load_history",
    "fractop.verify.adjoint_sweep",
    "fractop.verify.solid_sensitivity",
    "fractop.sensitivity.assemble_tangent_blocks",
    "fractop.sensitivity.constitutive_sweep",
    "fractop.sensitivity.linear_solve",
    "fractop.forward.spsolve",
    "fractop.levelset.spsolve",
)

# spans whose return values the metrics and cross-checks read
KEEP_RESULTS = ("forward.run_load_history", "optimizer.bisection_step")

# spans whose calls contain other traced calls: these also report self time
WITH_CHILDREN = (
    "forward.constitutive_sweep", "forward.assemble_tangent_blocks",
    "forward.staggered_step", "forward.run_load_history",
    "sensitivity.adjoint_sweep", "sensitivity.solid_sensitivity",
    "optimizer.bisection_step", "verify.fd_sensitivity",
)


@dataclass
class Span:
    sid: int
    parent: int          # -1 when no traced call encloses this one
    name: str
    start: float
    end: float = 0.0
    size: int = 0        # quadrature points, unknowns or bytes, by span
    failed: bool = False


class Tracer:
    """Collects spans of traced calls while installed."""

    def __init__(self):
        self.spans = []
        self.results = {}      # span id -> return value, for kept names
        self._stack = []
        self._patches = Patches()

    def _wrap(self, name, measure):
        def make(func):
            def traced(*args, **kwargs):
                span = Span(len(self.spans),
                            self._stack[-1] if self._stack else -1,
                            name, time.perf_counter())
                self.spans.append(span)
                self._stack.append(span.sid)
                try:
                    result = func(*args, **kwargs)
                except BaseException as err:
                    span.failed = True
                    partial = getattr(err, "partial_trajectory", None)
                    if name in KEEP_RESULTS and partial is not None:
                        self.results[span.sid] = partial
                    raise
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if measure is not None:
                    span.size = measure(args, kwargs, result)
                if name in KEEP_RESULTS:
                    self.results[span.sid] = result
                return result
            traced.__wrapped__ = func
            return traced
        return make

    def install(self):
        """Wrap every traced function on every name it is bound to."""
        replaced = []
        for name, module, attr, measure in TRACED:
            replaced += self._patches.replace_everywhere(
                module, attr, self._wrap(name, measure))
        for name, module, attr in TRACED_PER_BINDING:
            replaced += self._patches.replace_one(module, attr,
                                                  self._wrap(name, None))
        missing = sorted(set(EXPECTED_BINDINGS) - set(replaced))
        if missing:
            self._patches.restore()
            raise RuntimeError(f"tracer left bindings unwrapped: {missing}")
        return replaced

    def uninstall(self):
        self._patches.restore()

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    # ------------------------------------------------------------------
    # per-layer metrics

    def layer_metrics(self):
        """Total time, self time and call count of every traced span name,
        plus the work measures and the exact solver counts taken from the
        trajectories the traced load histories returned."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        names = [n for n, *_ in TRACED] + [n for n, *_ in TRACED_PER_BINDING]
        out = {}
        for name in dict.fromkeys(names):
            spans = self.named(name)
            out[f"{name}.s"] = (sum(s.end - s.start for s in spans), "s")
            out[f"{name}.calls"] = (len(spans), "count")
            if name in WITH_CHILDREN:
                out[f"{name}.self_s"] = (
                    sum(s.end - s.start - child_time[s.sid] for s in spans),
                    "s")
        out["material.return_map.qp"] = (
            sum(s.size for s in self.named("material.return_map")), "count")
        out["forward.linear_solve.unknowns"] = (
            sum(s.size for s in self.named("forward.linear_solve")), "count")
        out["export.bytes"] = (
            sum(s.size for s in self.named("export.write")), "bytes")

        stats = [st for traj in self.trajectories() for st in traj.stats]
        out["forward.stagger_passes"] = (
            sum(st.stagger_iterations for st in stats), "count")
        out["forward.stagger_passes.max_step"] = (
            max((st.stagger_iterations for st in stats), default=0), "count")
        out["forward.newton_iterations"] = (
            sum(st.newton_iterations for st in stats), "count")
        out["forward.newton_corrections"] = (
            sum(st.newton_corrections for st in stats), "count")
        out["forward.d_overshoot.max"] = (
            max((st.d_overshoot for st in stats), default=0.0), "1")

        attempts = self.bisection_attempts()
        out["optimizer.bisection_iterations"] = (
            sum(sum(group) for group in attempts), "count")
        out["optimizer.boost_retries"] = (
            sum(len(group) - 1 for group in attempts if group), "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def trajectories(self):
        return [self.results[s.sid]
                for s in self.named("forward.run_load_history")
                if s.sid in self.results]

    def bisection_attempts(self):
        """Bisection iterations of each ``bisection_step`` call, grouped by
        outer iteration: a new group starts at every load history the
        optimizer runs."""
        groups = []
        for span in sorted(self.spans, key=lambda s: s.start):
            if span.name == "forward.run_load_history" and span.parent < 0:
                groups.append([])
            elif span.name == "optimizer.bisection_step" and groups \
                    and span.sid in self.results:
                groups[-1].append(self.results[span.sid][2]["iterations"])
        return groups


def cross_check(tracer, histories, bisection_records):
    """Compare traced call counts with counts the program returns.

    ``histories`` is the number of load histories the traced operations
    must have run; ``bisection_records`` the ``bisection_iterations`` of
    each ``ConvergenceRecord`` (empty when no optimizer ran).  Returns a
    list of mismatch descriptions, empty when every count agrees.
    """
    problems = []
    steps = sum(len(t.stats) for t in tracer.trajectories())
    stagger_calls = len(tracer.named("forward.staggered_step"))
    if stagger_calls != steps:
        problems.append(f"staggered_step calls {stagger_calls} != "
                        f"committed steps {steps}")
    rlh_calls = len(tracer.named("forward.run_load_history"))
    if rlh_calls != histories:
        problems.append(f"run_load_history calls {rlh_calls} != "
                        f"expected histories {histories}")
    rd_calls = len(tracer.named("levelset.solve_reaction_diffusion"))
    attempts = [g for g in tracer.bisection_attempts() if g]
    attempted = sum(sum(g) for g in attempts)
    if rd_calls != attempted:
        problems.append(f"solve_reaction_diffusion calls {rd_calls} != "
                        f"bisection iterations returned {attempted}")
    final = [g[-1] for g in attempts]
    if final != [n for n in bisection_records if n > 0]:
        problems.append(f"bisection iterations of the accepted attempts "
                        f"{final} != ConvergenceRecord values "
                        f"{list(bisection_records)}")
    return problems
