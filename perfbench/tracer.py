"""Outside-in span tracer for the lflow modules.

The tracer never edits lflow itself. `Tracer.install` replaces each
traced public function at every lookup site (every `lflow.*` module
namespace that holds a reference to it, since `operators` and `guidance`
import the DFT helpers by name), replaces `apply`/`adjoint` on the four
operator classes, and wraps the velocity closure that
`guidance.make_velocity` returns. `Tracer.uninstall` puts the originals
back, so untraced runs execute the unmodified program.

A span is (name, start, end, parent, run id). Spans live in flat
in-memory arrays and are written out once, when the run ends. The run id
is the index of the outermost span a span descends from, so every span
caused by one reconstruction shares an id. Spans nest strictly (one
thread, call-stack discipline), which makes a span's self time its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# Traced function name -> span name, per lflow module. Modules listed with
# None trace every public function they define under the module's name.
# fields leaves out field_sigma_latr, a helper of the four it lists that
# would add a span per NFE to the dense path.
TRACED_FUNCTIONS = {
    "numerics": {"dft2_forward": "numerics.dft2_forward",
                 "dft2_inverse": "numerics.dft2_inverse",
                 "require_finite": "numerics.require_finite"},
    "guidance": {"inner_vector": "guidance.inner_vector",
                 "conjugate_gradient": "guidance.conjugate_gradient"},
    "fields": {"eval_field": "fields", "posterior_mean": "fields",
               "mean_jacobian_scalar": "fields", "posterior_cov_scalar": "fields"},
    "decoders": None,
    "sampler": {"integrate": "sampler.integrate",
                "sample_posterior": "sampler.sample_posterior"},
    "tasks": {"degrade": "tasks.degrade", "reconstruct": "tasks.reconstruct"},
    "metrics": None,
    "imageio": {"write_image": "imageio.write", "write_pgm": "imageio.write",
                "write_png": "imageio.write"},
    "report": {"write_reports_csv": "report.write",
               "write_reports_json": "report.write"},
    "oracle": {"exact_posterior": "oracle.exact_posterior",
               "mc_moments": "oracle.mc_moments"},
    "cli": {"_cmd_sample": "cli.sample"},
}
OPERATOR_CLASSES = ("MaskOperator", "CircConvOperator", "ConvDownsampleOperator",
                    "DenseOperator")
OPERATOR_METHODS = ("apply", "adjoint")

# One complex128 spectrum per transform call: computed from array sizes,
# not measured traffic.
SPECTRUM_ITEM_BYTES = 16


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus the summed duration of direct children, per span.

    parent[i] is the index of span i's parent, or -1 for an outermost span.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.float64)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.size)
    return duration - children


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.trajectories: list[tuple[int, int, int]] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn recorded as one span per call; after(args, result) may count."""
        nid = self._span_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            name_id.append(nid)
            parent.append(up)
            run_id.append(idx if up < 0 else run_id[up])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self, lflow):
        """Trace lflow inside the block; the originals are back after it."""
        self.install(lflow)
        try:
            yield self
        finally:
            self.uninstall()

    def install(self, lflow) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lflow" or n.startswith("lflow.")]
        replacements = {}
        for short, names in TRACED_FUNCTIONS.items():
            mod = sys.modules[f"lflow.{short}"]
            if names is None:
                names = {n: short for n, v in vars(mod).items()
                         if not n.startswith("_") and callable(v)
                         and not isinstance(v, type)
                         and getattr(v, "__module__", None) == mod.__name__}
            for fn_name, span in names.items():
                original = getattr(mod, fn_name)
                replacements[id(original)] = self.wrap(span, original,
                                                       self._after(fn_name))
        make_velocity = lflow.guidance.make_velocity
        velocity_span = "guidance.velocity"

        @functools.wraps(make_velocity)
        def traced_make_velocity(*args, **kwargs):
            return self.wrap(velocity_span, make_velocity(*args, **kwargs))

        replacements[id(make_velocity)] = traced_make_velocity
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._replace(mod, attr, replacements[id(value)])
        for cls_name in OPERATOR_CLASSES:
            cls = getattr(lflow.operators, cls_name)
            for method in OPERATOR_METHODS:
                self._replace(cls, method,
                              self.wrap(f"operators.{method}", getattr(cls, method)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _after(self, fn_name: str):
        if fn_name in ("dft2_forward", "dft2_inverse"):
            def dft_bytes(args, _result):
                self.count("numerics.dft_bytes_computed",
                           SPECTRUM_ITEM_BYTES * np.size(args[0]))
            return dft_bytes
        if fn_name in ("write_pgm", "write_png"):
            def written(args, _result):
                self.count("imageio.bytes_written", os.path.getsize(args[0]))
            return written
        if fn_name == "sample_posterior":
            def trajectory(_args, result):
                traj = result[1]
                self.trajectories.append((traj.nfe, traj.accepted, traj.rejected))
            return trajectory
        return None

    # -- output -----------------------------------------------------------

    def mark(self) -> tuple[int, int, dict]:
        """Position to pass to `layer_metrics` for the spans that follow."""
        return len(self.start), len(self.trajectories), dict(self.counters)

    def write(self, path) -> None:
        """All spans as .npz arrays; span i is named names[name_id[i]]."""
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 start=self.start, end=self.end, parent=self.parent,
                 run_id=self.run_id)

    def layer_metrics(self, since: tuple[int, int, dict]) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded after `since`."""
        first, first_traj, counters_before = since
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        parent[parent < -1] = -1
        duration = (np.frombuffer(self.end, dtype=np.float64)[first:]
                    - np.frombuffer(self.start, dtype=np.float64)[first:])
        own = self_times(parent, duration)
        parent_ids = np.where(parent >= 0, ids[np.maximum(parent, 0)], -1)

        def sel(name: str) -> np.ndarray:
            return ids == self._name_ids.get(name, -2)

        def calls(name: str) -> int:
            return int(np.count_nonzero(sel(name)))

        def self_ms(name: str) -> float:
            return float(own[sel(name)].sum()) * 1e3

        def incl_ms(name: str) -> float:
            outer = sel(name) & (parent_ids != self._name_ids.get(name, -2))
            return float(duration[outer].sum()) * 1e3

        def counter(key: str) -> float:
            return self.counters.get(key, 0.0) - counters_before.get(key, 0.0)

        out: dict[str, float] = {}
        for name in ("numerics.dft2_forward", "numerics.dft2_inverse",
                     "operators.apply", "operators.adjoint", "guidance.velocity",
                     "guidance.inner_vector", "guidance.conjugate_gradient",
                     "fields", "decoders"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_ms"] = self_ms(name)
        out["numerics.require_finite.self_ms"] = self_ms("numerics.require_finite")
        out["numerics.dft_bytes_computed"] = counter("numerics.dft_bytes_computed")
        velocity_calls = out["guidance.velocity.calls"]
        out["guidance.passes_per_nfe"] = (
            out["guidance.inner_vector.calls"] / velocity_calls if velocity_calls else 0.0)
        cg_calls = out["guidance.conjugate_gradient.calls"]
        cg_id = self._name_ids.get("guidance.conjugate_gradient", -2)
        matvecs = int(np.count_nonzero(sel("operators.apply") & (parent_ids == cg_id)))
        out["guidance.cg_matvecs_per_solve"] = matvecs / cg_calls if cg_calls else 0.0
        out["sampler.integrate.self_ms"] = self_ms("sampler.integrate")
        trajs = self.trajectories[first_traj:]
        accepted = sum(a for _, a, _ in trajs)
        rejected = sum(r for _, _, r in trajs)
        out["sampler.accepted"] = accepted
        out["sampler.rejected"] = rejected
        out["sampler.accept_ratio"] = (accepted / (accepted + rejected)
                                       if accepted + rejected else 0.0)
        out["tasks.reconstruct.self_ms"] = self_ms("tasks.reconstruct")
        out["tasks.degrade.incl_ms"] = incl_ms("tasks.degrade")
        out["metrics.incl_ms"] = incl_ms("metrics")
        out["imageio.write.self_ms"] = self_ms("imageio.write")
        out["imageio.bytes_written"] = counter("imageio.bytes_written")
        out["report.write.self_ms"] = self_ms("report.write")
        out["oracle.mc_moments.self_ms"] = self_ms("oracle.mc_moments")
        out["oracle.exact_posterior.incl_ms"] = incl_ms("oracle.exact_posterior")
        out["cli.sample.self_ms"] = self_ms("cli.sample")
        return out
