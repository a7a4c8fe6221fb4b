"""Every metric the benchmark reports, with its unit and better direction.

End-to-end metrics come from the untraced child-process run. Per-layer metrics
come from the traced in-process run; each names the end-to-end metric it
should move and the workload it shows on. Counts are per repetition of the
workload; `self_pct` is a function's or layer's self time as a share of the
traced wall time (0 where the workload never calls it). BENCHMARK.json lists
the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from spans import LAYERS, FunctionStats


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"


@dataclass(frozen=True)
class EndToEnd(Metric):
    bound: float  # share of the parent's median it may worsen by


@dataclass(frozen=True)
class Layer(Metric):
    moves: str  # end-to-end metrics it should move
    shows_on: str  # workloads it shows on
    value: Callable[["TraceView"], float]


# Times are scaled by the reference program's speed in the same repetition
# (see run.py). On a shared 2-core virtual machine the times as measured
# spread by 4-26% (quartile distance over median, 10 runs of 30 s with
# different seeds), because the machine's speed drifts over minutes; scaled,
# by 5-8%. They keep the widest bound the contract allows, because the drift
# is not always removed in full; memory spreads by under 1%.
END_TO_END = [
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("units_per_s", "unit/s", "higher", 0.25),
]


@dataclass
class TraceView:
    """Per-repetition view of a traced run, which the per-layer metrics read."""

    stats: dict[str, FunctionStats]  # summed over the traced repetitions
    reps: int
    traced_wall_s: float  # summed over the traced repetitions
    untraced_wall_s: float  # summed over as many untraced repetitions
    imports: dict[str, float]  # package -> seconds
    quality: dict[str, float]  # pose errors, where the workload has poses

    def fn(self, name: str) -> FunctionStats:
        return self.stats.get(name, FunctionStats())

    def pct(self, seconds: float) -> float:
        return 100.0 * seconds / self.traced_wall_s

    def group(self, prefixes: str | tuple[str, ...]) -> FunctionStats:
        """Summed stats of the functions whose name starts with a prefix."""
        total = FunctionStats()
        for name, st in self.stats.items():
            if name.startswith(prefixes):
                total.calls += st.calls
                total.self_s += st.self_s
                for key, value in st.counts.items():
                    total.counts[key] = total.counts.get(key, 0) + value
        return total

    def count(self, st: FunctionStats, key: str | None = None) -> float:
        return (st.calls if key is None else st.counts.get(key, 0)) / self.reps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fn_metrics(fn: str, kinds: tuple[str, ...], moves: str, shows_on: str) -> list[Layer]:
    out = []
    for kind in kinds:
        if kind == "self_pct":
            out.append(Layer(f"{fn}.self_pct", "%", "lower", moves, shows_on,
                             lambda v, fn=fn: v.pct(v.fn(fn).self_s)))
        elif kind == "calls":
            out.append(Layer(f"{fn}.calls", "count", "lower", moves, shows_on,
                             lambda v, fn=fn: v.count(v.fn(fn))))
        else:
            out.append(Layer(f"{fn}.{kind}", "count", "lower", moves, shows_on,
                             lambda v, fn=fn, kind=kind: v.count(v.fn(fn), kind)))
    return out


def _group_metrics(group: str, prefixes: tuple[str, ...], moves: str,
                   shows_on: str) -> list[Layer]:
    # calls counts files read or written, not the nesting of loaders
    return [
        Layer(f"{group}.calls", "count", "lower", moves, shows_on,
              lambda v: v.count(v.group(prefixes), "files")),
        Layer(f"{group}.bytes", "B", "lower", moves, shows_on,
              lambda v: v.count(v.group(prefixes), "bytes")),
        Layer(f"{group}.self_pct", "%", "lower", moves, shows_on,
              lambda v: v.pct(v.group(prefixes).self_s)),
    ]


SIM = "sim-phocal"
ICP = "icp-recovery"
IOU = "iou-pooled"
SESSION = "annotate-session"

PER_LAYER: list[Layer] = [
    *_fn_metrics("geometry.pose_new", ("calls", "self_pct"), "wall_s, cpu_s", SIM),
    *_fn_metrics("geometry.compose", ("calls", "self_pct"), "wall_s, cpu_s", SIM),
    *_fn_metrics("geometry.apply", ("calls", "self_pct"), "wall_s, cpu_s", SIM),
    *_fn_metrics("metrics.pointwise_rmse", ("calls", "self_pct"), "wall_s, cpu_s", SIM),
    *_fn_metrics("simulate.simulate_annotation_error", ("self_pct",), "wall_s, cpu_s", SIM),
    *_fn_metrics("simulate.calibrate_handeye_perturbation",
                 ("calls", "evaluations", "self_pct"), "wall_s", SIM),
    *_fn_metrics("handeye.evaluate_handeye", ("calls", "self_pct"), "wall_s", SIM),
    Layer("simulate.handeye_search.useful_ratio", "ratio", "higher", "wall_s", SIM,
          lambda v: _ratio(v.fn("simulate.calibrate_handeye_perturbation").calls,
                           v.fn("simulate.calibrate_handeye_perturbation")
                           .counts.get("evaluations", 0))),
    *_fn_metrics("mesh.sample_surface", ("calls", "points", "self_pct"), "wall_s",
                 f"{ICP}, {SIM}"),
    *_fn_metrics("mesh.resolve_mesh", ("calls", "self_pct"), "wall_s", SIM),
    *_fn_metrics("registration.index_build", ("calls", "points", "self_pct"),
                 "wall_s, peak_rss_mb", ICP),
    *_fn_metrics("registration.index_query", ("calls", "points", "self_pct"), "wall_s",
                 f"{ICP}, {SESSION}"),
    *_fn_metrics("registration.icp_refine", ("calls", "iterations", "self_pct"), "wall_s",
                 f"{ICP}, {SESSION}"),
    Layer("registration.icp_refine.converged_ratio", "ratio", "higher", "wall_s",
          f"{ICP}, {SESSION}",
          lambda v: _ratio(v.fn("registration.icp_refine").counts.get("converged", 0),
                           v.fn("registration.icp_refine").calls)),
    *_fn_metrics("metrics.iou3d", ("calls", "self_pct"), "wall_s, units_per_s", IOU),
    *_fn_metrics("metrics.intersection_volume", ("self_pct",), "wall_s, units_per_s", IOU),
    Layer("metrics.iou3d.overlap_ratio", "ratio", "higher", "wall_s, units_per_s", IOU,
          lambda v: _ratio(v.fn("metrics.iou3d").counts.get("overlapping", 0),
                           v.fn("metrics.iou3d").calls)),
    *_fn_metrics("metrics.average_precision", ("self_pct",), "wall_s, units_per_s", IOU),
    *_fn_metrics("mesh.load_obj", ("self_pct",), "wall_s", SESSION),
    *_fn_metrics("pivot.solve_pivot", ("self_pct",), "wall_s", SESSION),
    *_fn_metrics("pivot.tip_variance", ("self_pct",), "wall_s", SESSION),
    *_fn_metrics("handeye.solve_handeye", ("self_pct",), "wall_s", SESSION),
    *_fn_metrics("registration.initial_pose", ("self_pct",), "wall_s", SESSION),
    *_group_metrics("fileio.load", ("fileio.load_",), "wall_s", f"{SESSION}, {IOU}"),
    *_group_metrics("fileio.save", ("fileio.save_", "fileio.atomic_write_text",
                                    "fileio.sim_report_"), "wall_s", f"{SESSION}, {IOU}"),
    *[Layer(f"{layer}.self_pct", "%", "lower", "wall_s, cpu_s", "every workload",
            lambda v, layer=layer: v.pct(v.group(f"{layer}.").self_s))
      for layer in LAYERS],
    *[Layer(f"import.{package}_s", "s", "lower", "setup_s, wall_s",
            f"every workload, mostly {SESSION}",
            lambda v, package=package: v.imports[package])
      for package in ("numpy", "scipy", "robocal")],
    Layer("trace.wall_s", "s", "lower", "wall_s", "every workload",
          lambda v: v.traced_wall_s / v.reps),
    Layer("trace.overhead_pct", "%", "lower", "none (tracing cost)", "every workload",
          lambda v: 100.0 * (v.traced_wall_s - v.untraced_wall_s) / v.untraced_wall_s),
    Layer("trace.spans", "count", "lower", "wall_s", "every workload",
          lambda v: sum(st.calls for st in v.stats.values()) / v.reps),
    Layer("trace.unattributed_pct", "%", "lower", "none (harness time)", "every workload",
          lambda v: 100.0 - v.pct(sum(st.self_s for st in v.stats.values()))),
    Layer("quality.pose_dt_mm", "mm", "lower", "correctness guard", f"{ICP}, {SESSION}",
          lambda v: v.quality.get("pose_dt_mm", 0.0)),
    Layer("quality.pose_dr_deg", "deg", "lower", "correctness guard", f"{ICP}, {SESSION}",
          lambda v: v.quality.get("pose_dr_deg", 0.0)),
]
