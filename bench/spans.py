"""Tracing of robocal from outside the program.

`Tracer.installed()` wraps every public function of the robocal modules, plus
`Pose.__post_init__` and `SpatialIndex.__init__` / `SpatialIndex.query`, with
a wrapper that records a span: name, start, end and the span that was open
when it began. A function is rebound in every robocal module and module-level
dict that holds it, because `from .geometry import compose` copies the
reference into the importing module. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
import types
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("cli", "fileio", "geometry", "mesh", "registration", "metrics",
          "handeye", "pivot", "simulate")

# (module, class, method) -> span name
METHODS = {
    ("geometry", "Pose", "__post_init__"): "geometry.pose_new",
    ("registration", "SpatialIndex", "__init__"): "registration.index_build",
    ("registration", "SpatialIndex", "query"): "registration.index_query",
}

_LEAF_LOADERS = ("load_pose_list", "load_point_list", "load_marker_board", "load_views",
                 "load_correspondences", "load_scene", "load_ground_truth_csv",
                 "load_predictions_csv")


def _file_read(args, result):
    return {"files": 1, "bytes": os.path.getsize(args[0])}


# Counters recorded where the work happens: span name -> f(args, result). For
# a method, args[0] is the instance.
PROBES = {
    "mesh.sample_surface": lambda args, res: {"points": len(res)},
    "registration.index_build": lambda args, res: {"points": len(args[0].points)},
    "registration.index_query": lambda args, res: {"points": len(res[0])},
    "registration.icp_refine": lambda args, res: {"iterations": res.iterations,
                                                  "converged": int(res.converged)},
    "metrics.iou3d": lambda args, res: {"overlapping": int(res > 0.0)},
    "simulate.calibrate_handeye_perturbation":
        lambda args, res: {"evaluations": res.evaluations},
    "fileio.atomic_write_text": lambda args, res: {"files": 1,
                                                   "bytes": len(args[1].encode())},
    **{f"fileio.{name}": _file_read for name in _LEAF_LOADERS},
}


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    own = duration.copy()
    nested = parent >= 0
    np.subtract.at(own, parent[nested], duration[nested])
    return own


class Tracer:
    """Records spans in flat arrays, which the garbage collector never scans,
    so a long traced run does not slow down as spans accumulate."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[int, dict] = {}  # span index -> probe counters
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        probe = PROBES.get(name)
        name_id, start, end, parent, counts = (self.name_id, self.start, self.end,
                                               self.parent, self.counts)
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_.pop()
            if probe is not None:
                counts[index] = probe(args, result)
            return result

        return traced

    def summarize(self) -> dict[str, FunctionStats]:
        stats = {name: FunctionStats() for name in self.names}
        ids = np.asarray(self.name_id, dtype=np.int64)
        own = self_times(self.start, self.end, self.parent)
        for nid, name in enumerate(self.names):
            mine = ids == nid
            stats[name].calls = int(mine.sum())
            stats[name].self_s = float(own[mine].sum())
        for index, counters in self.counts.items():
            st = stats[self.names[self.name_id[index]]]
            for key, value in counters.items():
                st.counts[key] = st.counts.get(key, 0) + value
        return {name: st for name, st in stats.items() if st.calls}

    @contextlib.contextmanager
    def installed(self):
        """Wrap the robocal layers for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"robocal.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "robocal" or n.startswith("robocal."))]
        undo = []
        try:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        undo.append((setattr, module, name, value))
                        setattr(module, name, wrappers[value])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if isinstance(item, types.FunctionType) and item in wrappers:
                                undo.append((dict.__setitem__, value, key, item))
                                value[key] = wrappers[item]
            for (layer, cls_name, method), span_name in METHODS.items():
                cls = getattr(importlib.import_module(f"robocal.{layer}"), cls_name)
                original = cls.__dict__[method]
                undo.append((setattr, cls, method, original))
                setattr(cls, method, self.wrap(span_name, original))
            yield self
        finally:
            for restore, target, key, original in reversed(undo):
                restore(target, key, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: names, and per span name id, start, end, parent."""
        path.write_text(json.dumps({
            "names": self.names, "name_id": self.name_id.tolist(),
            "start": self.start.tolist(), "end": self.end.tolist(),
            "parent": self.parent.tolist()}))

def parse_importtime(stderr: str, packages=("numpy", "scipy", "robocal")) -> dict:
    """Seconds per package from `python -X importtime` output.

    A package's time is the summed cumulative time of its outermost entries,
    those not nested inside another entry of the same package.
    """
    entries = []  # (depth, name, cumulative_us) in the order printed: children first
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = dict.fromkeys(packages, 0.0)
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if package in totals and all(a[1] != package for a in ancestors):
            totals[package] += cumulative / 1e6
        ancestors.append((depth, package))
    return totals
