"""The four benchmark workloads: seeded inputs, CLI invocations, output checks.

Each workload's `prepare(seed, workdir)` writes only the files the CLI reads,
in the program's own formats (`fileio.save_*`, `mesh.save_obj`). Known truth
goes to `truth.json`, which only the checks read. Inputs depend on the seed
alone and keep the same size for every seed, so timings from different seeds
are comparable. Random draws are made here with numpy rather than with the
program's samplers, so a change to those samplers cannot change the inputs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from robocal import fileio
from robocal.errors import SearchFailureError
from robocal.geometry import Pose
from robocal.handeye import HandEyeView, MarkerBoard, default_board_points
from robocal.mesh import Mesh, blade, chamfered_box, cup, save_obj
from robocal.metrics import DEFAULT_CATEGORIES, Detection, GroundTruthBox, OrientedBox
from robocal.registration import Correspondences
from robocal.simulate import SceneConfig, Trajectory, generate_scene

# sim-phocal: a phocal-like scene cut to a fixed size
SIM_OBJECTS = 5
SIM_STOPS_PER_TRAJECTORY = 80
SIM_DRAWS = 4

# icp-bench's fixed protocol: 3 meshes x 5 perturbations
ICP_CASES = 15
# Paper reference 0.20 mm / 0.38 deg, times 3. When the benchmark was written
# the means over seeds 0-39 ranged over 0.17-0.39 mm and 0.35-0.80 deg.
ICP_MAX_MEAN_DT_MM = 0.60
ICP_MAX_MEAN_DR_DEG = 1.14

# iou-pooled: per category, GT boxes, true positives and false positives
IOU_GT = 30
IOU_TP = 25
IOU_FP = 10
IOU_THRESHOLD = 0.5
AP_TOLERANCE = 1e-9

# annotate-session tolerances against the truth sidecar. When the benchmark
# was written the largest errors over seeds 0-299 were: pivot 0.15 mm,
# hand-eye 0.46 mm / 0.04 deg; per object (seeds 0-199) 0.48 mm / 1.01 deg,
# with medians 0.13 mm / 0.29 deg.
PIVOT_TOL_MM = 0.5
HANDEYE_TOL_MM = 1.5
HANDEYE_TOL_DEG = 0.5
ANNOTATE_TOL_MM = 1.5
ANNOTATE_TOL_DEG = 2.5


@dataclass
class Prepared:
    """What one repetition of a workload runs, and how its outputs are judged."""

    commands: list[list[str]]  # CLI argument lists, run in order
    units: float  # work units in one repetition
    # (workdir, stdouts of the commands) -> (problems, pose errors or {})
    check: Callable[[Path, list[str]], tuple[list[str], dict]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    prepare: Callable[[int, Path], Prepared]


# ---------------------------------------------------------------------------
# Rotation helpers, independent of the program's geometry code


def quat_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_rotation(rng, max_deg: float | None = None) -> np.ndarray:
    """Uniform rotation, or one of uniform angle up to max_deg about a random axis."""
    if max_deg is None:
        return quat_matrix(rng.standard_normal(4))
    axis = rng.standard_normal(3)
    half = math.radians(rng.uniform(0.0, max_deg)) / 2.0
    return quat_matrix([math.cos(half), *(math.sin(half) * axis / np.linalg.norm(axis))])


def rotation_angle_deg(Ra, Rb) -> float:
    M = np.asarray(Ra).T @ np.asarray(Rb)
    s = np.linalg.norm([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]]) / 2.0
    return math.degrees(math.atan2(s, (np.trace(M) - 1.0) / 2.0))


def _surface_points(mesh: Mesh, count: int, rng) -> np.ndarray:
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    tri = rng.choice(len(area), size=count, p=area / area.sum())
    u, v = rng.random(count), rng.random(count)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    return a[tri] + u[:, None] * (b - a)[tri] + v[:, None] * (c - a)[tri]


def _transform(R, t, points) -> np.ndarray:
    return np.asarray(points) @ R.T + t


def _truth_pose(pose: Pose) -> dict:
    return {"R": pose.rotation.tolist(), "t": pose.translation.tolist()}


def _read_truth(workdir: Path) -> dict:
    return json.loads((workdir / "truth.json").read_text())


def _write_truth(workdir: Path, truth: dict) -> None:
    (workdir / "truth.json").write_text(json.dumps(truth, sort_keys=True))


def _report_rows(path: Path) -> list[str]:
    """Data rows of a CSV report, without comments and header."""
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return rows[1:]


# ---------------------------------------------------------------------------
# sim-phocal


def _fixed_size_scene(seed: int) -> SceneConfig:
    for attempt in range(100):
        try:
            scene = generate_scene("phocal-like", seed * 100 + attempt)
        except SearchFailureError:
            continue
        trajectories = tuple(Trajectory(t.name, t.poses[:SIM_STOPS_PER_TRAJECTORY])
                             for t in scene.trajectories)
        return SceneConfig(scene.objects[:SIM_OBJECTS], scene.cameras, trajectories)
    raise SearchFailureError(f"no phocal-like scene could be placed for seed {seed}")


_PER_CAMERA_RE = re.compile(r"per-camera RMSE \(\d+-draw mean\): (\S+) mm")


def _prepare_sim(seed: int, workdir: Path) -> Prepared:
    scene = _fixed_size_scene(seed)
    fileio.save_scene(workdir / "scene.txt", scene)
    frames = sum(len(t.poses) for t in scene.trajectories)
    reference: dict[str, bytes] = {}

    def check(workdir: Path, stdouts: list[str]):
        problems = []
        csv = (workdir / "sim-out" / "sim_report.csv").read_bytes()
        if csv != reference.setdefault("csv", csv):
            problems.append("sim_report.csv differs between runs of one seed")
        rmse = [float(v) for v in _PER_CAMERA_RE.findall(stdouts[0])]
        if len(rmse) != len(scene.cameras):
            problems.append(f"expected {len(scene.cameras)} per-camera RMSE lines, "
                            f"found {len(rmse)}")
        elif not all(math.isfinite(v) and v > 0.0 for v in rmse):
            problems.append(f"per-camera RMSE not finite and positive: {rmse}")
        return problems, {}

    command = ["simulate", "scene.txt", "--seed", str(seed), "--draws", str(SIM_DRAWS),
               "--out-dir", "sim-out"]
    units = len(scene.cameras) * len(scene.objects) * frames * SIM_DRAWS
    return Prepared([command], units, check)


# ---------------------------------------------------------------------------
# icp-recovery

_CASE_RE = re.compile(r"dt +(\S+) mm +dr +(\S+) deg +\((\d+) iters, converged=(\w+)\)")
_MEAN_RE = re.compile(r"mean (translation|rotation) error: +(\S+) ")


def _prepare_icp(seed: int, workdir: Path) -> Prepared:
    def check(workdir: Path, stdouts: list[str]):
        cases = _CASE_RE.findall(stdouts[0])
        means = dict(_MEAN_RE.findall(stdouts[0]))
        if len(cases) != ICP_CASES or set(means) != {"translation", "rotation"}:
            return [f"icp-bench output has {len(cases)} cases and means "
                    f"{sorted(means)}; expected {ICP_CASES} cases and both means"], {}
        problems = []
        stalled = sum(c[3] != "True" for c in cases)
        if stalled:
            problems.append(f"{stalled} of {ICP_CASES} recovery cases did not converge")
        dt, dr = float(means["translation"]), float(means["rotation"])
        if dt > ICP_MAX_MEAN_DT_MM or dr > ICP_MAX_MEAN_DR_DEG:
            problems.append(f"mean recovery error {dt} mm / {dr} deg exceeds "
                            f"{ICP_MAX_MEAN_DT_MM} mm / {ICP_MAX_MEAN_DR_DEG} deg")
        return problems, {"pose_dt_mm": dt, "pose_dr_deg": dr}

    return Prepared([["icp-bench", "--seed", str(seed)]], ICP_CASES, check)


# ---------------------------------------------------------------------------
# iou-pooled
#
# True positives are jittered copies of GT boxes whose IoU with their own box
# spreads around the 0.5 threshold, so an IoU that is off by a little moves
# the mAP. The expected mAP is computed here with an IoU by scipy half-space
# intersection, independent of the program's clip-and-hull construction, and
# with the program's documented greedy matching.


def _place_gt_boxes(rng, count):
    half = rng.uniform(25.0, 45.0, size=(count, 3))
    radius = np.linalg.norm(half, axis=1)
    centers = []
    while len(centers) < count:  # disjoint bounding spheres, as objects on a table
        c = rng.uniform(-300.0, 300.0, size=3)
        i = len(centers)
        if all(np.linalg.norm(c - centers[j]) > radius[i] + radius[j] + 10.0
               for j in range(i)):
            centers.append(c)
    return [OrientedBox(c, h, random_rotation(rng)) for c, h in zip(centers, half)]


def _jittered(box: OrientedBox, rng) -> OrientedBox:
    # IoU with the source box: quartiles ~0.51 / 0.56 / 0.61, 8% within 0.01 of 0.5
    return OrientedBox(box.center + rng.uniform(-12.0, 12.0, 3),
                       box.half_extents * rng.uniform(0.75, 1.25, 3),
                       random_rotation(rng, 20.0) @ box.rotation)


def _false_positive(anchor: OrientedBox, rng) -> OrientedBox:
    return OrientedBox(anchor.center + rng.uniform(-45.0, 45.0, 3),
                       rng.uniform(6.0, 110.0, 3), random_rotation(rng))


def reference_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Oriented-box IoU as the volume of the intersection of 12 half-spaces."""
    if (np.linalg.norm(a.center - b.center)
            >= np.linalg.norm(a.half_extents) + np.linalg.norm(b.half_extents)):
        return 0.0
    normals = np.vstack([a.rotation.T, -a.rotation.T, b.rotation.T, -b.rotation.T])
    offsets = np.concatenate([a.rotation.T @ a.center + a.half_extents,
                              a.half_extents - a.rotation.T @ a.center,
                              b.rotation.T @ b.center + b.half_extents,
                              b.half_extents - b.rotation.T @ b.center])
    # deepest interior point (Chebyshev centre); the normals are unit vectors
    lp = linprog([0.0, 0.0, 0.0, -1.0], A_ub=np.hstack([normals, np.ones((12, 1))]),
                 b_ub=offsets, bounds=[(None, None)] * 3 + [(0.0, None)])
    if lp.status != 0 or lp.x[3] < 1e-6:
        return 0.0
    corners = HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                                    lp.x[:3]).intersections
    inter = ConvexHull(corners).volume
    return inter / (8.0 * np.prod(a.half_extents) + 8.0 * np.prod(b.half_extents) - inter)


def reference_ap(predictions, ground_truth, threshold: float) -> float:
    """mAP by score-descending greedy matching, as `metrics.average_precision`
    documents it: each prediction takes the unmatched GT box of its category
    with the highest IoU, if that IoU reaches the threshold."""
    aps = []
    for cat in sorted({g.category for g in ground_truth}):
        gts = [g.box for g in ground_truth if g.category == cat]
        preds = [p for p in predictions if p.category == cat]
        matched = [False] * len(gts)
        tp = []
        for p in sorted(preds, key=lambda p: -p.score):
            best, best_j = 0.0, -1
            for j, gt in enumerate(gts):
                if not matched[j]:
                    v = reference_iou(p.box, gt)
                    if v > best:
                        best, best_j = v, j
            tp.append(best_j >= 0 and best >= threshold)
            if tp[-1]:
                matched[best_j] = True
        tp_cum = np.cumsum(tp, dtype=float)
        recall = tp_cum / len(gts)
        precision = tp_cum / np.arange(1, len(tp) + 1)
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        aps.append(float(np.sum(np.diff(recall, prepend=0.0) * envelope)))
    return float(np.mean(aps))


def _prepare_iou(seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    ground_truth, predictions = [], []
    for cat in DEFAULT_CATEGORIES:
        gts = _place_gt_boxes(rng, IOU_GT)
        ground_truth += [GroundTruthBox(cat, b) for b in gts]
        detected = rng.choice(IOU_GT, size=IOU_TP, replace=False)
        predictions += [Detection(cat, _jittered(gts[i], rng), float(rng.uniform(0.3, 1.0)))
                        for i in detected]
        predictions += [Detection(cat, _false_positive(gts[int(rng.integers(IOU_GT))], rng),
                                  float(rng.uniform(0.0, 0.8)))
                        for _ in range(IOU_FP)]
    fileio.save_ground_truth_csv(workdir / "gt.csv", ground_truth)
    fileio.save_predictions_csv(workdir / "pred.csv", predictions)
    _write_truth(workdir, {"mean_ap": reference_ap(predictions, ground_truth,
                                                   IOU_THRESHOLD)})

    def check(workdir: Path, stdouts: list[str]):
        want = _read_truth(workdir)["mean_ap"]
        text = (workdir / "iou-report.csv").read_text()
        found = re.search(r"^# mean_ap=(\S+)$", text, re.M)
        if not found:
            return ["eval-iou report has no mean_ap line"], {}
        got = float(found.group(1))
        if abs(got - want) > AP_TOLERANCE:
            return [f"mAP {got!r} differs from the reference {want!r}"], {}
        return [], {}

    command = ["eval-iou", "gt.csv", "pred.csv", "--threshold", str(IOU_THRESHOLD),
               "--out", "iou-report.csv"]
    units = len(DEFAULT_CATEGORIES) * IOU_GT * (IOU_TP + IOU_FP)
    return Prepared([command], units, check)


# ---------------------------------------------------------------------------
# annotate-session


def _session_meshes(rng) -> list[Mesh]:
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return [chamfered_box(width=u(45, 80), depth=u(30, 60), height=u(25, 60)),
            cup(radius_bottom=u(24, 32), radius_top=u(33, 44), height=u(75, 105)),
            blade(length=u(150, 200), width=u(22, 30), thickness=u(5, 8))]


def _write_pivot_inputs(workdir: Path, rng) -> dict:
    tip = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(120, 200)])
    pivot = np.array([rng.uniform(300, 600), rng.uniform(-200, 200), rng.uniform(50, 200)])
    poses = []
    for _ in range(40):
        R = random_rotation(rng, 40.0)
        poses.append(Pose(R, pivot - R @ tip + rng.normal(0.0, 0.05, 3)))
    fileio.save_pose_list(workdir / "pivot-poses.txt", poses)
    return {"tip": tip.tolist(), "pivot": pivot.tolist()}


def _write_handeye_inputs(workdir: Path, rng) -> dict:
    cam_to_ee = Pose(random_rotation(rng), rng.uniform(-80.0, 80.0, 3))
    marker = Pose(random_rotation(rng), np.array([450.0, 0.0, 0.0]) + rng.uniform(-50, 50, 3))
    board_points = default_board_points()
    measured = _transform(marker.rotation, marker.translation, board_points)
    fileio.save_marker_board(workdir / "board.txt", MarkerBoard(
        board_points, measured + rng.normal(0.0, 0.05, measured.shape)))
    views = []
    for _ in range(12):
        ee = Pose(random_rotation(rng), np.array([450.0, 0.0, 350.0])
                  + rng.uniform(-300, 300, 3))
        # marker_in_cam = inv(ee * cam_to_ee) * marker, plus detection noise
        R_cam = ee.rotation @ cam_to_ee.rotation
        t_cam = ee.rotation @ cam_to_ee.translation + ee.translation
        R = random_rotation(rng, 0.1) @ R_cam.T @ marker.rotation
        t = R_cam.T @ (marker.translation - t_cam) + rng.normal(0.0, 0.2, 3)
        views.append(HandEyeView(ee, Pose(R, t)))
    fileio.save_views(workdir / "views.txt", views)
    return _truth_pose(cam_to_ee)


def _write_object_inputs(workdir: Path, k: int, mesh: Mesh, rng) -> dict:
    truth = Pose(random_rotation(rng), np.array([rng.uniform(350, 650),
                                                 rng.uniform(-200, 200),
                                                 rng.uniform(0, 100)]))
    save_obj(mesh, workdir / f"object{k}.obj")
    surface = _surface_points(mesh, 40, rng)
    fileio.save_point_list(workdir / f"object{k}-points.txt",
                           _transform(truth.rotation, truth.translation, surface)
                           + rng.normal(0.0, 0.1, surface.shape))
    keypoints = mesh.vertices[rng.choice(len(mesh.vertices), size=6, replace=False)]
    measured = _transform(truth.rotation, truth.translation, keypoints)
    fileio.save_correspondences(workdir / f"object{k}-keypoints.txt", Correspondences(
        measured + rng.normal(0.0, 0.3, measured.shape), keypoints))
    return _truth_pose(truth)


_CAM_TO_EE_RE = re.compile(r"cam-to-ee: +q = \(([^)]*)\) +t = \(([^)]*)\) mm")


def _prepare_session(seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng([seed, 4])
    truth = {"pivot": _write_pivot_inputs(workdir, rng),
             "cam_to_ee": _write_handeye_inputs(workdir, rng),
             "objects": [_write_object_inputs(workdir, k, mesh, rng)
                         for k, mesh in enumerate(_session_meshes(rng))]}
    _write_truth(workdir, truth)
    n_objects = len(truth["objects"])

    def pose_errors(truth_pose, R, t):
        return (float(np.linalg.norm(np.asarray(truth_pose["t"]) - t)),
                rotation_angle_deg(truth_pose["R"], R))

    def check(workdir: Path, stdouts: list[str]):
        truth = _read_truth(workdir)
        problems = []
        row = [float(v) for v in _report_rows(workdir / "pivot.csv")[0].split(",")]
        for name, got in (("tip", row[0:3]), ("pivot", row[3:6])):
            err = float(np.linalg.norm(np.asarray(truth["pivot"][name]) - got))
            if err > PIVOT_TOL_MM:
                problems.append(f"pivot {name} off by {err:.3f} mm")
        found = _CAM_TO_EE_RE.search(stdouts[1])
        if not found:
            problems.append("handeye output has no cam-to-ee line")
        else:
            q, t = ([float(v) for v in g.split(",")] for g in found.groups())
            dt, dr = pose_errors(truth["cam_to_ee"], quat_matrix(q), np.array(t))
            if dt > HANDEYE_TOL_MM or dr > HANDEYE_TOL_DEG:
                problems.append(f"hand-eye off by {dt:.3f} mm / {dr:.3f} deg")
        errors = []
        for k, truth_pose in enumerate(truth["objects"]):
            refined = fileio.load_pose_list(workdir / f"object{k}-pose.txt")[0]
            dt, dr = pose_errors(truth_pose, refined.rotation, refined.translation)
            errors.append((dt, dr))
            if dt > ANNOTATE_TOL_MM or dr > ANNOTATE_TOL_DEG:
                problems.append(f"object {k} pose off by {dt:.3f} mm / {dr:.3f} deg")
        dt, dr = np.mean(errors, axis=0)
        return problems, {"pose_dt_mm": float(dt), "pose_dr_deg": float(dr)}

    commands = [["pivot-calib", "pivot-poses.txt", "--out", "pivot.csv"],
                ["handeye", "board.txt", "views.txt", "--out", "handeye.csv"]]
    commands += [["annotate", f"object{k}-points.txt", f"object{k}.obj",
                  f"object{k}-keypoints.txt", "--out", f"object{k}-pose.txt"]
                 for k in range(n_objects)]
    return Prepared(commands, len(commands), check)


WORKLOADS = {w.name: w for w in (
    Workload("sim-phocal",
             "annotation-quality study: Pose construction, compose, apply and "
             "pointwise RMSE; no registration or IoU code",
             "evaluations", _prepare_sim),
    Workload("icp-recovery",
             "pose recovery: kd-tree builds dominate (15 builds of 200k points "
             "where 3 would do); where tree caching shows",
             "cases", _prepare_icp),
    Workload("iou-pooled",
             "pooled detections: exact oriented IoU on every candidate pair, few "
             "of which overlap; where pair pruning shows",
             "pairs", _prepare_iou),
    Workload("annotate-session",
             "operator session of 5 short commands: start-up dominates; pivot, "
             "hand-eye, OBJ and file parsers; one tree per object, bypasses caching",
             "invocations", _prepare_session),
)}
