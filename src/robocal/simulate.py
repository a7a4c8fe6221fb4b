"""Simulated annotation-quality evaluation.

Builds a synthetic tabletop scene, injects the calibrated error statistics
into object poses and camera hand-eye transforms, replays the recorded
trajectories and reports the pointwise RMSE between the ground-truth and
annotated pose chains:

    T_gt  = inv(T_cam_to_ee) * inv(T_ee_to_base) * T_obj_to_base
    T_ann = inv(T'_cam_to_ee) * inv(T_ee_to_base) * T'_obj_to_base

with T' the perturbed transforms. The RMSE is the exact mean over each
object's surface: for rigid A and B it is sqrt(tr(D M D^T)), with D the top
3x4 rows of A - B and M the surface's second moment (mesh.surface_moment),
so no surface points are sampled. Object-pose noise has fixed magnitude
(translation plus rotation about the object's own origin); the hand-eye
perturbation is solved on the same closed form so its board RMSE is a target.

The report holds two arrays, addressed by camera and object position: the
first draw's per-frame RMSE and every draw's per-camera RMSE. The report
writers take each mean over objects, frames or draws from them.
"""

from __future__ import annotations

import errno
import math
import os

import numpy as np

from .errors import SearchFailureError, ValidationError
from .geometry import (Pose, _as_unit_vec3, _Frozen, _set_fields, _trusted_pose, apply,
                       axis_angle, compose, invert, make_rng, random_unit_vector)
from .fileio import RunManifest, _fmt, _sidecar_path, atomic_write_text
from .handeye import MarkerBoard, default_board_points, synthesize_views
from .mesh import procedural_ref, resolve_mesh, surface_moment

# rng stream layout per simulation seed: two streams per draw (object noise,
# hand-eye perturbation), numbered from 1; stream 0 is left unused so that a seed
# keeps the noise draws it gave when stream 0 sampled mesh surfaces

# end-effector stops of the first trajectory at which the hand-eye rig views the board
RIG_VIEWS_PER_CAMERA = 10


def _draw_streams(draw: int) -> tuple[int, int]:
    return 1 + 2 * draw, 2 + 2 * draw


class SceneObject(_Frozen):
    __slots__ = ("name", "mesh_ref", "pose")

    def __init__(self, name: str, mesh_ref: str, pose: Pose):
        # mesh_ref is 'proc:...' or an OBJ path; pose maps object to robot base
        _set_fields(self, name=name, mesh_ref=mesh_ref, pose=pose)


class Camera(_Frozen):
    __slots__ = ("name", "cam_to_ee")

    def __init__(self, name: str, cam_to_ee: Pose):
        _set_fields(self, name=name, cam_to_ee=cam_to_ee)


class Trajectory(_Frozen):
    __slots__ = ("name", "poses")

    def __init__(self, name: str, poses):
        poses = tuple(poses)  # end-effector stop poses, in order
        if len(poses) < 1:
            raise ValidationError(f"trajectory {name!r} has no poses")
        _set_fields(self, name=name, poses=poses)


class SceneConfig(_Frozen):
    __slots__ = ("objects", "cameras", "trajectories")

    def __init__(self, objects, cameras, trajectories):
        objects = tuple(objects)
        cameras = tuple(cameras)
        trajectories = tuple(trajectories)
        if not objects:
            raise ValidationError("scene needs >= 1 object")
        if not cameras:
            raise ValidationError("scene needs >= 1 camera")
        if not trajectories:
            raise ValidationError("scene needs >= 1 trajectory")
        # hand-eye targets and report rows name a camera or object by its name
        for kind, items in (("camera", cameras), ("object", objects)):
            names = [item.name for item in items]
            if repeated := sorted({name for name in names if names.count(name) > 1}):
                raise ValidationError(f"{kind} name(s) {repeated} repeat; each "
                                      f"{kind} of a scene needs its own name")
        _set_fields(self, objects=objects, cameras=cameras, trajectories=trajectories)


class NoiseSpec(_Frozen):
    """The noise of a simulation: the object-pose error magnitudes and, per
    camera, the target for the evaluated hand-eye RMSE (a fresh copy of the
    paper's 0.89 / 0.83 mm by default). Cameras missing from the mapping, or
    mapped to 0, get no hand-eye perturbation."""

    __slots__ = ("obj_translation_mm", "obj_rotation_deg", "handeye_target_rmse", "seed")

    def __init__(self, obj_translation_mm: float = 0.20, obj_rotation_deg: float = 0.38,
                 handeye_target_rmse: dict | None = None, seed: int = 0):
        if handeye_target_rmse is None:
            handeye_target_rmse = {"rgbd": 0.89, "polarization": 0.83}
        if not all(_finite_non_negative(v) for v in (obj_translation_mm, obj_rotation_deg)):
            raise ValidationError("noise magnitudes must be finite and non-negative")
        for name, value in handeye_target_rmse.items():
            if not _finite_non_negative(value):
                raise ValidationError(
                    f"hand-eye target for {name!r} must be finite and non-negative")
        _set_fields(self, obj_translation_mm=obj_translation_mm,
                    obj_rotation_deg=obj_rotation_deg,
                    handeye_target_rmse=handeye_target_rmse, seed=seed)


def _finite_non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0


class CalibratedPerturbation:
    __slots__ = ("pose", "achieved_rmse_mm", "evaluations")

    def __init__(self, pose: Pose, achieved_rmse_mm: float, evaluations: int):
        self.pose = pose  # the perturbed cam-to-ee transform
        self.achieved_rmse_mm = achieved_rmse_mm
        self.evaluations = evaluations


class SimReport:
    """Pointwise RMSE of the annotated pose chains, by position: camera i is
    camera_names[i], object j is object_names[j]. Every mean is left to the
    reader: see sim_report_text.

    frame_rmse (cameras, objects, frames) is the first draw's, in mm;
    handeye_perturbations holds the first draw's CalibratedPerturbation (or
    None) per camera; camera_rmse (cameras, draws) is the mean over objects of
    the mean over frames, in mm."""

    __slots__ = ("camera_names", "object_names", "frame_rmse", "handeye_perturbations",
                 "camera_rmse")

    def __init__(self, camera_names: list[str], object_names: list[str],
                 frame_rmse: np.ndarray, handeye_perturbations: list,
                 camera_rmse: np.ndarray):
        self.camera_names = camera_names
        self.object_names = object_names
        self.frame_rmse = frame_rmse
        self.handeye_perturbations = handeye_perturbations
        self.camera_rmse = camera_rmse


def perturbed_pose(pose: Pose, translation_dir, translation_mm: float,
                   rotation_axis, rotation_deg: float) -> Pose:
    """Perturb a pose about its own origin.

    The rotation error multiplies the orientation only and the translation
    error adds to the position, so the pose error of the result is exactly
    (translation_mm, rotation_deg) regardless of where the pose sits.
    Directions are unit vectors in the pose's own frame, which keeps the
    whole simulation equivariant under re-basing the scene.
    """
    d = _perturbation(pose, translation_dir, translation_mm, rotation_axis, rotation_deg)
    return _trusted_pose(pose.rotation + d[:, :3], pose.translation + d[:, 3])


def _perturbation(pose: Pose, translation_dir, translation_mm: float,
                  rotation_axis, rotation_deg: float) -> np.ndarray:
    """perturbed_pose(...) minus pose, top 3x4 rows, at full relative precision;
    checks the inputs, as perturbed_pose builds its result unchecked."""
    if not (math.isfinite(translation_mm) and math.isfinite(rotation_deg)):
        raise ValidationError("perturbation magnitudes must be finite")
    delta = _perturbation_along(
        pose, _as_unit_vec3(translation_dir, "translation direction"),
        _as_unit_vec3(rotation_axis, "rotation axis"))
    return delta(translation_mm, rotation_deg)


def _perturbation_along(pose: Pose, translation_dir: np.ndarray,
                        rotation_axis: np.ndarray):
    """The function (translation_mm, rotation_deg) -> _perturbation(pose,
    translation_dir, translation_mm, rotation_axis, rotation_deg), for checked
    unit directions: the rotation generator is built once, here, and each call
    evaluates only its sine and cosine terms."""
    t_dir = pose.rotation @ translation_dir
    axis = pose.rotation @ rotation_axis
    K = np.cross(axis, np.eye(3)).T  # K @ v = axis x v
    K2 = K @ K

    def delta(translation_mm: float, rotation_deg: float) -> np.ndarray:
        theta = math.radians(rotation_deg)
        rotation = (math.sin(theta) * K + (1.0 - math.cos(theta)) * K2) @ pose.rotation
        return np.column_stack([rotation, translation_mm * t_dir])

    return delta


def perturb_object_pose(pose: Pose, spec: NoiseSpec,
                        rng: np.random.Generator) -> Pose:
    """Inject the annotation error statistics into one object pose.

    Two independent random unit vectors set the translation direction and
    the rotation axis; magnitudes come from the spec, so every draw moves
    the pose by exactly (obj_translation_mm, obj_rotation_deg).
    """
    u_t = random_unit_vector(rng)
    u_r = random_unit_vector(rng)
    return perturbed_pose(pose, u_t, spec.obj_translation_mm,
                          u_r, spec.obj_rotation_deg)


def _moment_rmse(d: np.ndarray, moment: np.ndarray):
    """sqrt(tr(d M d^T)) over the leading axes of d (..., 3, 4): the RMSE that
    rigid transforms differing by d give over points of second moment M."""
    return np.sqrt(np.einsum("...ij,jl,...il->...", d, moment, d))


def calibrate_handeye_perturbation(cam_to_ee: Pose, board: MarkerBoard,
                                   views, target_rmse: float,
                                   rng: np.random.Generator) -> CalibratedPerturbation:
    """Perturb cam_to_ee so that its board RMSE equals target_rmse.

    Directions and a rotation share are drawn once from rng; both magnitudes
    scale by the s that solves RMSE(s) = target_rmse, RMSE the closed form
    sqrt(tr(D M D^T)) with M the second moment of the views' camera-frame
    board points: evaluate_handeye's value for noise-free views of an
    exactly measured board, which _marker_rig + synthesize_views make.
    RMSE(0) = 0 and the translation part (>= 30%) makes RMSE unbounded, so
    doubling s from the small-angle guess 1 brackets a root; Illinois regula
    falsi closes it to rounding. `evaluations` counts closed-form RMSEs.
    """
    if not (math.isfinite(target_rmse) and target_rmse > 0):
        raise ValidationError(f"target RMSE must be finite and > 0, got {target_rmse}")
    views = list(views)
    if not views:
        raise ValidationError("perturbation calibration needs >= 1 view")
    points = np.concatenate([apply(v.marker_in_cam, board.board_points) for v in views])
    points = np.column_stack([points, np.ones(len(points))])
    moment = points.T @ points / len(points)
    lever = math.sqrt(np.trace(moment[:3, :3]))  # rms camera-to-point distance

    u_t = random_unit_vector(rng)
    u_r = random_unit_vector(rng)
    weight = rng.uniform(0.0, 0.7)
    base_t = (1.0 - weight) * target_rmse
    base_r = np.degrees(weight * target_rmse / max(lever, 1.0))
    delta = _perturbation_along(cam_to_ee, u_t, u_r)
    excesses = []  # closed-form RMSE minus target, per evaluation

    def excess(scale: float) -> float:
        d = delta(scale * base_t, scale * base_r)
        excesses.append(float(_moment_rmse(d, moment)) - target_rmse)
        return excesses[-1]

    a, g_a, b, g_b = 0.0, -target_rmse, 1.0, excess(1.0)
    while g_b < 0.0:
        a, g_a, b = b, g_b, 2.0 * b
        g_b = excess(b)
    while abs(g_b) > np.finfo(float).eps * target_rmse:  # a root lies between a and b
        c = b - g_b * (b - a) / (g_b - g_a)
        if (c - a) * (c - b) >= 0.0:
            break  # the bracket is closed to rounding
        g_c = excess(c)
        # keep the end that brackets the root; Illinois halves a kept end's value
        a, g_a = (b, g_b) if g_c * g_b < 0.0 else (a, g_a / 2.0)
        b, g_b = c, g_c
    return CalibratedPerturbation(
        perturbed_pose(cam_to_ee, u_t, b * base_t, u_r, b * base_r),
        target_rmse + g_b, len(excesses))


def _marker_rig(scene: SceneConfig):
    """Deterministic board-and-views rig used to calibrate hand-eye noise.

    Derived covariantly from the scene (marker pose from the object layout,
    RIG_VIEWS_PER_CAMERA views spread over the first trajectory) so a rigid
    re-basing of the scene moves the rig along with it.
    """
    anchor = scene.objects[0].pose.rotation
    center = np.mean([o.pose.translation for o in scene.objects], axis=0)
    marker_base = _trusted_pose(anchor, center)
    board_pts = default_board_points()
    board = MarkerBoard(board_pts, apply(marker_base, board_pts))

    stops = scene.trajectories[0].poses
    # ascending already; deduplicated in Python, as np.unique imports numpy.ma
    views = min(RIG_VIEWS_PER_CAMERA, len(stops))
    idx = sorted(set(np.linspace(0, len(stops) - 1, views).round().astype(int).tolist()))
    ee_poses = [stops[i] for i in idx]
    return marker_base, board, ee_poses


def simulate_annotation_error(scene: SceneConfig, spec: NoiseSpec, *,
                              draws: int = 1,
                              base_dir=None) -> SimReport:
    """Run the simulated acquisition and report pointwise RMSE.

    Per draw: one noise draw per object and one calibrated hand-eye
    perturbation per camera, then every camera replays every trajectory and
    the RMSE over each object's surface, exact from its second moment, is
    taken per frame, averaged per object, then per camera. The first draw
    keeps its per-frame series and hand-eye perturbations; every draw adds
    its per-camera RMSE.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    # resolve every mesh up front: bad references fail before any simulation
    moments = [surface_moment(resolve_mesh(obj.mesh_ref, base_dir))
               for obj in scene.objects]

    marker_base, board, rig_ee_poses = _marker_rig(scene)
    rig_views = [synthesize_views(cam.cam_to_ee, marker_base, rig_ee_poses)
                 for cam in scene.cameras]

    # (frames, 4, 4): base to end-effector at every stop, in replay order,
    # each the inverse (R^T, -R^T t) of a stop (R, t)
    stops = [pose for traj in scene.trajectories for pose in traj.poses]
    rt = np.stack([pose.rotation for pose in stops]).transpose(0, 2, 1)
    t = np.stack([pose.translation for pose in stops])[:, :, None]
    ee_inv = np.zeros((len(stops), 4, 4))
    ee_inv[:, :3, :3] = rt
    ee_inv[:, :3, 3] = -(rt @ t)[:, :, 0]
    ee_inv[:, 3, 3] = 1.0
    # the ground-truth chains up to the camera, which no draw changes
    gt = [ee_inv @ obj.pose.as_matrix() for obj in scene.objects]

    # (cameras, draws), so that a camera's mean over draws reduces one
    # contiguous row, summed in the order of the draws
    camera_rmse = np.empty((len(scene.cameras), draws))
    for draw in range(draws):
        obj_rng, calib_rng = (make_rng(spec.seed, s) for s in _draw_streams(draw))
        # one draw per object per run
        perturbed_objects = [perturb_object_pose(obj.pose, spec, obj_rng).as_matrix()
                             for obj in scene.objects]
        rmse = np.empty((len(scene.cameras), len(scene.objects), len(ee_inv)))
        calibs = []
        for i, cam in enumerate(scene.cameras):
            target = spec.handeye_target_rmse.get(cam.name, 0.0)
            calib = (calibrate_handeye_perturbation(
                cam.cam_to_ee, board, rig_views[i], target, calib_rng)
                if target > 0.0 else None)
            calibs.append(calib)
            # left-multiplying both chains by T_cam_to_ee keeps their RMSE, so
            # the hand-eye error enters only through T_cam_to_ee inv(T'_cam_to_ee)
            perturbed_cam = cam.cam_to_ee if calib is None else calib.pose
            chain = compose(cam.cam_to_ee, invert(perturbed_cam)).as_matrix() @ ee_inv
            for j, moment in enumerate(moments):
                rmse[i, j] = _moment_rmse((gt[j] - chain @ perturbed_objects[j])[:, :3],
                                          moment)
            camera_rmse[i, draw] = rmse[i].mean(axis=1).mean()
        if draw == 0:
            frame_rmse, handeye_perturbations = rmse, calibs

    return SimReport([c.name for c in scene.cameras], [o.name for o in scene.objects],
                     frame_rmse, handeye_perturbations, camera_rmse)


# ---------------------------------------------------------------------------
# Annotation-quality comparison table

# Published point-RMSE levels of other labeling setups, used as fixed
# reference lines when reporting simulated annotation quality.
REFERENCE_RMSE_MM = (
    ("depth-map labeling", ">=", 17.0),
    ("multi-view keypoints (opaque twin)", "=", 3.4),
    ("multi-view large-scale", "=", 2.3),
    ("robotic tip annotation", "=", 0.80),
)


def annotation_quality_table(achieved: dict[str, float]) -> str:
    """Aligned-text table comparing achieved RMSE against reference setups.

    `achieved` maps row labels (e.g. camera names) to RMSE in mm.
    """
    rows = [(label, f"{rel}{value:.2f}") for label, rel, value in REFERENCE_RMSE_MM]
    rows += [(f"simulated: {name}", f"{value:.2f}") for name, value in achieved.items()]
    width = max(len(label) for label, _ in rows)
    lines = [f"{'setup'.ljust(width)}  point RMSE [mm]",
             f"{'-' * width}  ---------------"]
    for label, value in rows:
        lines.append(f"{label.ljust(width)}  {value}")
    return "\n".join(lines)


def sim_report_csv(report: SimReport, manifest: RunManifest) -> str:
    lines = [manifest.embed_line(), "camera,object,frame,rmse_mm"]
    for cam, cam_rmse in zip(report.camera_names, report.frame_rmse):
        for obj, series in zip(report.object_names, cam_rmse):
            for k, v in enumerate(series):
                lines.append(f"{cam},{obj},{k},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def sim_report_text(report: SimReport, manifest: RunManifest) -> str:
    draws = report.camera_rmse.shape[1]
    # every mean the report shows, each over a contiguous row
    object_rmse = report.frame_rmse.mean(axis=2)
    draw_mean = report.camera_rmse.mean(axis=1)
    lines = [manifest.embed_line(), "simulated annotation-quality report", ""]
    lines.append(f"draws: {draws}")
    for i, cam in enumerate(report.camera_names):
        lines.append(f"\ncamera {cam}:")
        calib = report.handeye_perturbations[i]
        if calib is None:
            lines.append("  hand-eye perturbation: none (target 0)")
        else:
            lines.append(f"  hand-eye perturbation RMSE: "
                         f"{_fmt(calib.achieved_rmse_mm)} mm "
                         f"({calib.evaluations} evaluations)")
        for obj, value in zip(report.object_names, object_rmse[i]):
            lines.append(f"  {obj}: {_fmt(value)} mm")
        lines.append(f"  per-camera RMSE (first draw): "
                     f"{_fmt(report.camera_rmse[i, 0])} mm")
        if draws > 1:
            lines.append(f"  per-camera RMSE ({draws}-draw mean): "
                         f"{_fmt(draw_mean[i])} mm")
    lines.append("")
    lines.append(annotation_quality_table(dict(zip(report.camera_names, draw_mean))))
    return "\n".join(lines) + "\n"


def check_out_dir(out_dir) -> None:
    """Raise the error `save_sim_report` would give for an `out_dir` that is
    empty, or is or lies under something other than a directory; creates nothing."""
    path, error = out_dir, errno.EEXIST if out_dir else errno.ENOENT
    while path and not os.path.lexists(path):
        path, error = os.path.dirname(path), errno.ENOTDIR
    if not out_dir or (path and not os.path.isdir(path)):
        raise ValidationError(f"cannot create directory {out_dir}: {os.strerror(error)}")


def sim_report_paths(out_dir) -> tuple[str, str, str]:
    """The CSV, the text report and the manifest sidecar that
    `save_sim_report` writes into `out_dir`."""
    stem = os.path.join(out_dir, "sim_report")
    return stem + ".csv", stem + ".txt", _sidecar_path(stem)


def save_sim_report(out_dir, report: SimReport, manifest: RunManifest, text: str):
    """Write the report's CSV, its `text` (from sim_report_text) and the
    manifest sidecar into `out_dir`."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {out_dir}: "
                              f"{exc.strerror or exc}") from exc
    csv_path, txt_path, _ = sim_report_paths(out_dir)
    atomic_write_text(csv_path, sim_report_csv(report, manifest))
    atomic_write_text(txt_path, text)
    manifest.write_sidecar(os.path.join(out_dir, "sim_report"))
    return csv_path, txt_path


# ---------------------------------------------------------------------------
# Scene templates


def _look_at_pose(position, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """End-effector pose at `position` with its z-axis pointing at `target`."""
    p = np.asarray(position, dtype=float)
    z = np.asarray(target, dtype=float) - p
    z = z / np.linalg.norm(z)
    up = np.asarray(up, dtype=float)
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return _trusted_pose(np.column_stack([x, y, z]), p)


def _orbit_trajectory(name, rng, center, n_stops) -> Trajectory:
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    sweep = np.radians(rng.uniform(280.0, 340.0))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    poses = []
    for k in range(n_stops):
        f = k / max(n_stops - 1, 1)
        theta = theta0 + sweep * f
        radius = 560.0 + 70.0 * np.sin(2.0 * theta + phase) + rng.uniform(-15.0, 15.0)
        height = 430.0 + 170.0 * (0.5 + 0.5 * np.sin(1.7 * theta + phase)) \
            + rng.uniform(-10.0, 10.0)
        position = np.array([center[0] + radius * np.cos(theta),
                             center[1] + radius * np.sin(theta),
                             height])
        poses.append(_look_at_pose(position, center))
    return Trajectory(name, tuple(poses))


def _mesh_kind_params(kind: str, rng) -> dict:
    j = lambda lo, hi: float(rng.uniform(lo, hi))
    if kind == "box":
        return dict(width=j(45, 80), depth=j(30, 60), height=j(25, 60), chamfer=j(2, 5))
    if kind == "cup":
        return dict(radius_bottom=j(24, 32), radius_top=j(33, 44), height=j(75, 105))
    if kind == "can":
        return dict(radius=j(26, 38), height=j(90, 135))
    if kind == "bottle":
        return dict(radius=j(25, 36), neck_radius=j(10, 15), height=j(160, 240))
    if kind == "blade":
        return dict(length=j(150, 200), width=j(22, 30), thickness=j(5, 8))
    raise ValidationError(f"no parameter recipe for mesh kind {kind!r}")


def _phocal_like_scene(rng: np.random.Generator) -> SceneConfig:
    table_center = np.array([470.0, 0.0, 0.0])
    x_range = (330.0, 620.0)
    y_range = (-210.0, 210.0)
    margin = 6.0

    n_objects = int(rng.integers(5, 9))
    kinds = ["box", "cup", "can", "bottle", "blade"]
    objects = []
    boxes = []  # accepted world AABBs (min, max)
    for i in range(n_objects):
        kind = kinds[int(rng.integers(len(kinds)))]
        ref = procedural_ref(kind, **_mesh_kind_params(kind, rng))
        mesh = resolve_mesh(ref)
        for _ in range(300):
            yaw = axis_angle(np.array([0.0, 0.0, 1.0]), float(rng.uniform(0.0, 360.0)))
            rotated = mesh.vertices @ yaw.T
            lift = -rotated[:, 2].min()  # rest on the table plane z=0
            x = rng.uniform(*x_range)
            y = rng.uniform(*y_range)
            t = np.array([x, y, lift])
            lo = rotated.min(axis=0) + t - margin
            hi = rotated.max(axis=0) + t + margin
            if all(np.any(lo[:2] >= b[1][:2]) or np.any(hi[:2] <= b[0][:2])
                   for b in boxes):
                objects.append(SceneObject(f"obj{i:02d}-{kind}", ref, Pose(yaw, t)))
                boxes.append((lo, hi))
                break
    if len(objects) < 5:
        raise SearchFailureError(
            f"could only place {len(objects)} non-overlapping objects; "
            "template placement budget exhausted")

    cameras = (
        Camera("rgbd", Pose(axis_angle(np.array([1.0, 0.0, 0.0]), 8.0),
                            np.array([55.0, 42.0, 38.0]))),
        Camera("polarization", Pose(axis_angle(np.array([0.0, 1.0, 0.0]), -6.0),
                                    np.array([-48.0, 40.0, 52.0]))),
    )
    focus = table_center + np.array([0.0, 0.0, 60.0])
    trajectories = (
        _orbit_trajectory("traj-a", rng, focus, int(rng.integers(80, 121))),
        _orbit_trajectory("traj-b", rng, focus, int(rng.integers(80, 121))),
    )
    return SceneConfig(tuple(objects), cameras, trajectories)


SCENE_TEMPLATES = {
    "phocal-like": _phocal_like_scene,
}


def generate_scene(template: str, seed: int) -> SceneConfig:
    """Deterministic synthetic scene from a named template."""
    if template not in SCENE_TEMPLATES:
        raise ValidationError(
            f"unknown scene template {template!r}; available: "
            f"{sorted(SCENE_TEMPLATES)}")
    return SCENE_TEMPLATES[template](make_rng(seed))
