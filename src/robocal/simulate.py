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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SearchFailureError, ValidationError
from .geometry import (Pose, _as_unit_vec3, _trusted_pose, apply, axis_angle,
                       compose, invert, make_rng, random_unit_vector)
from .handeye import MarkerBoard, default_board_points, synthesize_views
from .mesh import procedural_ref, resolve_mesh, surface_moment

# rng stream layout per simulation seed: two streams per draw (object noise,
# hand-eye perturbation), numbered from 1; stream 0 is left unused so that a seed
# keeps the noise draws it gave when stream 0 sampled mesh surfaces


def _draw_streams(draw: int) -> tuple[int, int]:
    return 1 + 2 * draw, 2 + 2 * draw


@dataclass(frozen=True)
class SceneObject:
    name: str
    mesh_ref: str  # 'proc:...' or OBJ path
    pose: Pose  # object to robot base


@dataclass(frozen=True)
class Camera:
    name: str
    cam_to_ee: Pose


@dataclass(frozen=True)
class Trajectory:
    name: str
    poses: tuple  # end-effector stop poses, in order

    def __post_init__(self):
        poses = tuple(self.poses)
        if len(poses) < 1:
            raise ValidationError(f"trajectory {self.name!r} has no poses")
        object.__setattr__(self, "poses", poses)


@dataclass(frozen=True)
class SceneConfig:
    objects: tuple
    cameras: tuple
    trajectories: tuple

    def __post_init__(self):
        objects = tuple(self.objects)
        cameras = tuple(self.cameras)
        trajectories = tuple(self.trajectories)
        if not objects:
            raise ValidationError("scene needs >= 1 object")
        if not cameras:
            raise ValidationError("scene needs >= 1 camera")
        if not trajectories:
            raise ValidationError("scene needs >= 1 trajectory")
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "cameras", cameras)
        object.__setattr__(self, "trajectories", trajectories)


@dataclass(frozen=True)
class NoiseSpec:
    obj_translation_mm: float = 0.20
    obj_rotation_deg: float = 0.38
    # per-camera target for the evaluated hand-eye RMSE; cameras missing
    # from the mapping (or mapped to 0) get no hand-eye perturbation
    handeye_target_rmse: dict = field(
        default_factory=lambda: {"rgbd": 0.89, "polarization": 0.83})
    seed: int = 0

    def __post_init__(self):
        if not all(_finite_non_negative(v) for v in
                   (self.obj_translation_mm, self.obj_rotation_deg)):
            raise ValidationError("noise magnitudes must be finite and non-negative")
        for name, value in self.handeye_target_rmse.items():
            if not _finite_non_negative(value):
                raise ValidationError(
                    f"hand-eye target for {name!r} must be finite and non-negative")


def _finite_non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0


@dataclass
class CalibratedPerturbation:
    pose: Pose  # the perturbed cam-to-ee transform
    achieved_rmse_mm: float
    evaluations: int


@dataclass
class SimReport:
    camera_names: list[str]
    object_names: list[str]
    # first-draw detail
    frame_rmse: dict  # (camera, object) -> per-frame rmse array, mm
    per_object_rmse: dict  # (camera, object) -> mean over frames, mm
    per_camera_rmse: dict  # camera -> mean over objects, mm
    handeye_perturbations: dict  # camera -> CalibratedPerturbation | None
    # across draws
    draws: int
    per_camera_rmse_draws: dict  # camera -> array of per-draw overall rmse
    per_camera_rmse_mean: dict  # camera -> mean over draws


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
    t_dir = pose.rotation @ _as_unit_vec3(translation_dir, "translation direction")
    axis = pose.rotation @ _as_unit_vec3(rotation_axis, "rotation axis")
    K = np.cross(axis, np.eye(3)).T  # K @ v = axis x v
    theta = math.radians(rotation_deg)
    rotation = (math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)) @ pose.rotation
    return np.column_stack([rotation, translation_mm * t_dir])


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
    excesses = []  # closed-form RMSE minus target, per evaluation

    def excess(scale: float) -> float:
        d = _perturbation(cam_to_ee, u_t, scale * base_t, u_r, scale * base_r)
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


def _marker_rig(scene: SceneConfig, views_per_camera: int = 10):
    """Deterministic board-and-views rig used to calibrate hand-eye noise.

    Derived covariantly from the scene (marker pose from the object layout,
    views from the first trajectory) so a rigid re-basing of the scene
    moves the rig along with it.
    """
    anchor = scene.objects[0].pose.rotation
    center = np.mean([o.pose.translation for o in scene.objects], axis=0)
    marker_base = _trusted_pose(anchor, center)
    board_pts = default_board_points()
    board = MarkerBoard(board_pts, apply(marker_base, board_pts))

    stops = scene.trajectories[0].poses
    idx = np.unique(np.linspace(0, len(stops) - 1,
                                min(views_per_camera, len(stops))).round().astype(int))
    ee_poses = [stops[i] for i in idx]
    return marker_base, board, ee_poses


def simulate_annotation_error(scene: SceneConfig, spec: NoiseSpec, *,
                              draws: int = 1,
                              base_dir=None) -> SimReport:
    """Run the simulated acquisition and report pointwise RMSE.

    Per draw: one noise draw per object and one calibrated hand-eye
    perturbation per camera, then every camera replays every trajectory and
    the RMSE over each object's surface, exact from its second moment, is
    aggregated per frame, then per object, then per camera. The first draw
    keeps its full per-frame series; additional draws contribute to the
    per-camera means.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    # resolve every mesh up front: bad references fail before any simulation
    moments = {obj.name: surface_moment(resolve_mesh(obj.mesh_ref, base_dir))
               for obj in scene.objects}

    marker_base, board, rig_ee_poses = _marker_rig(scene)
    rig_views = {cam.name: synthesize_views(cam.cam_to_ee, marker_base, rig_ee_poses)
                 for cam in scene.cameras}

    # (frames, 4, 4): base to end-effector at every stop, in replay order
    ee_inv = np.stack([invert(pose).as_matrix() for traj in scene.trajectories
                       for pose in traj.poses])

    camera_names = [c.name for c in scene.cameras]
    object_names = [o.name for o in scene.objects]

    per_camera_draws = {name: [] for name in camera_names}
    first_detail = None

    for draw in range(draws):
        obj_stream, calib_stream = _draw_streams(draw)
        obj_rng = make_rng(spec.seed, obj_stream)
        calib_rng = make_rng(spec.seed, calib_stream)

        perturbed_objects = {}
        for obj in scene.objects:  # one draw per object per run
            perturbed_objects[obj.name] = perturb_object_pose(obj.pose, spec, obj_rng)

        handeye_perturbations = {}
        frame_rmse = {}
        per_object = {}
        per_camera = {}
        for cam in scene.cameras:
            target = spec.handeye_target_rmse.get(cam.name, 0.0)
            calib = handeye_perturbations[cam.name] = (calibrate_handeye_perturbation(
                cam.cam_to_ee, board, rig_views[cam.name], target, calib_rng)
                if target > 0.0 else None)
            # left-multiplying both chains by T_cam_to_ee keeps their RMSE, so
            # the hand-eye error enters only through delta
            perturbed_cam = cam.cam_to_ee if calib is None else calib.pose
            delta = compose(cam.cam_to_ee, invert(perturbed_cam)).as_matrix()
            for obj in scene.objects:
                gt = ee_inv @ obj.pose.as_matrix()
                ann = delta @ ee_inv @ perturbed_objects[obj.name].as_matrix()
                series = _moment_rmse((gt - ann)[:, :3], moments[obj.name])
                frame_rmse[(cam.name, obj.name)] = series
                per_object[(cam.name, obj.name)] = float(series.mean())
            per_camera[cam.name] = float(np.mean(
                [per_object[(cam.name, obj.name)] for obj in scene.objects]))
            per_camera_draws[cam.name].append(per_camera[cam.name])

        if draw == 0:
            first_detail = (frame_rmse, per_object, per_camera, handeye_perturbations)

    frame_rmse, per_object, per_camera, handeye_perturbations = first_detail
    return SimReport(
        camera_names=camera_names,
        object_names=object_names,
        frame_rmse=frame_rmse,
        per_object_rmse=per_object,
        per_camera_rmse=per_camera,
        handeye_perturbations=handeye_perturbations,
        draws=draws,
        per_camera_rmse_draws={k: np.array(v) for k, v in per_camera_draws.items()},
        per_camera_rmse_mean={k: float(np.mean(v)) for k, v in per_camera_draws.items()},
    )


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
