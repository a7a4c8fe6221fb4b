"""Object 6D pose annotation: keypoint initial pose plus ICP refinement.

The annotation flow mirrors the physical procedure: keypoints measured with
the calibrated tip are matched to picked model keypoints for an initial
pose, then sparse tip-measured surface points are registered to dense
area-uniform surface samples of the model mesh with point-to-point ICP.

The caller owns the surface: it draws the samples once, builds one
`SpatialIndex` over them and passes that index to every `icp_refine` against
the same mesh, so the kd-tree is built once per mesh, not once per refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, ValidationError
from .geometry import (Pose, apply, axis_angle, invert, random_unit_vector,
                       rotation_distance)
from .mesh import Mesh, sample_surface

# Points are treated as collinear when the span of the centered set collapses
# below this relative to its largest singular value.
_COLLINEAR_RCOND = 1e-9


@dataclass(frozen=True)
class Correspondences:
    """Paired keypoints: measured in the robot base frame, model in mesh frame."""

    measured: np.ndarray  # (K, 3) mm, base frame
    model: np.ndarray  # (K, 3) mm, model frame

    def __post_init__(self):
        measured = np.asarray(self.measured, dtype=float).reshape(-1, 3)
        model = np.asarray(self.model, dtype=float).reshape(-1, 3)
        if len(measured) != len(model):
            raise ValidationError(
                f"correspondence lists differ in length: {len(measured)} measured "
                f"vs {len(model)} model points")
        if len(measured) < 3:
            raise ValidationError(f"need >= 3 correspondences, got {len(measured)}")
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "model", model)


def _kabsch(source: np.ndarray, target: np.ndarray):
    """Least-squares rotation+translation mapping source onto target (no scale)."""
    src_c = source.mean(axis=0)
    dst_c = target.mean(axis=0)
    H = (source - src_c).T @ (target - dst_c)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = dst_c - R @ src_c
    return R, t


def absolute_orientation(model_points, measured_points) -> tuple[Pose, float]:
    """Closed-form rigid transform mapping model points onto measured points.

    Returns (pose, residual_rms_mm). Raises DegenerateGeometryError for
    fewer than 3 points or collinear model points, where the rotation is
    not unique.
    """
    model = np.asarray(model_points, dtype=float).reshape(-1, 3)
    measured = np.asarray(measured_points, dtype=float).reshape(-1, 3)
    if len(model) != len(measured):
        raise ValidationError(
            f"point lists differ in length: {len(model)} model vs "
            f"{len(measured)} measured")
    if len(model) < 3:
        raise DegenerateGeometryError(
            f"absolute orientation needs >= 3 points, got {len(model)}")
    centered = model - model.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= _COLLINEAR_RCOND * max(sv[0], 1.0):
        raise DegenerateGeometryError(
            "model points are collinear; rotation about the line is free")
    R, t = _kabsch(model, measured)
    pose = Pose(R, t)
    residual = apply(pose, model) - measured
    rms = float(np.sqrt(np.mean(np.sum(residual ** 2, axis=1))))
    return pose, rms


def initial_pose(c: Correspondences) -> tuple[Pose, float]:
    """Initial object pose from manually picked keypoint correspondences."""
    return absolute_orientation(c.model, c.measured)


def pose_error(gt: Pose, est: Pose) -> tuple[float, float]:
    """(translation error mm, rotation error degrees) between two poses."""
    dt = float(np.linalg.norm(gt.translation - est.translation))
    dr = rotation_distance(gt.rotation, est.rotation)
    return dt, dr


class SpatialIndex:
    """Nearest-neighbor index over a fixed point set (balanced kd-tree).

    Over a mesh's surface samples it is the model side of ICP, which never
    changes between refinements: build it once per mesh and reuse it.
    """

    def __init__(self, points):
        # scipy loads here, not at import: commands that build no index skip it
        from scipy.spatial import cKDTree

        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        if len(self.points) == 0:
            raise ValidationError("cannot index an empty point set")
        self._tree = cKDTree(self.points, balanced_tree=True)

    def query(self, queries):
        """For each query point: (distance, index) of the nearest point."""
        dist, idx = self._tree.query(np.asarray(queries, dtype=float))
        return dist, idx


@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 100
    tol_translation_mm: float = 1e-4  # convergence threshold on pose delta
    tol_rotation_deg: float = 1e-4
    max_correspondence_mm: float = math.inf  # pairs beyond this are dropped
    surface_samples: int = 50_000

    def __post_init__(self):
        for name in ("max_iterations", "tol_translation_mm", "tol_rotation_deg",
                     "max_correspondence_mm", "surface_samples"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"IcpParams.{name} must be positive")


@dataclass
class IcpResult:
    pose: Pose
    iterations: int
    converged: bool
    rms_distance: float  # final rms point-to-sample distance, mm
    mean_distance: float
    rms_history: list[float] = field(default_factory=list)


def icp_refine(measured_points, surface: SpatialIndex, initial: Pose,
               params: IcpParams = IcpParams()) -> IcpResult:
    """Refine a model-to-base pose by point-to-point ICP.

    Measured points live in the base frame. `surface` indexes the model's
    area-uniform surface samples in the model frame; the caller builds it
    (from `params.surface_samples` samples, by convention) and may reuse it
    for any number of refinements against the same mesh. Each iteration
    matches the measured points to their nearest surface sample under the
    current pose and re-solves the rigid alignment in closed form. Stops
    when the pose delta drops below the thresholds or after max_iterations
    (then the result is returned with converged=False rather than raising).
    """
    measured = np.asarray(measured_points, dtype=float).reshape(-1, 3)
    if len(measured) < 3:
        raise ValidationError(f"ICP needs >= 3 measured points, got {len(measured)}")

    pose = initial
    trimming = math.isfinite(params.max_correspondence_mm)
    rms_history: list[float] = []
    converged = False
    iterations = 0
    dist = np.zeros(len(measured))

    for iterations in range(1, params.max_iterations + 1):
        # nearest sample under the current pose == nearest in model frame
        # to the back-transformed measured points (the index never moves)
        local = apply(invert(pose), measured)
        dist, idx = surface.query(local)
        matched = surface.points[idx]
        keep = dist <= params.max_correspondence_mm if trimming else slice(None)
        src = matched[keep]
        dst = measured[keep]
        if len(src) < 3:
            break  # trimmed away too much; report non-converged
        rms_history.append(float(np.sqrt(np.mean(dist ** 2))))

        R, t = _kabsch(src, dst)
        new_pose = Pose(R, t)
        dt, dr = pose_error(pose, new_pose)
        pose = new_pose
        if dt < params.tol_translation_mm and dr < params.tol_rotation_deg:
            converged = True
            break

    final_local = apply(invert(pose), measured)
    dist, _ = surface.query(final_local)
    return IcpResult(pose=pose, iterations=iterations, converged=converged,
                     rms_distance=float(np.sqrt(np.mean(dist ** 2))),
                     mean_distance=float(dist.mean()),
                     rms_history=rms_history)


# ---------------------------------------------------------------------------
# Pose recovery benchmark (the annotation-refinement accuracy protocol)


@dataclass
class RecoveryCase:
    mesh_name: str
    translation_error_mm: float
    rotation_error_deg: float
    iterations: int
    converged: bool


@dataclass
class RecoveryReport:
    cases: list[RecoveryCase]
    mean_translation_mm: float
    mean_rotation_deg: float

    # annotation accuracy of the original physical pipeline, for comparison
    reference_translation_mm: float = 0.20
    reference_rotation_deg: float = 0.38


def _farthest_point_subset(points: np.ndarray, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    start = int(rng.integers(len(points)))
    chosen = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    while len(chosen) < count:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[chosen]


def sample_patch(mesh: Mesh, count: int, rng: np.random.Generator,
                 patch_radius_mm: float) -> np.ndarray:
    """Pick `count` well-spread surface points on a localized surface patch.

    Mirrors tip measurements taken on a specific area of the object: a seed
    point is drawn on the surface, candidates within the patch radius are
    kept (falling back to the nearest candidates if the patch is sparse),
    and the measured points are spread over the patch by farthest-point
    selection, the way an annotator distributes tip touches.
    """
    candidates = sample_surface(mesh, max(count * 40, 2000), rng)
    seed = candidates[int(rng.integers(len(candidates)))]
    d = np.linalg.norm(candidates - seed, axis=1)
    inside = np.flatnonzero(d <= patch_radius_mm)
    if len(inside) < count:
        inside = np.argsort(d)[:max(count, 64)]
    return _farthest_point_subset(candidates[inside], count, rng)


def random_pose_perturbation(rng: np.random.Generator,
                             max_translation_mm: float,
                             max_rotation_deg: float) -> Pose:
    """Uniform per-axis translation plus a rotation of uniform angle about a
    uniform random axis."""
    t = rng.uniform(-max_translation_mm, max_translation_mm, size=3)
    R = axis_angle(random_unit_vector(rng), rng.uniform(0.0, max_rotation_deg))
    return Pose(R, t)


def default_benchmark_meshes() -> list[Mesh]:
    from .mesh import blade, chamfered_box, cup

    return [chamfered_box(), cup(), blade()]


def recovery_benchmark(rng: np.random.Generator,
                       meshes: list[Mesh] | None = None,
                       perturbations_per_mesh: int = 5,
                       n_points: int = 25,
                       point_noise_mm: float = 0.2,
                       max_translation_mm: float = 2.0,
                       max_rotation_deg: float = 4.0,
                       patch_fraction: float = 0.85,
                       params: IcpParams = IcpParams(surface_samples=200_000)) -> RecoveryReport:
    """Measure how well ICP recovers a perturbed pose from noisy patch points.

    Per mesh: pick n_points once on a surface patch whose radius is
    patch_fraction of the bounding-box diagonal; per trial: add per-axis
    uniform noise of +-point_noise_mm to them, perturb the true (identity)
    pose by +-max_translation_mm per axis and up to max_rotation_deg about
    a random axis, run ICP from the perturbed pose and record the
    remaining pose error. One surface index is built per mesh and shared by
    all of its trials.
    """
    if meshes is None:
        meshes = default_benchmark_meshes()
    cases = []
    for mesh in meshes:
        surface = SpatialIndex(sample_surface(mesh, params.surface_samples, rng))
        lo, hi = mesh.bounds()
        patch_radius = patch_fraction * float(np.linalg.norm(hi - lo))
        patch = sample_patch(mesh, n_points, rng, patch_radius)
        for _ in range(perturbations_per_mesh):
            noise = rng.uniform(-point_noise_mm, point_noise_mm, size=patch.shape)
            measured = patch + noise
            start = random_pose_perturbation(rng, max_translation_mm, max_rotation_deg)
            result = icp_refine(measured, surface, start, params)
            dt, dr = pose_error(Pose.identity(), result.pose)
            cases.append(RecoveryCase(mesh.name, dt, dr,
                                      result.iterations, result.converged))
        del surface  # free this mesh's tree before the next one is built
    return RecoveryReport(
        cases=cases,
        mean_translation_mm=float(np.mean([c.translation_error_mm for c in cases])),
        mean_rotation_deg=float(np.mean([c.rotation_error_deg for c in cases])),
    )
