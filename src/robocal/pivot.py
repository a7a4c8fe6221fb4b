"""Tool-tip pivot calibration from end-effector poses.

The tool tip is held at a fixed point p while the arm pivots around it, so
each pose (R_i, t_i) gives R_i x + t_i = p for the tip offset x (Yaniv,
"Which pivot calibration?", SPIE Medical Imaging 2015). Eliminating
p = mean(R_i x + t_i) leaves the centred system (R_i - R_mean) x = t_mean - t_i,
whose one least-squares solve minimises the rms spread of the per-pose tips.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, ValidationError
from .geometry import Pose, _Frozen, _set_fields, rotation_distance

# Physical reference point: tip-location variance of the original robot
# setup, quoted alongside PivotResult.residual_rms in reports.
REFERENCE_TIP_VARIANCE_MM = 0.057

DEFAULT_MIN_DIVERSITY_DEG = 10.0


class PivotResult(_Frozen):
    """tip_offset: the tip in the end-effector frame, mm; pivot_point: the tip
    location in the base frame, mm; residual_rms: the rms spread of the per-pose
    tip locations (the tip variance), mm."""

    __slots__ = ("tip_offset", "pivot_point", "residual_rms", "n_poses")

    def __init__(self, tip_offset: np.ndarray, pivot_point: np.ndarray,
                 residual_rms: float, n_poses: int):
        _set_fields(self, tip_offset=tip_offset, pivot_point=pivot_point,
                    residual_rms=residual_rms, n_poses=n_poses)


def _check_diversity(poses, min_diversity_deg):
    rots = [p.rotation for p in poses]
    best = 0.0
    for i in range(len(rots)):
        for j in range(i + 1, len(rots)):
            best = max(best, rotation_distance(rots[i], rots[j]))
            if best >= min_diversity_deg:
                return
    raise DegenerateGeometryError(
        f"pose set has rotation diversity {best:.3f} deg, below the "
        f"{min_diversity_deg:g} deg minimum; pivot offset is unobservable")


def solve_pivot(poses, min_diversity_deg: float = DEFAULT_MIN_DIVERSITY_DEG) -> PivotResult:
    """Recover the tip offset from >= 3 poses pivoting about a fixed point.

    Returns the tip offset in the end-effector frame, the pivot location in
    the base frame (mean of per-pose tip positions) and the rms deviation of
    those positions from their mean.

    Raises ValidationError for fewer than 3 poses or a diversity minimum
    outside [0, 180] deg, and DegenerateGeometryError when the rotations do
    not determine the offset (e.g. identical or single-axis poses).
    """
    poses = list(poses)
    n = len(poses)
    if n < 3:
        raise ValidationError(f"pivot calibration needs >= 3 poses, got {n}")
    if not 0.0 <= min_diversity_deg <= 180.0:
        raise ValidationError(f"rotation diversity minimum must be in [0, 180] deg, "
                              f"got {min_diversity_deg!r}")
    _check_diversity(poses, min_diversity_deg)

    R = np.array([p.rotation for p in poses])
    t = np.array([p.translation for p in poses])
    tip, _, rank, _ = np.linalg.lstsq((R - R.mean(axis=0)).reshape(-1, 3),
                                      (t.mean(axis=0) - t).ravel(), rcond=None)
    if rank < 3:
        raise DegenerateGeometryError(
            f"stacked pivot system is rank {rank} (needs 3); "
            "pose set is a degenerate pivot configuration")

    tips = R @ tip + t
    pivot = tips.mean(axis=0)
    residual = float(np.sqrt(np.mean(np.sum((tips - pivot) ** 2, axis=1))))
    return PivotResult(tip_offset=tip, pivot_point=pivot,
                       residual_rms=residual, n_poses=n)


def synthesize_pivot_poses(tip_offset, pivot_point, n, rng, *,
                           translation_noise_mm: float = 0.0,
                           max_tilt_deg: float = 60.0):
    """Generate end-effector poses that pivot a known tip about a fixed point.

    Test and demo helper: draws rotations within a cone of the start
    orientation (so diversity is controlled), then places each translation
    so the tip lands exactly on the pivot, plus optional Gaussian noise.
    """
    from .geometry import axis_angle, random_unit_vector

    tip = np.asarray(tip_offset, dtype=float)
    pivot = np.asarray(pivot_point, dtype=float)
    poses = []
    for _ in range(n):
        axis = random_unit_vector(rng)
        angle = rng.uniform(-max_tilt_deg, max_tilt_deg)
        R = axis_angle(axis, angle)
        t = pivot - R @ tip
        if translation_noise_mm > 0.0:
            t = t + rng.normal(0.0, translation_noise_mm, size=3)
        poses.append(Pose(R, t))
    return poses
