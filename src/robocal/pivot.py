"""Tool-tip pivot calibration from end-effector poses.

The tool tip is held at a fixed point while the arm pivots around it. Each
pair of end-effector poses (R_i, t_i), (R_j, t_j) then constrains the tip
offset x through (R_i - R_j) x = t_j - t_i. The solver stacks consecutive
pairs plus a cyclic closing pair and takes the minimum-norm least-squares
solution via SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, ValidationError
from .geometry import Pose, rotation_distance

# Physical reference point: tip-location variance of the original robot
# setup, quoted alongside PivotResult.residual_rms in reports.
REFERENCE_TIP_VARIANCE_MM = 0.057

DEFAULT_MIN_DIVERSITY_DEG = 10.0


@dataclass(frozen=True)
class PivotResult:
    tip_offset: np.ndarray  # tip in end-effector frame, mm
    pivot_point: np.ndarray  # tip location in base frame, mm
    residual_rms: float  # rms spread of per-pose tip locations (tip variance), mm
    rank: int
    n_poses: int


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

    Raises DegenerateGeometryError when the rotations do not span enough
    directions to determine the offset (e.g. identical or single-axis poses).
    """
    poses = list(poses)
    n = len(poses)
    if n < 3:
        raise ValidationError(f"pivot calibration needs >= 3 poses, got {n}")
    _check_diversity(poses, min_diversity_deg)

    rows = []
    rhs = []
    for i in range(n):
        j = (i + 1) % n
        rows.append(poses[i].rotation - poses[j].rotation)
        rhs.append(poses[j].translation - poses[i].translation)
    A = np.vstack(rows)
    b = np.concatenate(rhs)

    tip, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 3:
        raise DegenerateGeometryError(
            f"stacked pivot system is rank {rank} (needs 3); "
            "pose set is a degenerate pivot configuration")

    tips = np.array([p.rotation @ tip + p.translation for p in poses])
    pivot = tips.mean(axis=0)
    residual = float(np.sqrt(np.mean(np.sum((tips - pivot) ** 2, axis=1))))
    return PivotResult(tip_offset=tip, pivot_point=pivot,
                       residual_rms=residual, rank=int(rank), n_poses=n)


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
