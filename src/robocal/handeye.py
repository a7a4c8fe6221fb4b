"""Marker-point hand-eye calibration and its point-RMSE evaluation.

The marker board is measured twice: once with the calibrated tool tip in
the robot base frame, and once per view by the camera. Because the board's
base-frame pose is known directly from the tip measurements, each view
yields a closed-form camera-to-end-effector estimate; multiple views are
fused by chordal averaging. No AX=XB solver is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentMeasurementError, ValidationError
from .geometry import (Pose, _trusted_pose, absolute_orientation, apply, compose,
                       invert, matrix_to_quat, quat_to_matrix, rotation_distance)

DEFAULT_RIGIDITY_TOL_MM = 1.0

# per-view rotations farther than this from the fused mean get flagged
ROTATION_OUTLIER_DEG = 5.0


@dataclass(frozen=True)
class MarkerBoard:
    """Known board geometry plus its tip-measured base-frame locations."""

    board_points: np.ndarray  # (K, 3) mm, marker frame
    measured_points: np.ndarray  # (K, 3) mm, robot-base frame

    def __post_init__(self):
        board = np.asarray(self.board_points, dtype=float).reshape(-1, 3)
        measured = np.asarray(self.measured_points, dtype=float).reshape(-1, 3)
        if len(board) != len(measured):
            raise ValidationError(
                f"board has {len(board)} nominal points but {len(measured)} "
                "measured points")
        if len(board) < 3:
            raise ValidationError(f"marker board needs >= 3 points, got {len(board)}")
        if not (np.all(np.isfinite(board)) and np.all(np.isfinite(measured))):
            raise ValidationError("marker board points have non-finite coordinates")
        object.__setattr__(self, "board_points", board)
        object.__setattr__(self, "measured_points", measured)
        worst = _max_pairwise_distance_mismatch(board, measured)
        # a mismatch that overflows to inf or nan is not a rigid board either
        if not worst <= DEFAULT_RIGIDITY_TOL_MM:
            raise InconsistentMeasurementError(
                f"board and measured pairwise distances disagree by up to "
                f"{worst:.3f} mm (tolerance {DEFAULT_RIGIDITY_TOL_MM:g} mm); "
                "measured points do not match the rigid board geometry")


def _max_pairwise_distance_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Largest difference between a pairwise distance of `a` and of `b`; inf
    or nan when the finite coordinates' distances overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1)
        db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
        return float(np.abs(da - db).max())


@dataclass(frozen=True)
class HandEyeView:
    ee_pose: Pose  # end-effector in base at capture time
    marker_in_cam: Pose  # detected marker pose in the camera frame


@dataclass
class HandEyeResult:
    cam_to_ee: Pose
    per_view_rmse: np.ndarray  # mm, one entry per view
    overall_rmse: float  # mm, pooled over all views and points
    rotation_outliers: tuple[int, ...]  # views > 5 deg from the fused mean
    per_view_estimates: list[Pose]


def default_board_points(cols: int = 4, rows: int = 3, spacing_mm: float = 40.0) -> np.ndarray:
    """Nominal marker-frame grid of measurement points (12 by default)."""
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing_mm
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing_mm
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(cols * rows)])


def marker_from_base(board: MarkerBoard) -> tuple[Pose, float]:
    """Rigid marker-to-base transform from the tip-measured board points.

    Rotation-only absolute orientation (no scale); returns the pose and the
    residual rms in mm.
    """
    return absolute_orientation(board.board_points, board.measured_points)


def _chordal_mean_rotation(rotations) -> np.ndarray:
    quats = np.array([matrix_to_quat(R) for R in rotations])
    # eigenvector of the largest eigenvalue of sum q q^T: order-invariant
    M = np.zeros((4, 4))
    for q in quats:
        M += np.outer(q, q)
    _, vecs = np.linalg.eigh(M)
    q = vecs[:, -1]
    # quat_to_matrix is even in q, so the eigenvector's sign needs no fixing
    return quat_to_matrix(q / np.linalg.norm(q))


def solve_handeye(views, marker_base: Pose, board: MarkerBoard) -> HandEyeResult:
    """Camera-to-end-effector transform from detected views plus the
    tip-measured marker pose.

    Each view gives the closed-form estimate
    ``inv(ee_pose) * marker_base * inv(marker_in_cam)``; estimates are fused
    by quaternion chordal mean (rotation) and arithmetic mean (translation).
    Views whose rotation deviates more than 5 degrees from the mean are
    flagged in the result but kept.
    """
    views = list(views)
    if not views:
        raise ValidationError("hand-eye calibration needs >= 1 view")
    estimates = [compose(invert(v.ee_pose), marker_base, invert(v.marker_in_cam))
                 for v in views]
    rotation = _chordal_mean_rotation([e.rotation for e in estimates])
    translation = np.mean([e.translation for e in estimates], axis=0)
    cam_to_ee = _trusted_pose(rotation, translation)

    outliers = tuple(i for i, e in enumerate(estimates)
                     if rotation_distance(e.rotation, rotation) > ROTATION_OUTLIER_DEG)
    d2 = _view_sq_distances(views, cam_to_ee, board)
    return HandEyeResult(cam_to_ee=cam_to_ee, per_view_rmse=np.sqrt(d2.mean(axis=1)),
                         overall_rmse=float(np.sqrt(d2.ravel().mean())),
                         rotation_outliers=outliers, per_view_estimates=estimates)


def _view_sq_distances(views, cam_to_ee: Pose, board: MarkerBoard) -> np.ndarray:
    """(views, points) squared distances between the board points carried to
    the base by each view's chain and the tip-measured points, mm^2."""
    d2 = []
    for view in views:
        chain = compose(view.ee_pose, cam_to_ee, view.marker_in_cam)
        diff = apply(chain, board.board_points) - board.measured_points
        d2.append(np.sum(diff ** 2, axis=1))
    return np.array(d2).reshape(-1, len(board.board_points))


def evaluate_handeye(views, cam_to_ee: Pose, board: MarkerBoard) -> float:
    """Point RMSE of the full chain against the tip-measured board, in mm.

    For every view the board points are carried to the robot base via
    ``ee_pose * cam_to_ee * marker_in_cam`` and compared with the measured
    points; the RMSE pools all views' points.
    """
    views = list(views)
    if not views:
        raise ValidationError("evaluation needs >= 1 view")
    return float(np.sqrt(_view_sq_distances(views, cam_to_ee, board).ravel().mean()))


def synthesize_views(cam_to_ee: Pose, marker_base: Pose, ee_poses) -> list[HandEyeView]:
    """Noise-free detected views for given end-effector poses (test/sim rig)."""
    views = []
    for ee in ee_poses:
        cam_in_base = compose(ee, cam_to_ee)
        marker_in_cam = compose(invert(cam_in_base), marker_base)
        views.append(HandEyeView(ee_pose=ee, marker_in_cam=marker_in_cam))
    return views
