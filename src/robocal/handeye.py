"""Marker-point hand-eye calibration and its point-RMSE evaluation.

The marker board is measured twice: once with the calibrated tool tip in
the robot base frame, and once per view by the camera. The transform that
minimises the reported chain RMSE is one absolute orientation over all
views' points pooled (Arun, Huang & Blostein 1987; Umeyama 1991); no AX=XB
solver is involved.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentMeasurementError, ValidationError
from .geometry import (Pose, _Frozen, _set_fields, absolute_orientation, apply, compose,
                       invert, rotation_distance)

DEFAULT_RIGIDITY_TOL_MM = 1.0

# per-view rotations farther than this from the pooled fit get flagged
ROTATION_OUTLIER_DEG = 5.0


class MarkerBoard(_Frozen):
    """Known board geometry plus its tip-measured base-frame locations:
    board_points (K, 3) mm in the marker frame, measured_points (K, 3) mm in
    the robot-base frame."""

    __slots__ = ("board_points", "measured_points")

    def __init__(self, board_points, measured_points):
        board = np.asarray(board_points, dtype=float).reshape(-1, 3)
        measured = np.asarray(measured_points, dtype=float).reshape(-1, 3)
        if len(board) != len(measured):
            raise ValidationError(
                f"board has {len(board)} nominal points but {len(measured)} "
                "measured points")
        if len(board) < 3:
            raise ValidationError(f"marker board needs >= 3 points, got {len(board)}")
        if not (np.all(np.isfinite(board)) and np.all(np.isfinite(measured))):
            raise ValidationError("marker board points have non-finite coordinates")
        _set_fields(self, board_points=board, measured_points=measured)
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


class HandEyeView(_Frozen):
    __slots__ = ("ee_pose", "marker_in_cam")

    def __init__(self, ee_pose: Pose, marker_in_cam: Pose):
        # the end-effector in base at capture time, and the detected marker
        # pose in the camera frame
        _set_fields(self, ee_pose=ee_pose, marker_in_cam=marker_in_cam)


class HandEyeResult:
    __slots__ = ("cam_to_ee", "per_view_rmse", "overall_rmse", "rotation_outliers",
                 "per_view_estimates")

    def __init__(self, cam_to_ee: Pose, per_view_rmse: np.ndarray, overall_rmse: float,
                 rotation_outliers: tuple[int, ...], per_view_estimates: list[Pose]):
        self.cam_to_ee = cam_to_ee
        self.per_view_rmse = per_view_rmse  # mm, one entry per view
        self.overall_rmse = overall_rmse  # mm, pooled over all views and points
        self.rotation_outliers = rotation_outliers  # views > 5 deg from the pooled fit
        self.per_view_estimates = per_view_estimates


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


def solve_handeye(views, marker_base: Pose, board: MarkerBoard) -> HandEyeResult:
    """Camera-to-end-effector transform from detected views plus the
    tip-measured marker pose.

    The least-squares transform maps every view's camera-frame board points
    onto its end-effector-frame measured points in one absolute orientation.
    Each view's closed form ``inv(ee_pose) * marker_base * inv(marker_in_cam)``
    is kept in ``per_view_estimates``; views whose rotation is more than 5
    degrees from the fit are flagged in the result but kept.
    """
    views = list(views)
    if not views:
        raise ValidationError("hand-eye calibration needs >= 1 view")
    in_cam = np.vstack([apply(v.marker_in_cam, board.board_points) for v in views])
    in_ee = np.vstack([apply(invert(v.ee_pose), board.measured_points) for v in views])
    cam_to_ee, _ = absolute_orientation(in_cam, in_ee)
    estimates = [compose(invert(v.ee_pose), marker_base, invert(v.marker_in_cam))
                 for v in views]

    outliers = tuple(i for i, e in enumerate(estimates)
                     if rotation_distance(e.rotation, cam_to_ee.rotation)
                     > ROTATION_OUTLIER_DEG)
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
