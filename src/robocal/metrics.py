"""Benchmark metrics: oriented 3D IoU, average precision, pointwise RMSE.

The IoU of two oriented boxes is computed exactly: each box's faces are
clipped against the other box's half-spaces and the intersection volume is
the convex hull volume of the surviving vertices. A pair whose bounding
spheres are disjoint (centre distance at least the sum of the half-extent
norms) shares at most one point, so it gets volume 0 before any clipping.
Monte-Carlo estimation exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import ValidationError
from .geometry import Pose, apply

# PhoCaL household categories; DetectionSet accepts user-defined labels too.
DEFAULT_CATEGORIES = ("bottle", "box", "can", "cup", "remote", "teapot",
                      "cutlery", "glassware")

# corners of a unit box (+-1 per axis), and its 6 quad faces
_CORNER_SIGNS = np.array([[sx, sy, sz]
                          for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0)
                          for sz in (-1.0, 1.0)])
_FACES = (
    (0, 1, 3, 2),  # -x
    (4, 6, 7, 5),  # +x
    (0, 4, 5, 1),  # -y
    (2, 3, 7, 6),  # +y
    (0, 2, 6, 4),  # -z
    (1, 5, 7, 3),  # +z
)

_CLIP_EPS = 1e-12


@dataclass(frozen=True)
class OrientedBox:
    center: np.ndarray  # (3,) mm
    half_extents: np.ndarray  # (3,) mm, strictly positive
    rotation: np.ndarray  # (3, 3)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        half = np.asarray(self.half_extents, dtype=float).reshape(3)
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        if not np.all(half > 0):
            raise ValidationError(f"half extents must be strictly positive, got {half}")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(R))):
            raise ValidationError("box has non-finite parameters")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extents", half)
        object.__setattr__(self, "rotation", R)

    def volume(self) -> float:
        return float(8.0 * np.prod(self.half_extents))

    def corners(self) -> np.ndarray:
        local = _CORNER_SIGNS * self.half_extents
        return local @ self.rotation.T + self.center

    def half_spaces(self):
        """6 (normal, offset) pairs; inside means normal . x <= offset."""
        normals = np.vstack([-self.rotation.T, self.rotation.T])
        offsets = np.concatenate([
            -self.rotation.T @ self.center + self.half_extents,
            self.rotation.T @ self.center + self.half_extents,
        ])
        return normals, offsets

    def contains(self, points) -> np.ndarray:
        local = (np.asarray(points, dtype=float) - self.center) @ self.rotation
        return np.all(np.abs(local) <= self.half_extents + _CLIP_EPS, axis=-1)

    def transformed(self, pose: Pose) -> "OrientedBox":
        return OrientedBox(apply(pose, self.center), self.half_extents,
                           pose.rotation @ self.rotation)


def _clip_polygon(polygon, normal, offset):
    """Sutherland-Hodgman clip of a 3D polygon against normal . x <= offset."""
    if len(polygon) == 0:
        return polygon
    dist = polygon @ normal - offset
    out = []
    n = len(polygon)
    for i in range(n):
        j = (i + 1) % n
        di, dj = dist[i], dist[j]
        if di <= _CLIP_EPS:
            out.append(polygon[i])
            if dj > _CLIP_EPS and di < -_CLIP_EPS:
                s = di / (di - dj)
                out.append(polygon[i] + s * (polygon[j] - polygon[i]))
        elif dj <= _CLIP_EPS and dj < di:
            s = di / (di - dj)
            out.append(polygon[i] + s * (polygon[j] - polygon[i]))
    return np.array(out) if out else np.empty((0, 3))


def _clipped_face_points(subject: OrientedBox, clipper: OrientedBox) -> list[np.ndarray]:
    corners = subject.corners()
    normals, offsets = clipper.half_spaces()
    points = []
    for face in _FACES:
        poly = corners[list(face)]
        for normal, offset in zip(normals, offsets):
            poly = _clip_polygon(poly, normal, offset)
            if len(poly) == 0:
                break
        if len(poly):
            points.append(poly)
    return points


def intersection_volume(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection volume of two oriented boxes, mm^3."""
    # every corner lies |half_extents| from its centre: disjoint bounding
    # spheres leave at most one common point
    reach = np.linalg.norm(a.half_extents) + np.linalg.norm(b.half_extents)
    if np.linalg.norm(a.center - b.center) >= reach:
        return 0.0
    return _clip_hull_volume(a, b)


def _clip_hull_volume(a: OrientedBox, b: OrientedBox) -> float:
    pieces = _clipped_face_points(a, b) + _clipped_face_points(b, a)
    if not pieces:
        return 0.0
    points = np.vstack(pieces)
    if len(points) < 4:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0  # flat or near-degenerate contact


def iou3d(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented 3D boxes, in [0, 1]."""
    inter = intersection_volume(a, b)
    if inter <= 0.0:
        return 0.0
    union = a.volume() + b.volume() - inter
    return inter / union


# ---------------------------------------------------------------------------
# Detection-style evaluation


@dataclass(frozen=True)
class Detection:
    category: str
    box: OrientedBox
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValidationError(f"detection score must be finite, got {self.score}")


@dataclass(frozen=True)
class GroundTruthBox:
    category: str
    box: OrientedBox


@dataclass
class DetectionSet:
    predictions: list[Detection]
    ground_truth: list[GroundTruthBox]


@dataclass
class APResult:
    per_category: dict[str, float]
    mean_ap: float
    undefined_categories: list[str] = field(default_factory=list)


def _category_ap(predictions, gt_boxes, iou_threshold) -> float:
    n_gt = len(gt_boxes)
    if not predictions:
        return 0.0
    order = sorted(range(len(predictions)),
                   key=lambda i: -predictions[i].score)  # stable for ties
    matched = [False] * n_gt
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        best_iou = 0.0
        best_j = -1
        for j, gt in enumerate(gt_boxes):
            if matched[j]:
                continue
            v = iou3d(predictions[i].box, gt.box)
            if v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            matched[best_j] = True
            tp[rank] = 1.0
    tp_cum = np.cumsum(tp)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, len(order) + 1)
    # all-points interpolation: running max of precision from the right
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def average_precision(detections: DetectionSet, iou_threshold: float) -> APResult:
    """Per-category AP by score-descending greedy matching, plus the mean.

    A prediction matches at most one ground-truth box of its category and
    only when their IoU reaches the threshold. Categories with predictions
    but no ground truth have undefined AP: they are excluded from the mean
    and listed in the result.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValidationError(f"IoU threshold must be in (0, 1), got {iou_threshold}")
    gt_by_cat: dict[str, list[GroundTruthBox]] = {}
    for gt in detections.ground_truth:
        gt_by_cat.setdefault(gt.category, []).append(gt)
    pred_by_cat: dict[str, list[Detection]] = {}
    for pred in detections.predictions:
        pred_by_cat.setdefault(pred.category, []).append(pred)

    per_category = {}
    for cat in sorted(gt_by_cat):
        per_category[cat] = _category_ap(pred_by_cat.get(cat, []),
                                         gt_by_cat[cat], iou_threshold)
    undefined = sorted(set(pred_by_cat) - set(gt_by_cat))
    mean = float(np.mean(list(per_category.values()))) if per_category else 0.0
    return APResult(per_category=per_category, mean_ap=mean,
                    undefined_categories=undefined)


def pointwise_rmse(points, gt: Pose, est: Pose) -> float:
    """Root mean squared distance of the points mapped by gt vs est, mm."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValidationError("pointwise rmse needs >= 1 point")
    diff = apply(gt, pts) - apply(est, pts)
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))


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
