"""Benchmark metrics: oriented 3D IoU, average precision, pointwise RMSE.

The IoU of two oriented boxes is computed exactly: each box's faces are
clipped against the other box's half-spaces, and the clipped faces, wound
outward, bound the intersection, whose volume follows from the divergence
theorem as a sum of signed tetrahedron volumes. A pair whose bounding
spheres are disjoint (centre distance at least the sum of the half-extent
norms) shares at most one point, so it gets volume 0 before any clipping.
Monte-Carlo estimation exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import Pose, _as_rotation, apply

# PhoCaL household categories; DetectionSet accepts user-defined labels too.
DEFAULT_CATEGORIES = ("bottle", "box", "can", "cup", "remote", "teapot",
                      "cutlery", "glassware")

# corners of a unit box (+-1 per axis), and its 6 quad faces, wound
# counter-clockwise seen from outside and in the order of half_spaces()
_CORNER_SIGNS = np.array([[sx, sy, sz]
                          for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0)
                          for sz in (-1.0, 1.0)])
_FACES = (
    (0, 1, 3, 2),  # -x
    (0, 4, 5, 1),  # -y
    (0, 2, 6, 4),  # -z
    (4, 6, 7, 5),  # +x
    (2, 3, 7, 6),  # +y
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
        if not np.all(half > 0):
            raise ValidationError(f"half extents must be strictly positive, got {half}")
        if not np.all(np.isfinite(center)):
            raise ValidationError("box has non-finite parameters")
        R = _as_rotation(self.rotation, "box rotation")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extents", half)
        object.__setattr__(self, "rotation", R)

    def volume(self) -> float:
        return float(8.0 * np.prod(self.half_extents))

    def corners(self) -> np.ndarray:
        return _corners(self.center, self.half_extents, self.rotation)

    def half_spaces(self):
        """6 (normal, offset) pairs; inside means normal . x <= offset."""
        return _half_spaces(self.center, self.half_extents, self.rotation)

    def contains(self, points) -> np.ndarray:
        local = (np.asarray(points, dtype=float) - self.center) @ self.rotation
        return np.all(np.abs(local) <= self.half_extents + _CLIP_EPS, axis=-1)

    def transformed(self, pose: Pose) -> "OrientedBox":
        return OrientedBox(apply(pose, self.center), self.half_extents,
                           pose.rotation @ self.rotation)


def _corners(center, half_extents, R) -> np.ndarray:
    return (_CORNER_SIGNS * half_extents) @ R.T + center


def _half_spaces(center, half_extents, R):
    normals = np.vstack([-R.T, R.T])
    offsets = np.concatenate([-R.T @ center + half_extents,
                              R.T @ center + half_extents])
    return normals, offsets


def _clip_polygon(polygon, normal, offset):
    """Sutherland-Hodgman clip of a 3D polygon, a list of (x, y, z), against
    normal . x <= offset. Plain floats: a polygon has a handful of vertices,
    too few for array operations to pay off."""
    nx, ny, nz = normal
    dist = [nx * x + ny * y + nz * z - offset for x, y, z in polygon]
    out = []
    for i, (p, dp) in enumerate(zip(polygon, dist)):
        q, dq = polygon[i - 1], dist[i - 1]  # edge q -> p
        if (dq > _CLIP_EPS and dp <= _CLIP_EPS) or (dq < -_CLIP_EPS and dp > _CLIP_EPS):
            s = dq / (dq - dp)
            out.append((q[0] + s * (p[0] - q[0]), q[1] + s * (p[1] - q[1]),
                        q[2] + s * (p[2] - q[2])))
        if dp <= _CLIP_EPS:
            out.append(p)
    return out


def _clipped_faces(corners, face_normals, clipper_planes):
    """(outward normal, polygon) of each box face that meets the clipper."""
    planes = list(zip(clipper_planes[0].tolist(), clipper_planes[1].tolist()))
    corners = corners.tolist()
    faces = []
    for face, face_normal in zip(_FACES, face_normals):
        poly = [corners[k] for k in face]
        for normal, offset in planes:
            poly = _clip_polygon(poly, normal, offset)
            if not poly:
                break
        if poly:
            faces.append((face_normal, poly))
    return faces


def _clip_volume(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection volume, mm^3, by the divergence theorem.

    The faces of a clipped to b and the faces of b clipped to a bound the
    intersection and keep the boxes' outward winding, so the volume is the
    sum of det(p0 - r, pi - r, pi+1 - r) / 6 over each polygon's fan. A face
    of b lying in a face plane of a with the same outward normal covers the
    same polygon as a's face there and is left out.
    """
    # relative to a's centre, so that rounding stays far below _CLIP_EPS
    # wherever the boxes are
    a_box = (np.zeros(3), a.half_extents, a.rotation)
    b_box = (b.center - a.center, b.half_extents, b.rotation)
    planes_a, planes_b = _half_spaces(*a_box), _half_spaces(*b_box)
    normals, offsets = planes_a
    polygons = [poly for _, poly in _clipped_faces(_corners(*a_box), normals, planes_b)]
    for face_normal, poly in _clipped_faces(_corners(*b_box), planes_b[0], planes_a):
        on_plane = np.all(np.abs(np.array(poly) @ normals.T - offsets) <= _CLIP_EPS,
                          axis=0)
        if not np.any(on_plane & (normals @ face_normal > 0.0)):
            polygons.append(poly)
    fans = []  # (apex, i, i + 1) rows of the stacked polygon vertices
    start = 0
    for poly in polygons:
        fans += [(start, start + i, start + i + 1) for i in range(1, len(poly) - 1)]
        start += len(poly)
    if not fans:
        return 0.0
    points = np.array([p for poly in polygons for p in poly])
    d = points - points.mean(axis=0)
    apex, left, right = np.array(fans).T
    volume = float(np.sum(d[apex] * np.cross(d[left], d[right]))) / 6.0
    return volume if volume > 0.0 else 0.0  # flat contact can round below 0


def _intersection(a: OrientedBox, b: OrientedBox) -> tuple[float, bool]:
    """(intersection volume, whether the pair needed the exact clip)."""
    # every corner lies |half_extents| from its centre: disjoint bounding
    # spheres leave at most one common point
    reach = np.linalg.norm(a.half_extents) + np.linalg.norm(b.half_extents)
    if np.linalg.norm(a.center - b.center) >= reach:
        return 0.0, False
    return _clip_volume(a, b), True


def intersection_volume(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection volume of two oriented boxes, mm^3."""
    return _intersection(a, b)[0]


def _iou3d(a: OrientedBox, b: OrientedBox) -> tuple[float, bool]:
    """(IoU, whether the pair needed the exact clip)."""
    inter, clipped = _intersection(a, b)
    if inter <= 0.0:
        return 0.0, clipped
    va, vb = a.volume(), b.volume()
    inter = min(inter, va, vb)  # the rounded clip volume can exceed a box's own
    return inter / (va + vb - inter), clipped


def iou3d(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented 3D boxes, in [0, 1]."""
    return _iou3d(a, b)[0]


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
    pairs_compared: int = 0  # prediction/ground-truth IoUs evaluated
    pairs_clipped: int = 0  # of those, pairs that needed the exact clip


def _category_ap(predictions, gt_boxes, iou_threshold) -> tuple[float, int, int]:
    """(AP, pairs compared, pairs clipped) of one category."""
    n_gt = len(gt_boxes)
    if not predictions:
        return 0.0, 0, 0
    order = sorted(range(len(predictions)),
                   key=lambda i: -predictions[i].score)  # stable for ties
    matched = [False] * n_gt
    tp = np.zeros(len(order))
    compared = clipped = 0
    for rank, i in enumerate(order):
        best_iou = 0.0
        best_j = -1
        for j, gt in enumerate(gt_boxes):
            if matched[j]:
                continue
            v, was_clipped = _iou3d(predictions[i].box, gt.box)
            compared += 1
            clipped += was_clipped
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
    return float(ap), compared, clipped


def average_precision(detections: DetectionSet, iou_threshold: float) -> APResult:
    """Per-category AP by score-descending greedy matching, plus the mean.

    A prediction matches at most one ground-truth box of its category and
    only when their IoU reaches the threshold. Categories with predictions
    but no ground truth have undefined AP: they are excluded from the mean
    and listed in the result. The result also counts the IoU pairs compared
    and, of those, the pairs that needed the exact clip; the others were
    rejected by the bounding-sphere test.
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
    compared = clipped = 0
    for cat in sorted(gt_by_cat):
        per_category[cat], n_compared, n_clipped = _category_ap(
            pred_by_cat.get(cat, []), gt_by_cat[cat], iou_threshold)
        compared += n_compared
        clipped += n_clipped
    undefined = sorted(set(pred_by_cat) - set(gt_by_cat))
    mean = float(np.mean(list(per_category.values()))) if per_category else 0.0
    return APResult(per_category=per_category, mean_ap=mean,
                    undefined_categories=undefined, pairs_compared=compared,
                    pairs_clipped=clipped)


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
