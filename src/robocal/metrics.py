"""Benchmark metrics: oriented 3D IoU, average precision, pointwise RMSE.

Oriented-box IoU is computed for many pairs at once, in three array steps,
each on the pairs the step before it left:

1. Bounding spheres. Every corner lies |half_extents| from its centre, so a
   pair whose centre distance is at least the sum of the half-extent norms
   shares at most one point and gets volume 0.
2. Separating axes. The 15 candidate axes of a pair (the 3 face normals of
   each box and the 9 cross products of their edges; Gottschalk, Lin &
   Manocha, "OBBTree", SIGGRAPH 1996) are tested with a slack far above
   rounding, so a pair is rejected only when it is surely disjoint. The
   test may keep a touching pair of volume 0, never drop one of positive
   volume.
3. Exact volume. Each box's faces are clipped against the other box's six
   half-spaces (Sutherland-Hodgman, on padded arrays of polygons), and the
   clipped faces, wound outward, bound the intersection, whose volume
   follows from the divergence theorem as a sum of signed tetrahedron
   volumes.

`intersection_volume` and `iou3d` are the one-pair calls of this code, and
`average_precision` builds one IoU matrix per category. Monte-Carlo
estimation exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import _ORTHO_TOL, Pose, _as_rotation, apply

# PhoCaL household categories; DetectionSet accepts user-defined labels too.
DEFAULT_CATEGORIES = ("bottle", "box", "can", "cup", "remote", "teapot",
                      "cutlery", "glassware")

# corners of a unit box (+-1 per axis), and its 6 quad faces, wound
# counter-clockwise seen from outside and in the order of half_spaces()
_CORNER_SIGNS = np.array([[sx, sy, sz]
                          for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0)
                          for sz in (-1.0, 1.0)])
_FACES = np.array([
    (0, 1, 3, 2),  # -x
    (0, 4, 5, 1),  # -y
    (0, 2, 6, 4),  # -z
    (4, 6, 7, 5),  # +x
    (2, 3, 7, 6),  # +y
    (1, 5, 7, 3),  # +z
])

_CLIP_EPS = 1e-12
# A quad clipped by 6 planes, each adding at most one vertex to a convex
# polygon; the clip widens its arrays if rounding ever adds more.
_POLYGON_WIDTH = 10
# Slack of the separating-axis test, added to |R| entries and, relative to
# the pair's size, to the projected radii: far above rounding, and covering
# rotations that are orthonormal only to within _ORTHO_TOL.
_AXIS_SLACK = 4.0 * _ORTHO_TOL


@dataclass(frozen=True)
class OrientedBox:
    center: np.ndarray  # (3,) mm
    half_extents: np.ndarray  # (3,) mm, strictly positive
    rotation: np.ndarray  # (3, 3)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        half = np.asarray(self.half_extents, dtype=float).reshape(3)
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(half))):
            raise ValidationError("box has non-finite parameters")
        if not np.all(half > 0):
            raise ValidationError(f"half extents must be strictly positive, got {half}")
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


# The functions below take one box, or stacks of boxes: centres (..., 3),
# half extents (..., 3) and rotations (..., 3, 3).


def _corners(center, half_extents, R) -> np.ndarray:
    """(..., 8, 3) corners."""
    return ((_CORNER_SIGNS * half_extents[..., None, :]) @ np.swapaxes(R, -1, -2)
            + center[..., None, :])


def _half_spaces(center, half_extents, R):
    """(..., 6, 3) outward unit normals and (..., 6) offsets, in the order of
    _FACES; inside means normal . x <= offset."""
    Rt = np.swapaxes(R, -1, -2)
    local = (Rt @ center[..., None])[..., 0]
    return (np.concatenate([-Rt, Rt], axis=-2),
            np.concatenate([-local + half_extents, local + half_extents], axis=-1))


def _stack(boxes):
    return (np.array([b.center for b in boxes]).reshape(-1, 3),
            np.array([b.half_extents for b in boxes]).reshape(-1, 3),
            np.array([b.rotation for b in boxes]).reshape(-1, 3, 3))


def _spheres_overlap(ca, ha, cb, hb) -> np.ndarray:
    """(len(a), len(b)) mask of the pairs whose bounding spheres overlap."""
    reach = np.linalg.norm(ha, axis=1)[:, None] + np.linalg.norm(hb, axis=1)
    return np.linalg.norm(ca[:, None] - cb, axis=2) < reach


def _axes_overlap(ca, ha, Ra, cb, hb, Rb) -> np.ndarray:
    """Mask of the pairs (a[k], b[k]) that none of the 15 axes separates.

    In a's frame, b's axes are the columns of C = Ra^T Rb and the centre
    offset is t; the pair is disjoint if, on some axis L, |t . L| exceeds the
    sum of the two boxes' projected radii. An edge-edge axis a_i x b_j is
    near zero when the edges are near parallel; the slack added to |C| then
    keeps rounding from splitting the pair.
    """
    C = np.swapaxes(Ra, 1, 2) @ Rb
    t = (np.swapaxes(Ra, 1, 2) @ (cb - ca)[:, :, None])[:, :, 0]
    A = np.abs(C) + _AXIS_SLACK
    slack = _AXIS_SLACK * (np.linalg.norm(ha, axis=1) + np.linalg.norm(hb, axis=1))[:, None]
    # a's face normals, then b's
    apart = np.any(np.abs(t) > ha + (A @ hb[:, :, None])[:, :, 0] + slack, axis=1)
    tb = (np.swapaxes(C, 1, 2) @ t[:, :, None])[:, :, 0]
    ra = (np.swapaxes(A, 1, 2) @ ha[:, :, None])[:, :, 0]
    apart |= np.any(np.abs(tb) > hb + ra + slack, axis=1)
    # a_i x b_j, all three j at once
    j1, j2 = [1, 2, 0], [2, 0, 1]
    for i, i1, i2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        along = np.abs(t[:, i2, None] * C[:, i1] - t[:, i1, None] * C[:, i2])
        ra = ha[:, i1, None] * A[:, i2] + ha[:, i2, None] * A[:, i1]
        rb = hb[:, j1] * A[:, i, j2] + hb[:, j2] * A[:, i, j1]
        apart |= np.any(along > ra + rb + slack, axis=1)
    return ~apart


def _clip_step(poly, count, normal, offset):
    """Sutherland-Hodgman clip of each polygon, poly[r, :count[r]], against
    normal[r] . x <= offset[r]. Only the polygons that the plane cuts are
    rewritten; a polygon wholly outside gets count 0. Returns poly, which is
    widened if a polygon outgrows it."""
    rows = np.flatnonzero(count)
    p, c = poly[rows], count[rows]
    nx, ny, nz = normal[rows].T
    dist = (nx[:, None] * p[..., 0] + ny[:, None] * p[..., 1] + nz[:, None] * p[..., 2]
            - offset[rows, None])
    width = poly.shape[1]
    slot = np.arange(width)
    valid = slot < c[:, None]
    n_out = np.sum(valid & (dist > _CLIP_EPS), axis=1)
    count[rows[n_out == c]] = 0
    cut = (n_out > 0) & (n_out < c)
    rows, p, c, dist, valid = rows[cut], p[cut], c[cut], dist[cut], valid[cut]
    # the edge into vertex k starts at q = vertex k - 1, or the last vertex
    last = (np.arange(len(rows)), c - 1)
    dq = np.concatenate([dist[last][:, None], dist[:, :-1]], axis=1)
    q = np.concatenate([p[last][:, None], p[:, :-1]], axis=1)
    inside = valid & (dist <= _CLIP_EPS)
    crossing = valid & (((dq > _CLIP_EPS) & inside)
                        | ((dq < -_CLIP_EPS) & (dist > _CLIP_EPS)))
    # each edge emits its crossing point (slot 0), then p if inside (slot 1)
    out = np.stack([p, p], axis=2)
    m, k = np.nonzero(crossing)
    s = dq[m, k] / (dq[m, k] - dist[m, k])
    qm = q[m, k]
    out[m, k, 0] = qm + s[:, None] * (p[m, k] - qm)
    emit = np.stack([crossing, inside], axis=2).reshape(len(rows), 2 * width)
    new_count = emit.sum(axis=1)
    if len(rows) and new_count.max() > width:
        poly = np.concatenate([poly, np.zeros((len(poly), new_count.max() - width, 3))],
                              axis=1)
    m, k = np.nonzero(emit)
    position = np.arange(len(m)) - np.repeat(np.cumsum(new_count) - new_count, new_count)
    clipped = np.zeros((len(rows),) + poly.shape[1:])
    clipped[m, position] = out.reshape(len(rows), 2 * width, 3)[m, k]
    poly[rows] = clipped
    count[rows] = new_count
    return poly


def _clip_volumes(ca, ha, Ra, cb, hb, Rb) -> np.ndarray:
    """Exact intersection volume of each pair (a[k], b[k]), mm^3.

    The faces of a clipped to b and the faces of b clipped to a bound the
    intersection and keep the boxes' outward winding, so the volume is the
    sum of det(p0 - r, pi - r, pi+1 - r) / 6 over each polygon's fan. A face
    of b lying in a face plane of a with the same outward normal covers the
    same polygon as a's face there and is left out.
    """
    n = len(ca)
    # relative to a's centre, so that rounding stays far below _CLIP_EPS
    # wherever the boxes are
    zero, cb = np.zeros_like(ca), cb - ca
    normals_a, offsets_a = _half_spaces(zero, ha, Ra)
    normals_b, offsets_b = _half_spaces(cb, hb, Rb)
    # 12 polygons per pair: a's faces, clipped to b, then b's, clipped to a
    faces = np.concatenate([_corners(zero, ha, Ra)[:, _FACES],
                            _corners(cb, hb, Rb)[:, _FACES]], axis=1)
    poly = np.zeros((n * 12, _POLYGON_WIDTH, 3))
    poly[:, :4] = faces.reshape(-1, 4, 3)
    count = np.full(n * 12, 4)
    clip_normals = np.stack([normals_b, normals_a], axis=1).repeat(6, axis=1)
    clip_offsets = np.stack([offsets_b, offsets_a], axis=1).repeat(6, axis=1)
    clip_normals, clip_offsets = clip_normals.reshape(-1, 6, 3), clip_offsets.reshape(-1, 6)
    for k in range(6):
        poly = _clip_step(poly, count, clip_normals[:, k], clip_offsets[:, k])
    width = poly.shape[1]
    poly, count = poly.reshape(n, 12, width, 3), count.reshape(n, 12)

    pair, face = np.nonzero(count[:, 6:])
    verts = poly[pair, 6 + face]
    gap = np.abs(verts @ np.swapaxes(normals_a[pair], 1, 2) - offsets_a[pair, None])
    valid = np.arange(width) < count[pair, 6 + face, None]
    on_plane = np.all((gap <= _CLIP_EPS) | ~valid[..., None], axis=1)
    same_normal = np.einsum("kij,kj->ki", normals_a[pair], normals_b[pair, face]) > 0.0
    shared = np.any(on_plane & same_normal, axis=1)
    count[pair[shared], 6 + face[shared]] = 0

    # sequential sums, so that a pair's rounding depends neither on the
    # padding nor on the other pairs
    valid = (np.arange(width) < count[..., None]).reshape(n, 12 * width)
    total = np.cumsum(np.where(valid[..., None], poly.reshape(n, 12 * width, 3), 0.0),
                      axis=1)
    centre = total[:, -1] / np.maximum(valid.sum(axis=1), 1)[:, None]
    d = poly - centre[:, None, None]
    tets = np.sum(d[:, :, :1] * np.cross(d[:, :, 1:-1], d[:, :, 2:]), axis=3)
    fan = np.arange(1, width - 1) < count[..., None] - 1
    tets = np.where(fan, tets, 0.0).reshape(n, 12 * (width - 2))
    volume = np.cumsum(tets, axis=1)[:, -1] / 6.0
    return np.where(volume > 0.0, volume, 0.0)  # flat contact can round below 0


def _overlaps(a, b):
    """Exact intersection volumes of the pairs of the stacked boxes a x b
    that pass both rejection tests: (a index, b index, volume), plus the
    number of sphere-passing pairs that the separating-axis test rejected."""
    (ca, ha, Ra), (cb, hb, Rb) = a, b
    i, j = np.nonzero(_spheres_overlap(ca, ha, cb, hb))
    kept = _axes_overlap(ca[i], ha[i], Ra[i], cb[j], hb[j], Rb[j])
    i, j = i[kept], j[kept]
    return i, j, _clip_volumes(ca[i], ha[i], Ra[i], cb[j], hb[j], Rb[j]), int(np.sum(~kept))


def _iou_matrix(a_boxes, b_boxes) -> tuple[np.ndarray, int, int]:
    """(IoU of every pair of a x b, pairs the separating-axis test rejected,
    pairs clipped)."""
    a, b = _stack(a_boxes), _stack(b_boxes)
    i, j, inter, separated = _overlaps(a, b)
    # as OrientedBox.volume()
    va, vb = 8.0 * np.prod(a[1][i], axis=1), 8.0 * np.prod(b[1][j], axis=1)
    # the rounded clip volume can exceed a box's own
    inter = np.minimum(inter, np.minimum(va, vb))
    iou = np.zeros((len(a_boxes), len(b_boxes)))
    iou[i, j] = np.where(inter > 0.0, inter / (va + vb - inter), 0.0)
    return iou, separated, len(i)


def intersection_volume(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection volume of two oriented boxes, mm^3."""
    volume = _overlaps(_stack([a]), _stack([b]))[2]
    return float(volume[0]) if len(volume) else 0.0


def iou3d(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented 3D boxes, in [0, 1]."""
    return float(_iou_matrix([a], [b])[0][0, 0])


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
    pairs_compared: int = 0  # prediction/ground-truth pairs of each category
    pairs_separated: int = 0  # sphere-passing pairs a separating axis rejected
    pairs_clipped: int = 0  # pairs whose exact volume was computed


def _category_ap(predictions, gt_boxes, iou_threshold) -> tuple[float, int, int]:
    """(AP, pairs separated, pairs clipped) of one category."""
    if not predictions:
        return 0.0, 0, 0
    order = sorted(range(len(predictions)),
                   key=lambda i: -predictions[i].score)  # stable for ties
    iou, separated, clipped = _iou_matrix([predictions[i].box for i in order],
                                          [gt.box for gt in gt_boxes])
    # greedy: each prediction, by score, takes the unmatched ground truth of
    # highest IoU (the first of equals) if that IoU reaches the threshold
    matched = np.zeros(len(gt_boxes), dtype=bool)
    tp = np.zeros(len(order))
    for rank, row in enumerate(iou):
        row = np.where(matched, -1.0, row)
        j = int(np.argmax(row))
        if row[j] >= iou_threshold:
            matched[j] = True
            tp[rank] = 1.0
    tp_cum = np.cumsum(tp)
    recall = tp_cum / len(gt_boxes)
    precision = tp_cum / np.arange(1, len(order) + 1)
    # all-points interpolation: running max of precision from the right
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap), separated, clipped


def average_precision(detections: DetectionSet, iou_threshold: float) -> APResult:
    """Per-category AP by score-descending greedy matching, plus the mean.

    A prediction matches at most one ground-truth box of its category and
    only when their IoU reaches the threshold. Categories with predictions
    but no ground truth have undefined AP: they are excluded from the mean
    and listed in the result. The result also counts the prediction/ground
    truth pairs of each category, the pairs whose bounding spheres overlap
    but that a separating axis rejected, and the pairs whose exact
    intersection volume was computed.
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
    compared = separated = clipped = 0
    for cat in sorted(gt_by_cat):
        predictions = pred_by_cat.get(cat, [])
        per_category[cat], n_separated, n_clipped = _category_ap(
            predictions, gt_by_cat[cat], iou_threshold)
        compared += len(predictions) * len(gt_by_cat[cat])
        separated += n_separated
        clipped += n_clipped
    undefined = sorted(set(pred_by_cat) - set(gt_by_cat))
    mean = float(np.mean(list(per_category.values()))) if per_category else 0.0
    return APResult(per_category=per_category, mean_ap=mean,
                    undefined_categories=undefined, pairs_compared=compared,
                    pairs_separated=separated, pairs_clipped=clipped)


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
