"""Benchmark metrics: oriented 3D IoU, average precision, pointwise RMSE.

Oriented-box IoU is computed for many pairs at once, in four array steps,
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
3. An IoU bound. In a's frame, b lies inside the box of half widths |C| h_b
   about the centre offset t (C = R_a^T R_b), so the intersection lies
   inside that box clipped to a's [-h_a, h_a]; from b's side likewise. The
   smaller of the two volumes bounds the intersection, and so the IoU, and
   a pair whose bound stays below the caller's threshold is not clipped and
   gets IoU 0; a threshold of 0 clips every pair. The bound is widened by
   the separating-axis slack, so it is never below the IoU of the boxes'
   half-spaces, even for rotations orthonormal only to _ORTHO_TOL, nor below
   the clip's IoU, whose coplanar faces lie within that slack of both boxes.
4. Exact volume. Each box's faces are clipped against the other box's six
   half-spaces (Sutherland-Hodgman, on padded arrays of polygons), and the
   clipped faces, wound outward, bound the intersection, whose volume
   follows from the divergence theorem as a sum of signed tetrahedron
   volumes. A face of a and a face of b that lie in one plane, to within
   the separating-axis slack, are found once, before the clip, and counted
   once (see _clip_volumes); every other vertex is inside or outside a
   plane by the exact sign of its distance. The polygons start as the
   boxes' quads, 4 slots wide, and the clip widens the arrays when a plane
   adds a vertex.

`intersection_volume` and `iou3d` are the one-pair calls of this code, on
`OrientedBox` values. `average_precision` works on the columns that the
detection CSV readers return (categories, scores, centres, half extents,
rotations), with no per-row box objects. It orders each category's
predictions by score and takes the pairs whose bounding spheres overlap,
category by category; the separating-axis test then runs once over the
pairs of every category, the bound at the AP's threshold over the pairs
it keeps, and the clip over the pairs whose bound reaches the threshold, in
consecutive blocks of _CLIP_BLOCK pairs, which bounds its memory whatever
the size of the set.
Each category's IoU matrix is filled from its share of the pairs and
scored by one greedy matcher. The pairs left out by the bound leave the AP
as an exact clip alone gives it: a prediction takes its best unmatched
ground truth only if that IoU reaches the threshold, so a value below it
counts only when no value of its row reaches the threshold, and then the
prediction is a false positive whether that value is its IoU or 0.
`Detection` and `GroundTruthBox` are the row types the CSV writers take.
Monte-Carlo estimation exists only as a test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .geometry import _ORTHO_TOL, Pose, _as_rotation, _Frozen, _set_fields, apply

# PhoCaL household categories; the detection CSVs accept user-defined labels too.
DEFAULT_CATEGORIES = ("bottle", "box", "can", "cup", "remote", "teapot",
                      "cutlery", "glassware")

# corners of a unit box (+-1 per axis), and its 6 quad faces, wound
# counter-clockwise seen from outside and in the order of _half_spaces()
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

# Pairs per _clip_volumes call. A call's arrays peak at ~15 KB per pair, so
# blocks keep average_precision's memory bounded on any set. The block size
# is chosen for memory, not time: on the benchmark's seed-2020 iou-pooled
# inputs (197 clipped pairs; 2-vCPU Xeon), 64-pair blocks (4 calls) take
# 11.8 ms in process and one 256-pair block 10.4 ms, but with 256 the
# eval-iou process peaks at 33.6 MB instead of 31.9 MB, and its wall time
# (~134 ms, median of 9) does not move.
_CLIP_BLOCK = 64
# Slack of the separating-axis test and of the IoU bound, added to |R|
# entries and, relative to the pair's size, to the projected radii, and the
# bound's relative slack on its volume; relative to the pair's size, also
# how far a face may lie from another's plane and still be coplanar with it
# in the clip. Far above rounding, and covering rotations that are
# orthonormal only to within _ORTHO_TOL, whose boxes are sheared by up to
# 3 _ORTHO_TOL of their size and whose volume is off by up to _ORTHO_TOL.
_AXIS_SLACK = 4.0 * _ORTHO_TOL


class OrientedBox(_Frozen):
    """A box of centre (3,) mm, strictly positive half extents (3,) mm and
    rotation (3, 3)."""

    __slots__ = ("center", "half_extents", "rotation")

    def __init__(self, center, half_extents, rotation):
        center = np.asarray(center, dtype=float).reshape(3)
        half = np.asarray(half_extents, dtype=float).reshape(3)
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(half))):
            raise ValidationError("box has non-finite parameters")
        failed, message = _extent_check(half[None])
        if failed[0]:
            raise ValidationError(message(0))
        _set_fields(self, center=center, half_extents=half,
                    rotation=_as_rotation(rotation, "box rotation"))

    def volume(self) -> float:
        return float(8.0 * np.prod(self.half_extents))

    def corners(self) -> np.ndarray:
        return _corners(self.center, self.half_extents, self.rotation)


def _extent_check(half_extents):
    """The test that each of a stack of half extents (N, 3) is strictly
    positive, as a pair (mask of the failing rows, message of failing row i)
    like the tests of geometry._rotation_checks."""
    return (~np.all(half_extents > 0, axis=-1),
            lambda i: f"half extents must be strictly positive, got {half_extents[i]}")


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


def _pair_slack(ha, hb) -> np.ndarray:
    """(n,) slack of each pair (a[k], b[k]) of half extents ha and hb:
    _AXIS_SLACK (|h_a| + |h_b|)."""
    return _AXIS_SLACK * (np.linalg.norm(ha, axis=1) + np.linalg.norm(hb, axis=1))


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
    slack = _pair_slack(ha, hb)[:, None]
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
    normal[r] . x <= offset[r], a vertex being outside where its distance
    is above 0. Only the polygons that the plane cuts are rewritten; a
    polygon wholly outside gets count 0. Returns poly, which is widened if a
    polygon outgrows it."""
    rows = np.flatnonzero(count)
    p, c = poly[rows], count[rows]
    nx, ny, nz = normal[rows].T
    dist = (nx[:, None] * p[..., 0] + ny[:, None] * p[..., 1] + nz[:, None] * p[..., 2]
            - offset[rows, None])
    width = poly.shape[1]
    slot = np.arange(width)
    valid = slot < c[:, None]
    n_out = np.sum(valid & (dist > 0.0), axis=1)
    count[rows[n_out == c]] = 0
    cut = (n_out > 0) & (n_out < c)
    rows, p, c, dist, valid = rows[cut], p[cut], c[cut], dist[cut], valid[cut]
    # the edge into vertex k starts at q = vertex k - 1, or the last vertex
    last = (np.arange(len(rows)), c - 1)
    dq = np.concatenate([dist[last][:, None], dist[:, :-1]], axis=1)
    q = np.concatenate([p[last][:, None], p[:, :-1]], axis=1)
    inside = valid & (dist <= 0.0)
    crossing = valid & (((dq > 0.0) & inside) | ((dq < 0.0) & (dist > 0.0)))
    # each edge emits its crossing point, then p if inside; place[r, k] holds
    # the slots of the two in the clipped polygon
    emit = np.stack([crossing, inside], axis=2).reshape(len(rows), 2 * width)
    place = np.cumsum(emit, axis=1).reshape(len(rows), width, 2) - 1
    new_count = place[:, -1, 1] + 1
    if len(rows) and new_count.max() > width:
        poly = np.concatenate([poly, np.zeros((len(poly), new_count.max() - width, 3))],
                              axis=1)
    clipped = np.zeros((len(rows),) + poly.shape[1:])
    m, k = np.nonzero(inside)
    clipped[m, place[m, k, 1]] = p[m, k]
    m, k = np.nonzero(crossing)
    s = dq[m, k] / (dq[m, k] - dist[m, k])
    qm = q[m, k]
    clipped[m, place[m, k, 0]] = qm + s[:, None] * (p[m, k] - qm)
    poly[rows] = clipped
    count[rows] = new_count
    return poly


def _clip_volumes(ca, ha, Ra, cb, hb, Rb) -> np.ndarray:
    """Exact intersection volume of each pair (a[k], b[k]), mm^3.

    The faces of a clipped to b and the faces of b clipped to a bound the
    intersection and keep the boxes' outward winding, so the volume is the
    sum of det(p0 - r, pi - r, pi+1 - r) / 6 over each polygon's fan. A face
    of a and a face of b are coplanar when their outward normals agree and
    every corner of each lies within the separating-axis slack of the
    other's plane, _AXIS_SLACK (|h_a| + |h_b|). Both cover one polygon of
    the intersection's surface, so it is counted once: b's face is left out,
    and b's plane does not cut a's face. Every other vertex is kept or cut
    by the exact sign of its distance to the plane.
    """
    n = len(ca)
    # relative to a's centre, so that rounding stays far below the slack
    # wherever the boxes are
    zero, cb = np.zeros_like(ca), cb - ca
    normals_a, offsets_a = _half_spaces(zero, ha, Ra)
    normals_b, offsets_b = _half_spaces(cb, hb, Rb)
    corners_a, corners_b = _corners(zero, ha, Ra), _corners(cb, hb, Rb)
    coplanar = _coplanar_faces(corners_a, normals_a, offsets_a, corners_b, normals_b,
                               offsets_b, _pair_slack(ha, hb))
    # 12 polygons per pair: a's faces, clipped to b but for the planes they
    # are coplanar with, then b's faces but for the coplanar ones, clipped
    # to a; the offsets of the planes each polygon meets, (n, 12, 6)
    poly = np.concatenate([corners_a[:, _FACES], corners_b[:, _FACES]],
                          axis=1).reshape(-1, 4, 3)
    count = np.full((n, 12), 4)
    count[:, 6:][coplanar.any(axis=1)] = 0
    count = count.reshape(-1)
    offsets = np.concatenate([np.where(coplanar, np.inf, offsets_b[:, None]),
                              offsets_a[:, None].repeat(6, axis=1)], axis=1)
    for k in range(6):
        # a's faces meet b's k-th plane, b's faces a's
        normal = np.stack([normals_b[:, k], normals_a[:, k]], axis=1).repeat(6, axis=1)
        poly = _clip_step(poly, count, normal.reshape(-1, 3), offsets[:, :, k].reshape(-1))
    width = poly.shape[1]
    poly, count = poly.reshape(n, 12, width, 3), count.reshape(n, 12)

    # sequential sums, so that a pair's rounding depends neither on the
    # padding nor on the other pairs
    valid = (np.arange(width) < count[..., None]).reshape(n, 12 * width)
    centre = (np.cumsum(np.where(valid[..., None], poly.reshape(n, 12 * width, 3), 0.0),
                        axis=1)[:, -1]
              / np.maximum(valid.sum(axis=1), 1)[:, None])
    d = poly - centre[:, None, None]
    tets = np.sum(d[:, :, :1] * np.cross(d[:, :, 1:-1], d[:, :, 2:]), axis=3)
    fan = np.arange(1, width - 1) < count[..., None] - 1
    tets = np.where(fan, tets, 0.0).reshape(n, 12 * (width - 2))
    volume = np.cumsum(tets, axis=1)[:, -1] / 6.0
    return np.where(volume > 0.0, volume, 0.0)  # flat contact can round below 0


def _coplanar_faces(corners_a, normals_a, offsets_a, corners_b, normals_b, offsets_b,
                    slack):
    """(n, 6, 6) mask of the coplanar faces (face i of a, face k of b) of each
    pair, as _clip_volumes defines them, from each box's corners (n, 8, 3),
    outward normals (n, 6, 3) and offsets (n, 6), and each pair's slack (n,)."""
    def near(corners, normals, offsets):
        # (n, 6, 6): every corner of each own face within the slack of each plane
        dist = np.abs(corners @ np.swapaxes(normals, 1, 2) - offsets[:, None])
        return dist[:, _FACES].max(axis=2) <= slack[:, None, None]

    return ((normals_a @ np.swapaxes(normals_b, 1, 2) > 0.0)
            & near(corners_a, normals_b, offsets_b)
            & np.swapaxes(near(corners_b, normals_a, offsets_a), 1, 2))


def _iou_bounds(ca, ha, Ra, cb, hb, Rb, va, vb) -> np.ndarray:
    """An upper bound on the IoU of each pair (a[k], b[k]) of volumes va[k]
    and vb[k], as step 3 of this module's docstring states it.

    With C and t as in _axes_overlap, b lies inside the box of half widths
    |C| hb about t in a's frame, and a inside the box of half widths |C|^T ha
    about Rb^T (ca - cb) in b's frame; the smaller volume of these boxes
    clipped to a's and to b's own bounds the intersection volume, and _iou
    grows with it. The half widths get the separating-axis slack, which
    also bounds how far outside b a face of a that the clip keeps as
    coplanar with b's may lie, and the volume a relative _AXIS_SLACK, for
    the determinant of a rotation.
    """
    C = np.swapaxes(Ra, 1, 2) @ Rb
    t = (np.swapaxes(Ra, 1, 2) @ (cb - ca)[:, :, None])[:, :, 0]
    tb = (np.swapaxes(Rb, 1, 2) @ (ca - cb)[:, :, None])[:, :, 0]
    A = np.abs(C) + _AXIS_SLACK
    slack = _pair_slack(ha, hb)[:, None]
    reach_b = (A @ hb[:, :, None])[:, :, 0] + slack
    reach_a = (np.swapaxes(A, 1, 2) @ ha[:, :, None])[:, :, 0] + slack
    inter = np.minimum(_overlap_volume(ha + slack, t, reach_b),
                       _overlap_volume(hb + slack, tb, reach_a))
    return _iou(inter * (1.0 + _AXIS_SLACK), va, vb)


def _overlap_volume(half, centre, reach) -> np.ndarray:
    """Volume of each box [-half, half] clipped to [centre - reach, centre + reach]."""
    width = np.minimum(half, centre + reach) - np.maximum(-half, centre - reach)
    return np.prod(np.maximum(width, 0.0), axis=1)


def _iou(inter, va, vb) -> np.ndarray:
    """IoU of each pair of boxes of volumes va and vb from its intersection
    volume, which grows with it; 0 for no volume."""
    # the rounded clip volume can exceed a box's own
    clamped = np.minimum(inter, np.minimum(va, vb))
    return np.where(clamped > 0.0, clamped / (va + vb - clamped), 0.0)


def _pair_overlaps(a, b, i, j, threshold):
    """The pairs (a[i[k]], b[j[k]]) of the stacked boxes a and b, whose
    bounding spheres overlap, through the separating-axis test, the IoU bound
    and the clip: (mask of the pairs that no axis separates, mask of those
    whose bounded IoU reaches `threshold` and so were clipped, and each
    pair's exact intersection volume and IoU, 0 for a pair not clipped). The
    clip runs on _CLIP_BLOCK pairs at a time; a pair's volume does not depend
    on the others of its block."""
    (ca, ha, Ra), (cb, hb, Rb) = a, b
    kept = _axes_overlap(ca[i], ha[i], Ra[i], cb[j], hb[j], Rb[j])
    # as OrientedBox.volume()
    va, vb = 8.0 * np.prod(ha[i], axis=1), 8.0 * np.prod(hb[j], axis=1)
    candidates = np.flatnonzero(kept)
    k, m = i[candidates], j[candidates]
    bound = _iou_bounds(ca[k], ha[k], Ra[k], cb[m], hb[m], Rb[m],
                        va[candidates], vb[candidates])
    clip_at = candidates[bound >= threshold]
    clipped = np.zeros_like(kept)
    clipped[clip_at] = True
    inter = np.zeros(len(kept))
    for start in range(0, len(clip_at), _CLIP_BLOCK):
        block = clip_at[start:start + _CLIP_BLOCK]
        k, m = i[block], j[block]
        inter[block] = _clip_volumes(ca[k], ha[k], Ra[k], cb[m], hb[m], Rb[m])
    return kept, clipped, inter, _iou(inter, va, vb)


def _one_pair(a: OrientedBox, b: OrientedBox) -> tuple[float, float]:
    """(intersection volume, IoU) of two boxes, by the path of many pairs."""
    a, b = _stack([a]), _stack([b])
    i, j = np.nonzero(_spheres_overlap(a[0], a[1], b[0], b[1]))
    _, _, inter, iou = _pair_overlaps(a, b, i, j, 0.0)
    return (float(inter[0]), float(iou[0])) if len(i) else (0.0, 0.0)


def intersection_volume(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection volume of two oriented boxes, mm^3."""
    return _one_pair(a, b)[0]


def iou3d(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented 3D boxes, in [0, 1]."""
    return _one_pair(a, b)[1]


# ---------------------------------------------------------------------------
# Detection-style evaluation


class Detection(_Frozen):
    __slots__ = ("category", "box", "score")

    def __init__(self, category: str, box: OrientedBox, score: float):
        if not math.isfinite(score):
            raise ValidationError(f"detection score must be finite, got {score}")
        _set_fields(self, category=category, box=box, score=score)


class GroundTruthBox(_Frozen):
    __slots__ = ("category", "box")

    def __init__(self, category: str, box: OrientedBox):
        _set_fields(self, category=category, box=box)


class APResult:
    """The AP of each category with ground truth; `mean_ap` is read off them.
    The pair counts are those of `average_precision`: compared, separated,
    bounded (`pairs_bounded`, left unclipped by the IoU bound) and clipped."""

    __slots__ = ("per_category", "undefined_categories", "pairs_compared",
                 "pairs_separated", "pairs_bounded", "pairs_clipped")

    def __init__(self, per_category: dict[str, float],
                 undefined_categories: list[str] | None = None, pairs_compared: int = 0,
                 pairs_separated: int = 0, pairs_bounded: int = 0, pairs_clipped: int = 0):
        self.per_category = per_category
        self.undefined_categories = ([] if undefined_categories is None
                                     else undefined_categories)
        # prediction/ground-truth pairs of each category; the sphere-passing
        # pairs a separating axis rejected; the pairs it kept whose IoU bound
        # stayed below the threshold; the pairs whose exact volume was
        # computed
        self.pairs_compared = pairs_compared
        self.pairs_separated = pairs_separated
        self.pairs_bounded = pairs_bounded
        self.pairs_clipped = pairs_clipped

    @property
    def mean_ap(self) -> float:
        return float(np.mean(list(self.per_category.values())))


def _greedy_ap(similarity, threshold) -> float:
    """AP of one category from its similarity matrix: one row per prediction,
    in score order, one column per ground-truth box (at least one). Each
    prediction, in row order, takes the unmatched ground truth of highest
    similarity (the first of equals) if that similarity reaches `threshold`;
    any similarity and threshold do, IoU among them."""
    n_pred, n_gt = similarity.shape
    matched = np.zeros(n_gt, dtype=bool)
    tp = np.zeros(n_pred)
    for rank, row in enumerate(similarity):
        row = np.where(matched, -np.inf, row)
        j = int(np.argmax(row))
        if row[j] >= threshold:
            matched[j] = True
            tp[rank] = 1.0
    tp_cum = np.cumsum(tp)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, n_pred + 1)
    # all-points interpolation: running max of precision from the right
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def _rows_by_category(categories) -> dict[str, list[int]]:
    """The row indices of each category, in row order."""
    rows: dict[str, list[int]] = {}
    for k, category in enumerate(categories):
        rows.setdefault(category, []).append(k)
    return rows


def average_precision(predictions: tuple, ground_truth: tuple,
                      iou_threshold: float) -> APResult:
    """Per-category AP by score-descending greedy matching, plus the mean.

    `predictions` is (categories, scores, centres, half extents, rotations)
    and `ground_truth` is (categories, centres, half extents, rotations), as
    `fileio.load_predictions_csv` and `fileio.load_ground_truth_csv` return
    them: the categories a tuple of str, the scores (P,), the centres and
    half extents (N, 3) mm and the rotations (N, 3, 3), each row holding
    values that OrientedBox and Detection would accept.
    A prediction matches at most one ground-truth box of its category and
    only when their IoU reaches the threshold; predictions of equal score
    are taken in row order. Each category's (predictions x ground truth)
    IoU matrix goes to `_greedy_ap`, which matches on any similarity matrix
    and threshold. Categories with predictions but no ground truth have
    undefined AP: they are excluded from the mean and listed in the result.
    Ground truth without a single box is a ValidationError, since no AP is
    defined then. The result also counts the prediction/ground truth pairs
    of each category, the pairs whose bounding spheres overlap but that a
    separating axis rejected (`pairs_separated`), the pairs it kept whose
    IoU bound stays below the threshold, which get IoU 0 and leave the AP as
    it is (`pairs_bounded`), and the pairs whose exact intersection volume
    was computed (`pairs_clipped`).
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValidationError(f"IoU threshold must be in (0, 1), got {iou_threshold}")
    pred_categories, scores, *pred_boxes = predictions
    gt_categories, *gt_boxes = ground_truth
    if not len(gt_categories):
        raise ValidationError("the ground truth holds no box, so no category has an AP")
    pred_rows, gt_rows = _rows_by_category(pred_categories), _rows_by_category(gt_categories)
    categories = sorted(gt_rows)

    # the sphere test within each category, on its predictions by score;
    # the other two steps run once, on the pairs of every category
    (pred_centres, pred_half, _), (gt_centres, gt_half, _) = pred_boxes, gt_boxes
    local, i, j = [], [], []
    for cat in categories:
        pred = np.array(pred_rows.get(cat, []), dtype=np.intp)
        pred = pred[np.argsort(-scores[pred], kind="stable")]
        gt = np.array(gt_rows[cat], dtype=np.intp)
        pi, pj = np.nonzero(_spheres_overlap(pred_centres[pred], pred_half[pred],
                                             gt_centres[gt], gt_half[gt]))
        local.append(((len(pred), len(gt)), pi, pj))
        i.append(pred[pi])
        j.append(gt[pj])
    kept, clipped, _, iou = _pair_overlaps(pred_boxes, gt_boxes, np.concatenate(i),
                                           np.concatenate(j), iou_threshold)

    per_category, start = {}, 0
    for cat, (shape, pi, pj) in zip(categories, local):
        similarity = np.zeros(shape)
        similarity[pi, pj] = iou[start:start + len(pi)]
        per_category[cat] = _greedy_ap(similarity, iou_threshold)
        start += len(pi)
    return APResult(per_category=per_category,
                    undefined_categories=sorted(set(pred_rows) - set(gt_rows)),
                    pairs_compared=sum(rows * cols for (rows, cols), _, _ in local),
                    pairs_separated=int(np.count_nonzero(~kept)),
                    pairs_bounded=int(np.count_nonzero(kept & ~clipped)),
                    pairs_clipped=int(np.count_nonzero(clipped)))


def pointwise_rmse(points, gt: Pose, est: Pose) -> float:
    """Root mean squared distance of the points mapped by gt vs est, mm."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValidationError("pointwise rmse needs >= 1 point")
    diff = apply(gt, pts) - apply(est, pts)
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))

