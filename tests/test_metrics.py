import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from robocal import fileio, metrics
from robocal.errors import ValidationError
from robocal.geometry import (Pose, apply, axis_angle, make_rng, matrix_to_quat,
                              quat_to_matrix, random_rotation, random_unit_vector)
from robocal.metrics import (APResult, Detection, GroundTruthBox,
                             OrientedBox, average_precision, intersection_volume, iou3d,
                             pointwise_rmse)
from robocal.simulate import annotation_quality_table


def contains(box, points):
    """Mask of the points inside the box."""
    local = (np.asarray(points, dtype=float) - box.center) @ box.rotation
    return np.all(np.abs(local) <= box.half_extents, axis=-1)


def mc_iou(a, b, n, rng):
    pts = (rng.uniform(-1.0, 1.0, size=(n, 3)) * a.half_extents) @ a.rotation.T \
        + a.center
    inter = a.volume() * contains(b, pts).mean()
    union = a.volume() + b.volume() - inter
    return inter / union if union > 0 else 0.0


def random_box(rng, center_spread=15.0):
    return OrientedBox(rng.uniform(-center_spread, center_spread, 3),
                       rng.uniform(2.0, 20.0, 3), random_rotation(rng))


def clip_volumes(pairs):
    """Exact clip volume of each (a, b) pair, with no rejection test."""
    return metrics._clip_volumes(*metrics._stack([a for a, _ in pairs]),
                                 *metrics._stack([b for _, b in pairs]))


def clip_volume(a, b):
    return float(clip_volumes([(a, b)])[0])


def iou_matrix(a_boxes, b_boxes):
    """(IoU of every pair of boxes a x b, pairs the separating-axis test
    rejected, pairs clipped), by the pair path of average_precision at
    threshold 0, where the IoU bound leaves every kept pair to the clip."""
    a, b = metrics._stack(a_boxes), metrics._stack(b_boxes)
    i, j = np.nonzero(metrics._spheres_overlap(a[0], a[1], b[0], b[1]))
    kept, _, _, iou = metrics._pair_overlaps(a, b, i, j, 0.0)
    matrix = np.zeros((len(a_boxes), len(b_boxes)))
    matrix[i, j] = iou
    return matrix, int(np.sum(~kept)), int(np.sum(kept))


class TestIou3d:
    def test_identical_boxes(self):
        box = random_box(make_rng(1))
        assert iou3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_identical_offset_box_is_at_most_one(self):
        # far from the origin the rounded clip volume of nested boxes exceeds
        # the inner box's volume; the IoU is clamped to the volume ratio
        rotation = random_rotation(make_rng(3))
        outer = OrientedBox([100.0, 200.0, 300.0], [5.0, 6.0, 7.0], rotation)
        inner = OrientedBox(outer.center, [4.0, 5.0, 6.0], rotation)
        assert intersection_volume(outer, inner) > inner.volume()
        assert iou3d(outer, inner) == inner.volume() / outer.volume()
        assert iou3d(outer, outer) == 1.0

    def test_disjoint_boxes(self):
        a = OrientedBox([0.0, 0, 0], [1.0, 1, 1], np.eye(3))
        b = OrientedBox([20.0, 0, 0], [1.0, 1, 1], np.eye(3))
        assert iou3d(a, b) == 0.0

    def test_axis_aligned_half_offset(self):
        a = OrientedBox([0.0, 0, 0], [0.5, 0.5, 0.5], np.eye(3))
        b = OrientedBox([0.5, 0, 0], [0.5, 0.5, 0.5], np.eye(3))
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_nested_boxes_equal_volume_ratio(self, s):
        outer = OrientedBox([0.0, 0, 0], [4.0, 5.0, 6.0], np.eye(3))
        inner = OrientedBox([0.0, 0, 0], [4.0 * s, 5.0, 6.0], np.eye(3))
        assert iou3d(outer, inner) == pytest.approx(s, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = make_rng(2)
        for _ in range(40):
            a = random_box(rng)
            b = OrientedBox(a.center + rng.uniform(-15, 15, 3),
                            rng.uniform(2.0, 20.0, 3), random_rotation(rng))
            exact = iou3d(a, b)
            estimate = mc_iou(a, b, 200_000, rng)
            assert exact == pytest.approx(estimate, abs=0.02)

    def test_symmetry(self):
        rng = make_rng(3)
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            assert iou3d(a, b) == pytest.approx(iou3d(b, a), abs=1e-12)

    def test_rigid_invariance(self):
        rng = make_rng(4)
        a, b = random_box(rng), random_box(rng)
        mover = Pose(random_rotation(rng), rng.uniform(-100, 100, 3))
        a_moved, b_moved = (OrientedBox(apply(mover, box.center), box.half_extents,
                                        mover.rotation @ box.rotation) for box in (a, b))
        assert iou3d(a_moved, b_moved) == pytest.approx(iou3d(a, b), abs=1e-9)

    def test_face_contact_has_zero_volume(self):
        a = OrientedBox([0.0, 0, 0], [1.0, 1, 1], np.eye(3))
        b = OrientedBox([2.0, 0, 0], [1.0, 1, 1], np.eye(3))
        assert intersection_volume(a, b) == 0.0

    def test_bad_extents_rejected(self):
        with pytest.raises(ValidationError):
            OrientedBox([0.0, 0, 0], [1.0, 0.0, 1.0], np.eye(3))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_extents_rejected(self, value):
        # an infinite box used to construct, with volume inf and IoU 0 with
        # the unit box
        with pytest.raises(ValidationError):
            OrientedBox([0.0, 0, 0], [value, 1.0, 1.0], np.eye(3))

    def test_scaled_rotation_rejected(self):
        # 2*I is not a rotation; unchecked, it gave IoU 0 with its own unit box
        with pytest.raises(ValidationError):
            OrientedBox([0.0, 0, 0], [1.0, 1, 1], 2.0 * np.eye(3))

    def test_reflection_rejected(self):
        # unchecked, a reflected box had IoU 0 with itself
        with pytest.raises(ValidationError):
            OrientedBox([0.0, 0, 0], [1.0, 2, 3], np.diag([1.0, 1.0, -1.0]))


class TestSphereRejection:
    def test_matches_clip_hull_around_the_sphere_bound(self):
        # centre distances spread over 0.9-1.1 x the sum of the half-extent
        # norms, so pairs fall on both sides of the rejection rule
        rng = make_rng(16)
        overlapping = 0
        for _ in range(200):
            a = random_box(rng)
            half = rng.uniform(2.0, 20.0, 3)
            reach = np.linalg.norm(a.half_extents) + np.linalg.norm(half)
            offset = random_unit_vector(rng) * reach * rng.uniform(0.9, 1.1)
            b = OrientedBox(a.center + offset, half, random_rotation(rng))
            expected = clip_volume(a, b)
            assert intersection_volume(a, b) == expected
            overlapping += expected > 0.0
        assert overlapping > 0

    def test_disjoint_spheres_skip_hull(self, monkeypatch):
        # only the sphere-passing pair reaches the separating-axis test, and
        # the clip runs only on pairs that test passes
        tested = []
        axes_overlap = metrics._axes_overlap

        def spy(ca, ha, Ra, cb, hb, Rb):
            tested.extend((cb - ca)[:, 0].tolist())
            return axes_overlap(ca, ha, Ra, cb, hb, Rb)

        monkeypatch.setattr(metrics, "_axes_overlap", spy)
        a = OrientedBox([0.0, 0, 0], [1.0, 1, 1], np.eye(3))
        near = OrientedBox([1.5, 0, 0], [1.0, 1, 1], np.eye(3))
        # 1.5 mm apart; the bounding spheres miss by 0.04 mm
        far = OrientedBox([3.5, 0, 0], [1.0, 1, 1], np.eye(3))
        # 0.5 mm apart; the spheres overlap, the y axis separates the boxes
        apart = OrientedBox([0.0, 2.5, 0], [1.0, 1, 1], np.eye(3))
        iou, separated, clipped = iou_matrix([a], [near, far, apart])
        assert tested == [1.5, 0.0]
        assert (separated, clipped) == (1, 1)
        assert iou[0, 0] == pytest.approx(1.0 / 7.0, abs=1e-12)  # 2 / (8 + 8 - 2)
        assert iou[0, 1] == iou[0, 2] == 0.0


def placed_box(lo, hi, rotation=np.eye(3), origin=(0.0, 0.0, 0.0)):
    """The box [lo, hi] of a frame with this rotation and origin."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    center = np.asarray(origin) + rotation @ ((lo + hi) / 2.0)
    return OrientedBox(center, (hi - lo) / 2.0, rotation)


def halfspace_volume(a, b):
    """Intersection volume by scipy's half-space intersection and hull.

    The half-spaces are taken about a's centre, so that their offsets, and
    the solver's rounding with them, scale with the pair and not with its
    distance from the origin. An intersection thinner than 1e-7 of the
    pair's largest half extent reads as no volume: Qhull needs a point
    clearly inside every half-space, and the solver's centre may not be one.
    """
    rows, limits = [], []
    for box in (a, b):
        # |R^T (x - c)| <= h, one row per face, x taken from a's centre
        local_center = box.rotation.T @ (box.center - a.center)
        rows += [box.rotation.T, -box.rotation.T]
        limits += [box.half_extents + local_center, box.half_extents - local_center]
    A, limit = np.vstack(rows), np.concatenate(limits)
    # Chebyshev centre: the point deepest inside all 12 unit-normal half-spaces
    lp = linprog(np.r_[0.0, 0.0, 0.0, -1.0], A_ub=np.c_[A, np.ones(12)], b_ub=limit,
                 bounds=[(None, None)] * 3 + [(None, None)])
    centre = lp.x[:3]
    depth = np.min(limit - A @ centre)  # how deep the centre found lies
    if depth <= 1e-7 * max(a.half_extents.max(), b.half_extents.max()):
        return 0.0
    hs = HalfspaceIntersection(np.c_[A, -limit], centre)
    return ConvexHull(hs.intersections).volume


FRAMES = {"axis-aligned": (np.eye(3), (0.0, 0.0, 0.0)),
          "rotated, far": (random_rotation(make_rng(18)), (4120.0, -2375.0, 960.0))}


@pytest.mark.parametrize("frame", sorted(FRAMES))
class TestCoplanarFaces:
    def boxes(self, frame, lo, hi):
        rotation, origin = FRAMES[frame]
        return (placed_box([0.0, 0, 0], [10.0, 10, 10], rotation, origin),
                placed_box(lo, hi, rotation, origin))

    def test_identical_boxes(self, frame):
        a, b = self.boxes(frame, [0.0, 0, 0], [10.0, 10, 10])
        assert iou3d(a, b) == pytest.approx(1.0, abs=1e-12)
        assert intersection_volume(a, b) == pytest.approx(1000.0, rel=1e-12)

    @pytest.mark.parametrize("lo, hi, expected", [
        ([0.0, 0, 3], [10.0, 10, 10], 700.0),  # five shared face planes
        ([5.0, 5, 0], [15.0, 15, 10], 250.0),  # two shared, overlapping faces
        ([2.0, 2, 0], [6.0, 6, 6], 96.0),  # nested, one shared face
    ])
    def test_shared_face_planes_count_once(self, frame, lo, hi, expected):
        a, b = self.boxes(frame, lo, hi)
        assert intersection_volume(a, b) == pytest.approx(expected, rel=1e-12)
        assert intersection_volume(b, a) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [
        ([10.0, 0, 0], [20.0, 10, 10]),  # whole face
        ([10.0, 3, -2], [20.0, 13, 5]),  # part of a face
        ([10.0, 10, 0], [20.0, 20, 10]),  # edge
        ([10.0, 10, 10], [20.0, 20, 20]),  # corner
    ])
    def test_touching_boxes_have_no_volume(self, frame, lo, hi):
        a, b = self.boxes(frame, lo, hi)
        smaller = min(a.volume(), b.volume())
        assert intersection_volume(a, b) <= 1e-9 * smaller
        assert intersection_volume(b, a) <= 1e-9 * smaller


def test_clip_volume_matches_halfspace_intersection():
    rng = make_rng(19)
    overlapping = 0
    for _ in range(500):
        a = random_box(rng)
        b = OrientedBox(a.center + rng.uniform(-15, 15, 3), rng.uniform(2.0, 20.0, 3),
                        random_rotation(rng))
        expected = halfspace_volume(a, b)
        assert clip_volume(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        overlapping += expected > 0.0
    assert overlapping > 300


def test_volume_does_not_depend_on_the_batch():
    rng = make_rng(21)
    pairs = [(random_box(rng), random_box(rng)) for _ in range(60)]
    together = clip_volumes(pairs)
    assert np.sum(together > 0.0) > 30
    order = rng.permutation(len(pairs))
    assert np.array_equal(clip_volumes([pairs[k] for k in order]), together[order])
    assert np.array_equal([clip_volume(a, b) for a, b in pairs], together)
    # one IoU matrix equals the one-pair calls, bit for bit
    a_boxes, b_boxes = [a for a, _ in pairs[:8]], [b for _, b in pairs[:8]]
    matrix = iou_matrix(a_boxes, b_boxes)[0]
    assert np.array_equal(matrix, [[iou3d(a, b) for b in b_boxes] for a in a_boxes])


def polygon_loop_clip(polygon, normal, offset):
    """Sutherland-Hodgman clip of one polygon, a list of (x, y, z), against
    normal . x <= offset, vertex by vertex, a vertex being outside where its
    distance is above 0: the reference for _clip_step."""
    nx, ny, nz = normal
    dist = [nx * x + ny * y + nz * z - offset for x, y, z in polygon]
    out = []
    for i, (p, dp) in enumerate(zip(polygon, dist)):
        q, dq = polygon[i - 1], dist[i - 1]  # edge q -> p
        if (dq > 0.0 and dp <= 0.0) or (dq < 0.0 and dp > 0.0):
            s = dq / (dq - dp)
            out.append((q[0] + s * (p[0] - q[0]), q[1] + s * (p[1] - q[1]),
                        q[2] + s * (p[2] - q[2])))
        if dp <= 0.0:
            out.append(p)
    return out


def test_clip_step_matches_polygon_loop():
    # box faces cut by six random planes in turn, plus a zigzag quad that
    # crosses its plane four times and so outgrows the array's width
    rng = make_rng(22)
    polygons = [random_box(rng).corners()[list(metrics._FACES[k % 6])].tolist()
                for k in range(120)]
    polygons.append([(0.0, 0, 0), (1.0, 0, 1), (2.0, 0, 0), (3.0, 0, 1)])
    width = 4
    poly = np.zeros((len(polygons), width, 3))
    poly[:] = polygons
    count = np.full(len(polygons), 4)
    for _ in range(6):
        normals = np.array([random_unit_vector(rng) for _ in polygons])
        normals[-1] = [0.0, 0.0, 1.0]
        offsets = (np.einsum("ij,ij->i", normals, poly[:, 0])
                   + rng.uniform(-8.0, 8.0, len(poly)))
        offsets[-1] = 0.5
        poly = metrics._clip_step(poly, count, normals, offsets)
        polygons = [polygon_loop_clip(pg, n, o) if pg else pg
                    for pg, n, o in zip(polygons, normals.tolist(), offsets.tolist())]
        assert [len(pg) for pg in polygons] == count.tolist()
        for row, pg in zip(poly, polygons):
            assert row[:len(pg)].tolist() == [list(v) for v in pg]
        width = max(width, poly.shape[1])
    assert width == 6  # the zigzag: two crossings in, two out, two vertices inside
    assert 0 < np.count_nonzero(count[:-1]) < len(count) - 1


def axes_and_spheres_keep(a, b):
    (ca, ha, Ra), (cb, hb, Rb) = metrics._stack([a]), metrics._stack([b])
    return bool(metrics._spheres_overlap(ca, ha, cb, hb)[0, 0]
                and metrics._axes_overlap(ca, ha, Ra, cb, hb, Rb)[0])


rotations = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(lambda q: quat_to_matrix(q / np.linalg.norm(q)))
extents = st.tuples(*[st.floats(0.5, 40.0)] * 3).map(np.array)


@st.composite
def near_touching_pairs(draw):
    """Box b against a face, an edge or a corner of box a, then moved off or
    into a by 1e-9 mm along each axis of the contact, or not at all."""
    a = OrientedBox(draw(st.tuples(*[st.floats(-1000.0, 1000.0)] * 3)), draw(extents),
                    draw(rotations))
    rot_b = draw(st.one_of(st.just(a.rotation), rotations))  # aligned or not
    # aligned boxes with proportional extents meet corner to corner on the
    # line of their centres, where only the sphere test decides
    half_b = draw(st.one_of(extents, st.floats(0.2, 5.0).map(lambda f: f * a.half_extents)))
    contact_axes = draw(st.integers(1, 3))  # face, edge or corner
    gap = draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
    center = a.center
    for n, k in enumerate(draw(st.permutations([0, 1, 2]))):
        axis = a.rotation[:, k]
        if n < contact_axes:
            reach_b = float(np.sum(half_b * np.abs(rot_b.T @ axis)))
            shift = draw(st.sampled_from([-1.0, 1.0])) * (a.half_extents[k] + reach_b + gap)
        else:
            shift = draw(st.floats(-1.0, 1.0)) * a.half_extents[k]
        center = center + axis * shift
    return a, OrientedBox(center, half_b, rot_b)


@settings(max_examples=200)
@given(pair=st.one_of(near_touching_pairs(), st.tuples(*[st.builds(
    OrientedBox, st.tuples(*[st.floats(-40.0, 40.0)] * 3), extents, rotations)] * 2)))
def test_rejection_never_drops_an_overlapping_pair(pair):
    a, b = pair
    kept = axes_and_spheres_keep(a, b)
    volume = clip_volume(a, b)
    # 1e-30 mm^3 = (1e-10 mm)^3: moving by 1e-9 mm overlaps by more, while
    # boxes touching corner to corner can keep ~(1e-14 mm)^3 of rounding
    if halfspace_volume(a, b) > 0.0 or volume > 1e-30:
        assert kept
    assert intersection_volume(a, b) == (volume if kept else 0.0)


def _perfect_prediction(gt, score):
    return Detection(gt.category, gt.box, score)


def _columns(rows):
    return (tuple(row.category for row in rows), *metrics._stack([row.box for row in rows]))


def box_columns(predictions, ground_truth):
    """(prediction columns, ground-truth columns) of lists of Detection and
    GroundTruthBox rows, as the detection CSV readers return them."""
    categories, *boxes = _columns(predictions)
    scores = np.array([p.score for p in predictions], dtype=float)
    return (categories, scores, *boxes), _columns(ground_truth)


def load_box_columns(gt_path, pred_path):
    """(prediction columns, ground-truth columns) of two detection CSVs."""
    return fileio.load_predictions_csv(pred_path), fileio.load_ground_truth_csv(gt_path)


def load_rows(gt_path, pred_path):
    """(predictions, ground truth) of two detection CSVs, as row lists."""
    categories, scores, *boxes = fileio.load_predictions_csv(pred_path)
    predictions = [Detection(category, OrientedBox(*box), float(score))
                   for category, score, *box in zip(categories, scores, *boxes)]
    categories, *boxes = fileio.load_ground_truth_csv(gt_path)
    return predictions, [GroundTruthBox(category, OrientedBox(*box))
                         for category, *box in zip(categories, *boxes)]


def reference_ap(predictions, ground_truth, threshold):
    """(AP per category, mean AP) of lists of Detection and GroundTruthBox
    rows, one pair at a time: each prediction of a category, by descending
    score and in list order on ties, takes the unmatched ground truth of
    highest iou3d (the first of equals) if that IoU reaches the threshold.
    AP sums, from recall 0 up, each recall step times the best precision at
    or after it."""
    per_category = {}
    for cat in sorted({g.category for g in ground_truth}):
        gts = [g.box for g in ground_truth if g.category == cat]
        preds = sorted((p for p in predictions if p.category == cat), key=lambda p: -p.score)
        matched = [False] * len(gts)
        hits, precision, recall = 0, [], []
        for rank, pred in enumerate(preds, start=1):
            # (IoU, -index): the highest IoU, then the lowest index
            free = [(iou3d(pred.box, gt), -j) for j, gt in enumerate(gts) if not matched[j]]
            iou, j = max(free, default=(-1.0, 0))
            if iou >= threshold:
                matched[-j] = True
                hits += 1
            precision.append(hits / rank)
            recall.append(hits / len(gts))
        ap, previous = 0.0, 0.0
        for k, r in enumerate(recall):
            ap += (r - previous) * max(precision[k:])
            previous = r
        per_category[cat] = ap
    return per_category, float(np.mean(list(per_category.values())))


def pooled_rows(rng):
    """(predictions, ground truth) of pooled categories: jittered true
    positives (IoU 0.5-0.8 with their own box) and false positives scattered
    over the whole scene."""
    gts, preds = [], []
    for cat in ("bottle", "cup", "teapot"):
        for _ in range(8):
            box = random_box(rng, center_spread=300.0)
            gts.append(GroundTruthBox(cat, box))
            jittered = OrientedBox(
                box.center + rng.normal(0.0, 1.0, 3),
                box.half_extents * rng.uniform(0.9, 1.1, 3),
                axis_angle(random_unit_vector(rng), rng.uniform(0.0, 10.0)) @ box.rotation)
            preds.append(Detection(cat, jittered, rng.uniform(0.3, 1.0)))
        for _ in range(8):
            preds.append(Detection(cat, random_box(rng, center_spread=300.0),
                                   rng.uniform(0.0, 1.0)))
    return preds, gts


def _write_csvs(tmp_path, predictions, ground_truth):
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    fileio.save_ground_truth_csv(gt_path, ground_truth)
    fileio.save_predictions_csv(pred_path, predictions)
    return gt_path, pred_path


class TestAveragePrecision:
    def test_perfect_predictions(self):
        rng = make_rng(5)
        gts = [GroundTruthBox(cat, random_box(rng))
               for cat in ("cup", "cup", "box", "bottle")]
        preds = [_perfect_prediction(g, 1.0) for g in gts]
        result = average_precision(*box_columns(preds, gts), 0.5)
        assert all(ap == pytest.approx(1.0) for ap in result.per_category.values())
        assert result.mean_ap == pytest.approx(1.0)

    def test_no_predictions(self):
        gts = [GroundTruthBox("cup", random_box(make_rng(6)))]
        result = average_precision(*box_columns([], gts), 0.25)
        assert result.per_category["cup"] == 0.0
        assert result.mean_ap == 0.0

    def test_one_perfect_one_disjoint(self):
        # hand-enumerated PR curve: TP at rank 1 (recall 0.5, precision 1),
        # FP at rank 2; interpolated area = 0.5 at any threshold
        rng = make_rng(7)
        g1 = GroundTruthBox("cup", random_box(rng))
        g2 = GroundTruthBox("cup", OrientedBox(g1.box.center + 500.0,
                                               [5.0, 5.0, 5.0], np.eye(3)))
        far = OrientedBox(g1.box.center + 1000.0, [5.0, 5.0, 5.0], np.eye(3))
        preds = [_perfect_prediction(g1, 0.9), Detection("cup", far, 0.1)]
        for threshold in (0.25, 0.5, 0.75):
            result = average_precision(*box_columns(preds, [g1, g2]), threshold)
            assert result.per_category["cup"] == pytest.approx(0.5)

    def test_monotone_rescoring_invariance(self):
        rng = make_rng(8)
        gts = [GroundTruthBox("box", random_box(rng)) for _ in range(5)]
        preds = []
        for k, g in enumerate(gts[:4]):
            preds.append(_perfect_prediction(g, 0.9 - 0.1 * k))
        preds.append(Detection("box", random_box(rng), 0.05))
        base = average_precision(*box_columns(preds, gts), 0.25)
        rescored = [Detection(p.category, p.box, 10.0 + 100.0 * p.score)
                    for p in preds]
        again = average_precision(*box_columns(rescored, gts), 0.25)
        assert base.per_category == again.per_category

    def test_category_without_gt_is_excluded_and_noted(self):
        rng = make_rng(9)
        gt = GroundTruthBox("cup", random_box(rng))
        preds = [_perfect_prediction(gt, 1.0),
                 Detection("teapot", random_box(rng), 0.9)]
        result = average_precision(*box_columns(preds, [gt]), 0.5)
        assert result.undefined_categories == ["teapot"]
        assert "teapot" not in result.per_category
        assert result.mean_ap == pytest.approx(1.0)

    def test_each_gt_matched_once(self):
        rng = make_rng(10)
        gt = GroundTruthBox("can", random_box(rng))
        # two identical predictions for one ground truth: second is a FP
        preds = [_perfect_prediction(gt, 0.9), _perfect_prediction(gt, 0.8)]
        result = average_precision(*box_columns(preds, [gt]), 0.5)
        assert result.per_category["can"] == pytest.approx(1.0)  # recall hit at rank 1

    def test_pairs_compared_and_clipped(self):
        # 2 predictions x 2 ground truths are compared; of the 4 pairs only
        # (g1 itself, g1) has overlapping bounding spheres, and it is clipped:
        # g2 and far lie 866 and 1732 mm from g1, whose half-extent norm is at
        # most 35 mm, and 866 mm from each other
        rng = make_rng(20)
        g1 = GroundTruthBox("cup", random_box(rng))
        g2 = GroundTruthBox("cup", OrientedBox(g1.box.center + 500.0,
                                               [5.0, 5.0, 5.0], np.eye(3)))
        far = OrientedBox(g1.box.center + 1000.0, [5.0, 5.0, 5.0], np.eye(3))
        preds = [_perfect_prediction(g1, 0.9), Detection("cup", far, 0.1)]
        result = average_precision(*box_columns(preds, [g1, g2]), 0.5)
        assert (result.pairs_compared, result.pairs_separated,
                result.pairs_clipped) == (4, 0, 1)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValidationError):
            average_precision(*box_columns([], []), 1.5)

    def test_ground_truth_without_a_box_is_refused(self):
        # every category's AP would be undefined; the mean used to read 0.0
        preds, _ = pooled_rows(make_rng(33))
        for predictions in (preds, []):
            with pytest.raises(ValidationError, match="ground truth holds no box"):
                average_precision(*box_columns(predictions, []), 0.5)

    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_matches_row_reference(self, threshold):
        preds, gts = pooled_rows(make_rng(23))
        # scores of two decimals: ties within a category
        preds = [Detection(p.category, p.box, round(p.score, 2)) for p in preds]
        assert len({(p.category, p.score) for p in preds}) < len(preds)
        result = average_precision(*box_columns(preds, gts), threshold)
        per_category, mean_ap = reference_ap(preds, gts, threshold)
        assert result.per_category == per_category
        assert result.mean_ap == mean_ap
        assert any(0.0 < ap < 1.0 for ap in per_category.values())

    @pytest.mark.parametrize("first_is_hit, expected", [(True, 1.0), (False, 0.5)])
    def test_tied_scores_keep_file_order(self, first_is_hit, expected, tmp_path):
        # hand-enumerated: a hit then a miss is precision 1 at recall 1; a
        # miss then a hit reaches recall 1 at precision 1/2
        gt = GroundTruthBox("cup", random_box(make_rng(24)))
        far = OrientedBox(gt.box.center + 500.0, [5.0, 5.0, 5.0], np.eye(3))
        preds = [_perfect_prediction(gt, 0.5), Detection("cup", far, 0.5)]
        if not first_is_hit:
            preds.reverse()
        paths = _write_csvs(tmp_path, preds, [gt])
        result = average_precision(*load_box_columns(*paths), 0.5)
        assert result.per_category == {"cup": expected}
        assert reference_ap(*load_rows(*paths), 0.5) == ({"cup": expected}, expected)

    def test_nul_suffixed_category_is_a_category_of_its_own(self, tmp_path):
        rng = make_rng(25)
        # merged, the two would be one category of 2 x 2 pairs
        cup = GroundTruthBox("cup", random_box(rng))
        far = OrientedBox(cup.box.center + 500.0, [5.0, 5.0, 5.0], np.eye(3))
        gts = [cup, GroundTruthBox("cup\x00", far)]
        preds = [_perfect_prediction(cup, 0.9), Detection("cup\x00", cup.box, 0.8)]
        paths = _write_csvs(tmp_path, preds, gts)
        result = average_precision(*load_box_columns(*paths), 0.5)
        assert result.per_category == {"cup": 1.0, "cup\x00": 0.0}
        assert result.pairs_compared == 2
        assert reference_ap(*load_rows(*paths), 0.5) == (result.per_category, 0.5)

    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_sphere_rejection_leaves_ap_unchanged(self, threshold, monkeypatch):
        preds, gts = pooled_rows(make_rng(17))
        detections = box_columns(preds, gts)
        result = average_precision(*detections, threshold)
        # bypass both rejection tests and the IoU bound: every pair is clipped
        monkeypatch.setattr(metrics, "_spheres_overlap",
                            lambda ca, ha, cb, hb: np.ones((len(ca), len(cb)), bool))
        monkeypatch.setattr(metrics, "_axes_overlap",
                            lambda ca, *args: np.ones(len(ca), bool))
        monkeypatch.setattr(metrics, "_iou_bounds", lambda ca, *args: np.ones(len(ca)))
        reference = average_precision(*detections, threshold)
        assert reference.pairs_clipped == reference.pairs_compared
        assert result.pairs_clipped < reference.pairs_compared
        assert result.per_category == reference.per_category
        assert result.mean_ap == reference.mean_ap
        assert any(0.0 < ap < 1.0 for ap in result.per_category.values())


# ---------------------------------------------------------------------------
# The per-category path that average_precision replaced, kept whole as a
# bit-for-bit oracle: one sphere test, separating-axis test and clip per
# category, on polygons padded to 10 slots, with the clip step that wrote
# each clipped polygon through a (polygons, width, 2, 3) array of candidate
# vertices. It shares only _half_spaces and _corners with the program. It
# classes each vertex as inside a plane up to 1e-12 mm, and drops a clipped
# face of b that lies within 1e-12 mm of a face plane of a with its normal,
# as the clip did before it decided coplanar faces once, ahead of the clip.


def oracle_clip_step(poly, count, normal, offset):
    eps = 1e-12
    rows = np.flatnonzero(count)
    p, c = poly[rows], count[rows]
    nx, ny, nz = normal[rows].T
    dist = (nx[:, None] * p[..., 0] + ny[:, None] * p[..., 1] + nz[:, None] * p[..., 2]
            - offset[rows, None])
    width = poly.shape[1]
    slot = np.arange(width)
    valid = slot < c[:, None]
    n_out = np.sum(valid & (dist > eps), axis=1)
    count[rows[n_out == c]] = 0
    cut = (n_out > 0) & (n_out < c)
    rows, p, c, dist, valid = rows[cut], p[cut], c[cut], dist[cut], valid[cut]
    # the edge into vertex k starts at q = vertex k - 1, or the last vertex
    last = (np.arange(len(rows)), c - 1)
    dq = np.concatenate([dist[last][:, None], dist[:, :-1]], axis=1)
    q = np.concatenate([p[last][:, None], p[:, :-1]], axis=1)
    inside = valid & (dist <= eps)
    crossing = valid & (((dq > eps) & inside)
                        | ((dq < -eps) & (dist > eps)))
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


def oracle_spheres_overlap(ca, ha, cb, hb):
    reach = np.linalg.norm(ha, axis=1)[:, None] + np.linalg.norm(hb, axis=1)
    return np.linalg.norm(ca[:, None] - cb, axis=2) < reach


def oracle_axes_overlap(ca, ha, Ra, cb, hb, Rb):
    slack_unit = metrics._AXIS_SLACK
    C = np.swapaxes(Ra, 1, 2) @ Rb
    t = (np.swapaxes(Ra, 1, 2) @ (cb - ca)[:, :, None])[:, :, 0]
    A = np.abs(C) + slack_unit
    slack = slack_unit * (np.linalg.norm(ha, axis=1) + np.linalg.norm(hb, axis=1))[:, None]
    apart = np.any(np.abs(t) > ha + (A @ hb[:, :, None])[:, :, 0] + slack, axis=1)
    tb = (np.swapaxes(C, 1, 2) @ t[:, :, None])[:, :, 0]
    ra = (np.swapaxes(A, 1, 2) @ ha[:, :, None])[:, :, 0]
    apart |= np.any(np.abs(tb) > hb + ra + slack, axis=1)
    j1, j2 = [1, 2, 0], [2, 0, 1]
    for i, i1, i2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        along = np.abs(t[:, i2, None] * C[:, i1] - t[:, i1, None] * C[:, i2])
        ra = ha[:, i1, None] * A[:, i2] + ha[:, i2, None] * A[:, i1]
        rb = hb[:, j1] * A[:, i, j2] + hb[:, j2] * A[:, i, j1]
        apart |= np.any(along > ra + rb + slack, axis=1)
    return ~apart


def oracle_clip_volumes(ca, ha, Ra, cb, hb, Rb):
    eps, n = 1e-12, len(ca)
    zero, cb = np.zeros_like(ca), cb - ca
    normals_a, offsets_a = metrics._half_spaces(zero, ha, Ra)
    normals_b, offsets_b = metrics._half_spaces(cb, hb, Rb)
    faces = np.concatenate([metrics._corners(zero, ha, Ra)[:, metrics._FACES],
                            metrics._corners(cb, hb, Rb)[:, metrics._FACES]], axis=1)
    poly = np.zeros((n * 12, 10, 3))
    poly[:, :4] = faces.reshape(-1, 4, 3)
    count = np.full(n * 12, 4)
    clip_normals = np.stack([normals_b, normals_a], axis=1).repeat(6, axis=1)
    clip_offsets = np.stack([offsets_b, offsets_a], axis=1).repeat(6, axis=1)
    clip_normals, clip_offsets = clip_normals.reshape(-1, 6, 3), clip_offsets.reshape(-1, 6)
    for k in range(6):
        poly = oracle_clip_step(poly, count, clip_normals[:, k], clip_offsets[:, k])
    width = poly.shape[1]
    poly, count = poly.reshape(n, 12, width, 3), count.reshape(n, 12)
    pair, face = np.nonzero(count[:, 6:])
    verts = poly[pair, 6 + face]
    gap = np.abs(verts @ np.swapaxes(normals_a[pair], 1, 2) - offsets_a[pair, None])
    valid = np.arange(width) < count[pair, 6 + face, None]
    on_plane = np.all((gap <= eps) | ~valid[..., None], axis=1)
    same_normal = np.einsum("kij,kj->ki", normals_a[pair], normals_b[pair, face]) > 0.0
    shared = np.any(on_plane & same_normal, axis=1)
    count[pair[shared], 6 + face[shared]] = 0
    valid = (np.arange(width) < count[..., None]).reshape(n, 12 * width)
    total = np.cumsum(np.where(valid[..., None], poly.reshape(n, 12 * width, 3), 0.0),
                      axis=1)
    centre = total[:, -1] / np.maximum(valid.sum(axis=1), 1)[:, None]
    d = poly - centre[:, None, None]
    tets = np.sum(d[:, :, :1] * np.cross(d[:, :, 1:-1], d[:, :, 2:]), axis=3)
    fan = np.arange(1, width - 1) < count[..., None] - 1
    tets = np.where(fan, tets, 0.0).reshape(n, 12 * (width - 2))
    volume = np.cumsum(tets, axis=1)[:, -1] / 6.0
    return np.where(volume > 0.0, volume, 0.0)


def oracle_iou_matrix(a, b):
    (ca, ha, Ra), (cb, hb, Rb) = a, b
    i, j = np.nonzero(oracle_spheres_overlap(ca, ha, cb, hb))
    kept = oracle_axes_overlap(ca[i], ha[i], Ra[i], cb[j], hb[j], Rb[j])
    i, j = i[kept], j[kept]
    inter = oracle_clip_volumes(ca[i], ha[i], Ra[i], cb[j], hb[j], Rb[j])
    va, vb = 8.0 * np.prod(ha[i], axis=1), 8.0 * np.prod(hb[j], axis=1)
    inter = np.minimum(inter, np.minimum(va, vb))
    iou = np.zeros((len(ca), len(cb)))
    iou[i, j] = np.where(inter > 0.0, inter / (va + vb - inter), 0.0)
    return iou, int(np.sum(~kept)), len(i)


def oracle_category_ap(predictions, ground_truth, iou_threshold):
    n_pred, n_gt = len(predictions[0]), len(ground_truth[0])
    if not n_pred:
        return 0.0, 0, 0
    iou, separated, clipped = oracle_iou_matrix(predictions, ground_truth)
    matched = np.zeros(n_gt, dtype=bool)
    tp = np.zeros(n_pred)
    for rank, row in enumerate(iou):
        row = np.where(matched, -1.0, row)
        j = int(np.argmax(row))
        if row[j] >= iou_threshold:
            matched[j] = True
            tp[rank] = 1.0
    tp_cum = np.cumsum(tp)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, n_pred + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap), separated, clipped


def oracle_average_precision(detections, iou_threshold):
    """(per_category, mean_ap, pairs compared, separated, clipped)."""
    (pred_categories, scores, *pred_boxes), (gt_categories, *gt_boxes) = detections
    per_category = {}
    compared = separated = clipped = 0
    for cat in sorted(set(gt_categories)):
        gt = np.array([c == cat for c in gt_categories])
        pred = np.flatnonzero([c == cat for c in pred_categories])
        pred = pred[np.argsort(-scores[pred], kind="stable")]
        per_category[cat], n_separated, n_clipped = oracle_category_ap(
            [column[pred] for column in pred_boxes], [column[gt] for column in gt_boxes],
            iou_threshold)
        compared += len(pred) * int(gt.sum())
        separated += n_separated
        clipped += n_clipped
    mean = float(np.mean(list(per_category.values()))) if per_category else 0.0
    return per_category, mean, compared, separated, clipped


def result_bits(result):
    """An APResult's AP values as hex, and its pair counts, with the pairs
    that the IoU bound left out and those clipped counted together: the
    oracle has no bound and clips every pair the separating axes keep."""
    return ({cat: ap.hex() for cat, ap in result.per_category.items()},
            result.mean_ap.hex(), result.pairs_compared, result.pairs_separated,
            result.pairs_bounded + result.pairs_clipped)


def oracle_bits(detections, threshold):
    per_category, mean, *counts = oracle_average_precision(detections, threshold)
    return ({cat: ap.hex() for cat, ap in per_category.items()}, mean.hex(), *counts)


def crowded_rows(rng, n_gt, n_pred, spread):
    """(predictions, ground truth) of one category whose boxes crowd a cube
    of half side `spread` mm, so that most pairs overlap."""
    gts = [GroundTruthBox("cup", random_box(rng, center_spread=spread))
           for _ in range(n_gt)]
    preds = [Detection("cup", random_box(rng, center_spread=spread), rng.uniform(0.0, 1.0))
             for _ in range(n_pred)]
    return preds, gts


class TestMatchesPerCategoryOracle:
    @pytest.mark.parametrize("seed", [23, 26, 27, 28])
    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_pooled_sets(self, seed, threshold):
        detections = box_columns(*pooled_rows(make_rng(seed)))
        result = average_precision(*detections, threshold)
        assert result_bits(result) == oracle_bits(detections, threshold)
        assert result.pairs_clipped > 0

    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_ties_and_unmatched_categories(self, threshold):
        preds, gts = pooled_rows(make_rng(29))
        # scores of one decimal: many ties within a category
        preds = [Detection(p.category, p.box, round(p.score, 1)) for p in preds]
        # teapot has ground truth and no predictions; "knife" the reverse
        preds = [p for p in preds if p.category != "teapot"]
        preds += [Detection("knife", p.box, p.score) for p in preds[:5]]
        detections = box_columns(preds, gts)
        result = average_precision(*detections, threshold)
        assert result_bits(result) == oracle_bits(detections, threshold)
        assert result.per_category["teapot"] == 0.0
        assert result.undefined_categories == ["knife"]

    def test_empty_prediction_file(self, tmp_path):
        paths = _write_csvs(tmp_path, [], pooled_rows(make_rng(30))[1])
        detections = load_box_columns(*paths)
        assert len(detections[0][0]) == 0
        result = average_precision(*detections, 0.5)
        assert result_bits(result) == oracle_bits(detections, 0.5)
        assert result.mean_ap == 0.0 and result.pairs_compared == 0

    def test_clipped_pairs_fill_three_blocks_and_more(self):
        # at a threshold this low the IoU bound leaves out too few pairs to
        # empty a block
        block = metrics._CLIP_BLOCK
        preds, gts = crowded_rows(make_rng(31), 16, 16, 12.0)
        detections = box_columns(preds, gts)
        result = average_precision(*detections, 0.05)
        assert 3 * block < result.pairs_clipped < 4 * block
        assert result_bits(result) == oracle_bits(detections, 0.05)

    def test_blocked_volumes_equal_one_clip_call(self):
        preds, gts = crowded_rows(make_rng(31), 16, 16, 12.0)
        a, b = metrics._stack([p.box for p in preds]), metrics._stack([g.box for g in gts])
        i, j = np.nonzero(metrics._spheres_overlap(a[0], a[1], b[0], b[1]))
        kept, _, blocked, _ = metrics._pair_overlaps(a, b, i, j, 0.0)
        i, j = i[kept], j[kept]
        assert 3 * metrics._CLIP_BLOCK < len(i) < 4 * metrics._CLIP_BLOCK
        whole = metrics._clip_volumes(*(column[i] for column in a),
                                      *(column[j] for column in b))
        assert np.array_equal(blocked[kept], whole)
        assert not blocked[~kept].any()
        assert np.count_nonzero(whole) > 3 * metrics._CLIP_BLOCK


# ---------------------------------------------------------------------------
# The IoU bound between the separating-axis test and the clip


def bound_and_clip_iou(a, b):
    """(_iou_bounds, the IoU of the clip with no rejection test) of a pair."""
    (ca, ha, Ra), (cb, hb, Rb) = metrics._stack([a]), metrics._stack([b])
    va, vb = np.array([a.volume()]), np.array([b.volume()])
    bound = metrics._iou_bounds(ca, ha, Ra, cb, hb, Rb, va, vb)
    exact = metrics._iou(metrics._clip_volumes(ca, ha, Ra, cb, hb, Rb), va, vb)
    return float(bound[0]), float(exact[0])


def near_rotation(rotation, noise, fill):
    """`rotation` plus `noise` (3, 3), scaled so that the larger of its
    deviation from orthonormality and its determinant's from 1 is `fill` x
    _ORTHO_TOL, as far from a rotation as OrientedBox accepts for fill < 1."""
    def deviation(R):
        return max(np.abs(R @ R.T - np.eye(3)).max(), abs(np.linalg.det(R) - 1.0))

    step = 1e-7
    d = deviation(rotation + step * noise)
    if d < 1e-3 * step:  # noise along the rotations themselves
        return rotation
    return rotation + step * (fill * metrics._ORTHO_TOL / d) * noise


noises = st.tuples(*[st.floats(-1.0, 1.0)] * 9).map(lambda v: np.reshape(v, (3, 3)))
centres = st.tuples(*[st.floats(-40.0, 40.0)] * 3).map(np.array)


@st.composite
def bounded_pairs(draw, perturbed):
    """Random, moved, nested, identical and face-touching pairs of boxes; if
    `perturbed`, each rotation is moved to just inside _ORTHO_TOL. A box
    moved along its own axes has its IoU as its bound, but for the slack."""
    kind = draw(st.sampled_from(["random", "moved", "nested", "identical", "touching"]))
    if kind == "touching":
        a, b = draw(near_touching_pairs())
    else:
        a = OrientedBox(draw(centres), draw(extents), draw(rotations))
        if kind == "random":
            b = OrientedBox(draw(centres), draw(extents), draw(rotations))
        elif kind == "moved":
            shift = a.half_extents * np.array(draw(st.tuples(*[st.floats(-1.5, 1.5)] * 3)))
            b = OrientedBox(a.center + a.rotation @ shift, a.half_extents, a.rotation)
        elif kind == "nested":
            half = a.half_extents * draw(st.floats(0.1, 1.0))
            room = (a.half_extents - half) * np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
            b = OrientedBox(a.center + a.rotation @ room, half, a.rotation)
        else:
            b = a
    if not perturbed:
        return a, b
    return tuple(OrientedBox(box.center, box.half_extents,
                             near_rotation(box.rotation, draw(noises), draw(st.floats(0.5, 0.95))))
                 for box in (a, b))


# no explain phase: on a failure it reruns the test on variations of the
# shrunk pair until it holds gigabytes, and it adds nothing to the report
FAILURE_PHASES = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink]


@settings(max_examples=300, phases=FAILURE_PHASES)
@given(pair=bounded_pairs(perturbed=False))
def test_iou_bound_is_never_below_the_clip(pair):
    bound, exact = bound_and_clip_iou(*pair)
    assert bound >= exact


# a pair touching along b's face, its intersection 1e-6 mm thin, whose
# solver centre lay 4e-8 mm inside one half-space: Qhull refused it (QH6023)
TOUCHING_THIN_PAIR = (
    OrientedBox([0.0, 339.0, 0.0], [1.0, 1.0, 16.0],
                [[-0.5013934598926213, 0.7159482052122603, -0.48582190706114453],
                 [0.715948249878705, 0.02802819209965568, -0.6975909162563234],
                 [-0.4858219963940338, -0.6975905589247665, -0.526634620540923]]),
    OrientedBox([8.595967874333553, 324.6249795122995, 11.1116210445468], [19.0, 1.0, 7.0],
                [[-0.501393214227176, 0.7159482052122603, -0.4858219963940338],
                 [0.7159482052122603, 0.02802819209965568, -0.6975902005483332],
                 [-0.48582179543709836, -0.6975904089920529, -0.5266349778724799]]))


@settings(max_examples=150, phases=FAILURE_PHASES)
@given(pair=bounded_pairs(perturbed=True))
@example(pair=TOUCHING_THIN_PAIR)
def test_iou_bound_of_rotations_off_by_the_tolerance(pair):
    # against the IoU of the boxes' half-spaces, |R^T (x - c)| <= h, by
    # scipy, and against the clip's IoU, which differs from it by the
    # shear of the boxes (see sheared_faces)
    a, b = pair
    iou = metrics._iou(halfspace_volume(a, b), a.volume(), b.volume())
    bound, clip = bound_and_clip_iou(a, b)
    assert bound >= iou
    assert bound >= clip
    assert abs(clip - iou) <= 2.0 * (sheared_faces(a) + sheared_faces(b)) + 1e-9


def sheared_faces(box):
    """How far the box's faces, through its corners R (+-h), may lie off its
    half-spaces |R^T x| <= h, relative to its half extents, summed over its
    axes, to first order: the two differ by S = R^T R - I, and S moves the
    point y of the box by S y, so face j by up to (|S| h)_j."""
    shear = np.abs(box.rotation.T @ box.rotation - np.eye(3))
    return float(np.sum(shear @ box.half_extents / box.half_extents))


@pytest.mark.parametrize("offset", [[0.0, 0, 0], [3.0, -1.0, 2.0], [7.5, 0, 0]])
def test_iou_bound_of_a_moved_copy_is_its_iou(offset):
    # b's frame is a's, so the box of b in a's frame is b itself
    a = OrientedBox([10.0, -20.0, 5.0], [4.0, 5.0, 6.0], random_rotation(make_rng(40)))
    b = OrientedBox(a.center + a.rotation @ offset, a.half_extents, a.rotation)
    bound, exact = bound_and_clip_iou(a, b)
    assert bound >= exact
    # the slack widens each side by ~1e-4 mm
    assert bound == pytest.approx(exact, rel=1e-3)


# ---------------------------------------------------------------------------
# Moved copies whose faces lie near the planes of the box's faces


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))


@st.composite
def near_moved_copies(draw):
    """(a, b, IoU of b moved but not turned): b is a, moved by d, 10-90% of
    a half extent h, along one of its axes, then turned by 0 or 1e-15 to
    1e-6 rad about a random axis, or rebuilt from a's quaternion rounded to
    7-17 significant digits and divided by its norm, so that b stays a
    rotated copy of a. The IoU of the move is (2 h - d) / (2 h + d)."""
    a = OrientedBox(draw(centres), draw(extents), draw(rotations))
    k, fraction = draw(st.integers(0, 2)), draw(st.floats(0.1, 0.9))
    shift = draw(st.sampled_from([-1.0, 1.0])) * fraction * a.half_extents[k]
    if draw(st.booleans()):
        angle = draw(st.one_of(st.just(0.0), st.floats(-15.0, -6.0).map(lambda e: 10.0 ** e)))
        rotation = axis_angle(draw(unit_axes), np.degrees(angle)) @ a.rotation
    else:
        digits = draw(st.integers(7, 17))
        q = np.array([float(f"{v:.{digits}g}") for v in matrix_to_quat(a.rotation)])
        rotation = quat_to_matrix(q / np.linalg.norm(q))
    b = OrientedBox(a.center + a.rotation[:, k] * shift, a.half_extents, rotation)
    d = abs(shift)
    return a, b, (2.0 * a.half_extents[k] - d) / (2.0 * a.half_extents[k] + d)


@settings(max_examples=300, phases=FAILURE_PHASES)
@given(case=near_moved_copies())
def test_slightly_turned_moved_copy_keeps_the_iou_of_its_move(case):
    # stated before measuring: turning b by theta moves its faces by at most
    # theta max(h) against faces min(h) apart, so the IoU may move off the
    # closed form by ~theta max(h) / min(h); twice that, plus rounding.
    # theta is |Ra^T Rb - I|, the angle of the turn for a rotation
    a, b, closed_form = case
    theta = np.linalg.norm(a.rotation.T @ b.rotation - np.eye(3), 2)
    tolerance = 2.0 * theta * a.half_extents.max() / a.half_extents.min() + 1e-12
    assert abs(iou3d(a, b) - closed_form) <= tolerance
    assert abs(iou3d(b, a) - closed_form) <= tolerance


def bound_sets():
    """Pooled detections of three seeds, and one crowded category whose
    pairs mostly overlap below any threshold."""
    sets = {f"pooled-{seed}": box_columns(*pooled_rows(make_rng(seed))) for seed in (41, 42, 43)}
    sets["crowded"] = box_columns(*crowded_rows(make_rng(44), 16, 16, 12.0))
    return sets


BOUND_SETS = bound_sets()


class TestIouBound:
    @pytest.mark.parametrize("name", sorted(BOUND_SETS))
    @pytest.mark.parametrize("threshold", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_ap_equals_the_unbounded_ap_bit_for_bit(self, name, threshold, monkeypatch):
        detections = BOUND_SETS[name]
        result = average_precision(*detections, threshold)
        # a bound of 1 reaches every threshold: every kept pair is clipped
        monkeypatch.setattr(metrics, "_iou_bounds", lambda ca, *args: np.ones(len(ca)))
        reference = average_precision(*detections, threshold)
        assert reference.pairs_bounded == 0
        assert ({cat: ap.hex() for cat, ap in result.per_category.items()}
                == {cat: ap.hex() for cat, ap in reference.per_category.items()})
        assert result.mean_ap.hex() == reference.mean_ap.hex()
        assert (result.pairs_compared, result.pairs_separated) == (
            reference.pairs_compared, reference.pairs_separated)
        assert result.pairs_bounded + result.pairs_clipped == reference.pairs_clipped
        # the pooled true positives' IoUs are 0.5-0.8, and few false
        # positives overlap a box
        if name == "crowded" or threshold >= 0.75:
            assert result.pairs_bounded > 0

    @pytest.mark.parametrize("name", sorted(BOUND_SETS))
    @pytest.mark.parametrize("threshold", [0.05, 0.5, 0.95])
    def test_separated_bounded_and_clipped_are_the_sphere_passing_pairs(self, name,
                                                                        threshold):
        (pred_categories, scores, *pred), (gt_categories, *gt) = BOUND_SETS[name]
        sphere_passing = 0
        for cat in set(gt_categories):
            p = np.array([c == cat for c in pred_categories], dtype=bool)
            g = np.array([c == cat for c in gt_categories], dtype=bool)
            sphere_passing += np.count_nonzero(metrics._spheres_overlap(
                pred[0][p], pred[1][p], gt[0][g], gt[1][g]))
        result = average_precision(*BOUND_SETS[name], threshold)
        assert (result.pairs_separated + result.pairs_bounded + result.pairs_clipped
                == sphere_passing)
        assert result.pairs_clipped > 0 or threshold == 0.95


def tracemalloc_peak(fn, *args):
    """Peak of the memory that fn(*args) allocates, bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    # 32 x 32 boxes in a 15 mm cube: about 14 blocks of overlapping pairs;
    # the AP runs at a threshold low enough for the IoU bound to leave nearly
    # all of them to the clip
    THRESHOLD = 0.05

    @pytest.fixture(scope="class")
    def crowded(self):
        preds, gts = crowded_rows(make_rng(32), 32, 32, 15.0)
        pairs = [(p.box, g.box) for p in preds for g in gts]
        overlapping = np.flatnonzero(clip_volumes(pairs) > 0.0)[:metrics._CLIP_BLOCK]
        return box_columns(preds, gts), [pairs[k] for k in overlapping]

    # the AP's peak is within this multiple of one block's clip
    PEAK_BLOCKS = 3.0

    def bound(self, block_pairs):
        a = metrics._stack([pair[0] for pair in block_pairs])
        b = metrics._stack([pair[1] for pair in block_pairs])
        return self.PEAK_BLOCKS * tracemalloc_peak(metrics._clip_volumes, *a, *b)

    def test_peak_stays_within_a_few_blocks(self, crowded):
        detections, block_pairs = crowded
        result = average_precision(*detections, self.THRESHOLD)
        assert result.pairs_clipped >= 4 * metrics._CLIP_BLOCK
        assert (tracemalloc_peak(average_precision, *detections, self.THRESHOLD)
                < self.bound(block_pairs))

    def test_all_pairs_in_one_clip_exceed_the_bound(self, crowded, monkeypatch):
        detections, block_pairs = crowded
        bound = self.bound(block_pairs)
        monkeypatch.setattr(metrics, "_CLIP_BLOCK", 10 ** 9)
        assert tracemalloc_peak(average_precision, *detections, self.THRESHOLD) > bound


class TestPointwiseRmse:
    def test_equal_poses(self):
        pts = make_rng(11).uniform(-30, 30, (100, 3))
        p = Pose(random_rotation(make_rng(12)), [4.0, 5.0, 6.0])
        assert pointwise_rmse(pts, p, p) == 0.0

    def test_pure_translation_is_exact(self):
        pts = make_rng(13).uniform(-30, 30, (200, 3))
        gt = Pose(random_rotation(make_rng(14)), [0.0, 0.0, 0.0])
        est = Pose(gt.rotation, gt.translation + [0.0, 0.8, 0.0])
        assert pointwise_rmse(pts, gt, est) == pytest.approx(0.80, abs=1e-12)

    def test_rotation_offset_matches_naive_loop(self):
        rng = make_rng(15)
        pts = rng.uniform(-30, 30, (50, 3))
        gt = Pose(random_rotation(rng), rng.uniform(-10, 10, 3))
        est = Pose(axis_angle(random_unit_vector(rng), 2.0) @ gt.rotation,
                   gt.translation)
        acc = 0.0
        for p in pts:
            acc += np.sum((apply(gt, p) - apply(est, p)) ** 2)
        expected = np.sqrt(acc / len(pts))
        assert pointwise_rmse(pts, gt, est) == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pointwise_rmse(np.empty((0, 3)), Pose.identity(), Pose.identity())


def test_annotation_quality_table_lists_references():
    table = annotation_quality_table({"rgbd": 0.97})
    assert ">=17.00" in table
    assert "3.40" in table and "2.30" in table and "0.80" in table
    assert "rgbd" in table and "0.97" in table
