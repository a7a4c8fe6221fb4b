import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from robocal import fileio, metrics
from robocal.errors import ValidationError
from robocal.geometry import (Pose, apply, axis_angle, make_rng, quat_to_matrix,
                              random_rotation, random_unit_vector)
from robocal.metrics import (APResult, Detection, DetectionSet, GroundTruthBox,
                             OrientedBox, average_precision, intersection_volume, iou3d,
                             pointwise_rmse)
from robocal.simulate import annotation_quality_table


def contains(box, points):
    """Mask of the points inside the box, up to the clip's tolerance."""
    local = (np.asarray(points, dtype=float) - box.center) @ box.rotation
    return np.all(np.abs(local) <= box.half_extents + metrics._CLIP_EPS, axis=-1)


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


class TestIou3d:
    def test_identical_boxes(self):
        box = random_box(make_rng(1))
        assert iou3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_identical_offset_box_is_at_most_one(self):
        # far from the origin the rounded clip volume exceeds the box volume
        box = OrientedBox([100.0, 200.0, 300.0], [5.0, 6.0, 7.0],
                          random_rotation(make_rng(3)))
        assert intersection_volume(box, box) > box.volume()
        assert iou3d(box, box) == 1.0

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
        iou, separated, clipped = metrics._iou_matrix(metrics._stack([a]),
                                                      metrics._stack([near, far, apart]))
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
    """Intersection volume by scipy's half-space intersection and hull."""
    rows, limits = [], []
    for box in (a, b):
        # |R^T (x - c)| <= h, one row per face
        local_center = box.rotation.T @ box.center
        rows += [box.rotation.T, -box.rotation.T]
        limits += [box.half_extents + local_center, box.half_extents - local_center]
    A, limit = np.vstack(rows), np.concatenate(limits)
    # Chebyshev centre: the point deepest inside all 12 unit-normal half-spaces
    lp = linprog(np.r_[0.0, 0.0, 0.0, -1.0], A_ub=np.c_[A, np.ones(12)], b_ub=limit,
                 bounds=[(None, None)] * 3 + [(None, None)])
    depth = -lp.fun
    if depth <= 1e-6:
        return 0.0
    hs = HalfspaceIntersection(np.c_[A, -limit], lp.x[:3])
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
    matrix = metrics._iou_matrix(metrics._stack(a_boxes), metrics._stack(b_boxes))[0]
    assert np.array_equal(matrix, [[iou3d(a, b) for b in b_boxes] for a in a_boxes])


def polygon_loop_clip(polygon, normal, offset):
    """Sutherland-Hodgman clip of one polygon, a list of (x, y, z), against
    normal . x <= offset, vertex by vertex: the reference for _clip_step."""
    eps = metrics._CLIP_EPS
    nx, ny, nz = normal
    dist = [nx * x + ny * y + nz * z - offset for x, y, z in polygon]
    out = []
    for i, (p, dp) in enumerate(zip(polygon, dist)):
        q, dq = polygon[i - 1], dist[i - 1]  # edge q -> p
        if (dq > eps and dp <= eps) or (dq < -eps and dp > eps):
            s = dq / (dq - dp)
            out.append((q[0] + s * (p[0] - q[0]), q[1] + s * (p[1] - q[1]),
                        q[2] + s * (p[2] - q[2])))
        if dp <= eps:
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


def detection_set(predictions, ground_truth):
    """The DetectionSet of lists of Detection and GroundTruthBox rows."""
    categories, *boxes = _columns(predictions)
    scores = np.array([p.score for p in predictions], dtype=float)
    return DetectionSet((categories, scores, *boxes), _columns(ground_truth))


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
        result = average_precision(detection_set(preds, gts), 0.5)
        assert all(ap == pytest.approx(1.0) for ap in result.per_category.values())
        assert result.mean_ap == pytest.approx(1.0)

    def test_no_predictions(self):
        gts = [GroundTruthBox("cup", random_box(make_rng(6)))]
        result = average_precision(detection_set([], gts), 0.25)
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
            result = average_precision(detection_set(preds, [g1, g2]), threshold)
            assert result.per_category["cup"] == pytest.approx(0.5)

    def test_monotone_rescoring_invariance(self):
        rng = make_rng(8)
        gts = [GroundTruthBox("box", random_box(rng)) for _ in range(5)]
        preds = []
        for k, g in enumerate(gts[:4]):
            preds.append(_perfect_prediction(g, 0.9 - 0.1 * k))
        preds.append(Detection("box", random_box(rng), 0.05))
        base = average_precision(detection_set(preds, gts), 0.25)
        rescored = [Detection(p.category, p.box, 10.0 + 100.0 * p.score)
                    for p in preds]
        again = average_precision(detection_set(rescored, gts), 0.25)
        assert base.per_category == again.per_category

    def test_category_without_gt_is_excluded_and_noted(self):
        rng = make_rng(9)
        gt = GroundTruthBox("cup", random_box(rng))
        preds = [_perfect_prediction(gt, 1.0),
                 Detection("teapot", random_box(rng), 0.9)]
        result = average_precision(detection_set(preds, [gt]), 0.5)
        assert result.undefined_categories == ["teapot"]
        assert "teapot" not in result.per_category
        assert result.mean_ap == pytest.approx(1.0)

    def test_each_gt_matched_once(self):
        rng = make_rng(10)
        gt = GroundTruthBox("can", random_box(rng))
        # two identical predictions for one ground truth: second is a FP
        preds = [_perfect_prediction(gt, 0.9), _perfect_prediction(gt, 0.8)]
        result = average_precision(detection_set(preds, [gt]), 0.5)
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
        result = average_precision(detection_set(preds, [g1, g2]), 0.5)
        assert (result.pairs_compared, result.pairs_separated,
                result.pairs_clipped) == (4, 0, 1)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValidationError):
            average_precision(detection_set([], []), 1.5)

    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_matches_row_reference(self, threshold):
        preds, gts = pooled_rows(make_rng(23))
        # scores of two decimals: ties within a category
        preds = [Detection(p.category, p.box, round(p.score, 2)) for p in preds]
        assert len({(p.category, p.score) for p in preds}) < len(preds)
        result = average_precision(detection_set(preds, gts), threshold)
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
        result = average_precision(fileio.load_detection_set(*paths), 0.5)
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
        result = average_precision(fileio.load_detection_set(*paths), 0.5)
        assert result.per_category == {"cup": 1.0, "cup\x00": 0.0}
        assert result.pairs_compared == 2
        assert reference_ap(*load_rows(*paths), 0.5) == (result.per_category, 0.5)

    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_sphere_rejection_leaves_ap_unchanged(self, threshold, monkeypatch):
        preds, gts = pooled_rows(make_rng(17))
        detections = detection_set(preds, gts)
        result = average_precision(detections, threshold)
        # bypass both rejection tests: every pair is clipped
        monkeypatch.setattr(metrics, "_spheres_overlap",
                            lambda ca, ha, cb, hb: np.ones((len(ca), len(cb)), bool))
        monkeypatch.setattr(metrics, "_axes_overlap",
                            lambda ca, *args: np.ones(len(ca), bool))
        reference = average_precision(detections, threshold)
        assert reference.pairs_clipped == reference.pairs_compared
        assert result.pairs_clipped < reference.pairs_compared
        assert result.per_category == reference.per_category
        assert result.mean_ap == reference.mean_ap
        assert any(0.0 < ap < 1.0 for ap in result.per_category.values())


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
