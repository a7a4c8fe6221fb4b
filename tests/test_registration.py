import itertools
import math
import tracemalloc

import numpy as np
import pytest

import robocal.registration as registration
from robocal.errors import DegenerateGeometryError, ValidationError
from robocal.geometry import (Pose, _trusted_pose, apply, axis_angle, compose, invert,
                              make_rng, random_rotation)
from robocal.mesh import Mesh, blade, can, chamfered_box, cup, sample_surface
from robocal.registration import (RECOVERY_MAX_ROTATION_DEG, RECOVERY_MAX_TRANSLATION_MM,
                                  RECOVERY_POINT_NOISE_MM, RECOVERY_POINTS,
                                  Correspondences, IcpParams, IcpResult, RecoveryCase,
                                  RecoveryReport, SpatialIndex, SurfaceMatches,
                                  _SKIN_MM, _dot, absolute_orientation,
                                  icp_refine, initial_pose, pose_error,
                                  recovery_benchmark, random_pose_perturbation,
                                  sample_patch)


@pytest.fixture(scope="module")
def box_surface():
    """(mesh, index over its surface), shared by the ICP tests."""
    mesh = chamfered_box()
    return mesh, SpatialIndex(mesh)


def _brute_closest(point, a, b, c):
    """Closest point to `point` on each triangle (a[i], b[i], c[i]): the
    nearest of its in-plane projection (if inside) and the closest points on
    its three edges."""
    n = np.cross(b - a, c - a)
    proj = point - (np.sum((point - a) * n, axis=1) / np.sum(n * n, axis=1))[:, None] * n
    inside = np.ones(len(a), dtype=bool)
    candidates = []
    for v0, v1 in ((a, b), (b, c), (c, a)):
        e = v1 - v0
        inside &= np.sum(np.cross(e, proj - v0) * n, axis=1) >= 0.0
        s = np.clip(np.sum((point - v0) * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
        candidates.append(v0 + s[:, None] * e)
    candidates.append(np.where(inside[:, None], proj, np.inf))
    candidates = np.stack(candidates)  # (4, F, 3)
    best = np.argmin(np.linalg.norm(candidates - point, axis=2), axis=0)
    return candidates[best, np.arange(len(a))]


def _three_pass_query(self, queries):
    """The three-pass surface query that `SpatialIndex.query` replaced, kept
    as written as the reference for its bits: the exact distance to the
    nearest-centroid triangle bounds the sphere cull, a dense (points x
    triangles) matrix takes the exact distances, and the chosen triangles'
    closest points are computed again at the end."""
    p = np.asarray(queries, dtype=float).reshape(-1, 3)
    n_tri = len(self.points)
    dist = np.empty(len(p))
    tri = np.empty(len(p), dtype=np.int64)
    block = max(1, registration._QUERY_BLOCK // n_tri)
    for lo in range(0, len(p), block):
        q = p[lo:lo + block]
        qq = _dot(q, q)
        d2 = qq[:, None] - 2.0 * (q @ self.points.T) + self._sq_norms
        centroid_dist = np.sqrt(np.maximum(d2, 0.0))
        nearest = centroid_dist.argmin(axis=1)
        upper = np.linalg.norm(q - self._closest(q, nearest), axis=1)
        slack = 1e-7 * (np.sqrt(qq) + self._extent)
        rows, cols = np.nonzero(centroid_dist - self.radii
                                <= (upper + slack)[:, None])
        exact = np.full(centroid_dist.shape, np.inf)
        exact[rows, cols] = np.linalg.norm(
            q[rows] - self._closest(q[rows], cols), axis=1)
        tri[lo:lo + block] = exact.argmin(axis=1)
        dist[lo:lo + block] = exact[np.arange(len(q)), tri[lo:lo + block]]
    return dist, self._closest(p, tri), tri


def _reference_closest(self, p, tri):
    """`SpatialIndex._closest` as it was written on (M, 3) rows, gathering each
    per-triangle quantity apart, kept as the reference for its bits."""
    corners = self.corners
    ab_all, ac_all = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    a, ab, ac = corners[tri, 0], ab_all[tri], ac_all[tri]
    aa = _dot(ab_all, ab_all)[tri]
    bc = _dot(ab_all, ac_all)[tri]
    cc = _dot(ac_all, ac_all)[tri]
    ap = p - a
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    vb = cc * d1 - bc * d2
    vc = aa * d2 - bc * d1
    va = (aa * cc - bc * bc) - vb - vc
    d3, d4, d5, d6 = d1 - aa, d2 - bc, d1 - bc, d2 - cc
    with np.errstate(divide="ignore", invalid="ignore"):
        s = vb / (va + vb + vc)
        t = vc / (va + vb + vc)
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        regions = (
            (va <= 0.0) & (d4 >= d3) & (d5 >= d6), 1.0 - w, w,
            (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0), 0.0, d2 / cc,
            (d6 >= 0.0) & (d5 <= d6), 0.0, 1.0,
            (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0), d1 / aa, 0.0,
            (d3 >= 0.0) & (d4 <= d3), 1.0, 0.0,
            (d1 <= 0.0) & (d2 <= 0.0), 0.0, 0.0,
        )
        for k in range(0, len(regions), 3):
            mask, rs, rt = regions[k:k + 3]
            s = np.where(mask, rs, s)
            t = np.where(mask, rt, t)
    return a + s[:, None] * ab + t[:, None] * ac


def _reference_candidates(self, p, slack=0.0):
    """`SpatialIndex._candidates` as it was written with a fresh array per
    step, kept as the reference for its pairs."""
    block = max(1, registration._QUERY_BLOCK // len(self.points))
    rows, cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for lo in range(0, len(p), block):
        q = p[lo:lo + block]
        qq = _dot(q, q)
        d2 = qq[:, None] - 2.0 * (q @ self.points.T) + self._sq_norms
        centroid_dist = np.sqrt(np.maximum(d2, 0.0))
        bound = centroid_dist.min(axis=1) + 1e-7 * (np.sqrt(qq) + self._extent) + slack
        r, c = np.nonzero(centroid_dist - self.radii <= bound[:, None])
        keep = np.abs(_dot(q[r] - self.points[c], self.normals[c])) <= bound[r]
        rows.append(r[keep] + lo)
        cols.append(c[keep])
    return np.concatenate(rows), np.concatenate(cols)


def _small_motion(x):
    """The rigid motion of a point-to-plane step x = [omega; v] (radians, mm),
    as the per-run loop below formed it: a Pose, through `axis_angle`."""
    angle = float(np.linalg.norm(x[:3]))
    if angle == 0.0:
        return _trusted_pose(np.eye(3), x[3:])
    return _trusted_pose(axis_angle(x[:3] / angle, math.degrees(angle)), x[3:])


def _reference_icp_refine(measured_points, surface, initial, params=IcpParams()):
    """The per-run ICP loop that the lockstep driver replaced, kept as written
    as the reference for its bits: one `surface.query` per match, no cache."""
    measured = np.asarray(measured_points, dtype=float).reshape(-1, 3)
    if len(measured) < 3:
        raise ValidationError(f"ICP needs >= 3 measured points, got {len(measured)}")

    def match(pose):
        local = apply(invert(pose), measured)
        dist, closest, tri = surface.query(local)
        rms = float(np.sqrt(np.mean(np.minimum(dist, params.max_correspondence_mm) ** 2)))
        return local, dist, closest, tri, rms

    pose = initial
    local, dist, closest, tri, rms = match(pose)
    rms_history: list[float] = []
    converged = False
    iterations = 0
    step = None

    for iterations in range(1, params.max_iterations + 1):
        if step is None:  # fresh matches: solve for the full step
            keep = dist <= params.max_correspondence_mm
            if keep.sum() < 3:
                break  # trimmed away too much; report non-converged
            rms_history.append(rms)
            l, q, n = local[keep], closest[keep], surface.normals[tri[keep]]
            A = np.hstack([np.cross(l, n), n])
            step, *_ = np.linalg.lstsq(A, -_dot(l - q, n), rcond=None)
        trial = compose(pose, invert(_small_motion(step)))
        dt, dr = pose_error(pose, trial)
        if dt < params.tol_translation_mm and dr < params.tol_rotation_deg:
            pose = trial
            converged = True
            break
        matches = match(trial)
        if matches[-1] > rms:
            step = step / 2.0  # keep the matches, retry a shorter step
            continue
        pose, (local, dist, closest, tri, rms), step = trial, matches, None

    if converged:  # the last, accepted step moved the pose past its matches
        dist = match(pose)[1]
    return IcpResult(pose=pose, iterations=iterations, converged=converged,
                     rms_distance=float(np.sqrt(np.mean(dist ** 2))),
                     rms_history=rms_history)


def _reference_recovery(rng, meshes=None, perturbations_per_mesh=5, patch_fraction=0.85):
    """The recovery study as it was before lockstep: each trial drawn and
    then refined alone by `_reference_icp_refine`."""
    if meshes is None:
        meshes = [chamfered_box(), cup(), blade()]
    cases = []
    for mesh in meshes:
        surface = SpatialIndex(mesh)
        lo, hi = mesh.bounds()
        patch_radius = patch_fraction * float(np.linalg.norm(hi - lo))
        patch = sample_patch(mesh, RECOVERY_POINTS, rng, patch_radius)
        for _ in range(perturbations_per_mesh):
            noise = rng.uniform(-RECOVERY_POINT_NOISE_MM, RECOVERY_POINT_NOISE_MM,
                                size=patch.shape)
            measured = patch + noise
            start = random_pose_perturbation(rng, RECOVERY_MAX_TRANSLATION_MM,
                                             RECOVERY_MAX_ROTATION_DEG)
            result = _reference_icp_refine(measured, surface, start)
            dt, dr = pose_error(Pose.identity(), result.pose)
            cases.append(RecoveryCase(mesh.name, dt, dr,
                                      result.iterations, result.converged))
    return RecoveryReport(
        cases=cases,
        mean_translation_mm=float(np.mean([c.translation_error_mm for c in cases])),
        mean_rotation_deg=float(np.mean([c.rotation_error_deg for c in cases])),
    )


def _reference_farthest_point_subset(points, count, rng):
    """The farthest-point loop that `_farthest_point_subset` replaced, kept as
    written as the reference for its bits: `np.linalg.norm` rows per pick."""
    start = int(rng.integers(len(points)))
    chosen = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    while len(chosen) < count:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[chosen]


def _same_bits(got, want):
    assert got.pose.as_matrix().tobytes() == want.pose.as_matrix().tobytes()
    assert got.iterations == want.iterations
    assert got.converged is want.converged
    assert got.rms_distance.hex() == want.rms_distance.hex()
    assert [h.hex() for h in got.rms_history] == [h.hex() for h in want.rms_history]

class TestAbsoluteOrientation:
    def test_identity(self):
        pts = make_rng(1).uniform(-50, 50, (8, 3))
        pose, rms = absolute_orientation(pts, pts.copy())
        np.testing.assert_allclose(pose.as_matrix(), np.eye(4), atol=1e-12)
        assert rms < 1e-12

    def test_known_pose_recovered(self):
        rng = make_rng(2)
        model = rng.uniform(-50, 50, (10, 3))
        truth = Pose(random_rotation(rng), rng.uniform(-200, 200, 3))
        pose, rms = absolute_orientation(model, apply(truth, model))
        np.testing.assert_allclose(pose.as_matrix(), truth.as_matrix(), atol=1e-9)
        assert rms < 1e-9

    def test_outlier_shows_in_residual(self):
        # oracle: recompute the rms of the best fit directly
        model = np.array([[0.0, 0, 0], [40.0, 0, 0], [0.0, 40.0, 0], [0.0, 0, 40.0]])
        measured = model.copy()
        measured[3] += [0.0, 0.0, 2.0]  # one 2 mm outlier
        pose, rms = absolute_orientation(model, measured)
        check = apply(pose, model) - measured
        assert rms == pytest.approx(
            float(np.sqrt(np.mean(np.sum(check ** 2, axis=1)))), rel=1e-12)
        assert rms > 0.5

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometryError):
            absolute_orientation(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_points(self):
        line = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
        with pytest.raises(DegenerateGeometryError):
            absolute_orientation(line, line.copy())

    def test_left_equivariance(self):
        rng = make_rng(3)
        model = rng.uniform(-50, 50, (12, 3))
        measured = apply(Pose(random_rotation(rng), rng.uniform(-100, 100, 3)), model)
        mover = Pose(random_rotation(rng), rng.uniform(-100, 100, 3))
        base, _ = absolute_orientation(model, measured)
        moved, _ = absolute_orientation(model, apply(mover, measured))
        np.testing.assert_allclose(moved.as_matrix(),
                                   compose(mover, base).as_matrix(), atol=1e-9)

    def test_correspondences_type_validates(self):
        with pytest.raises(ValidationError):
            Correspondences(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(ValidationError):
            Correspondences(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_initial_pose_from_correspondences(self):
        rng = make_rng(4)
        model = rng.uniform(-50, 50, (6, 3))
        truth = Pose(random_rotation(rng), rng.uniform(-100, 100, 3))
        pose, _ = initial_pose(Correspondences(apply(truth, model), model))
        np.testing.assert_allclose(pose.as_matrix(), truth.as_matrix(), atol=1e-9)


class TestSpatialIndex:
    def test_matches_linear_scan(self, monkeypatch):
        # against a scan of every triangle, on points within 0.5 mm of the
        # surface (where culling keeps few triangles) and far from it; the
        # query runs in blocks of 7 points
        rng = make_rng(5)
        mesh = blade()
        index = SpatialIndex(mesh)
        monkeypatch.setattr("robocal.registration._QUERY_BLOCK", 7 * len(mesh.triangles))
        near = sample_surface(mesh, 150, rng) + rng.uniform(-0.5, 0.5, (150, 3))
        far = rng.uniform(-250, 250, (50, 3))
        queries = np.vstack([near, far])
        dist, closest, tri = index.query(queries)
        a, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
        for k, point in enumerate(queries):
            brute = _brute_closest(point, a, b, c)
            brute_dist = np.linalg.norm(brute - point, axis=1)
            assert dist[k] == pytest.approx(brute_dist.min(), rel=1e-12)
            np.testing.assert_allclose(closest[k], brute[int(np.argmin(brute_dist))],
                                       rtol=0, atol=1e-12)
            # the reported triangle holds the closest point (ties may differ)
            assert brute_dist[tri[k]] == pytest.approx(brute_dist.min(), rel=1e-12)
        np.testing.assert_allclose(np.linalg.norm(closest - queries, axis=1), dist,
                                   rtol=1e-12)
        # culling drops only triangles that cannot win: the index's own
        # closest-point rule on every (point, triangle) pair picks the same
        n_tri = len(mesh.triangles)
        every = index._closest(np.repeat(queries, n_tri, axis=0),
                               np.tile(np.arange(n_tri), len(queries)))
        every_dist = np.linalg.norm(every - np.repeat(queries, n_tri, axis=0),
                                    axis=1).reshape(len(queries), n_tri)
        np.testing.assert_array_equal(tri, every_dist.argmin(axis=1))
        np.testing.assert_array_equal(dist, every_dist.min(axis=1))

    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("make_mesh", [chamfered_box, cup, blade, can])
    def test_matches_three_pass_query_bit_for_bit(self, make_mesh, block, monkeypatch):
        # points near the surface, far from it, on vertices (ties between the
        # triangles that share one) and on centroids; blocks of 1 and 7
        # points, and the default
        rng = make_rng(17)
        mesh = make_mesh()
        index = SpatialIndex(mesh)
        if block is not None:
            monkeypatch.setattr("robocal.registration._QUERY_BLOCK",
                                block * len(index.points))
        queries = np.vstack([
            sample_surface(mesh, 120, rng) + rng.uniform(-0.5, 0.5, (120, 3)),
            rng.uniform(-250, 250, (40, 3)),
            mesh.vertices[rng.permutation(len(mesh.vertices))[:40]],
            index.points[rng.permutation(len(index.points))[:40]]])
        expected = _three_pass_query(index, queries)
        for got, want in zip(index.query(queries), expected):
            assert np.array_equal(got, want)

    def test_one_closest_point_pass_per_query(self, monkeypatch):
        calls = []
        closest = SpatialIndex._closest

        def counting(self, p, tri):
            calls.append(len(p))
            return closest(self, p, tri)

        monkeypatch.setattr(SpatialIndex, "_closest", counting)
        index = SpatialIndex(blade())
        queries = make_rng(18).uniform(-100, 100, (40, 3))
        # blocks of 7 points: one pass over the pairs of each block, with or
        # without cached candidates
        for block, passes in ((None, 1), (7, 6)):
            if block is not None:
                monkeypatch.setattr("robocal.registration._QUERY_BLOCK",
                                    block * len(index.points))
            for matches in (None, [SurfaceMatches(len(queries))]):
                calls.clear()
                index.query(queries, matches)
                assert len(calls) == passes

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        # each point's answer depends only on its own (point, triangle) pairs;
        # so too on the cached path, here over two runs whose points straddle
        # block ends, searched at the queries and reused after a small move
        rng = make_rng(19)
        mesh = cup()
        index = SpatialIndex(mesh)
        queries = np.vstack([sample_surface(mesh, 300, rng) + rng.uniform(-1.0, 1.0, (300, 3)),
                             rng.uniform(-150, 150, (60, 3))])
        moved = queries + rng.uniform(-0.2, 0.2, queries.shape)
        default = [index.query(points) for points in (queries, moved)]
        for block in (1, 7, 100):
            monkeypatch.setattr("robocal.registration._QUERY_BLOCK", block * len(index.points))
            runs = [SurfaceMatches(150), SurfaceMatches(210)]
            for points, want in zip((queries, moved), default):
                for answers in (index.query(points), index.query(points, runs)):
                    for got, expected in zip(answers, want, strict=True):
                        assert (got.dtype == expected.dtype
                                and got.tobytes() == expected.tobytes())

    @pytest.mark.parametrize("make_mesh", [chamfered_box, cup, blade, can])
    def test_closest_and_candidates_same_bits_as_the_row_formulation(self, make_mesh):
        rng = make_rng(30)
        mesh = make_mesh()
        index = SpatialIndex(mesh)
        near = sample_surface(mesh, 400, rng) + rng.uniform(-2.0, 2.0, (400, 3))
        points = np.vstack([near, rng.uniform(-150.0, 150.0, (100, 3)),
                            index.corners[:, 0]])  # vertices: ties between triangles
        tri = rng.integers(len(index.points), size=len(points))
        got = index._closest(points, tri)
        assert got.tobytes() == _reference_closest(index, points, tri).tobytes()
        for slack in (0.0, 2.0 * _SKIN_MM):
            for got, want in zip(index._candidates(points, slack),
                                 _reference_candidates(index, points, slack), strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_empty_query(self):
        dist, closest, tri = SpatialIndex(blade()).query(np.empty((0, 3)))
        assert dist.shape == (0,) and closest.shape == (0, 3) and tri.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SpatialIndex(blade()).query([[0.0, 0.0, 0.0], [1.0, bad, 2.0]])

    # one triangle, a = origin, b on x, c on y; expected points by hand
    TRIANGLE = Mesh(np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]]),
                    np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("point, expected", [
        ([-1.0, -2.0, 3.0], [0.0, 0.0, 0.0]),  # vertex a
        ([6.0, -1.0, 0.0], [4.0, 0.0, 0.0]),  # vertex b
        ([-1.0, 5.0, -2.0], [0.0, 4.0, 0.0]),  # vertex c
    ])
    def test_vertex_region(self, point, expected):
        dist, closest, tri = SpatialIndex(self.TRIANGLE).query([point])
        np.testing.assert_array_equal(closest[0], expected)
        assert dist[0] == pytest.approx(np.linalg.norm(np.subtract(point, expected)),
                                        rel=1e-15)
        assert tri[0] == 0

    @pytest.mark.parametrize("point, expected", [
        ([1.0, -3.0, 2.0], [1.0, 0.0, 0.0]),  # edge ab
        ([-2.0, 3.0, 1.0], [0.0, 3.0, 0.0]),  # edge ac
        ([3.0, 3.0, -1.0], [2.0, 2.0, 0.0]),  # edge bc: (3, 3) projects to (2, 2)
    ])
    def test_edge_region(self, point, expected):
        dist, closest, _ = SpatialIndex(self.TRIANGLE).query([point])
        np.testing.assert_allclose(closest[0], expected, atol=1e-15)
        assert dist[0] == pytest.approx(np.linalg.norm(np.subtract(point, expected)),
                                        rel=1e-15)

    def test_face_region(self):
        dist, closest, _ = SpatialIndex(self.TRIANGLE).query([[1.0, 1.5, -2.5]])
        np.testing.assert_allclose(closest[0], [1.0, 1.5, 0.0], atol=1e-15)
        assert dist[0] == pytest.approx(2.5, rel=1e-15)

    def test_normals_are_unit_and_perpendicular(self):
        index = SpatialIndex(cup())
        np.testing.assert_allclose(np.linalg.norm(index.normals, axis=1), 1.0,
                                   rtol=1e-12)
        edges = index.corners[:, 1] - index.corners[:, 0]
        assert np.abs(np.sum(edges * index.normals, axis=1)).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SpatialIndex(Mesh(np.empty((0, 3)), np.empty((0, 3))))



class TestSurfaceMatches:
    @staticmethod
    def _cached(index, *point_sets):
        """Answers of one SurfaceMatches queried at each point set in turn."""
        matches = SurfaceMatches(len(point_sets[0]))
        return [index.query(points, [matches]) for points in point_sets]

    @staticmethod
    def _count_searches(index):
        """The point count of each candidate search on `index` from now on."""
        searched = []
        search = index._candidates
        index._candidates = lambda p, slack=0.0: searched.append(len(p)) or search(p, slack)
        return searched

    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("make_mesh", [chamfered_box, cup, blade, can])
    def test_moves_up_to_the_skin_and_past_it_get_query_answers(self, make_mesh, block,
                                                               monkeypatch):
        # anchors on a 1/256 mm grid, so that moving one by exactly _SKIN_MM
        # along an axis is exact; moving away from zero, the next float past
        # that is at least one ulp of _SKIN_MM farther, and leaves the skin.
        # The searches run in blocks of 7 points, and in the default blocks
        rng = make_rng(20)
        mesh = make_mesh()
        index = SpatialIndex(mesh)
        if block is not None:
            monkeypatch.setattr("robocal.registration._QUERY_BLOCK",
                                block * len(index.points))
        anchors = np.round(256.0 * (sample_surface(mesh, 60, rng)
                                    + rng.uniform(-0.5, 0.5, (60, 3)))) / 256.0
        along = rng.integers(3, size=60)
        away = np.where(anchors[np.arange(60), along] < 0.0, -1.0, 1.0)
        axis = np.eye(3)[along] * away[:, None]
        at_skin = anchors + _SKIN_MM * axis
        past_skin = np.nextafter(at_skin, at_skin + axis)
        moved = np.sqrt(_dot(at_skin - anchors, at_skin - anchors))
        assert np.all(moved == _SKIN_MM)
        assert np.all(np.sqrt(_dot(past_skin - anchors, past_skin - anchors)) > _SKIN_MM)
        want = [index.query(points) for points in (anchors, at_skin, past_skin)]
        searched = self._count_searches(index)
        for k, moved_points in ((1, at_skin), (2, past_skin)):
            searched.clear()
            got = self._cached(index, anchors, moved_points)
            for answers, expected in zip(got, (want[0], want[k])):
                for a, b in zip(answers, expected, strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert searched == ([60] if k == 1 else [60, 60])

    def test_worst_case_move_reaches_a_tie_with_a_second_surface(self):
        # the bound's worst case: between two planes 1.5 mm apart, a point
        # 0.25 mm over the lower one moves straight up by _SKIN_MM, to where
        # both planes are 0.75 mm away and tie; at the anchor the upper plane
        # lay 2 * _SKIN_MM beyond the lower one, and its triangles, which
        # have the lower ids, must still be candidates and win
        assert _SKIN_MM == 0.5  # the heights below are built on it
        grid = np.linspace(-2.0, 2.0, 17)
        x, y = np.meshgrid(grid, grid, indexing="ij")
        plane = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
        ids = np.arange(x.size).reshape(x.shape)
        a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
        cells = np.vstack([np.column_stack([a.ravel(), b.ravel(), c.ravel()]),
                           np.column_stack([a.ravel(), c.ravel(), d.ravel()])])
        mesh = Mesh(np.vstack([plane + [0.0, 0.0, 1.5], plane]),
                    np.vstack([cells, cells + len(plane)]))  # upper plane first
        index = SpatialIndex(mesh)
        rng = make_rng(26)
        anchors = np.column_stack([rng.uniform(-1.0, 1.0, (40, 2)), np.full(40, 0.25)])
        moved = anchors + [0.0, 0.0, _SKIN_MM]
        searched = self._count_searches(index)
        _, got = self._cached(index, anchors, moved)
        assert searched == [40]  # the move reused every anchor's candidates
        want = index.query(moved)
        assert np.all(want[2] < len(cells))  # the upper plane wins the ties
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("make_mesh", [chamfered_box, cup, can])
    def test_vertices_go_to_the_lowest_id_from_the_cache(self, make_mesh):
        # the triangles that share a vertex tie on it; anchored 0.3 mm away,
        # the cached candidates must keep all of them, and the lowest id wins
        # as it does on the index's own rule over every triangle
        rng = make_rng(21)
        mesh = make_mesh()
        index = SpatialIndex(mesh)
        vertices = mesh.vertices[np.unique(mesh.triangles)]
        offset = rng.standard_normal(vertices.shape)
        anchors = vertices + 0.3 * offset / np.linalg.norm(offset, axis=1, keepdims=True)
        _, (dist, closest, tri) = self._cached(index, anchors, vertices)
        n_tri = len(index.points)
        every = index._closest(np.repeat(vertices, n_tri, axis=0),
                               np.tile(np.arange(n_tri), len(vertices)))
        every_dist = np.linalg.norm(every - np.repeat(vertices, n_tri, axis=0),
                                    axis=1).reshape(len(vertices), n_tri)
        ties = (every_dist == every_dist.min(axis=1, keepdims=True)).sum(axis=1)
        assert (ties > 1).sum() > len(vertices) // 2  # most vertices have ties to break
        np.testing.assert_array_equal(tri, every_dist.argmin(axis=1))
        np.testing.assert_array_equal(dist, every_dist.min(axis=1))
        for got, want in zip((dist, closest, tri), index.query(vertices), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_cached_query_memory_stays_within_a_block(self, monkeypatch):
        # the cached query once evaluated every pair of the query at once:
        # ~22 MB here, against ~1.5 MB for the uncached query of the same
        # points in blocks of 16 points on a 3536-triangle cup
        rng = make_rng(28)
        mesh = cup(segments=200)
        index = SpatialIndex(mesh)
        monkeypatch.setattr("robocal.registration._QUERY_BLOCK", 16 * len(index.points))
        points = sample_surface(mesh, 1000, rng) + rng.uniform(-0.5, 0.5, (1000, 3))
        matches = SurfaceMatches(len(points))

        def peak(*args):
            tracemalloc.start()
            try:
                index.query(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        uncached = peak(points)
        searched = peak(points, [matches])  # builds the cache
        reused = peak(points + 0.1, [matches])  # within the skin: no search
        cache = matches._rows.nbytes + matches._cols.nbytes
        assert searched <= uncached + 3 * cache
        assert reused <= 1.25 * uncached

    @pytest.mark.parametrize("sizes", [[3], [3, 2]])
    def test_matches_must_cover_the_query(self, sizes):
        index = SpatialIndex(blade())
        with pytest.raises(ValidationError, match=f"cover {sum(sizes)} points"):
            index.query(np.zeros((4, 3)), [SurfaceMatches(n) for n in sizes])

    def test_non_finite_points_rejected(self):
        index = SpatialIndex(blade())
        with pytest.raises(ValidationError, match="finite"):
            index.query([[0.0, 0.0, 0.0], [1.0, np.nan, 2.0]], [SurfaceMatches(2)])

class TestIcp:
    def test_fixed_point(self, box_surface):
        _, surface = box_surface
        rng = make_rng(6)
        initial = Pose(random_rotation(rng), np.array([120.0, -30.0, 40.0]))
        measured = apply(initial, surface.points[:30])
        result = icp_refine(measured, surface, initial)
        assert result.iterations <= 2
        dt, dr = pose_error(initial, result.pose)
        assert dt < 1e-9 and dr < 1e-9

    def test_rms_history_monotone(self, box_surface):
        mesh, surface = box_surface
        rng = make_rng(7)
        patch = sample_patch(mesh, 25, rng, 60.0)
        measured = patch + rng.uniform(-0.2, 0.2, patch.shape)
        start = random_pose_perturbation(rng, 2.0, 4.0)
        result = icp_refine(measured, surface, start)
        history = np.array(result.rms_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_permutation_invariance(self, box_surface):
        mesh, surface = box_surface
        rng = make_rng(8)
        patch = sample_patch(mesh, 25, rng, 60.0)
        measured = patch + rng.uniform(-0.2, 0.2, patch.shape)
        start = random_pose_perturbation(rng, 2.0, 4.0)
        a = icp_refine(measured, surface, start).pose
        b = icp_refine(measured[::-1], surface, start).pose
        dt, dr = pose_error(a, b)
        assert dt < 1e-9 and dr < 1e-9

    def test_far_outside_basin_is_flagged_or_wrong(self):
        # 50 mm start error on a rounded shape must never give a confident
        # wrong answer: ICP either gives up, leaves a high residual, or lands
        # on the true pose up to the can's symmetry (a free turn about its
        # axis; the end-over-end flip too, since can() is recentred). From
        # the lateral start ICP slides round onto the truth; from the axial
        # start it settles in a wrong minimum that the residual betrays.
        mesh = can()
        surface = SpatialIndex(mesh)
        rng = make_rng(10)
        patch = sample_patch(mesh, 25, rng, 80.0)
        for offset in ([50.0, 0.0, 0.0], [0.0, 0.0, 50.0]):
            start = Pose(np.eye(3), np.array(offset))
            result = icp_refine(patch, surface, start)
            dt, _ = pose_error(Pose.identity(), result.pose)
            axis = result.pose.rotation @ np.array([0.0, 0.0, 1.0])
            right_up_to_symmetry = dt < 1.0 and abs(axis[2]) >= np.cos(np.radians(2.0))
            assert ((not result.converged) or result.rms_distance > 1.0
                    or right_up_to_symmetry), offset

    def test_needs_three_points(self, box_surface):
        _, surface = box_surface
        with pytest.raises(ValidationError):
            icp_refine(np.zeros((2, 3)), surface, Pose.identity())

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            IcpParams(max_iterations=0)

    @pytest.mark.parametrize("value", [0, -1.0, np.nan])
    @pytest.mark.parametrize("name", ["max_iterations", "tol_translation_mm",
                                      "tol_rotation_deg", "max_correspondence_mm"])
    def test_params_must_be_positive(self, name, value):
        with pytest.raises(ValidationError, match=f"IcpParams.{name} must be positive"):
            IcpParams(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_max_iterations_must_be_a_whole_number(self, value):
        # icp_refine counts iterations with range(), which a float fails with
        # a TypeError; a bool would run one iteration
        with pytest.raises(ValidationError,
                           match="IcpParams.max_iterations must be a whole number"):
            IcpParams(max_iterations=value)

    def test_correspondence_cap_trims(self, box_surface):
        mesh, surface = box_surface
        rng = make_rng(11)
        patch = sample_patch(mesh, 25, rng, 60.0)
        measured = np.vstack([patch, patch[:1] + 500.0])  # one far outlier
        params = IcpParams(max_correspondence_mm=50.0)
        result = icp_refine(measured, surface, Pose.identity(), params)
        dt, _ = pose_error(Pose.identity(), result.pose)
        assert dt < 0.5  # outlier did not drag the fit away

    def test_reused_index_matches_fresh_index(self, box_surface):
        # the index holds no per-call state: a second refinement on a shared
        # index gives the same pose, bit for bit, as one on a fresh index
        mesh, surface = box_surface
        rng = make_rng(15)
        runs = []
        for _ in range(2):
            patch = sample_patch(mesh, 25, rng, 60.0)
            measured = patch + rng.uniform(-0.2, 0.2, patch.shape)
            runs.append((measured, random_pose_perturbation(rng, 2.0, 4.0)))
        for measured, start in runs:
            shared = icp_refine(measured, surface, start).pose
            fresh = icp_refine(measured, SpatialIndex(mesh), start).pose
            np.testing.assert_array_equal(shared.as_matrix(), fresh.as_matrix())


    @pytest.mark.parametrize("trim", [np.inf, 3.0])
    @pytest.mark.parametrize("make_mesh", [chamfered_box, cup, blade, can])
    def test_same_bits_as_the_per_run_loop(self, make_mesh, trim, monkeypatch):
        # starts 10 mm / 15 deg out move the points past the skin many times;
        # a 3 mm correspondence cap trims pairs on the way in
        mesh = make_mesh()
        surface = SpatialIndex(mesh)
        searches = []
        search = SpatialIndex._candidates
        monkeypatch.setattr(SpatialIndex, "_candidates",
                            lambda self, p, slack=0.0: searches.append(len(p))
                            or search(self, p, slack))
        params = IcpParams(max_correspondence_mm=trim)
        rng = make_rng(22)
        for _ in range(3):
            patch = sample_patch(mesh, 25, rng, 60.0)
            measured = patch + rng.uniform(-0.2, 0.2, patch.shape)
            start = random_pose_perturbation(rng, 10.0, 15.0)
            searches.clear()
            got = icp_refine(measured, surface, start, params)
            assert len(searches) > 2  # re-searched past the first match
            _same_bits(got, _reference_icp_refine(measured, surface, start, params))

    def test_stop_reason_tolerance(self, box_surface):
        _, surface = box_surface
        initial = Pose(random_rotation(make_rng(6)), np.array([120.0, -30.0, 40.0]))
        result = icp_refine(apply(initial, surface.points[:30]), surface, initial)
        assert (result.stop_reason, result.converged) == ("tolerance", True)

    def test_stop_reason_tolerance_after_halving(self, box_surface):
        # the step that met the tolerance had been halved: the run stalled
        mesh, surface = box_surface
        rng = make_rng(18)
        patch = sample_patch(mesh, 25, rng, 60.0)
        measured = patch + rng.uniform(-0.2, 0.2, patch.shape)
        result = icp_refine(measured, surface, random_pose_perturbation(rng, 2.0, 4.0))
        assert (result.stop_reason, result.converged) == ("tolerance_after_halving", True)
        assert result.iterations > len(result.rms_history)  # a retried step

    def test_stop_reason_max_iterations(self, box_surface):
        mesh, surface = box_surface
        rng = make_rng(18)
        patch = sample_patch(mesh, 25, rng, 60.0)
        start = random_pose_perturbation(rng, 2.0, 4.0)
        result = icp_refine(patch, surface, start, IcpParams(max_iterations=1))
        assert (result.stop_reason, result.converged, result.iterations) == (
            "max_iterations", False, 1)

    def test_stop_reason_too_few_matches(self, box_surface):
        # no measured point lies within the cap of the surface
        mesh, surface = box_surface
        patch = sample_patch(mesh, 25, make_rng(19), 60.0)
        start = Pose(np.eye(3), [0.0, 0.0, 500.0])
        result = icp_refine(patch, surface, start, IcpParams(max_correspondence_mm=10.0))
        assert (result.stop_reason, result.converged, result.iterations) == (
            "too_few_matches", False, 1)
        assert result.rms_history == []
        np.testing.assert_array_equal(result.pose.as_matrix(), start.as_matrix())

    def test_nan_measured_point_rejected(self, box_surface):
        mesh, surface = box_surface
        measured = sample_patch(mesh, 25, make_rng(23), 60.0)
        measured[7, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            icp_refine(measured, surface, Pose.identity())

class TestPoseError:
    def test_identical(self):
        p = Pose(random_rotation(make_rng(12)), [1.0, 2.0, 3.0])
        assert pose_error(p, p) == (0.0, 0.0)

    def test_translation_only(self):
        gt = Pose(np.eye(3), [0.0, 0.0, 0.0])
        est = Pose(np.eye(3), [2.0, 0.0, 0.0])
        assert pose_error(gt, est) == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_rotation_only(self):
        rng = make_rng(13)
        gt = Pose(random_rotation(rng), [10.0, 20.0, 30.0])
        from robocal.geometry import random_unit_vector
        est = Pose(axis_angle(random_unit_vector(rng), 4.0) @ gt.rotation,
                   gt.translation)
        dt, dr = pose_error(gt, est)
        assert dt == 0.0
        assert dr == pytest.approx(4.0, abs=1e-9)


def test_recovery_benchmark_smoke():
    report = recovery_benchmark(make_rng(14),
                                meshes=[chamfered_box()],
                                perturbations_per_mesh=2)
    assert len(report.cases) == 2
    assert report.mean_translation_mm < 1.0
    assert report.mean_rotation_deg < 2.0
    assert all(case.converged for case in report.cases)


@pytest.mark.parametrize("seed", range(10))
def test_recovery_benchmark_same_report_as_per_trial_refinement(seed):
    assert recovery_benchmark(make_rng(seed)) == _reference_recovery(make_rng(seed))


@pytest.mark.parametrize("seed", range(5))
def test_recovery_benchmark_same_cases_as_three_pass_query(seed, monkeypatch):
    # the study in lockstep on the cached query, against each trial refined
    # alone on the three-pass query
    report = recovery_benchmark(make_rng(seed))
    monkeypatch.setattr(SpatialIndex, "query", _three_pass_query)
    assert _reference_recovery(make_rng(seed)).cases == report.cases


def test_recovery_benchmark_one_evaluation_per_round(monkeypatch):
    # each round evaluates every pending run's points at once; a candidate
    # search never holds more than one run's points
    rounds, evaluated, searched = [], [], []
    query, evaluate, search = (SpatialIndex.query, SpatialIndex._evaluate,
                               SpatialIndex._candidates)

    def counting_query(self, points, matches=None):
        rounds.append(len(points))
        return query(self, points, matches)

    def counting_evaluate(self, p, r, c):
        evaluated.append(len(p))
        return evaluate(self, p, r, c)

    def counting_search(self, p, slack=0.0):
        searched.append(len(p))
        return search(self, p, slack)

    monkeypatch.setattr(SpatialIndex, "query", counting_query)
    monkeypatch.setattr(SpatialIndex, "_evaluate", counting_evaluate)
    monkeypatch.setattr(SpatialIndex, "_candidates", counting_search)
    report = recovery_benchmark(make_rng(24))
    assert evaluated == rounds
    assert rounds[0] == 5 * RECOVERY_POINTS  # all five trials of the first mesh
    assert max(searched) <= RECOVERY_POINTS
    # a run matches once per iteration plus once at the start and end at most
    assert len(rounds) <= sum(case.iterations + 2 for case in report.cases)


@pytest.mark.parametrize("kwargs, message", [
    ({"perturbations_per_mesh": 0}, "perturbation"),
    ({"perturbations_per_mesh": -2}, "perturbation"),
    ({"perturbations_per_mesh": 2.5}, "perturbation"),
    ({"meshes": []}, "mesh"),
    ({"perturbations_per_mesh": True}, "perturbation"),
])
def test_recovery_benchmark_without_trials_rejected(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        recovery_benchmark(make_rng(25), **kwargs)


def test_recovery_benchmark_builds_one_index_per_mesh(monkeypatch):
    built = []

    class CountingIndex(SpatialIndex):
        def __init__(self, mesh):
            super().__init__(mesh)
            built.append(len(self.points))

    monkeypatch.setattr("robocal.registration.SpatialIndex", CountingIndex)
    report = recovery_benchmark(make_rng(16), meshes=[chamfered_box(), can()],
                                perturbations_per_mesh=3)
    assert len(report.cases) == 6
    assert built == [44, 192]  # one index per mesh, over its triangles



@pytest.mark.parametrize("kind", ["scattered", "duplicates", "grid", "orderings"])
def test_farthest_point_subset_same_bits_as_the_norm_loop(kind):
    rng = make_rng(29)
    for seed in range(100):
        n = int(rng.integers(1, 2000))
        count = int(rng.integers(1, 40))
        if kind == "scattered":
            points = rng.uniform(-100.0, 100.0, (n, 3))
        elif kind == "duplicates":  # many copies of a few points
            points = rng.uniform(-100.0, 100.0, (7, 3))[rng.integers(7, size=n)]
        elif kind == "grid":  # small integers: exact distance ties at every pick
            points = rng.integers(-3, 4, (n, 3)).astype(float)
        else:
            # the six orderings of each of a few vectors, and the start, which
            # the generator draws first, on the diagonal: the orderings of one
            # vector lie at one distance from it but for rounding, so the
            # order in which the squares are summed picks the first point
            base = rng.uniform(-100.0, 100.0, (n // 40 + 1, 3))
            points = np.concatenate([base[:, order] for order in
                                     itertools.permutations(range(3))])
            points[int(make_rng(seed).integers(len(points)))] = rng.uniform(-100.0, 100.0)
        got = registration._farthest_point_subset(points, count, make_rng(seed))
        want = _reference_farthest_point_subset(points, count, make_rng(seed))
        assert got.tobytes() == want.tobytes(), (kind, seed)


@pytest.mark.parametrize("make_mesh", [chamfered_box, cup, blade])
def test_sample_patch_same_bits_as_the_norm_loop(make_mesh, monkeypatch):
    mesh = make_mesh()
    got = [sample_patch(mesh, RECOVERY_POINTS, make_rng(seed), 60.0) for seed in range(20)]
    monkeypatch.setattr(registration, "_farthest_point_subset",
                        _reference_farthest_point_subset)
    for seed, patch in enumerate(got):
        want = sample_patch(mesh, RECOVERY_POINTS, make_rng(seed), 60.0)
        assert patch.tobytes() == want.tobytes()
