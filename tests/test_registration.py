import numpy as np
import pytest

from robocal.errors import DegenerateGeometryError, ValidationError
from robocal.geometry import (Pose, apply, axis_angle, compose, make_rng,
                              random_rotation)
from robocal.mesh import can, chamfered_box, sample_surface
from robocal.registration import (Correspondences, IcpParams, SpatialIndex,
                                  absolute_orientation, icp_refine, initial_pose,
                                  pose_error, recovery_benchmark,
                                  random_pose_perturbation, sample_patch)


@pytest.fixture(scope="module")
def box_surface():
    """(mesh, index over 50k of its surface samples), shared by the ICP tests."""
    mesh = chamfered_box()
    return mesh, SpatialIndex(sample_surface(mesh, 50_000, make_rng(1000)))


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
    def test_matches_linear_scan(self):
        rng = make_rng(5)
        points = rng.uniform(-100, 100, (10_000, 3))
        index = SpatialIndex(points)
        queries = rng.uniform(-120, 120, (1000, 3))
        dist, idx = index.query(queries)
        for k in range(0, 1000):
            brute = np.linalg.norm(points - queries[k], axis=1)
            assert dist[k] == pytest.approx(brute.min(), rel=1e-12)
        assert np.all(np.linalg.norm(points[idx] - queries, axis=1)
                      == pytest.approx(dist, rel=1e-12))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SpatialIndex(np.empty((0, 3)))


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
        surface = SpatialIndex(sample_surface(mesh, 50_000, make_rng(9)))
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
        with pytest.raises(ValidationError):
            IcpParams(surface_samples=-5)

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
            fresh = icp_refine(measured, SpatialIndex(surface.points.copy()),
                               start).pose
            np.testing.assert_array_equal(shared.as_matrix(), fresh.as_matrix())


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
                                perturbations_per_mesh=2,
                                params=IcpParams(surface_samples=50_000))
    assert len(report.cases) == 2
    assert report.mean_translation_mm < 1.0
    assert report.mean_rotation_deg < 2.0
    assert all(case.converged for case in report.cases)


def test_recovery_benchmark_builds_one_index_per_mesh(monkeypatch):
    built = []

    class CountingIndex(SpatialIndex):
        def __init__(self, points):
            super().__init__(points)
            built.append(len(self.points))

    monkeypatch.setattr("robocal.registration.SpatialIndex", CountingIndex)
    report = recovery_benchmark(make_rng(16), meshes=[chamfered_box(), can()],
                                perturbations_per_mesh=3,
                                params=IcpParams(surface_samples=5_000))
    assert len(report.cases) == 6
    assert built == [5_000, 5_000]
