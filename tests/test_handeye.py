import numpy as np
import pytest

from robocal.errors import (DegenerateGeometryError, InconsistentMeasurementError,
                            ValidationError)
from robocal.geometry import (Pose, apply, axis_angle, compose, invert, make_rng,
                              random_rotation, random_unit_vector, rotation_distance)
from robocal.handeye import (ROTATION_OUTLIER_DEG, HandEyeView, MarkerBoard,
                             default_board_points, evaluate_handeye, marker_from_base,
                             solve_handeye, synthesize_views)


def make_chain(rng, n_views=10):
    cam_to_ee = Pose(random_rotation(rng), np.array([55.0, 40.0, 38.0]))
    marker_base = Pose(random_rotation(rng), np.array([450.0, 20.0, 0.0]))
    bp = default_board_points()
    board = MarkerBoard(bp, apply(marker_base, bp))
    center = np.array([450.0, 20.0, 350.0])
    ee_poses = [Pose(random_rotation(rng), center + rng.uniform(-300, 300, 3))
                for _ in range(n_views)]
    views = synthesize_views(cam_to_ee, marker_base, ee_poses)
    return cam_to_ee, marker_base, board, views


def add_detection_noise(views, rng, deg=0.2, mm=0.3):
    """Views with each detected marker pose turned about a random axis by
    N(0, deg) degrees and shifted by N(0, mm) mm per axis."""
    noisy = []
    for v in views:
        R = axis_angle(random_unit_vector(rng),
                       rng.normal(0.0, deg)) @ v.marker_in_cam.rotation
        t = v.marker_in_cam.translation + rng.normal(0.0, mm, 3)
        noisy.append(HandEyeView(v.ee_pose, Pose(R, t)))
    return noisy


def test_default_board_is_a_4_by_3_grid_40_mm_apart():
    points = default_board_points()
    assert points.shape == (12, 3)
    assert sorted(set(points[:, 0])) == [-60.0, -20.0, 20.0, 60.0]
    assert sorted(set(points[:, 1])) == [-40.0, 0.0, 40.0]
    assert not points[:, 2].any()


class TestMarkerFromBase:
    def test_identity(self):
        bp = default_board_points()
        pose, rms = marker_from_base(MarkerBoard(bp, bp.copy()))
        np.testing.assert_allclose(pose.as_matrix(), np.eye(4), atol=1e-12)
        assert rms < 1e-12

    def test_known_pose_recovered(self):
        rng = make_rng(1)
        bp = default_board_points()
        truth = Pose(random_rotation(rng), rng.uniform(-300, 300, 3))
        pose, rms = marker_from_base(MarkerBoard(bp, apply(truth, bp)))
        np.testing.assert_allclose(pose.as_matrix(), truth.as_matrix(), atol=1e-9)
        assert rms < 1e-9

    def test_noise_residual_envelope(self):
        values = []
        for seed in range(25):
            rng = make_rng(seed, stream=5)
            bp = default_board_points()
            truth = Pose(random_rotation(rng), rng.uniform(-300, 300, 3))
            measured = apply(truth, bp) + rng.normal(0.0, 0.1, bp.shape)
            _, rms = marker_from_base(MarkerBoard(bp, measured))
            values.append(rms)
        assert 0.03 <= min(values) and max(values) <= 0.25

    def test_collinear_points_degenerate(self):
        line = np.column_stack([np.linspace(0, 100, 12), np.zeros(12), np.zeros(12)])
        with pytest.raises(DegenerateGeometryError):
            marker_from_base(MarkerBoard(line, line.copy()))

    def test_rigidity_violation_rejected(self):
        bp = default_board_points()
        measured = bp.copy()
        measured[0] += [3.0, 0.0, 0.0]  # exceeds the 1 mm rigidity tolerance
        with pytest.raises(InconsistentMeasurementError):
            MarkerBoard(bp, measured)

    def test_mismatched_lengths_rejected(self):
        bp = default_board_points()
        with pytest.raises(ValidationError):
            MarkerBoard(bp, bp[:-1])

    def test_overflowing_distances_are_not_rigid(self):
        # the pairwise distances overflow to inf, so their mismatch is nan;
        # the parent compared nan > tol, which is false, and built the board
        bp = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 1e200, 0.0]])
        measured = bp.copy()
        measured[2, 1] += 1e190
        with pytest.raises(InconsistentMeasurementError):
            MarkerBoard(bp, measured)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        bp = default_board_points()
        measured = bp.copy()
        measured[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            MarkerBoard(bp, measured)


class TestSolveHandEye:
    def test_single_view_exact(self):
        cam_to_ee, marker_base, board, views = make_chain(make_rng(2), n_views=1)
        result = solve_handeye(views, marker_base, board)
        np.testing.assert_allclose(result.cam_to_ee.as_matrix(),
                                   cam_to_ee.as_matrix(), atol=1e-9)

    def test_ten_views_exact(self):
        cam_to_ee, marker_base, board, views = make_chain(make_rng(3))
        result = solve_handeye(views, marker_base, board)
        np.testing.assert_allclose(result.cam_to_ee.as_matrix(),
                                   cam_to_ee.as_matrix(), atol=1e-9)
        assert result.overall_rmse < 1e-7
        assert result.rotation_outliers == ()

    def test_detection_noise_envelope(self):
        values = []
        for seed in range(15):
            rng = make_rng(seed, stream=6)
            _, marker_base, board, views = make_chain(rng)
            noisy = add_detection_noise(views, rng)
            values.append(solve_handeye(noisy, marker_base, board).overall_rmse)
        assert 0.2 <= min(values) and max(values) <= 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_solution_minimises_the_chain_rmse(self, seed):
        # the pooled absolute orientation is the least-squares cam_to_ee, so
        # no small step along any of its six axes lowers the reported RMSE
        rng = make_rng(seed, stream=14)
        _, marker_base, board, views = make_chain(rng)
        views = add_detection_noise(views, rng)
        solved = solve_handeye(views, marker_base, board)
        X = solved.cam_to_ee
        assert evaluate_handeye(views, X, board) == solved.overall_rmse
        for axis in np.eye(3):
            for step in (1e-3, -1e-3):
                moved = Pose(X.rotation, X.translation + step * axis)
                turned = Pose(axis_angle(axis, step) @ X.rotation, X.translation)
                assert evaluate_handeye(views, moved, board) >= solved.overall_rmse
                assert evaluate_handeye(views, turned, board) >= solved.overall_rmse

    def test_empty_views_rejected(self):
        _, marker_base, board, _ = make_chain(make_rng(4))
        with pytest.raises(ValidationError):
            solve_handeye([], marker_base, board)

    def test_view_order_does_not_matter(self):
        _, marker_base, board, views = make_chain(make_rng(5))
        a = solve_handeye(views, marker_base, board).cam_to_ee
        b = solve_handeye(views[::-1], marker_base, board).cam_to_ee
        np.testing.assert_allclose(a.as_matrix(), b.as_matrix(), atol=1e-12)

    def test_rotation_outlier_flagged_not_dropped(self):
        _, marker_base, board, views = make_chain(make_rng(6))
        bad = views[3]
        twisted = Pose(axis_angle([0.0, 0.0, 1.0], 25.0) @ bad.marker_in_cam.rotation,
                       bad.marker_in_cam.translation)
        views[3] = HandEyeView(bad.ee_pose, twisted)
        result = solve_handeye(views, marker_base, board)
        assert 3 in result.rotation_outliers
        assert len(result.per_view_rmse) == len(views)

    @pytest.mark.parametrize("seed", range(6))
    def test_flagged_views_as_from_one_pose_per_view(self, seed):
        # the views flagged from each view's rotation alone are those that the
        # closed-form Pose of each view flagged, also at the threshold
        rng = make_rng(40 + seed)
        _, marker_base, board, views = make_chain(rng, n_views=8)
        views = add_detection_noise(views, rng, deg=0.5, mm=0.2)
        for k, deg in zip((1, 4, 6), (ROTATION_OUTLIER_DEG, 4.9, 25.0)):
            twisted = Pose(axis_angle(random_unit_vector(rng), deg)
                           @ views[k].marker_in_cam.rotation, views[k].marker_in_cam.translation)
            views[k] = HandEyeView(views[k].ee_pose, twisted)
        result = solve_handeye(views, marker_base, board)
        estimates = [compose(invert(v.ee_pose), marker_base, invert(v.marker_in_cam))
                     for v in views]
        assert result.rotation_outliers == tuple(
            i for i, e in enumerate(estimates)
            if rotation_distance(e.rotation, result.cam_to_ee.rotation)
            > ROTATION_OUTLIER_DEG)
        assert 6 in result.rotation_outliers


class TestEvaluateHandEye:
    def test_noise_free_chain_is_zero(self):
        cam_to_ee, _, board, views = make_chain(make_rng(7))
        assert evaluate_handeye(views, cam_to_ee, board) < 1e-9

    def test_injected_translation_offset_is_exact(self):
        cam_to_ee, _, board, views = make_chain(make_rng(8))
        shifted = Pose(cam_to_ee.rotation,
                       cam_to_ee.translation + np.array([0.89, 0.0, 0.0]))
        assert evaluate_handeye(views, shifted, board) == pytest.approx(0.89,
                                                                        abs=1e-6)

    def test_rigid_perturbation_matches_point_displacement(self):
        # evaluated RMSE must equal the rms displacement the perturbation
        # itself induces on the board points, computed independently
        cam_to_ee, _, board, views = make_chain(make_rng(9))
        rng = make_rng(10)
        perturbation = Pose(axis_angle(random_unit_vector(rng), 0.5),
                            rng.uniform(-1, 1, 3))
        from robocal.geometry import compose
        perturbed = compose(perturbation, cam_to_ee)
        d2 = []
        for v in views:
            in_cam = apply(v.marker_in_cam, board.board_points)
            displaced = apply(perturbed, in_cam) - apply(cam_to_ee, in_cam)
            d2.append(np.sum(displaced ** 2, axis=1))
        expected = float(np.sqrt(np.concatenate(d2).mean()))
        assert evaluate_handeye(views, perturbed, board) == pytest.approx(expected,
                                                                          rel=1e-9)

    def test_solve_reports_the_per_view_formula(self):
        # noisy detections; solve_handeye's numbers equal evaluate_handeye's and,
        # bit for bit, a per-view loop over the full chains
        cam_to_ee, marker_base, board, views = make_chain(make_rng(12))
        rng = make_rng(13)
        views = [HandEyeView(v.ee_pose,
                             Pose(axis_angle(random_unit_vector(rng), 0.2)
                                  @ v.marker_in_cam.rotation,
                                  v.marker_in_cam.translation + rng.normal(0.0, 0.3, 3)))
                 for v in views]
        result = solve_handeye(views, marker_base, board)
        from robocal.geometry import compose
        d2 = [np.sum((apply(compose(v.ee_pose, result.cam_to_ee, v.marker_in_cam),
                            board.board_points) - board.measured_points) ** 2, axis=1)
              for v in views]
        np.testing.assert_array_equal(result.per_view_rmse,
                                      np.array([np.sqrt(d.mean()) for d in d2]))
        assert result.overall_rmse == float(np.sqrt(np.concatenate(d2).mean()))
        assert evaluate_handeye(views, result.cam_to_ee, board) == result.overall_rmse
