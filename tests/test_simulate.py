import numpy as np
import pytest

from robocal.errors import SearchFailureError, ValidationError
from robocal.geometry import (Pose, apply, compose, invert, make_rng,
                              random_rotation)
from robocal.handeye import MarkerBoard, default_board_points, synthesize_views
from robocal.mesh import Mesh, sample_surface
from robocal.metrics import pointwise_rmse
from robocal.registration import pose_error
from robocal.simulate import (Camera, NoiseSpec, SceneConfig, SceneObject,
                              Trajectory, calibrate_handeye_perturbation,
                              generate_scene, perturb_object_pose, perturbed_pose,
                              simulate_annotation_error, _draw_streams, _marker_rig)


@pytest.fixture(scope="module")
def scene():
    return generate_scene("phocal-like", 3)


@pytest.fixture(scope="module")
def rig(scene):
    marker_base, board, ee_poses = _marker_rig(scene, 10)
    cam = scene.cameras[0].cam_to_ee
    views = synthesize_views(cam, marker_base, ee_poses)
    return cam, board, views


class TestPerturbObjectPose:
    def test_zero_magnitudes_leave_pose_unchanged(self):
        pose = Pose(random_rotation(make_rng(1)), [400.0, 10.0, 30.0])
        spec = NoiseSpec(obj_translation_mm=0.0, obj_rotation_deg=0.0, seed=0)
        out = perturb_object_pose(pose, spec, make_rng(2))
        np.testing.assert_array_equal(out.as_matrix(), pose.as_matrix())

    def test_default_magnitudes_are_exact_every_draw(self):
        rng = make_rng(3)
        spec = NoiseSpec()
        for _ in range(50):
            pose = Pose(random_rotation(rng), rng.uniform(-500, 500, 3))
            dt, dr = pose_error(pose, perturb_object_pose(pose, spec, rng))
            assert dt == pytest.approx(0.20, abs=1e-9)
            assert dr == pytest.approx(0.38, abs=1e-6)

    def test_translation_error_directions_uniform(self):
        pose = Pose(random_rotation(make_rng(4)), [300.0, -50.0, 20.0])
        spec = NoiseSpec()
        rng = make_rng(5)
        up = 0
        n = 10_000
        for _ in range(n):
            out = perturb_object_pose(pose, spec, rng)
            if (out.translation - pose.translation)[2] > 0:
                up += 1
        assert up / n == pytest.approx(0.5, abs=0.02)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(obj_translation_mm=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_magnitudes_rejected(self, value):
        for kwargs in ({"obj_translation_mm": value}, {"obj_rotation_deg": value},
                       {"handeye_target_rmse": {"rgbd": value}}):
            with pytest.raises(ValidationError):
                NoiseSpec(**kwargs)

    def test_perturbed_pose_rejects_non_finite_input(self):
        # its result is built unchecked, so its inputs are checked
        pose = Pose(random_rotation(make_rng(5)), [300.0, -50.0, 20.0])
        for args in (([np.nan, 0.0, 0.0], 0.2, [0.0, 0.0, 1.0], 0.38),
                     ([1.0, 0.0, 0.0], np.inf, [0.0, 0.0, 1.0], 0.38),
                     ([1.0, 0.0, 0.0], 0.2, [0.0, 0.0, 1.0], np.nan)):
            with pytest.raises(ValidationError):
                perturbed_pose(pose, *args)


class TestCalibratePerturbation:
    @pytest.mark.parametrize("target", [0.3, 2.0])
    def test_hits_target_within_tolerance(self, rig, target):
        cam, board, views = rig
        calib = calibrate_handeye_perturbation(cam, board, views, target,
                                               make_rng(6))
        assert abs(calib.achieved_rmse_mm - target) <= 0.02 * target

    def test_zero_target_rejected(self, rig):
        cam, board, views = rig
        with pytest.raises(ValidationError):
            calibrate_handeye_perturbation(cam, board, views, 0.0, make_rng(7))
        with pytest.raises(ValidationError):
            calibrate_handeye_perturbation(cam, board, views, float("inf"),
                                           make_rng(7))

    def test_translation_only_magnitude_equals_target(self, rig):
        cam, board, views = rig
        calib = calibrate_handeye_perturbation(cam, board, views, 1.0, make_rng(8),
                                               rotation_sweep=False)
        magnitude = np.linalg.norm(calib.pose.translation - cam.translation)
        assert magnitude == pytest.approx(1.0, rel=0.02)
        assert calib.achieved_rmse_mm == pytest.approx(1.0, rel=0.02)

    def test_budget_exhaustion_raises(self, rig):
        cam, board, views = rig
        with pytest.raises(SearchFailureError):
            calibrate_handeye_perturbation(cam, board, views, 1.0, make_rng(9),
                                           budget=1, rel_tol=1e-9)


def origin_moment(mesh):
    """Stands in for the surface moment: the probe's only point is its origin."""
    moment = np.zeros((4, 4))
    moment[3, 3] = 1.0
    return moment


def single_object_scene():
    mesh = Mesh(np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10.0, 0]]),
                np.array([[0, 1, 2]]), name="probe")
    rng = make_rng(10)
    obj = SceneObject("probe", "proc:box", Pose(random_rotation(rng),
                                                [450.0, 0.0, 40.0]))
    cam = Camera("rgbd", Pose(random_rotation(rng), [50.0, 30.0, 20.0]))
    stops = tuple(Pose(random_rotation(rng), rng.uniform(-200, 200, 3) +
                       np.array([450.0, 0.0, 400.0])) for _ in range(12))
    scene = SceneConfig((obj,), (cam,), (Trajectory("t", stops),))
    return scene, mesh


class TestSimulateAnnotationError:
    def test_zero_noise_gives_zero_rmse(self, scene):
        spec = NoiseSpec(obj_translation_mm=0.0, obj_rotation_deg=0.0,
                         handeye_target_rmse={}, seed=1)
        report = simulate_annotation_error(scene, spec)
        for series in report.frame_rmse.values():
            assert np.abs(series).max() <= 1e-9

    def test_object_noise_only_origin_point_equality(self, monkeypatch):
        # a probe object whose only sample sits at its origin: the pointwise
        # error collapses to the exact 0.20 mm translation noise
        scene, mesh = single_object_scene()
        monkeypatch.setattr("robocal.simulate.resolve_mesh",
                            lambda ref, base_dir=None: mesh)
        monkeypatch.setattr("robocal.simulate.surface_moment", origin_moment)
        spec = NoiseSpec(handeye_target_rmse={}, seed=3)
        report = simulate_annotation_error(scene, spec)
        series = report.frame_rmse[("rgbd", "probe")]
        np.testing.assert_allclose(series, 0.20, atol=1e-9)
        assert report.per_camera_rmse["rgbd"] == pytest.approx(0.20, abs=1e-9)

    def test_closed_form_matches_pointwise_rmse_over_samples(self, monkeypatch):
        # with the moment of a fixed sample set, every per-frame value equals
        # pointwise_rmse of the two full pose chains over those samples
        scene, mesh = single_object_scene()
        points = sample_surface(mesh, 500, make_rng(20))
        homogeneous = np.column_stack([points, np.ones(len(points))])
        monkeypatch.setattr("robocal.simulate.resolve_mesh",
                            lambda ref, base_dir=None: mesh)
        monkeypatch.setattr("robocal.simulate.surface_moment",
                            lambda m: homogeneous.T @ homogeneous / len(points))
        spec = NoiseSpec(handeye_target_rmse={"rgbd": 0.89}, seed=6)
        report = simulate_annotation_error(scene, spec)

        obj, cam = scene.objects[0], scene.cameras[0]
        obj_hat = perturb_object_pose(obj.pose, spec,
                                      make_rng(spec.seed, _draw_streams(0)[0]))
        cam_hat = report.handeye_perturbations["rgbd"].pose
        expected = [pointwise_rmse(points,
                                   compose(invert(cam.cam_to_ee), invert(ee), obj.pose),
                                   compose(invert(cam_hat), invert(ee), obj_hat))
                    for ee in scene.trajectories[0].poses]
        np.testing.assert_allclose(report.frame_rmse[("rgbd", "probe")], expected,
                                   rtol=1e-12, atol=0.0)

    def test_object_noise_rmse_at_least_translation_noise(self, scene):
        spec = NoiseSpec(handeye_target_rmse={}, seed=4)
        report = simulate_annotation_error(scene, spec)
        for value in report.per_object_rmse.values():
            assert value >= 0.20 - 0.01

    def test_doubling_translation_noise_doubles_origin_rmse(self, monkeypatch):
        scene, mesh = single_object_scene()
        monkeypatch.setattr("robocal.simulate.resolve_mesh",
                            lambda ref, base_dir=None: mesh)
        monkeypatch.setattr("robocal.simulate.surface_moment", origin_moment)
        r1 = simulate_annotation_error(
            scene, NoiseSpec(obj_rotation_deg=0.0, handeye_target_rmse={}, seed=5))
        r2 = simulate_annotation_error(
            scene, NoiseSpec(obj_translation_mm=0.40, obj_rotation_deg=0.0,
                             handeye_target_rmse={}, seed=5))
        ratio = r2.per_camera_rmse["rgbd"] / r1.per_camera_rmse["rgbd"]
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_frame_invariance_under_rebasing(self, scene):
        spec = NoiseSpec(seed=11)
        base = simulate_annotation_error(scene, spec)
        mover = Pose(random_rotation(make_rng(99)), [120.0, -40.0, 60.0])
        rebased_scene = SceneConfig(
            tuple(SceneObject(o.name, o.mesh_ref, compose(mover, o.pose))
                  for o in scene.objects),
            scene.cameras,
            tuple(Trajectory(t.name, tuple(compose(mover, p) for p in t.poses))
                  for t in scene.trajectories))
        rebased = simulate_annotation_error(rebased_scene, spec)
        for key in base.frame_rmse:
            np.testing.assert_allclose(rebased.frame_rmse[key],
                                       base.frame_rmse[key], atol=1e-9)

    def test_determinism_is_bitwise(self, scene):
        spec = NoiseSpec(seed=12)
        a = simulate_annotation_error(scene, spec)
        b = simulate_annotation_error(scene, spec)
        for key in a.frame_rmse:
            np.testing.assert_array_equal(a.frame_rmse[key], b.frame_rmse[key])
        assert a.per_camera_rmse == b.per_camera_rmse

    def test_multiple_draws_reported(self, scene):
        spec = NoiseSpec(seed=13)
        report = simulate_annotation_error(scene, spec, draws=3)
        for cam in report.camera_names:
            assert len(report.per_camera_rmse_draws[cam]) == 3
            assert report.per_camera_rmse_mean[cam] == pytest.approx(
                float(np.mean(report.per_camera_rmse_draws[cam])))

    def test_unresolvable_mesh_fails_before_simulation(self, scene):
        broken = SceneConfig(
            (SceneObject("ghost", "proc:unobtainium", scene.objects[0].pose),),
            scene.cameras, scene.trajectories)
        with pytest.raises(ValidationError):
            simulate_annotation_error(broken, NoiseSpec(seed=1))


class TestGenerateScene:
    def test_deterministic_by_seed(self):
        a = generate_scene("phocal-like", 7)
        b = generate_scene("phocal-like", 7)
        assert [o.mesh_ref for o in a.objects] == [o.mesh_ref for o in b.objects]
        for oa, ob in zip(a.objects, b.objects):
            np.testing.assert_array_equal(oa.pose.as_matrix(), ob.pose.as_matrix())
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert len(ta.poses) == len(tb.poses)

    def test_object_count_in_contract_range(self):
        for seed in range(8):
            scene = generate_scene("phocal-like", seed)
            assert 5 <= len(scene.objects) <= 8

    def test_no_bounding_box_overlap(self):
        from robocal.mesh import resolve_mesh
        scene = generate_scene("phocal-like", 21)
        boxes = []
        for obj in scene.objects:
            verts = apply(obj.pose, resolve_mesh(obj.mesh_ref).vertices)
            boxes.append((verts.min(axis=0), verts.max(axis=0)))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                lo = np.maximum(boxes[i][0], boxes[j][0])
                hi = np.minimum(boxes[i][1], boxes[j][1])
                overlap = np.prod(np.maximum(hi - lo, 0.0))
                assert overlap == 0.0

    def test_unknown_template_lists_available(self):
        with pytest.raises(ValidationError, match="phocal-like"):
            generate_scene("desk-chaos", 1)

    def test_two_cameras_two_trajectories(self):
        scene = generate_scene("phocal-like", 2)
        assert [c.name for c in scene.cameras] == ["rgbd", "polarization"]
        assert len(scene.trajectories) == 2
        for t in scene.trajectories:
            assert 80 <= len(t.poses) <= 120
