import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robocal.errors import ValidationError
from robocal.fileio import RunManifest, _fmt
from robocal.geometry import (Pose, _trusted_pose, apply, compose, invert, make_rng,
                              random_rotation, random_unit_vector)
from robocal.handeye import evaluate_handeye, synthesize_views
from robocal.mesh import Mesh, resolve_mesh, sample_surface, surface_moment
from robocal.metrics import pointwise_rmse
from robocal.registration import pose_error
from robocal.simulate import (CalibratedPerturbation, Camera, NoiseSpec, SceneConfig,
                              SceneObject, Trajectory, annotation_quality_table,
                              calibrate_handeye_perturbation, generate_scene,
                              perturb_object_pose, perturbed_pose, sim_report_text,
                              simulate_annotation_error, _draw_streams, _marker_rig,
                              _moment_rmse)


@pytest.fixture(scope="module")
def scene():
    return generate_scene("phocal-like", 3)


@functools.lru_cache(maxsize=None)
def _rig(seed, camera):
    """(cam_to_ee, board, noise-free views) of the hand-eye rig of a scene."""
    scene = generate_scene("phocal-like", seed)
    marker_base, board, ee_poses = _marker_rig(scene)
    cam = scene.cameras[camera].cam_to_ee
    return cam, board, synthesize_views(cam, marker_base, ee_poses)


@pytest.fixture(scope="module")
def rig():
    return _rig(3, 0)


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
        # a direction or axis that is not unit length would not move the pose
        # by the stated magnitudes; it is refused, not renormalised
        x, z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
        for args, name in ((([2.0, 0.0, 0.0], 0.2, z, 0.38), "translation direction"),
                           (([0.0, 0.0, 0.0], 0.2, z, 0.38), "translation direction"),
                           ((x, 0.2, [0.0, 0.0, 0.0], 0.38), "rotation axis"),
                           ((x, 0.2, [0.0, 0.0, 1.0 + 1e-8], 0.38), "rotation axis")):
            with pytest.raises(ValidationError, match=f"^{name} must be unit length"):
                perturbed_pose(pose, *args)


class TestCalibratePerturbation:
    # 500 mm is where a fixed-point iteration on the scale stops converging
    @pytest.mark.parametrize("target", [0.3, 2.0, 500.0])
    def test_hits_target_within_tolerance(self, rig, target):
        cam, board, views = rig
        calib = calibrate_handeye_perturbation(cam, board, views, target,
                                               make_rng(6))
        assert abs(calib.achieved_rmse_mm - target) <= 1e-12 * target
        assert evaluate_handeye(views, calib.pose, board) == pytest.approx(
            calib.achieved_rmse_mm, rel=1e-9)

    def test_zero_target_rejected(self, rig):
        cam, board, views = rig
        with pytest.raises(ValidationError):
            calibrate_handeye_perturbation(cam, board, views, 0.0, make_rng(7))
        with pytest.raises(ValidationError):
            calibrate_handeye_perturbation(cam, board, views, float("inf"),
                                           make_rng(7))


@given(seed=st.sampled_from([1, 3, 5]), camera=st.integers(0, 1),
       directions=st.integers(0, 2**32 - 1),
       translation_mm=st.floats(0.01, 500.0), rotation_deg=st.floats(-60.0, 60.0))
def test_moment_rmse_equals_board_evaluation(seed, camera, directions,
                                             translation_mm, rotation_deg):
    # on a noise-free rig of an exactly measured board, the board RMSE of any
    # cam-to-ee transform is the closed form over the camera-frame points
    cam, board, views = _rig(seed, camera)
    rng = make_rng(directions)
    perturbed = perturbed_pose(cam, random_unit_vector(rng), translation_mm,
                               random_unit_vector(rng), rotation_deg)
    points = np.concatenate([apply(v.marker_in_cam, board.board_points) for v in views])
    points = np.column_stack([points, np.ones(len(points))])
    closed_form = _moment_rmse((perturbed.as_matrix() - cam.as_matrix())[:3],
                               points.T @ points / len(points))
    assert closed_form == pytest.approx(evaluate_handeye(views, perturbed, board),
                                        rel=1e-9)


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
        assert np.abs(report.frame_rmse).max() <= 1e-9

    def test_object_noise_only_origin_point_equality(self, monkeypatch):
        # a probe object whose only sample sits at its origin: the pointwise
        # error collapses to the exact 0.20 mm translation noise
        scene, mesh = single_object_scene()
        monkeypatch.setattr("robocal.simulate.resolve_mesh",
                            lambda ref, base_dir=None: mesh)
        monkeypatch.setattr("robocal.simulate.surface_moment", origin_moment)
        spec = NoiseSpec(handeye_target_rmse={}, seed=3)
        report = simulate_annotation_error(scene, spec)
        series = report.frame_rmse[0, 0]
        np.testing.assert_allclose(series, 0.20, atol=1e-9)
        assert report.camera_rmse[0, 0] == pytest.approx(0.20, abs=1e-9)

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
        cam_hat = report.handeye_perturbations[0].pose
        expected = [pointwise_rmse(points,
                                   compose(invert(cam.cam_to_ee), invert(ee), obj.pose),
                                   compose(invert(cam_hat), invert(ee), obj_hat))
                    for ee in scene.trajectories[0].poses]
        np.testing.assert_allclose(report.frame_rmse[0, 0], expected,
                                   rtol=1e-12, atol=0.0)

    def test_object_noise_rmse_at_least_translation_noise(self, scene):
        spec = NoiseSpec(handeye_target_rmse={}, seed=4)
        report = simulate_annotation_error(scene, spec)
        for value in report.frame_rmse.mean(axis=2).ravel():
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
        ratio = r2.camera_rmse[0, 0] / r1.camera_rmse[0, 0]
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
        np.testing.assert_allclose(rebased.frame_rmse, base.frame_rmse, atol=1e-9)

    def test_determinism_is_bitwise(self, scene):
        spec = NoiseSpec(seed=12)
        a = simulate_annotation_error(scene, spec)
        b = simulate_annotation_error(scene, spec)
        np.testing.assert_array_equal(a.frame_rmse, b.frame_rmse)
        np.testing.assert_array_equal(a.camera_rmse, b.camera_rmse)

    def test_multiple_draws_reported(self, scene):
        spec = NoiseSpec(seed=13)
        report = simulate_annotation_error(scene, spec, draws=3)
        assert report.camera_rmse.shape == (len(report.camera_names), 3)
        text = sim_report_text(report, RunManifest("simulate", {}))
        for cam, draws in zip(report.camera_names, report.camera_rmse):
            mean = float(np.mean(list(draws)))
            assert f"camera {cam}:" in text
            assert f"  per-camera RMSE (3-draw mean): {mean!r} mm\n" in text
        # the first draw's per-camera RMSE is the mean of its per-frame detail
        np.testing.assert_allclose(report.camera_rmse[:, 0],
                                   report.frame_rmse.mean(axis=2).mean(axis=1))

    def test_unresolvable_mesh_fails_before_simulation(self, scene):
        broken = SceneConfig(
            (SceneObject("ghost", "proc:unobtainium", scene.objects[0].pose),),
            scene.cameras, scene.trajectories)
        with pytest.raises(ValidationError):
            simulate_annotation_error(broken, NoiseSpec(seed=1))


def _reference_perturbation(pose, translation_dir, translation_mm, rotation_axis,
                            rotation_deg):
    """_perturbation as it was, building the rotation generator at every call."""
    t_dir = pose.rotation @ translation_dir
    axis = pose.rotation @ rotation_axis
    K = np.cross(axis, np.eye(3)).T
    theta = math.radians(rotation_deg)
    rotation = (math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)) @ pose.rotation
    return np.column_stack([rotation, translation_mm * t_dir])


def _reference_calibration(cam_to_ee, board, views, target_rmse, rng):
    """calibrate_handeye_perturbation as it was before its rotation generator
    was built once per call: every evaluation, and the perturbed pose, goes
    through _reference_perturbation."""
    points = np.concatenate([apply(v.marker_in_cam, board.board_points) for v in views])
    points = np.column_stack([points, np.ones(len(points))])
    moment = points.T @ points / len(points)
    lever = math.sqrt(np.trace(moment[:3, :3]))
    u_t = random_unit_vector(rng)
    u_r = random_unit_vector(rng)
    weight = rng.uniform(0.0, 0.7)
    base_t = (1.0 - weight) * target_rmse
    base_r = np.degrees(weight * target_rmse / max(lever, 1.0))
    excesses = []

    def excess(scale):
        d = _reference_perturbation(cam_to_ee, u_t, scale * base_t, u_r, scale * base_r)
        excesses.append(float(_moment_rmse(d, moment)) - target_rmse)
        return excesses[-1]

    a, g_a, b, g_b = 0.0, -target_rmse, 1.0, excess(1.0)
    while g_b < 0.0:
        a, g_a, b = b, g_b, 2.0 * b
        g_b = excess(b)
    while abs(g_b) > np.finfo(float).eps * target_rmse:
        c = b - g_b * (b - a) / (g_b - g_a)
        if (c - a) * (c - b) >= 0.0:
            break
        g_c = excess(c)
        a, g_a = (b, g_b) if g_c * g_b < 0.0 else (a, g_a / 2.0)
        b, g_b = c, g_c
    d = _reference_perturbation(cam_to_ee, u_t, b * base_t, u_r, b * base_r)
    return CalibratedPerturbation(
        _trusted_pose(cam_to_ee.rotation + d[:, :3], cam_to_ee.translation + d[:, 3]),
        target_rmse + g_b, len(excesses))


def _reference_simulation(scene, spec, draws):
    """The simulation as a loop of name-keyed dicts per draw, with one
    invert(pose).as_matrix() per trajectory stop and _reference_calibration,
    kept as the reference for the array report: (frame_rmse, per_object,
    per_camera, handeye_perturbations) of the first draw, and each camera's
    list of per-draw RMSEs."""
    moments = {obj.name: surface_moment(resolve_mesh(obj.mesh_ref))
               for obj in scene.objects}
    marker_base, board, rig_ee_poses = _marker_rig(scene)
    rig_views = {cam.name: synthesize_views(cam.cam_to_ee, marker_base, rig_ee_poses)
                 for cam in scene.cameras}
    ee_inv = np.stack([invert(pose).as_matrix() for traj in scene.trajectories
                       for pose in traj.poses])
    per_camera_draws = {cam.name: [] for cam in scene.cameras}
    first_detail = None
    for draw in range(draws):
        obj_stream, calib_stream = _draw_streams(draw)
        obj_rng = make_rng(spec.seed, obj_stream)
        calib_rng = make_rng(spec.seed, calib_stream)
        perturbed_objects = {}
        for obj in scene.objects:
            perturbed_objects[obj.name] = perturb_object_pose(obj.pose, spec, obj_rng)
        handeye_perturbations, frame_rmse, per_object, per_camera = {}, {}, {}, {}
        for cam in scene.cameras:
            target = spec.handeye_target_rmse.get(cam.name, 0.0)
            calib = handeye_perturbations[cam.name] = (_reference_calibration(
                cam.cam_to_ee, board, rig_views[cam.name], target, calib_rng)
                if target > 0.0 else None)
            perturbed_cam = cam.cam_to_ee if calib is None else calib.pose
            delta = compose(cam.cam_to_ee, invert(perturbed_cam)).as_matrix()
            for obj in scene.objects:
                gt = ee_inv @ obj.pose.as_matrix()
                ann = delta @ ee_inv @ perturbed_objects[obj.name].as_matrix()
                series = _moment_rmse((gt - ann)[:, :3], moments[obj.name])
                frame_rmse[(cam.name, obj.name)] = series
                per_object[(cam.name, obj.name)] = float(series.mean())
            per_camera[cam.name] = float(np.mean(
                [per_object[(cam.name, obj.name)] for obj in scene.objects]))
            per_camera_draws[cam.name].append(per_camera[cam.name])
        if draw == 0:
            first_detail = (frame_rmse, per_object, per_camera, handeye_perturbations)
    return first_detail, per_camera_draws


def _reference_text(scene, first_detail, per_camera_draws, manifest):
    """The report text as written from the name-keyed dicts."""
    _, per_object, per_camera, handeye_perturbations = first_detail
    draws = len(next(iter(per_camera_draws.values())))
    mean = {k: float(np.mean(v)) for k, v in per_camera_draws.items()}
    lines = [manifest.embed_line(), "simulated annotation-quality report", ""]
    lines.append(f"draws: {draws}")
    for cam in (c.name for c in scene.cameras):
        lines.append(f"\ncamera {cam}:")
        calib = handeye_perturbations[cam]
        if calib is None:
            lines.append("  hand-eye perturbation: none (target 0)")
        else:
            lines.append(f"  hand-eye perturbation RMSE: "
                         f"{_fmt(calib.achieved_rmse_mm)} mm "
                         f"({calib.evaluations} evaluations)")
        for obj in (o.name for o in scene.objects):
            lines.append(f"  {obj}: {_fmt(per_object[(cam, obj)])} mm")
        lines.append(f"  per-camera RMSE (first draw): {_fmt(per_camera[cam])} mm")
        if draws > 1:
            lines.append(f"  per-camera RMSE ({draws}-draw mean): {_fmt(mean[cam])} mm")
    lines.append("")
    lines.append(annotation_quality_table(mean))
    return "\n".join(lines) + "\n"


class TestArrayReportMatchesDictLoop:
    # nine draws make each camera's mean an 8-way unrolled pairwise sum
    @pytest.mark.parametrize("draws", [1, 3, 9])
    @pytest.mark.parametrize("targets", [{"rgbd": 0.89}, NoiseSpec().handeye_target_rmse],
                             ids=["one-camera-unperturbed", "paper-targets"])
    def test_same_bits(self, scene, targets, draws):
        spec = NoiseSpec(handeye_target_rmse=targets, seed=21)
        report = simulate_annotation_error(scene, spec, draws=draws)
        first_detail, per_camera_draws = _reference_simulation(scene, spec, draws)
        frame_rmse = first_detail[0]
        for i, cam in enumerate(scene.cameras):
            for j, obj in enumerate(scene.objects):
                assert report.frame_rmse[i, j].tobytes() == \
                    frame_rmse[(cam.name, obj.name)].tobytes()
            assert report.camera_rmse[i].tobytes() == \
                np.array(per_camera_draws[cam.name]).tobytes()
        manifest = RunManifest("simulate", {"seed": spec.seed, "draws": draws})
        assert sim_report_text(report, manifest) == _reference_text(
            scene, first_detail, per_camera_draws, manifest)


def _same_calibration(got, want):
    assert got.pose.rotation.tobytes() == want.pose.rotation.tobytes()
    assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
    assert got.achieved_rmse_mm.hex() == want.achieved_rmse_mm.hex()
    assert got.evaluations == want.evaluations


@functools.lru_cache(maxsize=None)
def _phocal_scene(seed):
    return generate_scene("phocal-like", seed)


class TestHoistsMatchReference:
    """The root find with its rotation generator built once per call, and the
    stacked trajectory inverses, give the bits of the per-evaluation and
    per-stop reference."""

    @pytest.mark.parametrize("target", [0.3, 0.89, 2.0])
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_calibration_same_bits(self, seed, target):
        for camera in (0, 1):
            cam, board, views = _rig(seed, camera)
            for stream in range(3):
                got = calibrate_handeye_perturbation(cam, board, views, target,
                                                     make_rng(seed, stream))
                want = _reference_calibration(cam, board, views, target,
                                              make_rng(seed, stream))
                _same_calibration(got, want)

    @pytest.mark.parametrize("target", [0.3, 0.89, 2.0])
    @pytest.mark.parametrize("draws", [1, 4])
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_simulation_same_bits(self, seed, draws, target):
        scene = _phocal_scene(seed)
        spec = NoiseSpec(handeye_target_rmse={cam.name: target for cam in scene.cameras},
                         seed=seed)
        report = simulate_annotation_error(scene, spec, draws=draws)
        (frame_rmse, _, _, calibs), per_camera_draws = _reference_simulation(
            scene, spec, draws)
        for i, cam in enumerate(scene.cameras):
            _same_calibration(report.handeye_perturbations[i], calibs[cam.name])
            for j, obj in enumerate(scene.objects):
                assert report.frame_rmse[i, j].tobytes() == \
                    frame_rmse[(cam.name, obj.name)].tobytes()
            assert report.camera_rmse[i].tobytes() == \
                np.array(per_camera_draws[cam.name]).tobytes()


class TestRepeatedNames:
    @pytest.mark.parametrize("kind", ["camera", "object"])
    def test_scene_refuses_a_repeated_name(self, scene, kind):
        # the report addresses rows by position, but hand-eye targets and the
        # report's readers address them by name
        objects, cameras = list(scene.objects), list(scene.cameras)
        if kind == "camera":
            cameras[1] = Camera(cameras[0].name, cameras[1].cam_to_ee)
        else:
            objects[1] = SceneObject(objects[0].name, objects[1].mesh_ref,
                                     objects[1].pose)
        repeated = (cameras if kind == "camera" else objects)[0].name
        with pytest.raises(ValidationError,
                           match=rf"^{kind} name\(s\) \['{repeated}'\] repeat"):
            SceneConfig(tuple(objects), tuple(cameras), scene.trajectories)


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
