import numpy as np
import pytest

from robocal import geometry
from robocal.errors import ValidationError
from robocal.geometry import (Pose, apply, axis_angle, compose, invert,
                              make_rng, matrix_to_quat, quat_to_matrix,
                              random_rotation, random_unit_vector,
                              rotation_distance)
from robocal.mesh import chamfered_box
from robocal.registration import (SpatialIndex, absolute_orientation,
                                  icp_refine, pose_error,
                                  random_pose_perturbation, sample_patch)
from robocal.simulate import (Camera, NoiseSpec, SceneConfig, SceneObject,
                              Trajectory, simulate_annotation_error)


def random_pose(rng, scale=500.0):
    return Pose(random_rotation(rng), rng.uniform(-scale, scale, 3))


class TestCompose:
    def test_identity_compose_identity(self):
        p = compose(Pose.identity(), Pose.identity())
        assert np.array_equal(p.as_matrix(), np.eye(4))

    def test_compose_with_inverse_is_identity(self):
        rng = make_rng(1)
        for _ in range(100):
            a = random_pose(rng)
            m = compose(a, invert(a)).as_matrix()
            np.testing.assert_allclose(m, np.eye(4), atol=1e-9)

    def test_compose_matches_sequential_application(self):
        # oracle: applying b then a point-by-point
        a = Pose(axis_angle([0.0, 0.0, 1.0], 90.0), [1.0, 0.0, 0.0])
        b = Pose(axis_angle([0.0, 1.0, 0.0], 37.0), [-2.0, 5.0, 1.0])
        p = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(apply(compose(a, b), p), apply(a, apply(b, p)),
                                   atol=1e-12)

    def test_associativity(self):
        rng = make_rng(2)
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            m1 = compose(compose(a, b), c).as_matrix()
            m2 = compose(a, compose(b, c)).as_matrix()
            np.testing.assert_allclose(m1, m2, atol=1e-9)

    def test_long_chain_stays_orthonormal(self):
        rng = make_rng(3)
        p = Pose.identity()
        for _ in range(1000):
            p = compose(p, random_pose(rng, scale=10.0))
        R = p.rotation
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


class TestInvert:
    def test_invert_identity(self):
        assert np.array_equal(invert(Pose.identity()).as_matrix(), np.eye(4))

    def test_involution(self):
        rng = make_rng(4)
        for _ in range(100):
            a = random_pose(rng)
            np.testing.assert_allclose(invert(invert(a)).as_matrix(), a.as_matrix(),
                                       atol=1e-12)

    def test_point_round_trip(self):
        rng = make_rng(5)
        for _ in range(50):
            a = random_pose(rng)
            p = rng.uniform(-300, 300, 3)
            np.testing.assert_allclose(apply(invert(a), apply(a, p)), p, atol=1e-9)


class TestApply:
    def test_identity(self):
        np.testing.assert_array_equal(apply(Pose.identity(), [1.0, 2.0, 3.0]),
                                      [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        p = Pose(np.eye(3), [0.0, 0.0, 5.0])
        np.testing.assert_array_equal(apply(p, [0.0, 0.0, 0.0]), [0.0, 0.0, 5.0])

    def test_half_turn_about_z(self):
        p = Pose(axis_angle([0.0, 0.0, 1.0], 180.0), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(apply(p, [1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0],
                                   atol=1e-12)

    def test_batched_points(self):
        rng = make_rng(6)
        a = random_pose(rng)
        pts = rng.uniform(-50, 50, (20, 3))
        batched = apply(a, pts)
        for k in range(20):
            np.testing.assert_allclose(batched[k], apply(a, pts[k]), atol=1e-12)


class TestAxisAngle:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(axis_angle([0.0, 1.0, 0.0], 0.0), np.eye(3))

    def test_quarter_turn_about_z(self):
        R = axis_angle([0.0, 0.0, 1.0], 90.0)
        np.testing.assert_allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_angle_round_trip(self):
        rng = make_rng(7)
        for _ in range(100):
            angle = rng.uniform(0.0, 180.0)
            R = axis_angle(random_unit_vector(rng), angle)
            assert rotation_distance(np.eye(3), R) == pytest.approx(angle, abs=1e-9)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValidationError):
            axis_angle([1.0, 1.0, 0.0], 10.0)

    def test_same_bits_as_the_matrix_formula(self):
        # the Rodrigues matrix as axis_angle formed it from the checked axis
        # array, as the reference for its bits
        rng = make_rng(17)
        for _ in range(300):
            ax = random_unit_vector(rng)
            angle = float(rng.uniform(-360.0, 360.0))
            theta = np.radians(angle)
            K = np.array([[0.0, -ax[2], ax[1]],
                          [ax[2], 0.0, -ax[0]],
                          [-ax[1], ax[0], 0.0]])
            want = np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)
            assert axis_angle(ax, angle).tobytes() == want.tobytes()


class TestRotationDistance:
    def test_zero_for_equal(self):
        R = random_rotation(make_rng(8))
        assert rotation_distance(R, R) == 0.0

    def test_known_angle(self):
        R = axis_angle([0.0, 0.0, 1.0], 4.0)
        assert rotation_distance(np.eye(3), R) == pytest.approx(4.0, abs=1e-9)

    def test_antipode(self):
        rng = make_rng(9)
        R = axis_angle(random_unit_vector(rng), 180.0)
        assert rotation_distance(np.eye(3), R) == pytest.approx(180.0, abs=1e-9)

    def test_full_precision_near_0_and_180(self):
        # a trace-only arccos fails both: it floors at ~1.2e-6 deg near 0
        # and is off by ~2e-6 deg near 180
        rng = make_rng(11)
        a = random_unit_vector(rng)
        R = random_rotation(rng)
        tiny = rotation_distance(R, axis_angle(a, 1e-7) @ R)
        assert tiny == pytest.approx(1e-7, rel=1e-6)
        near_pi = rotation_distance(np.eye(3), axis_angle(a, 180.0 - 1e-7))
        assert near_pi == pytest.approx(180.0 - 1e-7, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = make_rng(10)
        for _ in range(50):
            a, b, c = (random_rotation(rng) for _ in range(3))
            assert rotation_distance(a, b) == pytest.approx(rotation_distance(b, a),
                                                            abs=1e-9)
            assert (rotation_distance(a, c)
                    <= rotation_distance(a, b) + rotation_distance(b, c) + 1e-9)


class TestRandomSampling:
    def test_unit_norm(self):
        rng = make_rng(11)
        for _ in range(200):
            assert abs(np.linalg.norm(random_unit_vector(rng)) - 1.0) < 1e-12

    def test_sphere_statistics(self):
        # law of large numbers on the sampler: mean near 0, hemispheres even
        rng = make_rng(12)
        n = 1_000_000
        draws = np.empty((n, 3))
        for i in range(n):
            draws[i] = random_unit_vector(rng)
        assert np.abs(draws.mean(axis=0)).max() < 0.005
        assert (draws[:, 2] > 0).mean() == pytest.approx(0.5, abs=0.002)

    def test_random_rotation_is_proper(self):
        rng = make_rng(13)
        for _ in range(100):
            R = random_rotation(rng)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


class TestRng:
    def test_same_seed_same_sequence(self):
        a = make_rng(1234).standard_normal(32)
        b = make_rng(1234).standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = make_rng(1234, stream=0).standard_normal(32)
        b = make_rng(1234, stream=1).standard_normal(32)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "3", None, True, False])
    def test_seed_must_be_a_whole_number_not_below_zero(self, seed):
        # numpy's SeedSequence raises its own ValueError or TypeError for
        # these, which the CLI would show as a traceback; a bool would pass as
        # seed 1 or 0
        with pytest.raises(ValidationError, match="seed must be a whole number >= 0"):
            make_rng(seed)

    def test_numpy_integer_seed_accepted(self):
        np.testing.assert_array_equal(make_rng(np.int64(7)).standard_normal(4),
                                      make_rng(7).standard_normal(4))


class TestPoseType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            Pose(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValidationError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_bad_translation(self):
        with pytest.raises(ValidationError):
            Pose(np.eye(3), [1.0, 2.0])
        with pytest.raises(ValidationError):
            Pose(np.eye(3), [1.0, np.nan, 0.0])

    def test_arrays_are_immutable(self):
        rng = make_rng(17)
        a, b = random_pose(rng), random_pose(rng)
        model = rng.uniform(-50.0, 50.0, (6, 3))
        fitted, _ = absolute_orientation(model, apply(a, model))
        for p in (Pose.identity(), compose(a, b), invert(a), fitted):
            with pytest.raises(ValueError):
                p.rotation[0, 0] = 2.0
            with pytest.raises(ValueError):
                p.translation[0] = 2.0

    def test_from_matrix_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3] = [1.0, 2.0, 3.0, 5.0]
        with pytest.raises(ValidationError):
            Pose.from_matrix(m)

    def test_matrix_round_trip(self):
        rng = make_rng(14)
        a = random_pose(rng)
        np.testing.assert_array_equal(Pose.from_matrix(a.as_matrix()).as_matrix(),
                                      a.as_matrix())

    def test_quaternion_round_trip(self):
        rng = make_rng(16)
        for _ in range(200):
            R = random_rotation(rng)
            np.testing.assert_allclose(quat_to_matrix(matrix_to_quat(R)), R,
                                       atol=1e-12)

    def test_quaternion_stack_gives_each_quaternion_its_own_matrix(self):
        q = make_rng(19).standard_normal((2, 5, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        stacked = quat_to_matrix(q)
        assert stacked.shape == (2, 5, 3, 3)
        for index in np.ndindex(2, 5):
            assert stacked[index].tobytes() == quat_to_matrix(q[index]).tobytes()

    def test_rotation_errors_name_their_test(self):
        # the messages that the file readers repeat for a faulty row
        with pytest.raises(ValidationError) as raised:
            Pose(np.eye(3) * 1.01, np.zeros(3))
        assert str(raised.value) == "rotation is not orthonormal (max deviation 0.0201)"
        with pytest.raises(ValidationError) as raised:
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        assert str(raised.value) == "rotation has determinant != +1 (reflection?)"


class TestTrustedResults:
    def test_internal_results_skip_validation(self, monkeypatch):
        # poses the program computes from validated ones are built unchecked:
        # with the rotation check disabled, a whole simulation and an ICP
        # refinement still run, so neither re-validates its own results
        rng = make_rng(18)
        stops = tuple(Pose(random_rotation(rng), rng.uniform(-200.0, 200.0, 3)
                           + [450.0, 0.0, 400.0]) for _ in range(12))
        scene = SceneConfig(
            (SceneObject("box", "proc:box", Pose(random_rotation(rng),
                                                 [450.0, 0.0, 40.0])),),
            (Camera("rgbd", Pose(random_rotation(rng), [50.0, 30.0, 20.0])),),
            (Trajectory("t", stops),))
        spec = NoiseSpec(handeye_target_rmse={"rgbd": 0.89}, seed=2)
        mesh = chamfered_box()
        surface = SpatialIndex(mesh)
        patch = sample_patch(mesh, 25, rng, 60.0)
        start = random_pose_perturbation(rng, 2.0, 4.0)
        truth = Pose.identity()

        def refuse(*args, **kwargs):
            raise AssertionError("an internal result was re-validated")

        monkeypatch.setattr(geometry, "_as_rotation", refuse)
        report = simulate_annotation_error(scene, spec, draws=2)
        assert report.handeye_perturbations[0] is not None
        assert np.isfinite(report.camera_rmse[0, 0])
        result = icp_refine(patch, surface, start)
        assert result.converged
        dt, dr = pose_error(truth, result.pose)
        assert dt < 1e-6 and dr < 1e-6
