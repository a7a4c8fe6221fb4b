import numpy as np
import pytest

from robocal.errors import DegenerateGeometryError, ValidationError
from robocal.geometry import Pose, apply, axis_angle, compose, make_rng, random_rotation
from robocal.pivot import solve_pivot, synthesize_pivot_poses

TIP = np.array([17.0, -2.0, 55.0])
PIVOT = np.array([400.0, 80.0, 120.0])


def test_exact_recovery_noise_free():
    poses = synthesize_pivot_poses(TIP, PIVOT, 20, make_rng(1))
    result = solve_pivot(poses)
    assert np.abs(result.tip_offset - TIP).max() < 1e-7
    assert np.abs(result.pivot_point - PIVOT).max() < 1e-7
    assert result.residual_rms < 1e-7


def test_identical_poses_degenerate():
    p = Pose(random_rotation(make_rng(2)), [10.0, 20.0, 30.0])
    with pytest.raises(DegenerateGeometryError):
        solve_pivot([p] * 10)


def test_single_axis_rotations_degenerate():
    # rotations about z only: the z-component of the offset is unobservable
    rng = make_rng(3)
    poses = []
    for _ in range(15):
        R = axis_angle([0.0, 0.0, 1.0], rng.uniform(-80, 80))
        poses.append(Pose(R, PIVOT - R @ TIP))
    with pytest.raises(DegenerateGeometryError, match="rank 2"):
        solve_pivot(poses)


def test_too_few_poses():
    poses = synthesize_pivot_poses(TIP, PIVOT, 2, make_rng(4))
    with pytest.raises(ValidationError):
        solve_pivot(poses)


def test_diversity_threshold_configurable():
    rng = make_rng(5)
    poses = synthesize_pivot_poses(TIP, PIVOT, 10, rng, max_tilt_deg=3.0)
    with pytest.raises(DegenerateGeometryError):
        solve_pivot(poses)  # default 10 deg minimum
    result = solve_pivot(poses, min_diversity_deg=1.0)
    assert np.abs(result.tip_offset - TIP).max() < 1e-6


def test_noise_envelope():
    # Monte-Carlo envelope for sigma = 0.05 mm translation noise
    values = []
    for seed in range(25):
        poses = synthesize_pivot_poses(TIP, PIVOT, 20, make_rng(seed, stream=77),
                                       translation_noise_mm=0.05)
        result = solve_pivot(poses)
        values.append(result.residual_rms)
    assert 0.02 <= min(values) and max(values) <= 0.12


@pytest.mark.parametrize("seed", range(5))
def test_tip_minimises_the_reported_spread(seed):
    poses = synthesize_pivot_poses(TIP, PIVOT, 20, make_rng(seed, stream=78),
                                   translation_noise_mm=0.05)
    result = solve_pivot(poses)
    R = np.array([p.rotation for p in poses])
    t = np.array([p.translation for p in poses])

    def spread(tip):
        tips = R @ tip + t
        return float(np.sqrt(np.mean(np.sum((tips - tips.mean(axis=0)) ** 2, axis=1))))

    np.testing.assert_allclose(result.pivot_point, (R @ result.tip_offset + t).mean(axis=0),
                               rtol=0.0, atol=1e-9)
    assert spread(result.tip_offset) == pytest.approx(result.residual_rms, rel=1e-12)
    for axis in np.eye(3):
        for step in (1e-3, -1e-3):
            assert spread(result.tip_offset + step * axis) >= result.residual_rms


def test_equivariance_under_rigid_motion():
    rng = make_rng(6)
    poses = synthesize_pivot_poses(TIP, PIVOT, 20, rng)
    moved_by = Pose(random_rotation(rng), rng.uniform(-200, 200, 3))
    moved = [compose(moved_by, p) for p in poses]
    r0 = solve_pivot(poses)
    r1 = solve_pivot(moved)
    assert np.abs(r1.tip_offset - r0.tip_offset).max() < 1e-8
    assert np.abs(r1.pivot_point - apply(moved_by, r0.pivot_point)).max() < 1e-8


def test_residual_scales_linearly_with_noise():
    sigmas = [0.01, 0.05, 0.1]
    residuals = []
    for sigma in sigmas:
        vals = [solve_pivot(synthesize_pivot_poses(
            TIP, PIVOT, 20, make_rng(seed, stream=100),
            translation_noise_mm=sigma)).residual_rms for seed in range(10)]
        residuals.append(np.mean(vals))
    slope, _ = np.polyfit(sigmas, residuals, 1)
    ideal = residuals[0] / sigmas[0]
    assert abs(slope - ideal) / ideal < 0.30


def test_noise_free_tip_variance_tiny():
    poses = synthesize_pivot_poses(TIP, PIVOT, 20, make_rng(7))
    result = solve_pivot(poses)
    assert result.residual_rms < 1e-7
