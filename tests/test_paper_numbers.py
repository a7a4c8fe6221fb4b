"""Conformance with the numbers the PhoCaL paper reports, one test per number.

The simulated annotation-quality study injects the paper's hand-eye board
RMSE per camera (0.89 mm RGB-D, 0.83 mm polarisation) and its object-pose
annotation error (0.20 mm / 0.38 deg). The per-camera chain RMSE that
`simulate` reports therefore combines both errors carried through the camera
chain. It is compared with that combination, not with the paper's 0.80 mm
tip-annotation RMSE, which has no hand-eye error in it.

The pivot residual is compared with the paper's 0.057 mm tip variance under
a stated noise model. Each of n = 40 poses, tilted up to 40 degrees, puts
its tip off the pivot by independent Gaussian noise of sigma per axis. The
least-squares fit spends 6 of the 3n noise dimensions on the tip offset and
the pivot point, so the expected squared residual is 3 sigma^2 (1 - 2/n).
Sigma = 0.057 / sqrt(3 (1 - 2/n)) therefore puts the expected residual at
the paper's number; the mean over 50 seeds must be within 3% of it.

The ICP recovery accuracy is compared with the paper's annotation accuracy,
0.20 mm / 0.38 deg.
"""

import numpy as np
import pytest

from robocal.geometry import make_rng
from robocal.handeye import evaluate_handeye, synthesize_views
from robocal.pivot import REFERENCE_TIP_VARIANCE_MM, solve_pivot, synthesize_pivot_poses
from robocal.registration import (REFERENCE_ROTATION_DEG, REFERENCE_TRANSLATION_MM,
                                  recovery_benchmark)
from robocal.simulate import (NoiseSpec, _marker_rig, generate_scene,
                              simulate_annotation_error)

PAPER_HANDEYE_RMSE_MM = {"rgbd": 0.89, "polarization": 0.83}
PAPER_TIP_VARIANCE_MM = 0.057
PAPER_ANNOTATION_ERROR = (0.20, 0.38)  # mm, deg


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_handeye_perturbation_hits_paper_rmse(seed):
    scene = generate_scene("phocal-like", seed)
    spec = NoiseSpec()
    assert spec.handeye_target_rmse == PAPER_HANDEYE_RMSE_MM
    report = simulate_annotation_error(scene, spec)
    marker_base, board, ee_poses = _marker_rig(scene)
    for cam, calib in zip(scene.cameras, report.handeye_perturbations, strict=True):
        target = PAPER_HANDEYE_RMSE_MM[cam.name]
        assert calib.achieved_rmse_mm == pytest.approx(target, rel=1e-12, abs=0.0)
        views = synthesize_views(cam.cam_to_ee, marker_base, ee_poses)
        assert evaluate_handeye(views, calib.pose, board) == pytest.approx(
            target, rel=1e-9, abs=0.0)


def test_pivot_residual_matches_paper_tip_variance():
    assert REFERENCE_TIP_VARIANCE_MM == PAPER_TIP_VARIANCE_MM
    n = 40
    sigma = PAPER_TIP_VARIANCE_MM / np.sqrt(3.0 * (1.0 - 2.0 / n))
    tip = np.array([5.0, -8.0, 160.0])
    pivot = np.array([450.0, 0.0, 120.0])
    residuals = [solve_pivot(synthesize_pivot_poses(
        tip, pivot, n, make_rng(seed, stream=57), translation_noise_mm=sigma,
        max_tilt_deg=40.0)).residual_rms for seed in range(50)]
    assert np.mean(residuals) == pytest.approx(PAPER_TIP_VARIANCE_MM, rel=0.03)


def test_recovery_matches_paper_accuracy():
    # The paper's annotation accuracy, 0.20 mm / 0.38 deg, against the means
    # pooled over seeds 0-7 (120 cases). Single seeds scatter around it (seed
    # 4 alone reads 0.43 deg), so the pooled means are the tested quantity,
    # not each seed's.
    assert (REFERENCE_TRANSLATION_MM, REFERENCE_ROTATION_DEG) == PAPER_ANNOTATION_ERROR
    cases = [case for seed in range(8)
             for case in recovery_benchmark(make_rng(seed)).cases]
    assert len(cases) == 120
    assert all(case.converged for case in cases)
    assert np.mean([c.translation_error_mm for c in cases]) <= REFERENCE_TRANSLATION_MM
    assert np.mean([c.rotation_error_deg for c in cases]) <= REFERENCE_ROTATION_DEG
