"""Conformance with the numbers the PhoCaL paper reports, one test per number.

The simulated annotation-quality study injects the paper's hand-eye board
RMSE per camera (0.89 mm RGB-D, 0.83 mm polarisation) and its object-pose
annotation error (0.20 mm / 0.38 deg). The per-camera chain RMSE that
`simulate` reports therefore combines both errors carried through the camera
chain. It is compared with that combination, not with the paper's 0.80 mm
tip-annotation RMSE, which has no hand-eye error in it.
"""

import pytest

from robocal.handeye import evaluate_handeye, synthesize_views
from robocal.simulate import (NoiseSpec, _marker_rig, generate_scene,
                              simulate_annotation_error)

PAPER_HANDEYE_RMSE_MM = {"rgbd": 0.89, "polarization": 0.83}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_handeye_perturbation_hits_paper_rmse(seed):
    scene = generate_scene("phocal-like", seed)
    spec = NoiseSpec()
    assert spec.handeye_target_rmse == PAPER_HANDEYE_RMSE_MM
    report = simulate_annotation_error(scene, spec)
    marker_base, board, ee_poses = _marker_rig(scene)
    for cam in scene.cameras:
        target = PAPER_HANDEYE_RMSE_MM[cam.name]
        calib = report.handeye_perturbations[cam.name]
        assert calib.achieved_rmse_mm == pytest.approx(target, rel=1e-12, abs=0.0)
        views = synthesize_views(cam.cam_to_ee, marker_base, ee_poses)
        assert evaluate_handeye(views, calib.pose, board) == pytest.approx(
            target, rel=1e-9, abs=0.0)
