"""The record types are plain classes: the immutable ones refuse assignment,
mutable defaults are fresh per instance, and the recovery results compare by
value."""

import inspect

import numpy as np
import pytest

from robocal.fileio import RunManifest
from robocal.geometry import Pose
from robocal.handeye import HandEyeView, MarkerBoard, default_board_points
from robocal.metrics import APResult, Detection, GroundTruthBox, OrientedBox
from robocal.pivot import PivotResult
from robocal.registration import (Correspondences, IcpParams, IcpResult, RecoveryCase,
                                  RecoveryReport, icp_refine)
from robocal.simulate import Camera, NoiseSpec, SceneConfig, SceneObject, Trajectory

_I = Pose.identity()
_BOX = OrientedBox(np.zeros(3), np.ones(3), np.eye(3))
_POINTS = np.eye(3)

# type -> (a valid instance, every attribute it has)
FROZEN = {
    "Pose": (_I, ("rotation", "translation")),
    "MarkerBoard": (MarkerBoard(default_board_points(), default_board_points()),
                    ("board_points", "measured_points")),
    "HandEyeView": (HandEyeView(_I, _I), ("ee_pose", "marker_in_cam")),
    "OrientedBox": (_BOX, ("center", "half_extents", "rotation")),
    "Detection": (Detection("cup", _BOX, 0.5), ("category", "box", "score")),
    "GroundTruthBox": (GroundTruthBox("cup", _BOX), ("category", "box")),
    "PivotResult": (PivotResult(np.zeros(3), np.zeros(3), 0.0, 3),
                    ("tip_offset", "pivot_point", "residual_rms", "n_poses")),
    "Correspondences": (Correspondences(_POINTS, _POINTS), ("measured", "model")),
    "IcpParams": (IcpParams(), ("max_iterations", "tol_translation_mm",
                                "tol_rotation_deg", "max_correspondence_mm")),
    "SceneObject": (SceneObject("cup", "proc:cup", _I), ("name", "mesh_ref", "pose")),
    "Camera": (Camera("rgbd", _I), ("name", "cam_to_ee")),
    "Trajectory": (Trajectory("orbit", (_I,)), ("name", "poses")),
    "SceneConfig": (SceneConfig((SceneObject("cup", "proc:cup", _I),), (Camera("rgbd", _I),),
                                (Trajectory("orbit", (_I,)),)),
                    ("objects", "cameras", "trajectories")),
    "NoiseSpec": (NoiseSpec(), ("obj_translation_mm", "obj_rotation_deg",
                                "handeye_target_rmse", "seed")),
}


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_frozen_record_refuses_assignment_and_deletion(kind):
    record, names = FROZEN[kind]
    assert type(record).__name__ == kind
    for name in names:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_icp_refine_shared_default_params_cannot_be_altered():
    default = inspect.signature(icp_refine).parameters["params"].default
    assert isinstance(default, IcpParams)
    with pytest.raises(AttributeError):
        default.max_iterations = 1
    assert default.max_iterations == IcpParams().max_iterations == 100


@pytest.mark.parametrize("make, attribute", [
    (lambda: RunManifest("simulate", {}), "input_digests"),
    (lambda: RunManifest("simulate", {}), "counts"),
    (NoiseSpec, "handeye_target_rmse"),
    (lambda: IcpResult(_I, 1, True, 0.0), "rms_history"),
    (lambda: APResult({}, 0.0), "undefined_categories"),
], ids=["manifest-digests", "manifest-counts", "noise-targets", "icp-history",
        "ap-undefined"])
def test_mutable_defaults_are_fresh_per_instance(make, attribute):
    first, second = make(), make()
    value = getattr(first, attribute)
    assert value is not getattr(second, attribute)
    assert value == getattr(second, attribute)
    if isinstance(value, dict):
        value["added"] = 1.0
    else:
        value.append(1.0)
    assert getattr(make(), attribute) == getattr(second, attribute) != value


def test_noise_spec_default_targets_are_the_papers():
    assert NoiseSpec().handeye_target_rmse == {"rgbd": 0.89, "polarization": 0.83}


class TestRecoveryValueEquality:
    def _case(self, **changes):
        fields = dict(mesh_name="cup", translation_error_mm=0.1, rotation_error_deg=0.2,
                      iterations=7, converged=True)
        return RecoveryCase(**{**fields, **changes})

    def test_cases_equal_by_value(self):
        assert self._case() == self._case()
        assert [self._case()] == [self._case()]
        for change in ({"mesh_name": "box"}, {"translation_error_mm": 0.3},
                       {"rotation_error_deg": 0.4}, {"iterations": 8},
                       {"converged": False}):
            assert self._case() != self._case(**change)

    def test_reports_equal_by_value(self):
        report = RecoveryReport([self._case()], 0.1, 0.2)
        assert report == RecoveryReport([self._case()], 0.1, 0.2)
        assert report != RecoveryReport([self._case(iterations=8)], 0.1, 0.2)
        assert report != RecoveryReport([self._case()], 0.1, 0.3)
        assert report != RecoveryReport([], 0.1, 0.2)

    def test_other_types_and_hashing(self):
        case = self._case()
        assert case != ("cup", 0.1, 0.2, 7, True)
        assert RecoveryReport([case], 0.1, 0.2) != case
        with pytest.raises(TypeError):
            hash(case)
