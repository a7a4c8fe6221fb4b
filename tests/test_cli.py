import numpy as np
import pytest

from robocal import cli, fileio
from robocal.geometry import Pose, make_rng, random_rotation
from robocal.registration import Correspondences


def _annotate_inputs(tmp_path):
    """Valid points and keypoints, so that only the OBJ is missing."""
    points = np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10.0, 0], [0.0, 0, 10.0]])
    fileio.save_point_list(tmp_path / "points.txt", points)
    fileio.save_correspondences(tmp_path / "keypoints.txt",
                                Correspondences(points, points))
    return ["annotate", str(tmp_path / "points.txt"), str(tmp_path / "missing.obj"),
            str(tmp_path / "keypoints.txt")]


MISSING_INPUT_COMMANDS = {
    "pivot-calib": lambda d: ["pivot-calib", str(d / "missing.txt")],
    "handeye": lambda d: ["handeye", str(d / "missing-board.txt"),
                          str(d / "missing-views.txt")],
    "annotate": _annotate_inputs,
    "simulate": lambda d: ["simulate", str(d / "missing-scene.txt"), "--seed", "1",
                           "--out-dir", str(d / "out")],
    "eval-iou": lambda d: ["eval-iou", str(d / "missing-gt.csv"),
                           str(d / "missing-pred.csv"), "--threshold", "0.5"],
}


@pytest.mark.parametrize("command", sorted(MISSING_INPUT_COMMANDS))
def test_missing_input_file_exits_1_with_error_line(command, tmp_path, capsys):
    argv = MISSING_INPUT_COMMANDS[command](tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "missing" in err


# the missing-input commands, with the file named here present but not UTF-8;
# one per reader: structured text, CSV and OBJ
NON_UTF8_INPUTS = {"pivot-calib": "missing.txt", "eval-iou": "missing-pred.csv",
                   "annotate": "missing.obj"}


@pytest.mark.parametrize("command", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_file_exits_1_with_error_line(command, tmp_path, capsys):
    argv = MISSING_INPUT_COMMANDS[command](tmp_path)
    (tmp_path / NON_UTF8_INPUTS[command]).write_bytes(b"\xff\xfe units=mm\n")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ":1: not UTF-8 text: byte 0xff" in err


def test_degenerate_input_exits_2_with_error_line(tmp_path, capsys):
    pose = Pose(random_rotation(make_rng(1)), [10.0, 20.0, 30.0])
    fileio.save_pose_list(tmp_path / "poses.txt", [pose] * 3)
    assert cli.main(["pivot-calib", str(tmp_path / "poses.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "rotation diversity" in err


def test_simulate_has_no_mesh_samples_flag(tmp_path, capsys):
    argv = ["simulate", "--template", "phocal-like", "--seed", "1",
            "--mesh-samples", "200", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "--mesh-samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
