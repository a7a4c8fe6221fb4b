import numpy as np
import pytest

from robocal import cli, fileio
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
