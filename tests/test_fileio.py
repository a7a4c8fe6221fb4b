import os
import stat

import pytest

from robocal import fileio
from robocal.errors import FileFormatError, ValidationError
from robocal.geometry import Pose, make_rng, random_rotation
from robocal.metrics import Detection, GroundTruthBox, OrientedBox


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_files_get_open_mode_under_umask(umask, tmp_path):
    old = os.umask(umask)
    try:
        fileio.save_pose_list(tmp_path / "poses.txt", [Pose.identity()])
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "poses.txt").st_mode)
    assert mode == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["poses.txt"]


def test_non_utf8_byte_cites_its_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_bytes(b"units=mm\nconvention=p->R*p+t\n1 0 0 0 0 0 \xe9\n")
    with pytest.raises(FileFormatError,
                       match=r"poses\.txt:3: not UTF-8 text: byte 0xe9"):
        fileio.load_pose_list(path)


def _box_rows(categories):
    box = OrientedBox([1.0, -2.0, 3.5], [4.0, 5.0, 6.0], random_rotation(make_rng(30)))
    return ([GroundTruthBox(cat, box) for cat in categories],
            [Detection(cat, box, 0.25 * k) for k, cat in enumerate(categories)])


@pytest.mark.parametrize("category", ["#cup", " cup", "a,b", "cup\nx"],
                         ids=["comment", "leading-space", "comma", "line-break"])
@pytest.mark.parametrize("writer", ["ground_truth", "predictions"])
def test_unreadable_category_rejected_before_writing(category, writer, tmp_path):
    # at the parent, "#cup" vanished on reload, " cup" came back as "cup"
    # and the others made the file unreadable
    ground_truth, predictions = _box_rows(["cup", category])
    path = tmp_path / "boxes.csv"
    with pytest.raises(ValidationError, match="cannot be written"):
        if writer == "ground_truth":
            fileio.save_ground_truth_csv(path, ground_truth)
        else:
            fileio.save_predictions_csv(path, predictions)
    assert os.listdir(tmp_path) == []


def test_detection_csv_round_trip(tmp_path):
    categories = ["cup", "glass ware", "tea-pot_2", "c#", "Flasche"]
    ground_truth, predictions = _box_rows(categories)
    fileio.save_ground_truth_csv(tmp_path / "gt.csv", ground_truth)
    fileio.save_predictions_csv(tmp_path / "pred.csv", predictions)
    loaded = fileio.load_detection_set(tmp_path / "gt.csv", tmp_path / "pred.csv")
    assert [g.category for g in loaded.ground_truth] == categories
    assert [p.category for p in loaded.predictions] == categories
    assert [p.score for p in loaded.predictions] == [p.score for p in predictions]
    for got, want in zip(loaded.ground_truth, ground_truth):
        assert got.box.center.tolist() == want.box.center.tolist()
        assert got.box.half_extents.tolist() == want.box.half_extents.tolist()
