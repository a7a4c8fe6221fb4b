import os
import stat
import tempfile
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robocal import fileio
from robocal.errors import FileFormatError, ValidationError
from robocal.geometry import Pose, make_rng, quat_to_matrix, random_rotation
from robocal.handeye import HandEyeView, MarkerBoard
from robocal.metrics import Detection, GroundTruthBox, OrientedBox
from robocal.registration import Correspondences
from robocal.simulate import Camera, SceneConfig, SceneObject, Trajectory, generate_scene


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


@pytest.mark.parametrize("target", ["missing/poses.txt", "taken"])
def test_unwritable_path_is_a_validation_error_naming_it(target, tmp_path):
    # no directory to hold the temp file, or a directory where the file would
    # go: the error names the path, not the temp file, which is removed
    (tmp_path / "taken").mkdir()
    path = tmp_path / target
    with pytest.raises(ValidationError, match=f"^cannot write {path}: ") as info:
        fileio.save_pose_list(path, [Pose.identity()])
    assert ".tmp-" not in str(info.value)
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


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
    gt_categories, centers, half_extents, _ = loaded.ground_truth
    pred_categories, scores, *_ = loaded.predictions
    assert gt_categories == pred_categories == tuple(categories)
    assert scores.tolist() == [p.score for p in predictions]
    assert centers.tolist() == [g.box.center.tolist() for g in ground_truth]
    assert half_extents.tolist() == [g.box.half_extents.tolist() for g in ground_truth]


def test_empty_detection_csv_gives_empty_columns(tmp_path):
    fileio.save_predictions_csv(tmp_path / "pred.csv", [])
    categories, scores, centers, half_extents, rotations = fileio.load_predictions_csv(
        tmp_path / "pred.csv")
    assert categories == ()
    assert (scores.shape, centers.shape, half_extents.shape, rotations.shape) == (
        (0,), (0, 3), (0, 3), (0, 3, 3))


# ---------------------------------------------------------------------------
# Round trips: load(save(x)) gives back every translation, point, half extent,
# score and name bit for bit, and every rotation entry to within 8 ulp of 1.0,
# as rotations are written as quaternions (the largest difference over 100 000
# random rotations was 6 ulp, 1.3e-15).

ROTATION_TOL = 8 * np.spacing(1.0)

finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
rotations = (st.tuples(*[st.floats(-1.0, 1.0)] * 4)
             .filter(lambda q: np.linalg.norm(q) > 1e-3)
             .map(lambda q: quat_to_matrix(np.array(q) / np.linalg.norm(q))))
poses = st.builds(Pose, rotations, vec3)
# names and categories that their readers give back
scene_names = st.from_regex(r"[^\s#\]][^\s\]]*", fullmatch=True)
categories = st.from_regex(r"([^\s#,][^,\r\n]*)?", fullmatch=True)
boxes = st.builds(OrientedBox, vec3,
                  st.tuples(*[st.floats(0.0, exclude_min=True, allow_infinity=False)] * 3),
                  rotations)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_pose(got: Pose, want: Pose):
    assert bits(got.translation) == bits(want.translation)
    assert np.abs(got.rotation - want.rotation).max() <= ROTATION_TOL


def round_trip(save, load, value):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "file")
        save(path, value)
        return load(path)


@given(st.lists(poses, min_size=1, max_size=5))
def test_pose_list_round_trip(saved):
    loaded = round_trip(fileio.save_pose_list, fileio.load_pose_list, saved)
    for got, want in zip(loaded, saved, strict=True):
        assert_same_pose(got, want)


@given(st.lists(vec3, min_size=1, max_size=5))
def test_point_list_round_trip(saved):
    loaded = round_trip(fileio.save_point_list, fileio.load_point_list, saved)
    assert loaded.shape == (len(saved), 3)
    assert bits(loaded) == bits(saved)


@given(st.lists(st.tuples(*[st.floats(-500.0, 500.0)] * 3), min_size=3, max_size=6),
       rotations, st.tuples(*[st.floats(-1e4, 1e4)] * 3))
def test_marker_board_round_trip(board_points, R, t):
    board = np.array(board_points)
    saved = MarkerBoard(board, board @ R.T + t)
    loaded = round_trip(fileio.save_marker_board, fileio.load_marker_board, saved)
    assert bits(loaded.board_points) == bits(saved.board_points)
    assert bits(loaded.measured_points) == bits(saved.measured_points)


@given(st.lists(st.builds(HandEyeView, poses, poses), min_size=1, max_size=4))
def test_views_round_trip(saved):
    loaded = round_trip(fileio.save_views, fileio.load_views, saved)
    for got, want in zip(loaded, saved, strict=True):
        assert_same_pose(got.ee_pose, want.ee_pose)
        assert_same_pose(got.marker_in_cam, want.marker_in_cam)


@given(st.lists(st.tuples(vec3, vec3), min_size=3, max_size=6))
def test_correspondences_round_trip(pairs):
    saved = Correspondences([m for m, _ in pairs], [q for _, q in pairs])
    loaded = round_trip(fileio.save_correspondences, fileio.load_correspondences, saved)
    assert bits(loaded.measured) == bits(saved.measured)
    assert bits(loaded.model) == bits(saved.model)


@given(st.builds(
    SceneConfig,
    # a scene names each of its objects and cameras once
    st.lists(st.builds(SceneObject, scene_names, scene_names, poses), min_size=1, max_size=3,
             unique_by=lambda obj: obj.name),
    st.lists(st.builds(Camera, scene_names, poses), min_size=1, max_size=3,
             unique_by=lambda cam: cam.name),
    # a scene file holds one [trajectory <name>] section per name
    st.lists(st.builds(Trajectory, scene_names, st.lists(poses, min_size=1, max_size=3)),
             min_size=1, max_size=2, unique_by=lambda traj: traj.name)))
def test_scene_round_trip(saved):
    loaded = round_trip(fileio.save_scene, fileio.load_scene, saved)
    for got, want in zip(loaded.cameras, saved.cameras, strict=True):
        assert got.name == want.name
        assert_same_pose(got.cam_to_ee, want.cam_to_ee)
    for got, want in zip(loaded.objects, saved.objects, strict=True):
        assert (got.name, got.mesh_ref) == (want.name, want.mesh_ref)
        assert_same_pose(got.pose, want.pose)
    for got, want in zip(loaded.trajectories, saved.trajectories, strict=True):
        assert got.name == want.name
        for got_pose, want_pose in zip(got.poses, want.poses, strict=True):
            assert_same_pose(got_pose, want_pose)


def assert_same_box(got: OrientedBox, want: OrientedBox):
    assert bits(got.center) == bits(want.center)
    assert bits(got.half_extents) == bits(want.half_extents)
    assert np.abs(got.rotation - want.rotation).max() <= ROTATION_TOL


@given(st.lists(st.builds(GroundTruthBox, categories, boxes), max_size=4))
def test_ground_truth_csv_round_trip(saved):
    loaded = round_trip(fileio.save_ground_truth_csv, fileio.load_ground_truth_csv, saved)
    assert len(loaded) == 4  # categories, centres, half extents, rotations
    for (category, *box), want in zip(zip(*loaded), saved, strict=True):
        assert category == want.category
        assert_same_box(OrientedBox(*box), want.box)


@given(st.lists(st.builds(Detection, categories, boxes, finite), max_size=4))
def test_predictions_csv_round_trip(saved):
    loaded = round_trip(fileio.save_predictions_csv, fileio.load_predictions_csv, saved)
    assert len(loaded) == 5  # categories, scores, centres, half extents, rotations
    for (category, score, *box), want in zip(zip(*loaded), saved, strict=True):
        assert category == want.category
        assert bits(score) == bits(want.score)
        assert_same_box(OrientedBox(*box), want.box)


# ---------------------------------------------------------------------------
# Names: a writer gives back every name it writes, or writes nothing

_I = Pose.identity()
_SCENE = SceneConfig((SceneObject("cup", "proc:cup", _I),), (Camera("rgbd", _I),),
                     (Trajectory("orbit", (_I,)),))
_BOX = OrientedBox([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], np.eye(3))

# slot -> (save the value in it, read it back)
NAME_SLOTS = {
    "camera": (lambda p, v: fileio.save_scene(p, SceneConfig(
                   _SCENE.objects, (Camera(v, _I),), _SCENE.trajectories)),
               lambda p: fileio.load_scene(p).cameras[0].name),
    "object": (lambda p, v: fileio.save_scene(p, SceneConfig(
                   (SceneObject(v, "proc:cup", _I),), _SCENE.cameras, _SCENE.trajectories)),
               lambda p: fileio.load_scene(p).objects[0].name),
    "mesh_ref": (lambda p, v: fileio.save_scene(p, SceneConfig(
                     (SceneObject("cup", v, _I),), _SCENE.cameras, _SCENE.trajectories)),
                 lambda p: fileio.load_scene(p).objects[0].mesh_ref),
    "trajectory": (lambda p, v: fileio.save_scene(p, SceneConfig(
                       _SCENE.objects, _SCENE.cameras, (Trajectory(v, (_I,)),))),
                   lambda p: fileio.load_scene(p).trajectories[0].name),
    "ground_truth": (lambda p, v: fileio.save_ground_truth_csv(p, [GroundTruthBox(v, _BOX)]),
                     lambda p: fileio.load_ground_truth_csv(p)[0][0]),
    "predictions": (lambda p, v: fileio.save_predictions_csv(p, [Detection(v, _BOX, 0.5)]),
                    lambda p: fileio.load_predictions_csv(p)[0][0]),
}


# arbitrary UTF-8 text, mostly of the characters that rows and lines split on
names = st.text(st.sampled_from("ab#[],= \t\r\n\x0b\x0c\x1c\x85\u2028")
                | st.characters(codec="utf-8"), max_size=8)


@settings(max_examples=300)
@given(st.sampled_from(sorted(NAME_SLOTS)), names)
def test_written_name_reads_back_or_nothing_is_written(slot, name):
    save, read_back = NAME_SLOTS[slot]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "file")
        try:
            save(path, name)
        except ValidationError:
            assert os.listdir(directory) == []
            return
        assert read_back(path) == name


def _renamed_camera(scene, name):
    first, *others = scene.cameras
    return SceneConfig(scene.objects, (Camera(name, first.cam_to_ee), *others),
                       scene.trajectories)


# '#rgbd' would be written as a comment row, and the scene would reload with
# the polarization camera only; '[trajectory a]b]' is no section header, and
# the reader would reject the file for a bad object row
@pytest.mark.parametrize("scene", [
    _renamed_camera(generate_scene("phocal-like", 1), "#rgbd"),
    SceneConfig(_SCENE.objects, _SCENE.cameras, (Trajectory("a]b", (_I,)),)),
], ids=["comment-camera", "bracket-trajectory"])
def test_unreadable_scene_name_rejected_before_writing(scene, tmp_path):
    with pytest.raises(ValidationError, match="cannot be written"):
        fileio.save_scene(tmp_path / "scene.txt", scene)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# The exact text of each writer

_HALF_TURN = np.diag([-1.0, -1.0, 1.0])  # quaternion (0, 0, 0, 1)
_FLIP = Pose(_HALF_TURN, [1.5, -2.0, 0.25])
_PTS = [[0.0, 0.0, 0.0], [40.0, 0.0, 0.0], [0.0, 30.0, 0.0]]
_HEADER = "units=mm\nconvention=p->R*p+t\n"

WRITER_TEXT = {
    "pose_list": (
        lambda p: fileio.save_pose_list(p, [_I, _FLIP], comment="two poses"),
        "# robocal pose-list v1\n# two poses\n" + _HEADER +
        "# columns: qw qx qy qz tx ty tz\n"
        "1.0 0.0 0.0 0.0 0.0 0.0 0.0\n"
        "0.0 0.0 0.0 1.0 1.5 -2.0 0.25\n"),
    "point_list": (
        lambda p: fileio.save_point_list(p, [[0.1, -1e-05, 2.5e10], [0.0, -0.0, 3.0]],
                                         comment="tip points"),
        "# robocal point-list v1\n# tip points\nunits=mm\n# columns: x y z\n"
        "0.1 -1e-05 25000000000.0\n"
        "0.0 -0.0 3.0\n"),
    "marker_board": (
        lambda p: fileio.save_marker_board(p, MarkerBoard(_PTS, np.add(_PTS, [100.0, 0, 0]))),
        "# robocal marker-board v1\nunits=mm\n"
        "[board_points]\n0.0 0.0 0.0\n40.0 0.0 0.0\n0.0 30.0 0.0\n"
        "[measured_points]\n100.0 0.0 0.0\n140.0 0.0 0.0\n100.0 30.0 0.0\n"),
    "views": (
        lambda p: fileio.save_views(p, [HandEyeView(_I, _FLIP)]),
        "# robocal handeye-views v1\n" + _HEADER +
        "# columns: ee(qw qx qy qz tx ty tz) marker_in_cam(qw qx qy qz tx ty tz)\n"
        "1.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0 1.5 -2.0 0.25\n"),
    "correspondences": (
        lambda p: fileio.save_correspondences(p, Correspondences(_PTS, np.add(_PTS, 0.5))),
        "# robocal correspondences v1\nunits=mm\n# columns: measured(x y z) model(x y z)\n"
        "0.0 0.0 0.0 0.5 0.5 0.5\n"
        "40.0 0.0 0.0 40.5 0.5 0.5\n"
        "0.0 30.0 0.0 0.5 30.5 0.5\n"),
    "scene": (
        lambda p: fileio.save_scene(p, SceneConfig(
            (SceneObject("cup0", "proc:cup", _FLIP),), (Camera("rgbd", _I),),
            (Trajectory("orbit", (_I, _FLIP)),))),
        "# robocal scene v1\n" + _HEADER +
        "[cameras]\nrgbd 1.0 0.0 0.0 0.0 0.0 0.0 0.0\n"
        "[objects]\ncup0 proc:cup 0.0 0.0 0.0 1.0 1.5 -2.0 0.25\n"
        "[trajectory orbit]\n1.0 0.0 0.0 0.0 0.0 0.0 0.0\n0.0 0.0 0.0 1.0 1.5 -2.0 0.25\n"),
    "ground_truth_csv": (
        lambda p: fileio.save_ground_truth_csv(p, [GroundTruthBox("cup", OrientedBox(
            [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], _HALF_TURN))]),
        "category,cx,cy,cz,ex,ey,ez,qw,qx,qy,qz\n"
        "cup,1.0,2.0,3.0,4.0,5.0,6.0,0.0,0.0,0.0,1.0\n"),
    "predictions_csv": (
        lambda p: fileio.save_predictions_csv(p, [Detection("cup", OrientedBox(
            [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], _HALF_TURN), 0.75)]),
        "category,score,cx,cy,cz,ex,ey,ez,qw,qx,qy,qz\n"
        "cup,0.75,1.0,2.0,3.0,4.0,5.0,6.0,0.0,0.0,0.0,1.0\n"),
}


@pytest.mark.parametrize("writer", sorted(WRITER_TEXT))
def test_writer_text(writer, tmp_path):
    save, text = WRITER_TEXT[writer]
    save(tmp_path / "file")
    assert (tmp_path / "file").read_bytes() == text.encode()


# ---------------------------------------------------------------------------
# A value that a domain type rejects is reported with its file

LOADER_ERRORS = {
    "correspondences": (fileio.load_correspondences,
                        "units=mm\n1 2 3 4 5 6\n7 8 9 1 2 3\n",
                        "{path}: need >= 3 correspondences, got 2"),
    "marker_board": (fileio.load_marker_board,
                     "units=mm\n[board_points]\n0 0 0\n40 0 0\n0 30 0\n"
                     "[measured_points]\n0 0 0\n40 0 0\n",
                     "{path}: board has 3 nominal points but 2 measured points"),
    "scene": (fileio.load_scene,
              _HEADER + "[cameras]\nrgbd 1 0 0 0 0 0 0\n[objects]\n"
              "[trajectory orbit]\n1 0 0 0 0 0 0\n",
              "{path}: no object rows found"),
    "ground_truth_csv": (fileio.load_ground_truth_csv,
                         fileio.GT_HEADER + "\ncup,0,0,0,1,0,1,1,0,0,0\n",
                         "{path}:2: half extents must be strictly positive, got [1. 0. 1.]"),
}


@pytest.mark.parametrize("loader", sorted(LOADER_ERRORS))
def test_loader_error_names_the_file(loader, tmp_path):
    load, text, message = LOADER_ERRORS[loader]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(FileFormatError) as raised:
        load(path)
    assert str(raised.value) == message.format(path=path)


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_comment_with_line_break_rejected_before_writing(brk, tmp_path):
    # at the parent the comment's second line read back as a second pose
    with pytest.raises(ValidationError, match="line break"):
        fileio.save_pose_list(tmp_path / "poses.txt", [Pose.identity()],
                              comment=f"note{brk}0 0 0 1 5 5 5")
    assert os.listdir(tmp_path) == []


_SCENE_TEXT = (_HEADER + "[cameras]\nrgbd 1 0 0 0 0 0 0\n"
               "[objects]\ncup0 proc:cup 1 0 0 0 0 0 0\n"
               "[trajectory a]\n1 0 0 0 0 0 0\n")


# each section that the parent skipped without a word, and the line it starts on
@pytest.mark.parametrize("extra, message", [
    ("[trajectroy b]\n1 0 0 0 0 0 0\n", ":9: unknown section [trajectroy b]"),
    ("[trajectory]\n1 0 0 0 0 0 0\n", ":9: unknown section [trajectory]"),
    ("[cameras]\npol 1 0 0 0 0 0 0\n", ":9: repeated section [cameras], first at line 3"),
    ("[objects]\nbox0 proc:box 1 0 0 0 0 0 0\n",
     ":9: repeated section [objects], first at line 5"),
    ("[trajectory a]\n1 0 0 0 0 0 0\n",
     ":9: repeated section [trajectory a], first at line 7"),
], ids=["misspelled", "unnamed-trajectory", "cameras", "objects", "trajectory"])
def test_scene_section_unknown_or_repeated_cites_its_line(extra, message, tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(_SCENE_TEXT + extra)
    with pytest.raises(FileFormatError) as raised:
        fileio.load_scene(path)
    assert str(raised.value) == f"{path}{message}"


def test_section_in_a_format_without_sections_is_refused(tmp_path):
    # the rows under it were dropped at the parent
    path = tmp_path / "poses.txt"
    path.write_text(_HEADER + "1 0 0 0 0 0 0\n[more]\n1 0 0 0 5 5 5\n")
    with pytest.raises(FileFormatError, match=r"poses\.txt:4: unknown section \[more\]"):
        fileio.load_pose_list(path)


def test_scene_with_repeated_trajectory_name_rejected_before_writing(tmp_path):
    scene = SceneConfig(_SCENE.objects, _SCENE.cameras, (Trajectory("orbit", (_I,)),) * 2)
    with pytest.raises(ValidationError, match="trajectory names repeat"):
        fileio.save_scene(tmp_path / "scene.txt", scene)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Pose and box readers test all of their rows at once: an error cites the
# first faulty line with that row's first fault, and a quaternion decodes to
# the bits of quat_to_matrix on that quaternion alone


def _q(values, sep=" ") -> str:
    return sep.join(map(repr, map(float, values)))


class Row(NamedTuple):
    """A test row: its quaternion, and what only some readers read: the
    marker quaternion after it (views) and a half extent (boxes)."""
    q: tuple = (1.0, 0.0, 0.0, 0.0)
    marker: tuple = (1.0, 0.0, 0.0, 0.0)
    half: float = 4.0


# reader -> (load, file text of Rows, line of the first Row, rotations of the
# loaded rows)
ROW_READERS = {
    "pose_list": (
        fileio.load_pose_list,
        lambda rows: _HEADER + "".join(f"{_q(r.q)} 1.5 -2.0 3.0\n" for r in rows), 3,
        lambda loaded: [p.rotation for p in loaded]),
    "views": (
        fileio.load_views,
        lambda rows: _HEADER + "".join(f"{_q(r.q)} 1 2 3 {_q(r.marker)} 4 5 6\n"
                                       for r in rows),
        3, lambda loaded: [v.ee_pose.rotation for v in loaded]),
    "scene_cameras": (
        fileio.load_scene,
        lambda rows: (_HEADER + "[cameras]\n"
                      + "".join(f"cam{k} {_q(r.q)} 1 2 3\n" for k, r in enumerate(rows))
                      + "[objects]\ncup0 proc:cup 1 0 0 0 0 0 0\n"
                        "[trajectory a]\n1 0 0 0 0 0 0\n"), 4,
        lambda loaded: [c.cam_to_ee.rotation for c in loaded.cameras]),
    "scene_objects": (
        fileio.load_scene,
        lambda rows: (_HEADER + "[cameras]\nrgbd 1 0 0 0 0 0 0\n[objects]\n"
                      + "".join(f"obj{k} proc:cup {_q(r.q)} 1 2 3\n"
                                for k, r in enumerate(rows))
                      + "[trajectory a]\n1 0 0 0 0 0 0\n"), 6,
        lambda loaded: [o.pose.rotation for o in loaded.objects]),
    "scene_trajectory": (
        fileio.load_scene,
        lambda rows: (_HEADER + "[cameras]\nrgbd 1 0 0 0 0 0 0\n"
                      "[objects]\ncup0 proc:cup 1 0 0 0 0 0 0\n[trajectory a]\n"
                      + "".join(f"{_q(r.q)} 1 2 3\n" for r in rows)), 8,
        lambda loaded: [p.rotation for p in loaded.trajectories[0].poses]),
    "ground_truth_csv": (
        fileio.load_ground_truth_csv,
        lambda rows: fileio.GT_HEADER + "\n" + "".join(
            f"cup,1,2,3,{_q([r.half] * 3, ',')},{_q(r.q, ',')}\n" for r in rows), 2,
        lambda loaded: list(loaded[-1])),
    "predictions_csv": (
        fileio.load_predictions_csv,
        lambda rows: fileio.PRED_HEADER + "\n" + "".join(
            f"cup,0.5,1,2,3,{_q([r.half] * 3, ',')},{_q(r.q, ',')}\n" for r in rows), 2,
        lambda loaded: list(loaded[-1])),
}
_BOX_READERS = ("ground_truth_csv", "predictions_csv")


def _norm_message(norm: str) -> str:
    return f"quaternion norm {norm} deviates from 1 by more than 1e-06"


def _load_rows(reader, rows, tmp_path):
    load, text, _, _ = ROW_READERS[reader]
    path = tmp_path / "input.txt"
    path.write_text(text(rows))
    return load, path


def _assert_row_error(reader, rows, line_in_rows, message, tmp_path):
    load, path = _load_rows(reader, rows, tmp_path)
    with pytest.raises(FileFormatError) as raised:
        load(path)
    first_line = ROW_READERS[reader][2]
    assert str(raised.value) == f"{path}:{first_line + line_in_rows}: {message}"


@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_bad_quaternion_after_good_rows_cites_its_line(reader, tmp_path):
    rows = [Row(), Row((0.0, 0.0, 0.0, 1.0)), Row((1.00001, 0.0, 0.0, 0.0))]
    _assert_row_error(reader, rows, 2, _norm_message("1.00001000"), tmp_path)


@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_first_of_two_faulty_rows_is_reported(reader, tmp_path):
    rows = [Row(), Row((0.0, 3.0, 0.0, 0.0)), Row(), Row((2.0, 0.0, 0.0, 0.0))]
    _assert_row_error(reader, rows, 1, _norm_message("3.00000000"), tmp_path)


@pytest.mark.parametrize("q, norm", [((1e200, 0.0, 0.0, 0.0), "inf"),
                                     ((0.0, 0.0, 0.0, 0.0), "0.00000000")],
                         ids=["overflowing", "zero"])
@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_overflowing_or_zero_quaternion_is_refused_without_a_warning(reader, q, norm,
                                                                     tmp_path):
    # RuntimeWarnings are errors in this suite
    _assert_row_error(reader, [Row(), Row(q)], 1, _norm_message(norm), tmp_path)


def test_views_test_the_ee_quaternion_before_the_marker_quaternion(tmp_path):
    bad_marker = Row(marker=(0.0, 0.0, 3.0, 0.0))
    both_bad = Row((2.0, 0.0, 0.0, 0.0), (0.0, 0.0, 3.0, 0.0))
    _assert_row_error("views", [Row(), bad_marker, both_bad], 1, _norm_message("3.00000000"),
                      tmp_path)
    _assert_row_error("views", [Row(), both_bad], 1, _norm_message("2.00000000"), tmp_path)


@pytest.mark.parametrize("reader", _BOX_READERS)
def test_boxes_test_the_quaternion_before_the_half_extents(reader, tmp_path):
    extents = "half extents must be strictly positive, got [0. 0. 0.]"
    flat, turned = Row(half=0.0), Row((2.0, 0.0, 0.0, 0.0))
    _assert_row_error(reader, [Row(), Row(), flat], 2, extents, tmp_path)
    _assert_row_error(reader, [Row(), turned._replace(half=0.0)], 1,
                      _norm_message("2.00000000"), tmp_path)
    # the lower row wins, whatever its fault
    _assert_row_error(reader, [Row(), flat, turned], 1, extents, tmp_path)


def _decoded(reader, quaternions, tmp_path):
    load, path = _load_rows(reader, [Row(tuple(q)) for q in quaternions], tmp_path)
    return ROW_READERS[reader][3](load(path))


@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_near_unit_quaternion_decodes_as_it_did_one_row_at_a_time(reader, tmp_path):
    rng = make_rng(41)
    unit = rng.standard_normal((40, 4))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    # off unit by 1e-11 to 9e-7 (up to the tolerance of 1e-6), either way
    off = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-11.0, np.log10(9e-7), 40)
    quaternions = unit * (1.0 + off)[:, None]
    quaternions[0] = [0.9999995, 0.0, 0.0, 0.0]
    for q, got in zip(quaternions, _decoded(reader, quaternions, tmp_path), strict=True):
        norm = np.linalg.norm(q)
        assert 1e-12 < abs(norm - 1.0) <= 1e-6
        assert bits(got) == bits(quat_to_matrix(q / norm))


@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_unit_quaternion_decodes_as_written(reader, tmp_path):
    quaternions = [q / np.linalg.norm(q) for q in make_rng(42).standard_normal((40, 4))]
    quaternions += [np.array(q) for q in ((0.0, 0.0, 0.0, 1.0), (0.5, -0.5, 0.5, 0.5),
                                          (1.0 + 5e-13, 0.0, 0.0, 0.0))]
    for q, got in zip(quaternions, _decoded(reader, quaternions, tmp_path), strict=True):
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
        assert bits(got) == bits(quat_to_matrix(q))


# The numbers of a reader's rows are parsed by numpy in one call, which
# takes each field as float() does; a file at fault is read again row by row.


@pytest.mark.parametrize("sep, fields", [
    (",", ["1_0", "１", " 1.5", "١٢", "+.5 ", "1e-400"]),
    (None, ["1_0", "１", "1.5", "١٢", "+.5", "1e-400"]),
], ids=["csv", "whitespace"])
def test_numbers_parse_as_float_parses_them(sep, fields):
    line = (sep or " ").join(fields)
    _, _, values = fileio._float_rows("f.txt", [(3, line), (4, line)], len(fields), "x",
                                      sep=sep)
    expected = [float(tok) for tok in fields]
    assert bits(values) == bits(np.array([expected, expected]))
    assert values.tolist()[0] == fileio._numbers("f.txt", 3, line.split(sep), 0,
                                                 len(fields), "x")


def test_box_csv_reads_unusual_digits_as_float_does(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text(fileio.PRED_HEADER + "\ncup,0.5,1_0,１, 1.5,4.0,4.0,4.0,1.0,0.0,0.0,0.0\n")
    assert fileio.load_predictions_csv(path)[2].tolist() == [[10.0, 1.0, 1.5]]


def _edited_rows(reader, edits, tmp_path):
    """A reader's file of four good rows, with edits[k](line) applied to row
    k: (load, path)."""
    load, path = _load_rows(reader, [Row()] * 4, tmp_path)
    lines = path.read_text().splitlines()
    first = ROW_READERS[reader][2] - 1
    for k, edit in edits.items():
        lines[first + k] = edit(lines[first + k])
    path.write_text("\n".join(lines) + "\n")
    return load, path


def _sep(reader):
    return "," if reader in _BOX_READERS else " "


def _last_field(value, reader):
    sep = _sep(reader)
    return lambda line: line.rsplit(sep, 1)[0] + sep + value


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_non_finite_number_is_refused_at_its_line(reader, value, tmp_path):
    load, path = _edited_rows(reader, {2: _last_field(value, reader)}, tmp_path)
    with pytest.raises(FileFormatError) as raised:
        load(path)
    line = ROW_READERS[reader][2] + 2
    assert str(raised.value) == f"{path}:{line}: non-finite value {value!r}"


@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_first_fault_wins_whether_bad_number_or_field_count(reader, tmp_path):
    sep, first = _sep(reader), ROW_READERS[reader][2]
    bad_number, extra_field = _last_field("1.0x", reader), lambda line: line + sep + "7"
    load, path = _edited_rows(reader, {1: bad_number, 3: extra_field}, tmp_path)
    with pytest.raises(FileFormatError) as raised:
        load(path)
    assert str(raised.value) == f"{path}:{first + 1}: bad number '1.0x'"
    load, path = _edited_rows(reader, {1: extra_field, 3: bad_number}, tmp_path)
    with pytest.raises(FileFormatError) as raised:
        load(path)
    assert str(raised.value).startswith(f"{path}:{first + 1}: ")
    assert "row needs" in str(raised.value) and "fields, got" in str(raised.value)
