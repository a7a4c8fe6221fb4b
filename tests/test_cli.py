import json
import os
import subprocess
import sys

import numpy as np
import pytest

import robocal
from robocal import cli, fileio
from robocal.geometry import Pose, apply, make_rng, random_rotation
from robocal.handeye import MarkerBoard, default_board_points, synthesize_views
from robocal.mesh import chamfered_box, sample_surface, save_obj
from robocal.metrics import (Detection, GroundTruthBox, OrientedBox,
                             average_precision)
from robocal.pivot import synthesize_pivot_poses
from robocal.registration import Correspondences
from robocal.simulate import (Camera, SceneConfig, SceneObject, Trajectory,
                              generate_scene)


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


@pytest.mark.parametrize("measured, code, message", [
    ("0 0 0\n40 0 0\n", 1, "{path}: board has 3 nominal points but 2 measured points"),
    ("3 0 0\n40 0 0\n0 30 0\n", 2, "board and measured pairwise distances disagree"),
], ids=["missing-point", "not-rigid"])
def test_board_file_errors_exit_codes(measured, code, message, tmp_path, capsys):
    path = tmp_path / "board.txt"
    path.write_text("units=mm\n[board_points]\n0 0 0\n40 0 0\n0 30 0\n"
                    "[measured_points]\n" + measured)
    assert cli.main(["handeye", str(path), str(tmp_path / "views.txt")]) == code
    assert capsys.readouterr().err.startswith("error: " + message.format(path=path))


def test_simulate_has_no_mesh_samples_flag(tmp_path, capsys):
    argv = ["simulate", "--template", "phocal-like", "--seed", "1",
            "--mesh-samples", "200", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "--mesh-samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--noise-translation", "nan"),
                                         ("--noise-rotation", "inf"),
                                         ("--handeye-rmse", "rgbd=inf")])
def test_simulate_non_finite_noise_exits_1(flag, value, tmp_path, capsys):
    argv = ["simulate", "--template", "phocal-like", "--seed", "1", flag, value,
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_a_hand_eye_target_for_an_unknown_camera(tmp_path, capsys):
    # a misspelled camera would leave the real one at its default target
    argv = ["simulate", "--template", "phocal-like", "--seed", "1",
            "--handeye-rmse", "rgdb=0.3", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --handeye-rmse names camera(s) ['rgdb']")
    assert "['rgbd', 'polarization']" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["icp-bench", "--seed", "1", "--samples", "5"], "--samples"),
    (["annotate", "p.txt", "m.obj", "k.txt", "--seed", "1"], "--seed"),
    (["annotate", "p.txt", "m.obj", "k.txt", "--icp-params", "surface_samples=10"],
     "surface_samples"),
])
def test_surface_sampling_options_are_gone(argv, flag, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err


def test_unknown_mesh_parameter_exits_1(tmp_path, capsys):
    stops = tuple(Pose(random_rotation(make_rng(k)), [450.0, 0.0, 400.0])
                  for k in range(3))
    fileio.save_scene(tmp_path / "scene.txt", SceneConfig(
        (SceneObject("box0", "proc:box?radius=3", Pose.identity()),),
        (Camera("rgbd", Pose(np.eye(3), [50.0, 30.0, 20.0])),),
        (Trajectory("orbit", stops),)))
    argv = ["simulate", str(tmp_path / "scene.txt"), "--seed", "1",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "radius" in err and "chamfer" in err


def _report_lines(path):
    """A report's lines below its embedded manifest line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    return lines[1:]


def test_eval_iou_report(tmp_path, capsys):
    rng = make_rng(3)
    gts, preds = [], []
    for k, cat in enumerate(("bottle", "cup", "teapot")):
        for _ in range(3):
            box = OrientedBox(rng.uniform(-200.0, 200.0, 3), rng.uniform(5.0, 30.0, 3),
                              random_rotation(rng))
            gts.append(GroundTruthBox(cat, box))
            moved = OrientedBox(box.center + rng.normal(0.0, 2.0 * k, 3),
                                box.half_extents, box.rotation)
            preds.append(Detection(cat, moved, rng.uniform(0.0, 1.0)))
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    fileio.save_ground_truth_csv(gt_path, gts)
    fileio.save_predictions_csv(pred_path, preds)
    out = tmp_path / "ap.csv"
    argv = ["eval-iou", str(gt_path), str(pred_path), "--threshold", "0.5",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert f"report written to {out}" in capsys.readouterr().out
    expected = average_precision(fileio.load_detection_set(gt_path, pred_path), 0.5)
    lines = _report_lines(out)
    assert lines[:3] == [f"# mean_ap={expected.mean_ap!r}", "# iou_threshold=0.5",
                         "category,ap"]
    assert [row.split(",")[0] for row in lines[3:]] == ["bottle", "cup", "teapot"]


def test_pivot_calib_report_header(tmp_path, capsys):
    poses = synthesize_pivot_poses(np.array([17.0, -2.0, 55.0]),
                                   np.array([400.0, 80.0, 120.0]), 20, make_rng(4),
                                   translation_noise_mm=0.05)
    fileio.save_pose_list(tmp_path / "poses.txt", poses)
    out = tmp_path / "pivot.csv"
    assert cli.main(["pivot-calib", str(tmp_path / "poses.txt"),
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    rms_lines = [line for line in stdout.splitlines() if "rms" in line]
    assert len(rms_lines) == 1
    assert rms_lines[0].startswith("residual rms:")
    assert rms_lines[0].endswith(" mm (physical reference tip variance: 0.057 mm)")
    header, row = _report_lines(out)
    assert header == ("tip_x_mm,tip_y_mm,tip_z_mm,pivot_x_mm,pivot_y_mm,pivot_z_mm,"
                      "residual_rms_mm,n_poses")
    assert len(row.split(",")) == 8 and row.endswith(",20")


def test_eval_iou_sidecar_counts_pairs(tmp_path, capsys):
    rng = make_rng(5)
    gts, preds = [], []
    for _ in range(6):
        box = OrientedBox(rng.uniform(-300.0, 300.0, 3), rng.uniform(5.0, 30.0, 3),
                          random_rotation(rng))
        gts.append(GroundTruthBox("cup", box))
        preds.append(Detection("cup", OrientedBox(box.center + rng.normal(0.0, 2.0, 3),
                                                  box.half_extents, box.rotation),
                               rng.uniform(0.0, 1.0)))
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    fileio.save_ground_truth_csv(gt_path, gts)
    fileio.save_predictions_csv(pred_path, preds)
    argv = ["eval-iou", str(gt_path), str(pred_path), "--threshold", "0.5"]
    assert cli.main(argv) == 0
    plain_stdout = capsys.readouterr().out
    out = tmp_path / "ap.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == plain_stdout + f"report written to {out}\n"

    # 6 x 6 pairs compared. The bounding spheres of distinct ground-truth
    # boxes miss each other by at least 27 mm and each prediction lies within
    # 6 mm of its own box, so only the 6 own pairs reach the separating-axis
    # test; they overlap, pass it and are clipped.
    sidecar = json.loads((tmp_path / "ap.csv.manifest.json").read_text())
    assert sidecar["counts"] == {"pairs_compared": 36, "pairs_separated": 0,
                                 "pairs_clipped": 6}
    embedded = json.loads(out.read_text().splitlines()[0][len("# manifest: "):])
    assert embedded == {k: v for k, v in sidecar.items()
                        if k not in ("counts", "timestamp")}


def _write_command_inputs(tmp_path):
    """Small valid inputs for every command of COMMAND_ARGVS, written with the
    fileio writers; returns the object pose the annotate inputs were made from."""
    rng = make_rng(6)
    poses = synthesize_pivot_poses(np.array([17.0, -2.0, 55.0]),
                                   np.array([400.0, 80.0, 120.0]), 20, rng,
                                   translation_noise_mm=0.05)
    fileio.save_pose_list(tmp_path / "poses.txt", poses)

    marker_base = Pose(random_rotation(rng), [450.0, 20.0, 0.0])
    board_points = default_board_points()
    fileio.save_marker_board(tmp_path / "board.txt", MarkerBoard(
        board_points, apply(marker_base, board_points)))
    ee_poses = [Pose(random_rotation(rng), rng.uniform(100.0, 500.0, 3))
                for _ in range(6)]
    fileio.save_views(tmp_path / "views.txt", synthesize_views(
        Pose(random_rotation(rng), [55.0, 40.0, 38.0]), marker_base, ee_poses))

    boxes = [OrientedBox(rng.uniform(-50.0, 50.0, 3), rng.uniform(5.0, 30.0, 3),
                         random_rotation(rng)) for _ in range(4)]
    fileio.save_ground_truth_csv(tmp_path / "gt.csv",
                                 [GroundTruthBox("box", b) for b in boxes])
    fileio.save_predictions_csv(tmp_path / "pred.csv",
                                [Detection("box", b, 0.5) for b in boxes[::-1]])

    stops = tuple(Pose(random_rotation(rng), [450.0, 0.0, 400.0] + rng.uniform(-200, 200, 3))
                  for _ in range(4))
    fileio.save_scene(tmp_path / "scene.txt", SceneConfig(
        (SceneObject("box0", "proc:box?chamfer=3.0", Pose(random_rotation(rng),
                                                           [450.0, 0.0, 40.0])),),
        (Camera("rgbd", Pose(random_rotation(rng), [50.0, 30.0, 20.0])),),
        (Trajectory("orbit", stops),)))

    mesh = chamfered_box()
    save_obj(mesh, tmp_path / "box.obj")
    truth = Pose(random_rotation(rng), [450.0, 20.0, 40.0])
    fileio.save_point_list(tmp_path / "points.txt",
                           apply(truth, sample_surface(mesh, 30, rng)))
    fileio.save_correspondences(tmp_path / "keypoints.txt", Correspondences(
        apply(truth, mesh.vertices[:6]), mesh.vertices[:6]))
    return truth


COMMAND_ARGVS = {
    "--version": ["--version"],
    "pivot-calib": ["pivot-calib", "poses.txt", "--out", "pivot.csv"],
    "handeye": ["handeye", "board.txt", "views.txt", "--out", "handeye.csv"],
    "eval-iou": ["eval-iou", "gt.csv", "pred.csv", "--threshold", "0.5", "--out", "ap.csv"],
    "simulate": ["simulate", "scene.txt", "--seed", "1", "--out-dir", "sim"],
    "icp-bench": ["icp-bench", "--seed", "1"],
    "annotate": ["annotate", "points.txt", "box.obj", "keypoints.txt", "--out", "pose.txt"],
}


def _run_fresh(script, arg, cwd):
    """`script` with `arg` as its argument, in a fresh interpreter that imports
    robocal from this checkout."""
    src = os.path.dirname(os.path.dirname(robocal.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", script, arg], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# Runs in a fresh interpreter: other tests load scipy into this one.
SCIPY_GUARD = """
import json, sys
import robocal.cli as cli
assert "scipy" not in sys.modules, "import robocal.cli loaded scipy"
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{argv[0]} loaded {loaded[:3]}"
"""


def test_commands_without_kd_tree_do_not_import_scipy(tmp_path):
    truth = _write_command_inputs(tmp_path)
    argvs = [COMMAND_ARGVS[name] for name in ("pivot-calib", "handeye", "eval-iou",
                                              "simulate", "icp-bench", "annotate")]
    run = _run_fresh(SCIPY_GUARD, json.dumps(argvs), tmp_path)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "sim" / "sim_report.csv").exists()
    refined = fileio.load_pose_list(tmp_path / "pose.txt")[0]
    assert np.allclose(refined.as_matrix(), truth.as_matrix(), atol=1e-6)


# The robocal modules a command must not load: each command imports the
# modules it runs in its own body.
IMPORT_FOOTPRINT = {
    "--version": ("simulate", "metrics", "registration", "mesh", "handeye"),
    "pivot-calib": ("simulate", "metrics", "registration", "mesh", "handeye"),
    "handeye": ("simulate", "metrics", "registration", "mesh"),
    "annotate": ("simulate", "metrics", "handeye"),
    "eval-iou": ("simulate", "registration", "mesh", "handeye"),
}

FOOTPRINT_GUARD = """
import json, sys
import robocal.cli as cli
argv, unused = json.loads(sys.argv[1])
try:
    code = cli.main(argv)
except SystemExit as exc:  # --version prints the version and exits
    code = exc.code
assert code == 0, f"exit code {code}"
loaded = [name for name in unused if "robocal." + name in sys.modules]
assert not loaded, f"{argv[0]} loaded robocal modules it does not run: {loaded}"
"""


@pytest.mark.parametrize("command", sorted(IMPORT_FOOTPRINT))
def test_command_loads_only_the_modules_it_runs(command, tmp_path):
    _write_command_inputs(tmp_path)
    run = _run_fresh(FOOTPRINT_GUARD,
                     json.dumps([COMMAND_ARGVS[command], IMPORT_FOOTPRINT[command]]),
                     tmp_path)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command", ["simulate", "gen-scene"])
def test_unknown_template_exits_1_naming_the_known_ones(command, tmp_path, capsys):
    argv = {"simulate": ["simulate", "--template", "nope", "--seed", "1",
                         "--out-dir", str(tmp_path / "out")],
            "gen-scene": ["gen-scene", "--template", "nope", "--seed", "1",
                          "--out", str(tmp_path / "scene.txt")]}[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scene template 'nope'")
    assert "phocal-like" in err
    assert os.listdir(tmp_path) == []


# a phocal-like scene with one of its sections misspelled or repeated; the
# parent skipped that section without a word and simulated the rest
@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("[trajectory traj-b]", "[trajectroy traj-b]"),
     "unknown section [trajectroy traj-b]"),
    (lambda text: text + "[cameras]\nextra 1 0 0 0 0 0 0\n",
     "repeated section [cameras], first at line 4"),
], ids=["misspelled-trajectory", "repeated-cameras"])
def test_simulate_refuses_a_scene_with_a_lost_section(edit, message, tmp_path, capsys):
    path = tmp_path / "scene.txt"
    fileio.save_scene(path, generate_scene("phocal-like", 1))
    path.write_text(edit(path.read_text()))
    argv = ["simulate", str(path), "--seed", "1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and message in err
    assert not (tmp_path / "out").exists()
