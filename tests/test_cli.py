import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import robocal
from robocal import cli, fileio
from robocal.geometry import Pose, apply, axis_angle, compose, make_rng, random_rotation
from robocal.handeye import MarkerBoard, default_board_points, synthesize_views
from robocal.mesh import chamfered_box, sample_surface, save_obj
from robocal.metrics import Detection, GroundTruthBox, OrientedBox
from robocal.pivot import synthesize_pivot_poses
from robocal.registration import Correspondences
from robocal.simulate import (Camera, SceneConfig, SceneObject, Trajectory,
                              generate_scene)
from test_metrics import load_rows, reference_ap


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "180.5"])
def test_pivot_calib_bad_diversity_minimum_exits_1(value, tmp_path, capsys):
    poses = synthesize_pivot_poses(np.array([17.0, -2.0, 55.0]),
                                   np.array([400.0, 80.0, 120.0]), 10, make_rng(2))
    fileio.save_pose_list(tmp_path / "poses.txt", poses)
    argv = ["pivot-calib", str(tmp_path / "poses.txt"), "--min-diversity-deg", value]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: rotation diversity minimum")


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


@pytest.mark.parametrize("entry", ["tol_translation_mm=nan", "max_correspondence_mm=nan"])
def test_icp_params_nan_exits_1(entry, capsys):
    # NaN once passed the check; the parameters are tested before any input
    # file is read
    argv = ["annotate", "p.txt", "m.obj", "k.txt", "--icp-params", entry]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: IcpParams.{entry.split('=')[0]} must be positive")


@pytest.mark.parametrize("fraction", ["nan", "inf", "-1", "0"])
def test_icp_bench_patch_fraction_not_finite_and_positive_exits_1(fraction, capsys):
    # nan, -1 and 0 once all fell back to the same nearest-candidate patch
    assert cli.main(["icp-bench", "--seed", "1", "--patch-fraction", fraction]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: patch fraction must be finite and positive")
    assert captured.out == ""


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


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("obj01-box", "obj00-bottle"),
     "object name(s) ['obj00-bottle'] repeat"),
    (lambda text: text.replace("polarization ", "rgbd "),
     "camera name(s) ['rgbd'] repeat"),
], ids=["object", "camera"])
def test_simulate_refuses_a_scene_with_a_repeated_name(edit, message, tmp_path, capsys):
    # the second object's or camera's rows once overwrote the first's in the
    # report, which showed one value for both and exited 0
    path = tmp_path / "scene.txt"
    fileio.save_scene(path, generate_scene("phocal-like", 1))
    text = path.read_text()
    assert edit(text) != text
    path.write_text(edit(text))
    argv = ["simulate", str(path), "--seed", "1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-scene", "simulate"])
def test_unwritable_output_path_exits_1_naming_it(command, tmp_path, monkeypatch, capsys):
    # gen-scene into a directory that does not exist, simulate into a path
    # that is a file: each once ended in a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("not a directory\n")
    argv, message = {
        "gen-scene": (["gen-scene", "--out", "nodir/x.txt"],
                      "error: cannot write nodir/x.txt: No such file or directory\n"),
        "simulate": (["simulate", "--out-dir", "taken"],
                     "error: cannot create directory taken: File exists\n"),
    }[command]
    assert cli.main([*argv, "--template", "phocal-like", "--seed", "1"]) == 1
    assert capsys.readouterr().err == message
    assert os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("out_dir, reason", [("taken", "File exists"),
                                              ("taken/sub", "Not a directory"),
                                              ("", "No such file or directory")])
def test_simulate_checks_out_dir_before_running(out_dir, reason, tmp_path, monkeypatch,
                                                capsys):
    # the directory was once made only after every draw had run
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulation ran before --out-dir was checked")

    monkeypatch.setattr("robocal.simulate.simulate_annotation_error", must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("not a directory\n")
    argv = ["simulate", "--template", "phocal-like", "--seed", "1", "--out-dir", out_dir]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot create directory {out_dir}: {reason}\n"
    assert os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("segments, status", [("64", 0), ("2.5", 1)])
def test_simulate_scene_with_bottle_segments(segments, status, tmp_path, capsys):
    # an integral segment count once died in a TypeError traceback
    path = tmp_path / "scene.txt"
    fileio.save_scene(path, generate_scene("phocal-like", 1))
    text = path.read_text()
    assert "proc:bottle?" in text
    path.write_text(text.replace("proc:bottle?", f"proc:bottle?segments={segments}&"))
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--seed", "1", "--out-dir", str(out)]) == status
    err = capsys.readouterr().err
    if status:
        assert err == ("error: bottle segments must be a whole number >= 3, "
                       "got 2.5\n")
        assert not out.exists()
    else:
        assert (out / "sim_report.csv").exists()


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
    per_category, mean_ap = reference_ap(*load_rows(gt_path, pred_path), 0.5)
    assert list(per_category) == ["bottle", "cup", "teapot"]
    assert _report_lines(out) == [f"# mean_ap={mean_ap!r}", "# iou_threshold=0.5",
                                  "category,ap",
                                  *[f"{cat},{ap!r}" for cat, ap in per_category.items()]]


def test_eval_iou_header_only_ground_truth_exits_1(tmp_path, capsys):
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt_path.write_text(fileio.GT_HEADER + "\n")
    box = OrientedBox([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], np.eye(3))
    fileio.save_predictions_csv(pred_path, [Detection("cup", box, 0.9)])
    out = tmp_path / "ap.csv"
    argv = ["eval-iou", str(gt_path), str(pred_path), "--threshold", "0.5",
            "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: the ground truth holds no box, so no category "
                            "has an AP\n")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.csv", "pred.csv"]


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
    # the flag was not given: the manifest records the minimum that was used
    sidecar = json.loads((tmp_path / "pivot.csv.manifest.json").read_text())
    assert sidecar["parameters"]["min_diversity_deg"] == 10.0


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


def test_annotate_sidecar_records_iterations_and_stop_reason(tmp_path, monkeypatch, capsys):
    truth = _write_command_inputs(tmp_path)
    # keypoints picked 1.5 mm / 2 deg off, so that ICP has a way to go
    off = compose(truth, Pose(axis_angle([0.0, 0.6, 0.8], 2.0), [1.5, 0.0, 0.0]))
    vertices = chamfered_box().vertices[:6]
    fileio.save_correspondences(tmp_path / "keypoints.txt",
                                Correspondences(apply(off, vertices), vertices))
    monkeypatch.chdir(tmp_path)
    argv = COMMAND_ARGVS["annotate"] + ["--icp-params", "max_iterations=1"]
    assert cli.main(argv) == 0
    assert "icp: 1 iterations, converged=False, rms " in capsys.readouterr().out
    sidecar = json.loads((tmp_path / "pose.txt.manifest.json").read_text())
    assert sidecar["counts"] == {"icp_iterations": 1, "icp_stop_reason": "max_iterations"}
    assert cli.main(COMMAND_ARGVS["annotate"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("icp: "))
    iterations = int(line.split()[1])
    sidecar = json.loads((tmp_path / "pose.txt.manifest.json").read_text())
    assert sidecar["counts"]["icp_iterations"] == iterations > 1
    assert sidecar["counts"]["icp_stop_reason"] in ("tolerance", "tolerance_after_halving")
    assert "converged=True" in line


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


# The modules a command must not load: each command imports the robocal
# modules it runs in its own body. simulate's report table lives in
# robocal.simulate, and no command calls np.unique, np.isin or np.setdiff1d,
# whose first call imports numpy.ma. secrets is imported only to generate a
# seed; simulate and icp-bench load it all the same, through numpy.random,
# whose generators they run, and with it hashlib and OpenSSL. The manifest
# digests use CPython's built-in SHA-256, so the other commands load neither.
_NO_OPENSSL = ("hashlib", "_hashlib")
# Records are plain classes, so no command loads dataclasses, whose decorator
# generates and execs code for every record type on every import.
IMPORT_FOOTPRINT = {
    "--version": ("robocal.simulate", "robocal.metrics", "robocal.registration",
                  "robocal.mesh", "robocal.handeye", "robocal.pivot", "secrets",
                  "robocal.fileio", "robocal.textio", "json", *_NO_OPENSSL, "numpy.ma",
                  "dataclasses"),
    "pivot-calib": ("robocal.simulate", "robocal.metrics", "robocal.registration",
                    "robocal.mesh", "robocal.handeye", "secrets", *_NO_OPENSSL,
                    "numpy.ma", "dataclasses"),
    "handeye": ("robocal.simulate", "robocal.metrics", "robocal.registration",
                "robocal.mesh", "robocal.pivot", "secrets", *_NO_OPENSSL, "numpy.ma",
                "dataclasses"),
    "annotate": ("robocal.simulate", "robocal.metrics", "robocal.handeye",
                 "robocal.pivot", "secrets", *_NO_OPENSSL, "numpy.ma", "dataclasses"),
    "eval-iou": ("robocal.simulate", "robocal.registration", "robocal.mesh",
                 "robocal.handeye", "robocal.pivot", "secrets", *_NO_OPENSSL,
                 "numpy.ma", "dataclasses"),
    "simulate": ("robocal.metrics", "robocal.registration", "numpy.ma",
                 "robocal.pivot", "dataclasses"),
    "icp-bench": ("robocal.simulate", "robocal.metrics", "robocal.handeye",
                  "robocal.pivot", "robocal.fileio", "json", "numpy.ma", "dataclasses"),
}

# reads its arguments with ast, not json, which is on the unused lists
FOOTPRINT_GUARD = """
import ast, sys
import robocal.cli as cli
argv, unused = ast.literal_eval(sys.argv[1])
try:
    code = cli.main(argv)
except SystemExit as exc:  # --version prints the version and exits
    code = exc.code
assert code == 0, f"exit code {code}"
loaded = [name for name in unused if name in sys.modules]
assert not loaded, f"{argv[0]} loaded modules it does not run: {loaded}"
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


# make_rng refuses a negative seed before numpy does, with a ValueError that
# would end the run in a traceback; simulate reaches make_rng through
# generate_scene with --template and through simulate_annotation_error with a
# scene file
NEGATIVE_SEED_ARGVS = {
    "simulate": ["simulate", "--template", "phocal-like", "--out-dir", "out"],
    "simulate-scene-file": ["simulate", "scene.txt", "--out-dir", "out"],
    "icp-bench": ["icp-bench"],
    "gen-scene": ["gen-scene", "--template", "phocal-like", "--out", "out.txt"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_ARGVS))
def test_negative_seed_exits_1_with_error_line(command, tmp_path, monkeypatch, capsys):
    fileio.save_scene(tmp_path / "scene.txt", generate_scene("phocal-like", 1))
    monkeypatch.chdir(tmp_path)
    assert cli.main([*NEGATIVE_SEED_ARGVS[command], "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a whole number >= 0, got -1\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["scene.txt"]


# Each command of COMMAND_ARGVS that writes files: the files among them that
# embed a '# manifest:' line, its manifest sidecar, and its input files.
MANIFEST_OUTPUTS = {
    "pivot-calib": (["pivot.csv"], "pivot.csv.manifest.json", ["poses.txt"]),
    "handeye": (["handeye.csv"], "handeye.csv.manifest.json", ["board.txt", "views.txt"]),
    "eval-iou": (["ap.csv"], "ap.csv.manifest.json", ["gt.csv", "pred.csv"]),
    "annotate": ([], "pose.txt.manifest.json", ["points.txt", "box.obj", "keypoints.txt"]),
    "simulate": (["sim/sim_report.csv", "sim/sim_report.txt"],
                 "sim/sim_report.manifest.json", ["scene.txt"]),
}


@pytest.mark.parametrize("hash_module", ["built-in", "hashlib"])
@pytest.mark.parametrize("command", sorted(MANIFEST_OUTPUTS))
def test_manifest_inputs_are_sha256_of_the_files(command, hash_module, tmp_path,
                                                 monkeypatch):
    _write_command_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
    if hash_module == "hashlib":
        # an interpreter built without CPython's own SHA-256 module
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
    assert cli.main(COMMAND_ARGVS[command]) == 0
    embedding, sidecar, inputs = MANIFEST_OUTPUTS[command]
    assert len(hashed) == (len(inputs) if hash_module == "hashlib" else 0)
    expected = {name: sha256((tmp_path / name).read_bytes()).hexdigest() for name in inputs}
    assert json.loads((tmp_path / sidecar).read_text())["inputs"] == expected
    for name in embedding:
        line = (tmp_path / name).read_text().splitlines()[0]
        assert json.loads(line.removeprefix("# manifest: "))["inputs"] == expected


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
