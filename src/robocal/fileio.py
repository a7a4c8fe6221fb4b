"""Structured text formats, CSV reports and run manifests.

Every format is strict: units and pose-convention headers are mandatory
and mismatches are hard errors, quaternion rows must be unit to 1e-6,
parsers never guess. Floats are serialized with repr() so numeric fields
survive a round trip exactly. Writes are atomic (temp file then rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import secrets
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import FileFormatError, ValidationError
from .geometry import Pose, matrix_to_quat, quat_to_matrix
from .handeye import HandEyeView, MarkerBoard
from .metrics import Detection, DetectionSet, GroundTruthBox, OrientedBox
from .registration import Correspondences
from .simulate import Camera, SceneConfig, SceneObject, SimReport, Trajectory
from .textio import read_bytes, read_lines

UNITS_VALUE = "mm"
CONVENTION_VALUE = "p->R*p+t"
QUAT_NORM_TOL = 1e-6

_KV_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")


def _fmt(x: float) -> str:
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    # mode 0o666 less the umask, as open() gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Run manifests


@dataclass
class RunManifest:
    command: str
    parameters: dict
    version: str = __version__
    input_digests: dict = field(default_factory=dict)
    timestamp: str = ""
    counts: dict = field(default_factory=dict)  # run statistics, sidecar only

    @classmethod
    def create(cls, command: str, parameters: dict, input_paths=()) -> "RunManifest":
        digests = {}
        for p in input_paths:
            digest = hashlib.sha256(read_bytes(p)).hexdigest()
            digests[os.path.basename(str(p))] = digest
        return cls(command=command, parameters=dict(parameters),
                   input_digests=digests,
                   timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))

    def deterministic_dict(self) -> dict:
        # everything except the wall-clock timestamp and the run counts;
        # this is what gets embedded in report files so reruns stay
        # byte-identical
        return {"command": self.command, "parameters": self.parameters,
                "version": self.version, "inputs": self.input_digests}

    def embed_line(self) -> str:
        return "# manifest: " + json.dumps(self.deterministic_dict(), sort_keys=True)

    def write_sidecar(self, report_path) -> str:
        full = dict(self.deterministic_dict(), timestamp=self.timestamp)
        if self.counts:
            full["counts"] = self.counts
        sidecar = str(report_path) + ".manifest.json"
        atomic_write_text(sidecar, json.dumps(full, sort_keys=True, indent=2) + "\n")
        return sidecar


# ---------------------------------------------------------------------------
# Low-level structured-text scanning


class _Scanner:
    """Iterates meaningful lines of a structured text file."""

    def __init__(self, path):
        self.path = str(path)
        self.headers: dict[str, str] = {}
        self.rows: list[tuple[int, str]] = []  # top-level data rows
        self.sections: list[tuple[str, list[tuple[int, str]]]] = []
        current: list[tuple[int, str]] | None = None
        for lineno, line in read_lines(self.path):
            section = _SECTION_RE.match(line)
            if section:
                current = []
                self.sections.append((section.group(1).strip(), current))
                continue
            if current is not None:
                current.append((lineno, line))
                continue
            kv = _KV_RE.match(line)
            if kv:
                self.headers[kv.group(1)] = kv.group(2).strip()
            else:
                self.rows.append((lineno, line))

    def require_header(self, key: str, expected: str) -> None:
        if key not in self.headers:
            raise FileFormatError(self.path, None,
                                  f"missing required header '{key}={expected}'")
        got = self.headers[key]
        if got != expected:
            raise FileFormatError(
                self.path, None,
                f"header mismatch: {key}={got!r}, this toolkit requires "
                f"{key}={expected!r} (no silent reinterpretation)")

    def section(self, name: str):
        for sec_name, rows in self.sections:
            if sec_name == name:
                return rows
        raise FileFormatError(self.path, None, f"missing required section [{name}]")


def _parse_floats(path, lineno, tokens, expected: int):
    if len(tokens) != expected:
        raise FileFormatError(path, lineno,
                              f"expected {expected} numeric fields, got {len(tokens)}")
    values = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise FileFormatError(path, lineno, f"bad number {tok!r}")
        if not np.isfinite(v):
            raise FileFormatError(path, lineno, f"non-finite value {tok!r}")
        values.append(v)
    return values


def _pose_from_row(path, lineno, values) -> Pose:
    q = np.array(values[:4])
    t = np.array(values[4:7])
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise FileFormatError(path, lineno,
                              f"quaternion norm {norm:.8f} deviates from 1 by more "
                              f"than {QUAT_NORM_TOL:g}")
    if abs(norm - 1.0) > 1e-12:  # keep already-unit quaternions bit-exact
        q = q / norm
    return Pose(quat_to_matrix(q), t)


def _pose_row(pose: Pose) -> str:
    q = matrix_to_quat(pose.rotation)
    t = pose.translation
    return " ".join(_fmt(v) for v in (*q, *t))


# ---------------------------------------------------------------------------
# Pose lists


def save_pose_list(path, poses, comment: str = "") -> None:
    lines = ["# robocal pose-list v1"]
    if comment:
        lines.append(f"# {comment}")
    lines += [f"units={UNITS_VALUE}", f"convention={CONVENTION_VALUE}",
              "# columns: qw qx qy qz tx ty tz"]
    lines += [_pose_row(p) for p in poses]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_pose_list(path) -> list[Pose]:
    sc = _Scanner(path)
    sc.require_header("units", UNITS_VALUE)
    sc.require_header("convention", CONVENTION_VALUE)
    poses = []
    for lineno, line in sc.rows:
        values = _parse_floats(path, lineno, line.split(), 7)
        poses.append(_pose_from_row(path, lineno, values))
    if not poses:
        raise FileFormatError(path, None, "no pose rows found")
    return poses


# ---------------------------------------------------------------------------
# Point lists


def save_point_list(path, points, comment: str = "") -> None:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    lines = ["# robocal point-list v1"]
    if comment:
        lines.append(f"# {comment}")
    lines += [f"units={UNITS_VALUE}", "# columns: x y z"]
    lines += [" ".join(_fmt(v) for v in p) for p in pts]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _points_from_rows(path, rows) -> np.ndarray:
    pts = [_parse_floats(path, lineno, line.split(), 3) for lineno, line in rows]
    if not pts:
        raise FileFormatError(path, None, "no point rows found")
    return np.array(pts)


def load_point_list(path) -> np.ndarray:
    sc = _Scanner(path)
    sc.require_header("units", UNITS_VALUE)
    return _points_from_rows(path, sc.rows)


# ---------------------------------------------------------------------------
# Marker boards


def save_marker_board(path, board: MarkerBoard) -> None:
    lines = ["# robocal marker-board v1", f"units={UNITS_VALUE}",
             "[board_points]"]
    lines += [" ".join(_fmt(v) for v in p) for p in board.board_points]
    lines.append("[measured_points]")
    lines += [" ".join(_fmt(v) for v in p) for p in board.measured_points]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_marker_board(path) -> MarkerBoard:
    sc = _Scanner(path)
    sc.require_header("units", UNITS_VALUE)
    board = _points_from_rows(path, sc.section("board_points"))
    measured = _points_from_rows(path, sc.section("measured_points"))
    return MarkerBoard(board, measured)


# ---------------------------------------------------------------------------
# Hand-eye view lists


def save_views(path, views) -> None:
    lines = ["# robocal handeye-views v1", f"units={UNITS_VALUE}",
             f"convention={CONVENTION_VALUE}",
             "# columns: ee(qw qx qy qz tx ty tz) marker_in_cam(qw qx qy qz tx ty tz)"]
    for v in views:
        lines.append(_pose_row(v.ee_pose) + " " + _pose_row(v.marker_in_cam))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_views(path) -> list[HandEyeView]:
    sc = _Scanner(path)
    sc.require_header("units", UNITS_VALUE)
    sc.require_header("convention", CONVENTION_VALUE)
    views = []
    for lineno, line in sc.rows:
        values = _parse_floats(path, lineno, line.split(), 14)
        views.append(HandEyeView(
            ee_pose=_pose_from_row(path, lineno, values[:7]),
            marker_in_cam=_pose_from_row(path, lineno, values[7:]),
        ))
    if not views:
        raise FileFormatError(path, None, "no view rows found")
    return views


# ---------------------------------------------------------------------------
# Correspondences


def save_correspondences(path, c: Correspondences) -> None:
    lines = ["# robocal correspondences v1", f"units={UNITS_VALUE}",
             "# columns: measured(x y z) model(x y z)"]
    for m, q in zip(c.measured, c.model):
        lines.append(" ".join(_fmt(v) for v in (*m, *q)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_correspondences(path) -> Correspondences:
    sc = _Scanner(path)
    sc.require_header("units", UNITS_VALUE)
    measured = []
    model = []
    for lineno, line in sc.rows:
        values = _parse_floats(path, lineno, line.split(), 6)
        measured.append(values[:3])
        model.append(values[3:])
    if not measured:
        raise FileFormatError(path, None, "no correspondence rows found")
    return Correspondences(np.array(measured), np.array(model))


# ---------------------------------------------------------------------------
# Scenes


def _check_name(name: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise ValidationError(f"names in scene files cannot contain spaces: {name!r}")
    return name


def save_scene(path, scene: SceneConfig) -> None:
    lines = ["# robocal scene v1", f"units={UNITS_VALUE}",
             f"convention={CONVENTION_VALUE}", "[cameras]"]
    for cam in scene.cameras:
        lines.append(f"{_check_name(cam.name)} {_pose_row(cam.cam_to_ee)}")
    lines.append("[objects]")
    for obj in scene.objects:
        lines.append(f"{_check_name(obj.name)} {_check_name(obj.mesh_ref)} "
                     f"{_pose_row(obj.pose)}")
    for traj in scene.trajectories:
        lines.append(f"[trajectory {_check_name(traj.name)}]")
        lines += [_pose_row(p) for p in traj.poses]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_scene(path) -> SceneConfig:
    sc = _Scanner(path)
    sc.require_header("units", UNITS_VALUE)
    sc.require_header("convention", CONVENTION_VALUE)
    cameras = []
    for lineno, line in sc.section("cameras"):
        parts = line.split()
        if len(parts) != 8:
            raise FileFormatError(path, lineno,
                                  "camera row needs: name qw qx qy qz tx ty tz")
        values = _parse_floats(path, lineno, parts[1:], 7)
        cameras.append(Camera(parts[0], _pose_from_row(path, lineno, values)))
    objects = []
    for lineno, line in sc.section("objects"):
        parts = line.split()
        if len(parts) != 9:
            raise FileFormatError(
                path, lineno, "object row needs: name mesh_ref qw qx qy qz tx ty tz")
        values = _parse_floats(path, lineno, parts[2:], 7)
        objects.append(SceneObject(parts[0], parts[1],
                                   _pose_from_row(path, lineno, values)))
    trajectories = []
    for sec_name, rows in sc.sections:
        if not sec_name.startswith("trajectory"):
            continue
        parts = sec_name.split()
        if len(parts) != 2:
            raise FileFormatError(path, None,
                                  f"bad trajectory section name [{sec_name}]")
        poses = []
        for lineno, line in rows:
            values = _parse_floats(path, lineno, line.split(), 7)
            poses.append(_pose_from_row(path, lineno, values))
        trajectories.append(Trajectory(parts[1], tuple(poses)))
    return SceneConfig(tuple(objects), tuple(cameras), tuple(trajectories))


# ---------------------------------------------------------------------------
# Oriented-box detection CSV

PRED_HEADER = "category,score,cx,cy,cz,ex,ey,ez,qw,qx,qy,qz"
GT_HEADER = "category,cx,cy,cz,ex,ey,ez,qw,qx,qy,qz"


def _box_from_fields(path, lineno, fields) -> OrientedBox:
    center = np.array(fields[:3])
    half = np.array(fields[3:6])
    q = np.array(fields[6:10])
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise FileFormatError(path, lineno,
                              f"box quaternion norm {norm:.8f} deviates from 1")
    if np.any(half <= 0):
        raise FileFormatError(path, lineno, "box half extents must be positive")
    return OrientedBox(center, half, quat_to_matrix(q / norm))


def _read_csv_rows(path, expected_header):
    rows = []
    header_seen = False
    for lineno, line in read_lines(path):
        if not header_seen:
            if line != expected_header:
                raise FileFormatError(
                    path, lineno,
                    f"bad CSV header; expected {expected_header!r}, got {line!r}")
            header_seen = True
            continue
        rows.append((lineno, line.split(",")))
    if not header_seen:
        raise FileFormatError(path, None, f"missing CSV header {expected_header!r}")
    return rows


def load_ground_truth_csv(path) -> list[GroundTruthBox]:
    out = []
    for lineno, parts in _read_csv_rows(path, GT_HEADER):
        if len(parts) != 11:
            raise FileFormatError(path, lineno, f"expected 11 fields, got {len(parts)}")
        fields = _parse_floats(path, lineno, parts[1:], 10)
        out.append(GroundTruthBox(parts[0], _box_from_fields(path, lineno, fields)))
    return out


def load_predictions_csv(path) -> list[Detection]:
    out = []
    for lineno, parts in _read_csv_rows(path, PRED_HEADER):
        if len(parts) != 12:
            raise FileFormatError(path, lineno, f"expected 12 fields, got {len(parts)}")
        score = _parse_floats(path, lineno, parts[1:2], 1)[0]
        fields = _parse_floats(path, lineno, parts[2:], 10)
        out.append(Detection(parts[0], _box_from_fields(path, lineno, fields), score))
    return out


def load_detection_set(gt_path, pred_path) -> DetectionSet:
    return DetectionSet(predictions=load_predictions_csv(pred_path),
                        ground_truth=load_ground_truth_csv(gt_path))


def _check_category(category: str) -> str:
    """A category that reads back unchanged: the reader splits rows on
    commas and line breaks, strips each line and skips '#' comment lines."""
    if (category != category.strip() or category.startswith("#")
            or any(ch in category for ch in ",\r\n")):
        raise ValidationError(
            f"category {category!r} cannot be written to a detection CSV: it "
            "starts with '#', has surrounding whitespace, a comma or a line break")
    return category


def save_ground_truth_csv(path, ground_truth) -> None:
    lines = [GT_HEADER]
    for gt in ground_truth:
        q = matrix_to_quat(gt.box.rotation)
        nums = (*gt.box.center, *gt.box.half_extents, *q)
        lines.append(",".join([_check_category(gt.category)] + [_fmt(v) for v in nums]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_predictions_csv(path, detections) -> None:
    lines = [PRED_HEADER]
    for det in detections:
        q = matrix_to_quat(det.box.rotation)
        nums = (det.score, *det.box.center, *det.box.half_extents, *q)
        lines.append(",".join([_check_category(det.category)] + [_fmt(v) for v in nums]))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Simulation report


def sim_report_csv(report: SimReport, manifest: RunManifest) -> str:
    lines = [manifest.embed_line(), "camera,object,frame,rmse_mm"]
    for cam in report.camera_names:
        for obj in report.object_names:
            series = report.frame_rmse[(cam, obj)]
            for k, v in enumerate(series):
                lines.append(f"{cam},{obj},{k},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def sim_report_text(report: SimReport, manifest: RunManifest) -> str:
    from .metrics import annotation_quality_table

    lines = [manifest.embed_line(), "simulated annotation-quality report", ""]
    lines.append(f"draws: {report.draws}")
    for cam in report.camera_names:
        lines.append(f"\ncamera {cam}:")
        calib = report.handeye_perturbations[cam]
        if calib is None:
            lines.append("  hand-eye perturbation: none (target 0)")
        else:
            lines.append(f"  hand-eye perturbation RMSE: "
                         f"{_fmt(calib.achieved_rmse_mm)} mm "
                         f"({calib.evaluations} evaluations)")
        for obj in report.object_names:
            lines.append(f"  {obj}: {_fmt(report.per_object_rmse[(cam, obj)])} mm")
        lines.append(f"  per-camera RMSE (first draw): "
                     f"{_fmt(report.per_camera_rmse[cam])} mm")
        if report.draws > 1:
            lines.append(f"  per-camera RMSE ({report.draws}-draw mean): "
                         f"{_fmt(report.per_camera_rmse_mean[cam])} mm")
    lines.append("")
    lines.append(annotation_quality_table(
        {cam: report.per_camera_rmse_mean[cam] for cam in report.camera_names}))
    return "\n".join(lines) + "\n"


def save_sim_report(out_dir, report: SimReport, manifest: RunManifest):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sim_report.csv")
    txt_path = os.path.join(out_dir, "sim_report.txt")
    atomic_write_text(csv_path, sim_report_csv(report, manifest))
    atomic_write_text(txt_path, sim_report_text(report, manifest))
    manifest.write_sidecar(os.path.join(out_dir, "sim_report"))
    return csv_path, txt_path
