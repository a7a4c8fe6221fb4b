"""Structured text formats, CSV reports and run manifests.

Every format is strict: units and pose-convention headers are mandatory
and mismatches are hard errors, quaternion fields must be unit to 1e-6,
parsers never guess, and a value that a domain type rejects is reported
with the file, and with the line when one row is at fault. A reader parses
the numbers of all its rows in one numpy call, and a pose or box reader
tests all of its rows at once, in array operations; each reports the fault
that reading row by row would meet first. A pose reader then builds
its poses; a detection CSV reader builds nothing, and returns its rows as
columns: a tuple of categories and arrays of scores and box parameters.
A writer rejects a name that its reader would not give back, before it
writes.

Floats are written with repr(), so translations, points, box centres and
half extents, scores and names read back bit for bit. Rotations are
written as unit quaternions: a loaded rotation matrix differs from the
saved one by a few ulp per entry (at most 8 in the round-trip tests), and
each further load/save cycle can move it again. Writes are atomic (temp
file then rename).

A loader imports the domain code it uses in its own body, so that reading
one format does not load the modules of every other.
"""

from __future__ import annotations

import json
import math
import os
import re
import time

import numpy as np

from . import __version__
from .errors import FileFormatError, ValidationError
from .geometry import Pose, _rotation_checks, _trusted_pose, matrix_to_quat, quat_to_matrix
from .textio import read_bytes, read_lines

UNITS_VALUE = "mm"
CONVENTION_VALUE = "p->R*p+t"
QUAT_NORM_TOL = 1e-6

_KV_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")
_BOARD_SECTIONS = re.compile(r"board_points|measured_points")
_SCENE_SECTIONS = re.compile(r"cameras|objects|trajectory (\S+)")


def _fmt(x: float) -> str:
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it into place.

    A path that cannot be written is a ValidationError that names `path`, not
    the temp file, which is removed.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
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
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Run manifests


def _sha256_hex(data: bytes) -> str:
    """SHA-256 of `data` as hex, from CPython's built-in module (see
    RunManifest); hashlib's only on an interpreter built without it."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


class RunManifest:
    """The command, parameters, version and input digests of one run.

    `input_digests` maps each input's file name to the SHA-256 of its bytes,
    as hex, as `sha256sum` prints it. The hash is CPython's built-in SHA-256,
    not hashlib's: hashlib maps OpenSSL's libcrypto (~3.4 MB resident), and
    pivot-calib, handeye, annotate and eval-iou would load it for nothing
    else. The built-in is ~5x slower per byte: ~5 ms per MB of input on a
    2-vCPU Xeon, against ~1 ms."""

    __slots__ = ("command", "parameters", "version", "input_digests", "timestamp",
                 "counts")

    def __init__(self, command: str, parameters: dict, version: str = __version__,
                 input_digests: dict | None = None, timestamp: str = "",
                 counts: dict | None = None):
        self.command = command
        self.parameters = parameters
        self.version = version
        self.input_digests = {} if input_digests is None else input_digests
        self.timestamp = timestamp
        self.counts = {} if counts is None else counts  # run statistics, sidecar only

    @classmethod
    def create(cls, command: str, parameters: dict, input_paths=()) -> "RunManifest":
        digests = {}
        for p in input_paths:
            digests[os.path.basename(str(p))] = _sha256_hex(read_bytes(p))
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
# Records: one writer, one scanner and one row parser for every format


def _write_text(path, kind, rows=(), *, comment="", convention=False, columns="",
                sections=()) -> None:
    """Write a structured text file: the '# robocal <kind> v1' line, the
    comment, the units (and pose-convention) headers, the '# columns:' line,
    the top-level rows, then each (name, rows) section. A comment with a line
    break, which would add rows to the file, is refused before anything is
    written."""
    if "\n" in comment or "\r" in comment:
        raise ValidationError(f"comment {comment!r} cannot be written: it holds a "
                              "line break, and each line after it would read as a row")
    lines = [f"# robocal {kind} v1"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"units={UNITS_VALUE}")
    if convention:
        lines.append(f"convention={CONVENTION_VALUE}")
    if columns:
        lines.append(f"# columns: {columns}")
    lines += rows
    for name, section_rows in sections:
        lines.append(f"[{name}]")
        lines += section_rows
    atomic_write_text(path, "\n".join(lines) + "\n")


def _row(values, names=(), sep=" ") -> str:
    return sep.join([*names, *map(_fmt, values)])


def _pose_values(pose: Pose) -> tuple:
    return (*matrix_to_quat(pose.rotation), *pose.translation)


def _check_field(value: str, separator: str | None) -> str:
    """`value`, if its reader gives it back unchanged; ValidationError if not.

    Readers strip each line, skip '#' comment lines and split rows on
    `separator`: ',' in a detection CSV, whitespace (None) in a scene, where
    a name can also end a '[trajectory <name>]' header at its first ']'. One
    rule serves every name of a scene, wherever in the file it stands.
    """
    if separator is None:
        unreadable = value.split() != [value] or "]" in value
        rule = "a scene name is one token without whitespace or ']'"
    else:
        unreadable = value[:1].isspace() or any(ch in value for ch in separator + "\r\n")
        rule = f"a field may not start with whitespace or hold {separator!r} or a line break"
    if unreadable or value.startswith("#"):
        raise ValidationError(f"{value!r} cannot be written, as it would not read back: "
                              f"{rule}, and none may start with '#'")
    return value


class _Scanner:
    """The meaningful lines of a structured text file: headers, top-level
    rows and [sections]. The units header, and with `convention` the
    pose-convention header, must be present and hold this toolkit's value.
    Each section name must match the `sections` pattern in full and appear
    once; a format without sections leaves the pattern unset."""

    def __init__(self, path, convention=False, sections: re.Pattern | None = None):
        self.path = str(path)
        headers: dict[str, str] = {}
        self.rows: list[tuple[int, str]] = []  # top-level data rows
        # name -> (line number of its header, its rows), in file order
        self.sections: dict[str, tuple[int, list[tuple[int, str]]]] = {}
        current: list[tuple[int, str]] | None = None
        for lineno, line in read_lines(self.path):
            section = _SECTION_RE.match(line)
            if section:
                name = section.group(1).strip()
                if sections is None or not sections.fullmatch(name):
                    raise FileFormatError(self.path, lineno, f"unknown section [{name}]")
                if name in self.sections:
                    raise FileFormatError(
                        self.path, lineno, f"repeated section [{name}], first at "
                        f"line {self.sections[name][0]}")
                current = []
                self.sections[name] = (lineno, current)
                continue
            if current is not None:
                current.append((lineno, line))
                continue
            kv = _KV_RE.match(line)
            if kv:
                headers[kv.group(1)] = kv.group(2).strip()
            else:
                self.rows.append((lineno, line))
        required = {"units": UNITS_VALUE}
        if convention:
            required["convention"] = CONVENTION_VALUE
        for key, expected in required.items():
            got = headers.get(key)
            if got is None:
                raise FileFormatError(self.path, None,
                                      f"missing required header '{key}={expected}'")
            if got != expected:
                raise FileFormatError(
                    self.path, None,
                    f"header mismatch: {key}={got!r}, this toolkit requires "
                    f"{key}={expected!r} (no silent reinterpretation)")

    def section(self, name: str):
        if name not in self.sections:
            raise FileFormatError(self.path, None, f"missing required section [{name}]")
        return self.sections[name][1]


def _float_rows(path, rows, width, what, *, names=0, sep=None) -> tuple:
    """(line numbers, name fields, numbers) of (line number, text) rows: each
    text split on `sep` (None: whitespace) into `names` text fields and then
    `width` finite numbers. The name fields are a list of one tuple per row,
    the numbers one (rows, width) array, which numpy parses in one call (it
    takes each field as float() does) and which is tested finite at once. A
    file at fault is read again row by row, for the fault met first. There
    must be at least one row."""
    if not rows:
        raise FileFormatError(path, None, f"no {what} rows found")
    fields = [line.split(sep) for _, line in rows]
    values = None
    if all(len(row) == names + width for row in fields):
        try:
            values = np.array([row[names:] for row in fields], dtype=float)
        except ValueError:
            pass
    if values is None or not np.all(np.isfinite(values)):
        values = np.array([_numbers(path, lineno, row, names, width, what)
                           for (lineno, _), row in zip(rows, fields)])
    return [lineno for lineno, _ in rows], [tuple(row[:names]) for row in fields], values


def _numbers(path, lineno, fields, names, width, what) -> list[float]:
    """The numbers of one row of _float_rows, or its first fault."""
    if len(fields) != names + width:
        raise FileFormatError(path, lineno, f"{what} row needs {names + width} "
                              f"fields, got {len(fields)}")
    values = []
    for tok in fields[names:]:
        try:
            v = float(tok)
        except ValueError:
            raise FileFormatError(path, lineno, f"bad number {tok!r}") from None
        if not math.isfinite(v):
            raise FileFormatError(path, lineno, f"non-finite value {tok!r}")
        values.append(v)
    return values


def _build(path, make, *args):
    """make(*args), a ValidationError from it reported as a fault of the file."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise FileFormatError(path, None, str(exc)) from exc


def _check_rows(path, linenos, checks) -> None:
    """Raise FileFormatError at the first of `linenos` whose row fails a test,
    with the message of the first test that row fails: the fault that reading
    the rows one at a time would meet first. Each test is a pair (mask of the
    failing rows, message of failing row i), in the order they run on a row."""
    first = [int(np.argmax(failed)) if failed.any() else len(linenos)
             for failed, _ in checks]
    row = min(first)
    if row < len(linenos):
        raise FileFormatError(path, linenos[row], checks[first.index(row)][1](row))


def _rotations(q):
    """Rotations (N, 3, 3) of a stack of (w, x, y, z) quaternion fields (N, 4),
    and the test of their norms, which must be 1 to QUAT_NORM_TOL (see
    _check_rows). A quaternion unit to 1e-12, as every writer here writes one,
    is used as written; any other is first divided by its norm."""
    # per row the dot product of np.linalg.norm(q[i]), bit for bit; a norm
    # that overflows is inf, and fails the test
    with np.errstate(over="ignore"):
        norm = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0, 0]
    off = np.abs(norm - 1.0)
    bad = off > QUAT_NORM_TOL
    # a failing row becomes the identity, so that none overflows or divides by 0
    scale = np.where(bad | (off <= 1e-12), 1.0, norm)
    q = np.where(bad[:, None], (1.0, 0.0, 0.0, 0.0), q / scale[:, None])
    return quat_to_matrix(q), (bad, lambda i: f"quaternion norm {norm[i]:.8f} deviates "
                               f"from 1 by more than {QUAT_NORM_TOL:g}")


def _poses(path, linenos, values, count=1) -> list[list[Pose]]:
    """The poses of `_float_rows` numbers that are `count` pose fields
    (qw qx qy qz tx ty tz) per row, one list per field. Every row is tested
    before any pose is built; a row's fields are tested in order, the
    quaternion of each before its rotation."""
    fields = [values[:, 7 * k:7 * k + 7] for k in range(count)]
    checks, rotations = [], []
    for v in fields:
        R, norm_check = _rotations(v[:, :4])
        checks += [norm_check, *_rotation_checks(R)]
        rotations.append(R)
    _check_rows(path, linenos, checks)
    return [[_trusted_pose(R, t) for R, t in zip(Rs, v[:, 4:])]
            for Rs, v in zip(rotations, fields)]


# ---------------------------------------------------------------------------
# Pose and point lists, marker boards, hand-eye views, correspondences


def save_pose_list(path, poses, comment: str = "") -> None:
    _write_text(path, "pose-list", [_row(_pose_values(p)) for p in poses],
                comment=comment, convention=True, columns="qw qx qy qz tx ty tz")


def load_pose_list(path) -> list[Pose]:
    linenos, _, values = _float_rows(path, _Scanner(path, convention=True).rows, 7, "pose")
    return _poses(path, linenos, values)[0]


def save_point_list(path, points, comment: str = "") -> None:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    _write_text(path, "point-list", [_row(p) for p in pts], comment=comment,
                columns="x y z")


def _points(path, rows) -> np.ndarray:
    return _float_rows(path, rows, 3, "point")[2]


def load_point_list(path) -> np.ndarray:
    return _points(path, _Scanner(path).rows)


def save_marker_board(path, board: MarkerBoard) -> None:
    _write_text(path, "marker-board", sections=[
        ("board_points", [_row(p) for p in board.board_points]),
        ("measured_points", [_row(p) for p in board.measured_points])])


def load_marker_board(path) -> MarkerBoard:
    from .handeye import MarkerBoard

    sc = _Scanner(path, sections=_BOARD_SECTIONS)
    return _build(path, MarkerBoard, _points(path, sc.section("board_points")),
                  _points(path, sc.section("measured_points")))


def save_views(path, views) -> None:
    _write_text(path, "handeye-views",
                [_row((*_pose_values(v.ee_pose), *_pose_values(v.marker_in_cam)))
                 for v in views],
                convention=True,
                columns="ee(qw qx qy qz tx ty tz) marker_in_cam(qw qx qy qz tx ty tz)")


def load_views(path) -> list[HandEyeView]:
    from .handeye import HandEyeView

    linenos, _, values = _float_rows(path, _Scanner(path, convention=True).rows, 14, "view")
    ee_poses, markers = _poses(path, linenos, values, 2)
    return [HandEyeView(ee, marker) for ee, marker in zip(ee_poses, markers)]


def save_correspondences(path, c: Correspondences) -> None:
    _write_text(path, "correspondences",
                [_row((*m, *q)) for m, q in zip(c.measured, c.model)],
                columns="measured(x y z) model(x y z)")


def load_correspondences(path) -> Correspondences:
    from .registration import Correspondences

    values = _float_rows(path, _Scanner(path).rows, 6, "correspondence")[2]
    return _build(path, Correspondences, values[:, :3], values[:, 3:])


# ---------------------------------------------------------------------------
# Scenes


def save_scene(path, scene: SceneConfig) -> None:
    cameras = [_row(_pose_values(cam.cam_to_ee), [_check_field(cam.name, None)])
               for cam in scene.cameras]
    objects = [_row(_pose_values(obj.pose), [_check_field(obj.name, None),
                                             _check_field(obj.mesh_ref, None)])
               for obj in scene.objects]
    trajectories = [(f"trajectory {_check_field(traj.name, None)}",
                     [_row(_pose_values(p)) for p in traj.poses])
                    for traj in scene.trajectories]
    if len({name for name, _ in trajectories}) < len(trajectories):
        raise ValidationError("trajectory names repeat; a scene file holds one "
                              "[trajectory <name>] section per name")
    _write_text(path, "scene", convention=True,
                sections=[("cameras", cameras), ("objects", objects), *trajectories])


def load_scene(path) -> SceneConfig:
    from .simulate import Camera, SceneConfig, SceneObject, Trajectory

    sc = _Scanner(path, convention=True, sections=_SCENE_SECTIONS)
    linenos, names, values = _float_rows(path, sc.section("cameras"), 7, "camera", names=1)
    cameras = [Camera(name, pose)
               for (name,), pose in zip(names, _poses(path, linenos, values)[0])]
    linenos, names, values = _float_rows(path, sc.section("objects"), 7, "object", names=2)
    objects = [SceneObject(name, mesh_ref, pose)
               for (name, mesh_ref), pose in zip(names, _poses(path, linenos, values)[0])]
    trajectories = []
    for sec_name, (_, rows) in sc.sections.items():
        traj_name = _SCENE_SECTIONS.fullmatch(sec_name).group(1)
        if traj_name is None:
            continue
        linenos, _, values = _float_rows(path, rows, 7, f"[{sec_name}] pose")
        trajectories.append(Trajectory(traj_name, tuple(_poses(path, linenos, values)[0])))
    return _build(path, SceneConfig, objects, cameras, trajectories)


# ---------------------------------------------------------------------------
# Oriented-box detection CSV

PRED_HEADER = "category,score,cx,cy,cz,ex,ey,ez,qw,qx,qy,qz"
GT_HEADER = "category,cx,cy,cz,ex,ey,ez,qw,qx,qy,qz"


def _box_columns(path, header, scored=False) -> tuple:
    """The columns of a detection CSV: the categories (a tuple of str), with
    `scored` the scores (N,), then the box centres (N, 3), half extents (N, 3)
    and rotations (N, 3, 3). The CSV may hold no rows. Every row is tested
    at once, in OrientedBox's order after the quaternion."""
    from .metrics import _extent_check

    lines = read_lines(path)
    if not lines:
        raise FileFormatError(path, None, f"missing CSV header {header!r}")
    lineno, first = lines[0]
    if first != header:
        raise FileFormatError(path, lineno,
                              f"bad CSV header; expected {header!r}, got {first!r}")
    lead = int(scored)
    width = lead + 10
    linenos, names, values = (_float_rows(path, lines[1:], width, "box", names=1, sep=",")
                              if lines[1:] else ([], [], np.empty((0, width))))
    half_extents = values[:, lead + 3:lead + 6]
    rotations, norm_check = _rotations(values[:, lead + 6:])
    _check_rows(path, linenos, [norm_check, _extent_check(half_extents),
                                *_rotation_checks(rotations, "box rotation")])
    scores = (values[:, 0],) if scored else ()
    return (tuple(row[0] for row in names), *scores, values[:, lead:lead + 3],
            half_extents, rotations)


def load_ground_truth_csv(path) -> tuple:
    """(categories, centres, half extents, rotations): see _box_columns."""
    return _box_columns(path, GT_HEADER)


def load_predictions_csv(path) -> tuple:
    """(categories, scores, centres, half extents, rotations): see _box_columns."""
    return _box_columns(path, PRED_HEADER, scored=True)


def load_detection_set(gt_path, pred_path) -> DetectionSet:
    from .metrics import DetectionSet

    return DetectionSet(predictions=load_predictions_csv(pred_path),
                        ground_truth=load_ground_truth_csv(gt_path))


def _box_row(category, box: OrientedBox, *lead) -> str:
    return _row((*lead, *box.center, *box.half_extents, *matrix_to_quat(box.rotation)),
                [_check_field(category, ",")], ",")


def save_ground_truth_csv(path, ground_truth) -> None:
    rows = [_box_row(gt.category, gt.box) for gt in ground_truth]
    atomic_write_text(path, "\n".join([GT_HEADER, *rows]) + "\n")


def save_predictions_csv(path, detections) -> None:
    rows = [_box_row(det.category, det.box, det.score) for det in detections]
    atomic_write_text(path, "\n".join([PRED_HEADER, *rows]) + "\n")
