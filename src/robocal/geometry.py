"""SE(3) poses, rotation helpers, the closed-form point-set fit and seeded
random streams.

Conventions used throughout the toolkit:

- rotations are 3x3 orthonormal matrices with determinant +1
- translations are 3-vectors in millimetres
- a pose maps points as ``p -> R @ p + t``
- angles at the API surface are degrees; radians stay internal
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DegenerateGeometryError, ValidationError

# Construction-time orthonormality guard. Internal operations keep rotations
# far tighter than this; the loose bound is for user-supplied matrices.
_ORTHO_TOL = 1e-6

# Points are treated as collinear when the span of the centered set collapses
# below this relative to its largest singular value.
_COLLINEAR_RCOND = 1e-9


def _is_whole(value) -> bool:
    """Whether `value` is a whole number: an integer, but not a bool, which
    Python counts as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_vec3(v, name="vector"):
    arr = np.array(v, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"{name} must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def _as_unit_vec3(v, name="vector"):
    arr = _as_vec3(v, name)
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"{name} must be unit length (|{name}| = {norm:.12f})")
    return arr


def _as_rotation(R, name="rotation"):
    arr = np.array(R, dtype=float)
    if arr.shape != (3, 3):
        raise ValidationError(f"{name} must have shape (3, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    for failed, message in _rotation_checks(arr[None], name):
        if failed[0]:
            raise ValidationError(message(0))
    return arr


def _rotation_checks(R, name="rotation"):
    """The tests that a stack of finite matrices (N, 3, 3) are rotations, in
    the order they run: orthonormal to _ORTHO_TOL, then determinant +1.

    Each test is a pair (mask of the failing matrices, message of failing
    matrix i), so a reader can test all of its rows at once and still report
    the first fault of one row.
    """
    err = np.abs(R @ np.swapaxes(R, -1, -2) - np.eye(3)).max(axis=(-2, -1))
    det_err = np.abs(np.linalg.det(R) - 1.0)
    return [(err > _ORTHO_TOL,
             lambda i: f"{name} is not orthonormal (max deviation {err[i]:.3g})"),
            (det_err > _ORTHO_TOL,
             lambda i: f"{name} has determinant != +1 (reflection?)")]


class _Frozen:
    """Base of the immutable records. Their __init__ sets each attribute once,
    through object.__setattr__ (see _set_fields); assigning or deleting one
    later raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _set_fields(record: _Frozen, **fields) -> None:
    """Set the attributes of a record under construction."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)


class Pose(_Frozen):
    """Rigid transform: 3x3 rotation plus translation in mm.

    Immutable; the wrapped arrays are copied and marked read-only so poses
    are safe to share across threads.

    ``Pose(...)`` validates its input: a rotation that is not orthonormal
    with determinant +1, or a non-finite translation, raises
    ValidationError. It is the constructor for poses read from files or
    passed in by callers. Poses the program computes from valid poses
    (``compose``, ``invert``, fitted and perturbed poses) are built by the
    unchecked ``_trusted_pose`` instead, so a chain of transforms is checked
    once, where its factors enter, and not at every link.

    The validation runs in ``__post_init__``, once per ``Pose(...)``; the
    benchmark's tracer wraps that method by name to count validated poses.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        self.__post_init__(rotation, translation)

    def __post_init__(self, rotation, translation):
        _store(self, _as_rotation(rotation), _as_vec3(translation, "translation"))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValidationError(f"homogeneous matrix must be 4x4, got {m.shape}")
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValidationError(
                f"homogeneous matrix must have bottom row [0 0 0 1], got {m[3]}")
        return cls(m[:3, :3], m[:3, 3])

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __repr__(self):
        q = matrix_to_quat(self.rotation)
        t = self.translation
        return (f"Pose(q=[{q[0]:.6f} {q[1]:.6f} {q[2]:.6f} {q[3]:.6f}], "
                f"t=[{t[0]:.3f} {t[1]:.3f} {t[2]:.3f}] mm)")


def _store(pose: Pose, R: np.ndarray, t: np.ndarray) -> None:
    R.flags.writeable = False
    t.flags.writeable = False
    object.__setattr__(pose, "rotation", R)
    object.__setattr__(pose, "translation", t)


def _trusted_pose(R, t) -> Pose:
    """Pose from a rotation and translation the program computed itself.

    Skips Pose's validation; the caller guarantees R is a rotation (to
    rounding) and t a finite 3-vector. The arrays are still copied and made
    read-only, like Pose's.
    """
    pose = object.__new__(Pose)
    _store(pose, np.array(R, dtype=float), np.array(t, dtype=float))
    return pose


def compose(a: Pose, b: Pose, *rest: Pose) -> Pose:
    """Compose poses; the result applies the rightmost pose first.

    compose(a, b)(x) == a(b(x)).
    """
    for nxt in (b,) + rest:
        a = _trusted_pose(a.rotation @ nxt.rotation,
                          a.rotation @ nxt.translation + a.translation)
    return a


def invert(a: Pose) -> Pose:
    """Inverse pose (R^T, -R^T t)."""
    Rt = a.rotation.T
    return _trusted_pose(Rt, -(Rt @ a.translation))


def apply(a: Pose, points):
    """Map one point (3,) or a stack (N, 3) through the pose."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return a.rotation @ pts + a.translation
    return pts @ a.rotation.T + a.translation


def _kabsch(source: np.ndarray, target: np.ndarray):
    """Least-squares rotation+translation mapping source onto target (no scale)."""
    src_c = source.mean(axis=0)
    dst_c = target.mean(axis=0)
    H = (source - src_c).T @ (target - dst_c)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = dst_c - R @ src_c
    return R, t


def absolute_orientation(model_points, measured_points) -> tuple[Pose, float]:
    """Closed-form rigid transform mapping model points onto measured points.

    Returns (pose, residual_rms_mm). Raises DegenerateGeometryError for
    fewer than 3 points or collinear model points, where the rotation is
    not unique.
    """
    model = np.asarray(model_points, dtype=float).reshape(-1, 3)
    measured = np.asarray(measured_points, dtype=float).reshape(-1, 3)
    if len(model) != len(measured):
        raise ValidationError(
            f"point lists differ in length: {len(model)} model vs "
            f"{len(measured)} measured")
    if len(model) < 3:
        raise DegenerateGeometryError(
            f"absolute orientation needs >= 3 points, got {len(model)}")
    centered = model - model.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= _COLLINEAR_RCOND * max(sv[0], 1.0):
        raise DegenerateGeometryError(
            "model points are collinear; rotation about the line is free")
    pose = _trusted_pose(*_kabsch(model, measured))
    residual = apply(pose, model) - measured
    rms = float(np.sqrt(np.mean(np.sum(residual ** 2, axis=1))))
    return pose, rms


def axis_angle(axis, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis by an angle in degrees."""
    return _rodrigues(_as_unit_vec3(axis, "axis"), angle_deg)


def _rodrigues(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """`axis_angle` about an axis the caller knows to be a finite unit 3-vector."""
    x, y, z = axis.tolist()
    theta = np.radians(angle_deg)
    K = np.array([[0.0, -z, y],
                  [z, 0.0, -x],
                  [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def rotation_distance(a, b) -> float:
    """Geodesic angle between two rotations, in degrees, in [0, 180].

    Computed as ``atan2(|vee(M - M^T)| / 2, (tr M - 1) / 2)`` with
    ``M = Ra^T Rb``: the sine and cosine of the angle are both read off M, so
    the result is exactly 0.0 for equal rotations and keeps full precision
    near 0 and 180 degrees, where ``arccos`` of the trace alone loses it.
    """
    M = np.asarray(a, dtype=float).T @ np.asarray(b, dtype=float)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M.tolist()
    s = math.hypot(m21 - m12, m02 - m20, m10 - m01) / 2.0
    c = (m00 + m11 + m22 - 1.0) / 2.0
    return math.degrees(math.atan2(s, c))


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to rotation matrix; a stack of quaternions
    (..., 4) gives a stack of matrices (..., 3, 3), each entry computed as for
    its quaternion alone."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    m = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))


def matrix_to_quat(R) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z).

    The sign is canonicalized (first non-zero component positive) so equal
    rotations serialize identically.
    """
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    q = q / np.linalg.norm(q)
    for component in q:
        if component != 0.0:
            if component < 0.0:
                q = -q
            break
    return q


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator; distinct streams from one seed are independent.

    Identical (seed, stream) reproduces the identical sequence on every
    platform, which is what makes simulation reports byte-stable. A seed
    must be a whole number >= 0 (ValidationError if not).
    """
    if not (_is_whole(seed) and seed >= 0):
        raise ValidationError(f"seed must be a whole number >= 0, got {seed!r}")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere (normalized Gaussian draw)."""
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (normalized 4-D Gaussian quaternion)."""
    while True:
        q = rng.standard_normal(4)
        norm = np.linalg.norm(q)
        if norm > 1e-12:
            return quat_to_matrix(q / norm)
