"""robocal: robot-arm calibration and 6D pose annotation toolkit.

Subpackages cover tool-tip pivot calibration, marker-point hand-eye
calibration, keypoint+ICP object pose annotation, the simulated
annotation-quality evaluation and oriented 3D-IoU benchmark metrics.
"""

__version__ = "0.1.0"

from .errors import (DegenerateGeometryError, FileFormatError,
                     InconsistentMeasurementError, RobocalError,
                     SearchFailureError, ValidationError)
from .geometry import (Pose, apply, axis_angle, compose, invert, make_rng,
                       matrix_to_quat, quat_to_matrix, random_rotation,
                       random_unit_vector, rotation_distance)

__all__ = [
    "__version__",
    "Pose", "apply", "axis_angle", "compose", "invert", "make_rng",
    "matrix_to_quat", "quat_to_matrix", "random_rotation",
    "random_unit_vector", "rotation_distance",
    "RobocalError", "ValidationError", "FileFormatError",
    "DegenerateGeometryError", "InconsistentMeasurementError",
    "SearchFailureError",
]
