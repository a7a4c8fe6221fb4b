"""A fixed program, independent of robocal, that measures the machine's speed.

The benchmark runs it as a child process in every repetition, beside the
workload's commands. On a shared machine other tenants slow everything down,
by up to a third, for seconds to minutes at a time; the reference slows down
with the commands, so dividing by its time removes most of that drift from
the end-to-end metrics (see `measure_children` in `run.py`). Its work resembles a robocal command's: interpreter start, the
imports of numpy and scipy.spatial, small-array arithmetic, a kd-tree and
convex hulls. It reads and writes no files, and nothing in the repository
changes it.
"""

import numpy as np
from scipy.spatial import ConvexHull, cKDTree


def main() -> None:
    rng = np.random.default_rng(0)
    points = rng.standard_normal((2000, 3))
    total = 0.0
    for k in range(6000):  # pose-like arithmetic on small arrays
        q = rng.standard_normal(4)
        w, x, y, z = q / np.linalg.norm(q)
        R = np.array([[w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
                      [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
                      [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z]])
        moved = points[:200] @ R.T + k
        total += float(np.sqrt(((moved - points[:200]) ** 2).sum(axis=1).mean()))
    tree = cKDTree(rng.standard_normal((200_000, 3)))
    total += float(tree.query(points)[0].sum())
    for k in range(400):
        total += ConvexHull(points[5 * k:5 * k + 20]).volume
    if not np.isfinite(total):
        raise SystemExit("reference computation is not finite")


if __name__ == "__main__":
    main()
