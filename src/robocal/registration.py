"""Object 6D pose annotation: keypoint initial pose plus ICP refinement.

The annotation flow mirrors the physical procedure: keypoints measured with
the calibrated tip are matched to picked model keypoints for an initial
pose, then sparse tip-measured surface points are registered to the exact
triangle surface of the model mesh by point-to-plane ICP (Chen & Medioni
1992, linearised as in Low 2004), halving any step that raises the rms.

The caller owns the surface: it builds one `SpatialIndex` per mesh and passes
it to every `icp_refine` against that mesh.

ICP matches the same slowly moving points again and again, so their candidates
are kept in a `SurfaceMatches`, a neighbour list with a skin (Verlet 1967):
per point, the anchor where its candidate triangles were last searched, with
the search bound widened by 2 s (s = `_SKIN_MM`). While a point lies within s
of its anchor its candidates are reused; only the points that moved farther
are searched again. This is exact. A point's distance to the surface, and to
any triangle, changes by at most its motion, so a winning triangle T at p has
d(p0, T) <= d(p, T) + s = d(p) + s <= d(p0) + 2 s, where p0 is the anchor. The
search at p0 keeps every triangle whose lower bounds (centroid sphere and
plane) lie within an upper bound on d(p0) plus the slack 2 s. T's lower bounds
are at most d(p0, T), so the search kept T, together with every triangle that
ties with it. The exact evaluation of a point depends on its own (point,
triangle) pairs only, and picks among them as `query` does, so the answers are
`query`'s bit for bit.

An ICP run is a step generator that yields the points it needs matched. One
driver advances a batch of runs against one surface in lockstep. It keeps one
`SurfaceMatches` over the points of the batch's unfinished runs, in run
order, and answers each round's pending matches with one `SpatialIndex.query`
on it: one candidate search over every point that left its skin, and one
evaluation per block. When runs finish, `SurfaceMatches.retain` drops their
points. A point's answer depends on its own pairs only, so each run gets the
bits it would get alone, and an extra run adds points to a round but no
numpy calls. `icp_refine` is that driver over a batch of one run, and
`recovery_benchmark` refines all trials of a mesh as one batch.

A round holds little arithmetic: in the recovery study, 25 points per run
and about a thousand (point, triangle) pairs in all. Its time goes to numpy
calls, each of which costs about a microsecond however small its arrays, so
the loop is written to make few of them: the closest-point pass gathers all
it reads about its triangles in one `take` and works on whole rows, the
candidate search fills one (points x triangles) array in place, and an ICP
run carries its pose as a rotation and a translation array. Poses are
validated where they enter, at the API (`Pose(...)`), and not inside the
loop, which builds one unchecked Pose per run, at its end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .geometry import (Pose, _Frozen, _is_whole, _rodrigues, _set_fields, _trusted_pose,
                       absolute_orientation, axis_angle, random_unit_vector,
                       rotation_distance)
from .mesh import Mesh, _triangle_geometry, blade, chamfered_box, cup, sample_surface

# Largest (points x triangles) block a surface query holds at once, 8 MB an array.
_QUERY_BLOCK = 1 << 20

# A point's cached candidates, searched with slack 2 * _SKIN_MM, stay exact
# while it lies within _SKIN_MM of where they were searched (module docstring).
_SKIN_MM = 0.5


class Correspondences(_Frozen):
    """Paired keypoints: measured (K, 3) mm in the robot base frame, model
    (K, 3) mm in the mesh frame."""

    __slots__ = ("measured", "model")

    def __init__(self, measured, model):
        measured = np.asarray(measured, dtype=float).reshape(-1, 3)
        model = np.asarray(model, dtype=float).reshape(-1, 3)
        if len(measured) != len(model):
            raise ValidationError(
                f"correspondence lists differ in length: {len(measured)} measured "
                f"vs {len(model)} model points")
        if len(measured) < 3:
            raise ValidationError(f"need >= 3 correspondences, got {len(measured)}")
        _set_fields(self, measured=measured, model=model)


def initial_pose(c: Correspondences) -> tuple[Pose, float]:
    """Initial object pose from manually picked keypoint correspondences."""
    return absolute_orientation(c.model, c.measured)


def pose_error(gt: Pose, est: Pose) -> tuple[float, float]:
    """(translation error mm, rotation error degrees) between two poses."""
    dt = float(np.linalg.norm(gt.translation - est.translation))
    dr = rotation_distance(gt.rotation, est.rotation)
    return dt, dr


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (M, 3) arrays."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


class SpatialIndex:
    """Exact closest-point queries on a triangle mesh's surface.

    Holds, per non-degenerate triangle of the mesh: its corner and edge
    vectors, unit normal, centroid (`points`, the culling keys) and the radius
    of the centroid-centred sphere around it. The surface is the model side of
    ICP, which never changes between refinements: build it once per mesh.
    """

    def __init__(self, mesh: Mesh):
        corners, ab, ac, normal, length, keep = _triangle_geometry(
            mesh.vertices, mesh.triangles)
        if not keep.any():
            raise ValidationError(f"cannot index mesh {mesh.name!r}: no triangles")
        corners, ab, ac = corners[keep], ab[keep], ac[keep]
        self.points = corners.mean(axis=1)  # centroids
        self.radii = np.linalg.norm(corners - self.points[:, None], axis=2).max(axis=1)
        self.corners = corners
        self.normals = normal[keep] / length[keep, None]
        # what `_closest` reads, one row per quantity and one column per
        # triangle, so that it gathers once and works on whole rows: the corner
        # a, the edges ab and ac, and the Gram entries ab.ab, ab.ac, ac.ac
        self._face_rows = np.vstack([corners[:, 0].T, ab.T, ac.T, _dot(ab, ab),
                                     _dot(ab, ac), _dot(ac, ac)])
        # the centroid and unit normal rows that `_candidates` gathers
        self._plane_rows = np.vstack([self.points.T, self.normals.T])
        self._sq_norms = _dot(self.points, self.points)
        self._extent = float(np.sqrt(self._sq_norms.max()))

    def _closest(self, p: np.ndarray, tri: np.ndarray) -> np.ndarray:
        """Closest point to each p[k] on triangle tri[k] (Ericson 2005, 5.1.5).

        With d1 = ab.ap and d2 = ac.ap, Ericson's vertex, edge and face tests
        reduce to expressions in d1, d2 and the triangle's fixed Gram entries.
        The result is a + s ab + t ac, with (s, t) set region by region; the
        regions are applied in reverse test order so that earlier tests win.
        """
        rows = np.take(self._face_rows, tri, axis=1)
        ax, ay, az, ux, uy, uz, vx, vy, vz, aa, bc, cc = rows
        apx, apy, apz = p[:, 0] - ax, p[:, 1] - ay, p[:, 2] - az
        d1 = ux * apx + uy * apy + uz * apz  # ab.ap, ab = (ux, uy, uz)
        d2 = vx * apx + vy * apy + vz * apz  # ac.ap, ac = (vx, vy, vz)
        vb = cc * d1 - bc * d2  # unnormalised barycentric weights of b and c
        vc = aa * d2 - bc * d1
        va = (aa * cc - bc * bc) - vb - vc
        d3, d4, d5, d6 = d1 - aa, d2 - bc, d1 - bc, d2 - cc
        with np.errstate(divide="ignore", invalid="ignore"):
            area = va + vb + vc
            s, t = vb / area, vc / area
            e = d4 - d3
            w = e / (e + (d5 - d6))
            regions = (  # (mask, s, t), last test first
                (va <= 0.0) & (d4 >= d3) & (d5 >= d6), 1.0 - w, w,  # edge bc
                (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0), 0.0, d2 / cc,  # edge ac
                (d6 >= 0.0) & (d5 <= d6), 0.0, 1.0,  # vertex c
                (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0), d1 / aa, 0.0,  # edge ab
                (d3 >= 0.0) & (d4 <= d3), 1.0, 0.0,  # vertex b
                (d1 <= 0.0) & (d2 <= 0.0), 0.0, 0.0,  # vertex a
            )
            for k in range(0, len(regions), 3):
                mask, rs, rt = regions[k:k + 3]
                s = np.where(mask, rs, s)
                t = np.where(mask, rt, t)
        near = np.empty((len(tri), 3))
        near[:, 0] = ax + s * ux + t * vx
        near[:, 1] = ay + s * uy + t * vy
        near[:, 2] = az + s * uz + t * vz
        return near

    def _candidates(self, p: np.ndarray, slack: float = 0.0):
        """Candidate (point, triangle) pairs of the points p, in (point,
        triangle) order, at least one per point.

        A centroid lies on its triangle, so the nearest centroid's distance
        bounds each point's answer from above. A triangle whose sphere or whose
        plane lies farther away than that bound plus `slack` cannot hold the
        closest point, now or after the point moves by up to slack / 2.
        Holds one dense (points x triangles) block of _QUERY_BLOCK at a time.
        """
        block = max(1, _QUERY_BLOCK // len(self.points))  # points per block
        rows, cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for lo in range(0, len(p), block):
            q = p[lo:lo + block]
            qq = _dot(q, q)
            # qq - 2 q.x + x.x, then its square root, in one array: a fresh
            # (points x triangles) temporary per step costs more than the step
            dist = q @ self.points.T
            dist *= 2.0
            np.subtract(qq[:, None], dist, out=dist)
            dist += self._sq_norms
            np.maximum(dist, 0.0, out=dist)
            centroid_dist = np.sqrt(dist, out=dist)
            # the matmul loses up to ~3e-8 * scale of the centroid distance
            bound = centroid_dist.min(axis=1) + 1e-7 * (np.sqrt(qq) + self._extent) + slack
            centroid_dist -= self.radii  # now the distance to each sphere
            r, c = np.divmod(np.flatnonzero(centroid_dist <= bound[:, None]),
                             len(self.points))
            cx, cy, cz, nx, ny, nz = np.take(self._plane_rows, c, axis=1)
            qr = q[r]
            plane_dist = (qr[:, 0] - cx) * nx + (qr[:, 1] - cy) * ny + (qr[:, 2] - cz) * nz
            keep = np.abs(plane_dist) <= bound[r]
            rows.append(r[keep] + lo)
            cols.append(c[keep])
        return np.concatenate(rows), np.concatenate(cols)

    def _evaluate(self, p: np.ndarray, r: np.ndarray, c: np.ndarray):
        """(distance, closest point, triangle id) of each point p[i] over its
        pairs (r == i, c), given in (point, triangle) order, at least one per
        point: the exact closest point of every pair, in one pass, then per
        point the nearest pair, ties to the lowest id."""
        pr = p[r]
        near = self._closest(pr, c)
        gap = pr - near
        d = np.sqrt(_dot(gap, gap))
        starts = np.searchsorted(r, np.arange(len(p)))  # each point's first pair
        nearest = np.minimum.reduceat(d, starts)
        hits = np.flatnonzero(d == nearest[r])
        best = hits[np.searchsorted(hits, starts)]  # first hit: lowest id
        return d[best], near[best], c[best]

    def query(self, queries, matches=None):
        """For each query point: (distance, closest surface point, triangle id).

        Exact: the candidate search drops only triangles that cannot hold the
        closest point, and the closest point is computed exactly on every
        (point, triangle) pair left. Ties go to the lowest id. The candidate
        pairs come from one search, or with `matches`, a `SurfaceMatches` with
        one point per query, from that cache; each block of points is then
        evaluated in turn over its slice of the pairs. A point's candidates
        depend on that point alone, so the answers are the same either way.
        """
        p = np.asarray(queries, dtype=float).reshape(-1, 3)
        if not np.isfinite(p).all():  # a finite point keeps at least one pair
            raise ValidationError("surface query points must be finite")
        if matches is None:
            rows, cols = self._candidates(p)
        elif matches.size != len(p):
            raise ValidationError(f"surface matches cover {matches.size} points, "
                                  f"the query has {len(p)}")
        else:
            rows, cols = matches.pairs(self, p)
        block = max(1, _QUERY_BLOCK // len(self.points))  # points per block
        # no points, no answers
        dist, closest, tri = [np.empty(0)], [np.empty((0, 3))], [np.empty(0, np.int64)]
        for lo in range(0, len(p), block):
            q = p[lo:lo + block]
            # the rows ascend: the block's pairs are one slice
            start, stop = np.searchsorted(rows, (lo, lo + len(q)))
            d, near, c = self._evaluate(q, rows[start:stop] - lo, cols[start:stop])
            dist.append(d)
            closest.append(near)
            tri.append(c)
        return np.concatenate(dist), np.concatenate(closest), np.concatenate(tri)


class SurfaceMatches:
    """Candidate triangles of a moving point set, kept between queries.

    Per point: the anchor where its candidates were last searched, with slack
    2 * _SKIN_MM, and the candidates as (point, triangle) pairs in (point,
    triangle) order. A point within _SKIN_MM of its anchor reuses them; one
    that moved farther is searched again (see the module docstring). The
    cache belongs to one surface; its points may be any that are queried
    together, such as those of all the runs of an ICP batch.
    """

    def __init__(self, size: int):
        self.size = size
        self._anchors = np.full((size, 3), np.nan)  # never searched: all stale
        self._rows = np.empty(0, np.int64)
        self._cols = np.empty(0, np.int64)

    def pairs(self, surface: SpatialIndex, points: np.ndarray):
        """Candidate pairs of `points` (finite, one per cached point) on `surface`."""
        moved = points - self._anchors
        far = ~(np.sqrt(_dot(moved, moved)) <= _SKIN_MM)  # NaN anchor: far
        if far.any():
            stale = np.flatnonzero(far)
            r, c = surface._candidates(points[stale], 2.0 * _SKIN_MM)
            kept = ~far[self._rows]
            rows = np.concatenate([self._rows[kept], stale[r]])
            cols = np.concatenate([self._cols[kept], c])
            order = np.argsort(rows, kind="stable")  # keeps each point's ids ascending
            self._rows, self._cols = rows[order], cols[order]
            self._anchors[stale] = points[stale]
        return self._rows, self._cols

    def retain(self, keep: np.ndarray) -> None:
        """Keep the points where the boolean mask `keep` is true, in order,
        with their anchors and candidates; their rows are renumbered."""
        kept = keep[self._rows]
        self._rows = (np.cumsum(keep) - 1)[self._rows[kept]]
        self._cols = self._cols[kept]
        self._anchors = self._anchors[keep]
        self.size = len(self._anchors)


class IcpParams(_Frozen):
    """ICP stopping rules: the tolerances are the convergence thresholds on
    the pose delta, and pairs beyond max_correspondence_mm are dropped."""

    __slots__ = ("max_iterations", "tol_translation_mm", "tol_rotation_deg",
                 "max_correspondence_mm")

    def __init__(self, max_iterations: int = 100, tol_translation_mm: float = 1e-4,
                 tol_rotation_deg: float = 1e-4, max_correspondence_mm: float = math.inf):
        values = {"max_iterations": max_iterations,
                  "tol_translation_mm": tol_translation_mm,
                  "tol_rotation_deg": tol_rotation_deg,
                  "max_correspondence_mm": max_correspondence_mm}
        for name, value in values.items():
            if not value > 0:  # NaN fails too
                raise ValidationError(f"IcpParams.{name} must be positive, got {value}")
        if not _is_whole(max_iterations):
            raise ValidationError(f"IcpParams.max_iterations must be a whole number, "
                                  f"got {max_iterations!r}")
        _set_fields(self, **values)


# the values of IcpResult.stop_reason, the two converged ones first
STOP_REASONS = ("tolerance", "tolerance_after_halving", "max_iterations", "too_few_matches")


class IcpResult:
    """The refined pose, the iterations run, and why the run stopped.

    `stop_reason` is one of `tolerance` (a full step moved the
    pose less than the thresholds), `tolerance_after_halving` (the step that
    did had been halved after raising the rms: the run stalled rather than
    settled), `max_iterations` or `too_few_matches` (fewer than 3 pairs within
    max_correspondence_mm). `converged` is read off it: true for the first two.
    """

    __slots__ = ("pose", "iterations", "stop_reason", "rms_distance", "rms_history")

    def __init__(self, pose: Pose, iterations: int, stop_reason: str, rms_distance: float,
                 rms_history: list[float] | None = None):
        self.pose = pose
        self.iterations = iterations
        self.stop_reason = stop_reason
        self.rms_distance = rms_distance  # final rms point-to-surface distance, mm
        self.rms_history = [] if rms_history is None else rms_history

    @property
    def converged(self) -> bool:
        return _converged(self.stop_reason)


def _converged(stop_reason: str) -> bool:
    """Whether an ICP run that stopped for `stop_reason` converged."""
    return stop_reason.startswith("tolerance")


def _small_rotation(omega: np.ndarray) -> np.ndarray:
    """The rotation of a point-to-plane step's omega (radians)."""
    angle = math.sqrt(omega.dot(omega))
    if angle == 0.0:
        return np.eye(3)
    return _rodrigues(omega / angle, math.degrees(angle))


def icp_refine(measured_points, surface: SpatialIndex, initial: Pose,
               params: IcpParams = IcpParams()) -> IcpResult:
    """Refine a model-to-base pose by point-to-plane ICP on the exact surface.

    Measured points live in the base frame; `surface` indexes the model mesh
    in the model frame and may be reused for any number of refinements.
    Each iteration matches the measured points, pulled back into the model
    frame (l), to their closest surface points (q) with triangle normals n,
    and solves [l x n, n] [omega; v] = -(l - q).n by least squares for the
    small motion delta that moves l onto the tangent planes; the pose becomes
    pose o inv(delta). The objective is the rms of the distances clipped at
    max_correspondence_mm (pairs beyond it are left out of the solve): a step
    that raises it is taken back and halved, so `rms_history` never rises.
    Stops when the pose delta drops below the thresholds or after
    max_iterations (then the result is returned with converged=False rather
    than raising); `stop_reason` says which.
    """
    measured = np.asarray(measured_points, dtype=float).reshape(-1, 3)
    if len(measured) < 3:
        raise ValidationError(f"ICP needs >= 3 measured points, got {len(measured)}")
    return _refine_in_lockstep(surface, [(measured, initial)], params)[0]


def _icp_steps(measured: np.ndarray, surface: SpatialIndex, initial: Pose,
               params: IcpParams):
    """The loop of `icp_refine` as a generator: it yields the model-frame
    points it needs matched, is sent back their (dist, closest, tri) from
    `surface`, and returns its IcpResult.

    The pose is carried as its rotation R and translation t, and each of
    `invert`, `compose`, `apply` and `pose_error` is written out on them with
    the operands it would see, down to their memory layout (a transpose stays
    a view), so the results keep their bits; one Pose is built at the end.
    """
    cap = params.max_correspondence_mm

    def match(R, t):
        local = measured @ R + -(R.T @ t)  # apply(invert(pose), measured)
        dist, closest, tri = yield local
        rms = float(np.sqrt(np.mean(np.minimum(dist, cap) ** 2)))
        return local, dist, closest, tri, rms

    R, t = initial.rotation, initial.translation
    local, dist, closest, tri, rms = yield from match(R, t)
    rms_history: list[float] = []
    stop = "max_iterations"
    iterations = 0
    step = None

    for iterations in range(1, params.max_iterations + 1):
        if step is None:  # fresh matches: solve for the full step
            keep = dist <= cap
            if np.count_nonzero(keep) < 3:
                stop = "too_few_matches"
                break
            rms_history.append(rms)
            halved = False
            l, q, n = local[keep], closest[keep], surface.normals[tri[keep]]
            A = np.empty((len(l), 6))  # [l x n, n], the cross product as np.cross forms it
            (l0, l1, l2), (n0, n1, n2) = l.T, n.T
            A[:, 0] = l1 * n2 - l2 * n1
            A[:, 1] = l2 * n0 - l0 * n2
            A[:, 2] = l0 * n1 - l1 * n0
            A[:, 3:] = n
            step, *_ = np.linalg.lstsq(A, -_dot(l - q, n), rcond=None)
        # trial = compose(pose, invert(delta)), delta the small motion of step
        Rd = _small_rotation(step[:3]).T
        R_trial = R @ Rd
        t_trial = R @ -(Rd @ step[3:]) + t
        dt = t - t_trial  # pose_error(pose, trial)
        if (math.sqrt(dt.dot(dt)) < params.tol_translation_mm
                and rotation_distance(R, R_trial) < params.tol_rotation_deg):
            R, t = R_trial, t_trial
            stop = "tolerance_after_halving" if halved else "tolerance"
            break
        matches = yield from match(R_trial, t_trial)
        if matches[-1] > rms:
            step = step / 2.0  # keep the matches, retry a shorter step
            halved = True
            continue
        R, t, (local, dist, closest, tri, rms), step = R_trial, t_trial, matches, None

    if _converged(stop):  # the last, accepted step moved the pose past its matches
        dist = (yield from match(R, t))[1]
    return IcpResult(pose=_trusted_pose(R, t), iterations=iterations, stop_reason=stop,
                     rms_distance=float(np.sqrt(np.mean(dist ** 2))),
                     rms_history=rms_history)


def _refine_in_lockstep(surface: SpatialIndex, runs, params: IcpParams) -> list[IcpResult]:
    """ICP for each (measured, initial) of `runs` on one surface, in lockstep.

    Each round matches the points of every unfinished run, in run order, with
    one `surface.query` on one SurfaceMatches over those points, and advances
    every run by one match; the points of the runs that finish leave the
    cache. Runs do not interact: each result is what the run would give alone.
    """
    steps = [_icp_steps(measured, surface, initial, params) for measured, initial in runs]
    cache = SurfaceMatches(sum(len(measured) for measured, _ in runs))
    results: list[IcpResult] = [None] * len(runs)
    pending = [(k, next(step)) for k, step in enumerate(steps)]
    while pending:
        dist, closest, tri = surface.query(
            np.concatenate([points for _, points in pending]), cache)
        waiting, keep, lo = [], np.ones(cache.size, bool), 0
        for k, points in pending:
            hi = lo + len(points)
            answer = dist[lo:hi], closest[lo:hi], tri[lo:hi]
            try:
                waiting.append((k, steps[k].send(answer)))
            except StopIteration as done:
                results[k] = done.value
                keep[lo:hi] = False
            lo = hi
        if len(waiting) < len(pending):
            cache.retain(keep)
        pending = waiting
    return results


# ---------------------------------------------------------------------------
# Pose recovery benchmark (the annotation-refinement accuracy protocol)

# annotation accuracy of the original physical pipeline, for comparison
REFERENCE_TRANSLATION_MM = 0.20
REFERENCE_ROTATION_DEG = 0.38

# the protocol: tip touches per mesh, their noise, and the start pose's error
RECOVERY_POINTS = 25
RECOVERY_POINT_NOISE_MM = 0.2  # per axis, uniform
RECOVERY_MAX_TRANSLATION_MM = 2.0  # per axis, uniform
RECOVERY_MAX_ROTATION_DEG = 4.0


def _fields_equal(a, b):
    """Value equality of two records of one class: equal attributes, in order."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    return ([getattr(a, name) for name in a.__slots__]
            == [getattr(b, name) for name in b.__slots__])


class RecoveryCase:
    """One recovery trial: its pose error, and its ICP run's iterations, stop
    reason and final rms point-to-surface distance (see IcpResult)."""

    __slots__ = ("mesh_name", "translation_error_mm", "rotation_error_deg", "iterations",
                 "stop_reason", "rms_distance")
    __eq__ = _fields_equal

    def __init__(self, mesh_name: str, translation_error_mm: float,
                 rotation_error_deg: float, iterations: int, stop_reason: str,
                 rms_distance: float):
        self.mesh_name = mesh_name
        self.translation_error_mm = translation_error_mm
        self.rotation_error_deg = rotation_error_deg
        self.iterations = iterations
        self.stop_reason = stop_reason
        self.rms_distance = rms_distance  # mm

    @property
    def converged(self) -> bool:
        return _converged(self.stop_reason)


class RecoveryReport:
    """The recovery trials; their mean errors are read off the cases."""

    __slots__ = ("cases",)
    __eq__ = _fields_equal

    def __init__(self, cases: list[RecoveryCase]):
        self.cases = cases

    @property
    def mean_translation_mm(self) -> float:
        return float(np.mean([c.translation_error_mm for c in self.cases]))

    @property
    def mean_rotation_deg(self) -> float:
        return float(np.mean([c.rotation_error_deg for c in self.cases]))


def _farthest_point_subset(points: np.ndarray, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """`count` of `points` by farthest-point selection from a random start:
    each next pick is the point farthest from all picked so far, ties to the
    lowest index. The distances are formed per coordinate column, in the
    order `np.linalg.norm(axis=1)` sums them."""
    x, y, z = points.T.copy()
    chosen = [int(rng.integers(len(points)))]
    dist = np.full(len(points), np.inf)
    for _ in range(count - 1):
        k = chosen[-1]
        d = x - x[k]
        d *= d
        e = y - y[k]
        e *= e
        d += e
        e = z - z[k]
        e *= e
        d += e
        np.minimum(dist, np.sqrt(d, out=d), out=dist)
        chosen.append(int(np.argmax(dist)))
    return points[chosen]


def sample_patch(mesh: Mesh, count: int, rng: np.random.Generator,
                 patch_radius_mm: float) -> np.ndarray:
    """Pick `count` well-spread surface points on a localized surface patch.

    Mirrors tip measurements taken on a specific area of the object: a seed
    point is drawn on the surface, candidates within the patch radius are
    kept (falling back to the nearest candidates if the patch is sparse),
    and the measured points are spread over the patch by farthest-point
    selection, the way an annotator distributes tip touches.
    """
    candidates = sample_surface(mesh, max(count * 40, 2000), rng)
    seed = candidates[int(rng.integers(len(candidates)))]
    d = np.linalg.norm(candidates - seed, axis=1)
    inside = np.flatnonzero(d <= patch_radius_mm)
    if len(inside) < count:
        inside = np.argsort(d)[:max(count, 64)]
    return _farthest_point_subset(candidates[inside], count, rng)


def random_pose_perturbation(rng: np.random.Generator,
                             max_translation_mm: float,
                             max_rotation_deg: float) -> Pose:
    """Uniform per-axis translation plus a rotation of uniform angle about a
    uniform random axis."""
    t = rng.uniform(-max_translation_mm, max_translation_mm, size=3)
    R = axis_angle(random_unit_vector(rng), rng.uniform(0.0, max_rotation_deg))
    return Pose(R, t)


def recovery_benchmark(rng: np.random.Generator,
                       meshes: list[Mesh] | None = None,
                       perturbations_per_mesh: int = 5,
                       patch_fraction: float = 0.85) -> RecoveryReport:
    """Measure how well ICP recovers a perturbed pose from noisy patch points.

    Per mesh: pick RECOVERY_POINTS once on a surface patch whose radius is
    patch_fraction of the bounding-box diagonal; per trial: add per-axis
    uniform noise of +-RECOVERY_POINT_NOISE_MM to them, perturb the true
    (identity) pose by +-RECOVERY_MAX_TRANSLATION_MM per axis and up to
    RECOVERY_MAX_ROTATION_DEG about a random axis, run ICP with the default
    IcpParams from the perturbed pose and record the remaining pose error.
    One surface index is built per mesh; all of its trials are drawn first,
    in the order above, and then refined together in lockstep, each exactly
    as `icp_refine` would refine it alone.
    """
    if not (math.isfinite(patch_fraction) and patch_fraction > 0):
        raise ValidationError(f"patch fraction must be finite and positive, got "
                              f"{patch_fraction}")
    if not (_is_whole(perturbations_per_mesh) and perturbations_per_mesh >= 1):
        raise ValidationError(f"need a whole number >= 1 of perturbations per mesh, "
                              f"got {perturbations_per_mesh!r}")
    if meshes is None:
        meshes = [chamfered_box(), cup(), blade()]
    if not meshes:
        raise ValidationError("recovery benchmark needs at least one mesh")
    cases = []
    for mesh in meshes:
        surface = SpatialIndex(mesh)
        lo, hi = mesh.bounds()
        patch_radius = patch_fraction * float(np.linalg.norm(hi - lo))
        patch = sample_patch(mesh, RECOVERY_POINTS, rng, patch_radius)
        runs = []
        for _ in range(perturbations_per_mesh):
            noise = rng.uniform(-RECOVERY_POINT_NOISE_MM, RECOVERY_POINT_NOISE_MM,
                                size=patch.shape)
            measured = patch + noise
            start = random_pose_perturbation(rng, RECOVERY_MAX_TRANSLATION_MM,
                                             RECOVERY_MAX_ROTATION_DEG)
            runs.append((measured, start))
        for result in _refine_in_lockstep(surface, runs, IcpParams()):
            dt, dr = pose_error(Pose.identity(), result.pose)
            cases.append(RecoveryCase(mesh.name, dt, dr, result.iterations,
                                      result.stop_reason, result.rms_distance))
    return RecoveryReport(cases)
