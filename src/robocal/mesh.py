"""Triangle meshes: OBJ subset IO, area-uniform sampling, procedural shapes.

Vertices are in millimetres. The OBJ reader handles the v/f subset only,
fan-triangulates polygon faces and drops degenerate triangles on load.
The procedural generators produce household-object stand-ins (chamfered
box, cup with handle, can, bottle, cutlery-like blade) used by the pose
recovery benchmark and the simulated scenes. Each is a closed surface whose
triangles are wound counter-clockwise seen from outside, so every face
normal points outward. Each generator validates its own parameters (finite
sizes > 0, a whole number >= 3 of segments) and raises ValidationError, so
a 'proc:' mesh reference gets the same checks as a direct call.
"""

from __future__ import annotations

import inspect
import math
import numbers
import warnings
from urllib.parse import parse_qsl, urlencode

import numpy as np

from .errors import FileFormatError, ValidationError
from .textio import read_lines

DEGENERATE_AREA_MM2 = 1e-12


class Mesh:
    __slots__ = ("vertices", "triangles", "name")

    def __init__(self, vertices, triangles, name: str = ""):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)  # (V, 3) mm
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)  # vertex ids
        self.name = name
        if not np.all(np.isfinite(self.vertices)):
            raise ValidationError(f"mesh {self.name!r} has non-finite vertices")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValidationError(
                f"mesh {self.name!r} has triangle indices outside "
                f"[0, {len(self.vertices) - 1}]")

    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def surface_area(self) -> float:
        return float(self.triangle_areas().sum())

    def bounds(self):
        """(min_corner, max_corner) of the vertex set."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def drop_degenerate_triangles(mesh: Mesh) -> tuple[Mesh, int]:
    """Remove triangles with area <= 1e-12 mm^2; returns (mesh, dropped)."""
    areas = mesh.triangle_areas()
    keep = areas > DEGENERATE_AREA_MM2
    dropped = int((~keep).sum())
    if dropped == 0:
        return mesh, 0
    return Mesh(mesh.vertices, mesh.triangles[keep], mesh.name), dropped


def _area_weights(mesh: Mesh) -> np.ndarray:
    """Triangle areas as shares of the surface area."""
    if len(mesh.triangles) == 0:
        raise ValidationError(f"mesh {mesh.name!r} has no triangles")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= DEGENERATE_AREA_MM2:
        raise ValidationError(f"mesh {mesh.name!r} has zero surface area")
    return areas / total


def surface_moment(mesh: Mesh) -> np.ndarray:
    """Exact second moment E[h h^T], h = [p; 1], of an area-uniform surface point p.

    Over one triangle with homogeneous vertices h_i the moment is
    (sum h_i h_i^T + (sum h_i)(sum h_i)^T) / 12; the surface's is the
    area-weighted mean of its triangles'. The 4x4 result holds the surface's
    mean point in its last column and row, and E[p p^T] in its top-left block.
    """
    weights = _area_weights(mesh)
    h = np.concatenate([mesh.vertices[mesh.triangles],
                        np.ones(mesh.triangles.shape + (1,))], axis=2)  # (F, 3, 4)
    s = h.sum(axis=1)
    return (np.einsum("f,fij,fik->jk", weights, h, h)
            + np.einsum("f,fj,fk->jk", weights, s, s)) / 12.0


def sample_surface(mesh: Mesh, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw points area-uniformly on the mesh surface.

    Triangles are picked proportionally to area, positions uniformly inside
    each triangle via the square-root barycentric trick.
    """
    if count <= 0:
        raise ValidationError(f"sample count must be positive, got {count}")
    weights = _area_weights(mesh)
    tri_idx = rng.choice(len(weights), size=count, p=weights)
    a = mesh.vertices[mesh.triangles[tri_idx, 0]]
    b = mesh.vertices[mesh.triangles[tri_idx, 1]]
    c = mesh.vertices[mesh.triangles[tri_idx, 2]]
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    u = 1.0 - r1
    v = r1 * (1.0 - r2)
    w = r1 * r2
    return u[:, None] * a + v[:, None] * b + w[:, None] * c


# ---------------------------------------------------------------------------
# OBJ subset reader / writer


def load_obj(path) -> Mesh:
    """Parse an OBJ file (v and f records; polygons fan-triangulated).

    Texture and normal records are ignored. Degenerate faces are dropped
    with a warning; malformed records raise FileFormatError with the line.
    """
    vertices: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, line in read_lines(path):
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise FileFormatError(path, lineno, "vertex needs 3 coordinates")
            try:
                vertices.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise FileFormatError(path, lineno,
                                      f"bad vertex coordinates {parts[1:4]}")
        elif tag == "f":
            idx = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise FileFormatError(path, lineno, f"bad face index {token!r}")
                if i <= 0:
                    raise FileFormatError(
                        path, lineno, f"face index {i} not positive (subset "
                        "reader supports 1-based positive indices only)")
                if i > len(vertices):
                    raise FileFormatError(
                        path, lineno,
                        f"face index {i} out of range: only {len(vertices)} "
                        "vertices read so far")
                idx.append(i - 1)
            if len(idx) < 3:
                raise FileFormatError(path, lineno, "face needs >= 3 vertices")
            for k in range(1, len(idx) - 1):
                faces.append((idx[0], idx[k], idx[k + 1]))
        # vt / vn / vp / o / g / s / usemtl / mtllib: ignored
    if not vertices:
        raise FileFormatError(path, None, "no vertices found")
    mesh = Mesh(np.array(vertices), np.array(faces, dtype=np.int64).reshape(-1, 3),
                name=str(path))
    mesh, dropped = drop_degenerate_triangles(mesh)
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} degenerate face(s)")
    return mesh


def save_obj(mesh: Mesh, path) -> None:
    # imported here: icp-bench loads this module and must not load fileio
    from .fileio import atomic_write_text

    lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n"
             for v in mesh.vertices]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n" for t in mesh.triangles]
    atomic_write_text(path, "".join(lines))


# ---------------------------------------------------------------------------
# Procedural stand-in shapes (all centered on the bounding-box midpoint)


def _recenter(vertices: np.ndarray) -> np.ndarray:
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    return vertices - (lo + hi) / 2.0


def _checked_segments(kind: str, segments, **sizes) -> int:
    """`segments` as an int, once every size is finite and > 0 and `segments`
    a whole number >= 3 (an int or an integral float); else ValidationError."""
    bad = [f"{k}={v!r}" for k, v in sizes.items() if not (v > 0 and math.isfinite(v))]
    if bad:
        raise ValidationError(f"{kind} needs finite sizes > 0, got {', '.join(bad)}")
    if isinstance(segments, numbers.Real) and float(segments).is_integer():
        segments = int(segments)
    if not (isinstance(segments, numbers.Integral) and segments >= 3):
        raise ValidationError(
            f"{kind} segments must be a whole number >= 3, got {segments!r}")
    return segments


# Chamfered-box vertex 3 * k + a is box corner k = 4 ix + 2 iy + iz (i = 0 on
# the minus side of its axis) moved inwards along axis a. The surface is one
# triangle per corner plus one octagon per box face, fanned from its first
# vertex; all are wound counter-clockwise seen from outside.
_BOX_CORNER_TRIANGLES = (
    (0, 2, 1), (3, 4, 5), (6, 7, 8), (9, 11, 10),
    (12, 13, 14), (15, 17, 16), (18, 20, 19), (21, 22, 23),
)
_BOX_OCTAGONS = (
    (5, 4, 10, 11, 8, 7, 1, 2),  # -x
    (14, 13, 19, 20, 23, 22, 16, 17),  # +x
    (2, 0, 12, 14, 17, 15, 3, 5),  # -y
    (11, 9, 21, 23, 20, 18, 6, 8),  # +y
    (7, 6, 18, 19, 13, 12, 0, 1),  # -z
    (4, 3, 15, 16, 22, 21, 9, 10),  # +z
)
_BOX_TRIANGLES = _BOX_CORNER_TRIANGLES + tuple(
    (face[0], face[i], face[i + 1]) for face in _BOX_OCTAGONS for i in range(1, 7))


def chamfered_box(width=60.0, depth=40.0, height=30.0, chamfer=4.0) -> Mesh:
    """Box with chamfered corners: 8 corner triangles and 6 octagonal faces.

    The chamfer is capped at 0.4 of the smallest side; chamfer 0 gives a plain
    box (its zero-area triangles are dropped).
    """
    if not (min(width, depth, height) > 0 and chamfer >= 0
            and all(map(math.isfinite, (width, depth, height, chamfer)))):
        raise ValidationError(
            f"box needs finite positive sides and a finite non-negative chamfer, got "
            f"{width:g} x {depth:g} x {height:g}, chamfer {chamfer:g}")
    c = min(chamfer, 0.4 * min(width, depth, height))
    pts = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                corner = np.array([sx * width / 2, sy * depth / 2, sz * height / 2])
                for axis in range(3):
                    p = corner.copy()
                    p[axis] -= np.sign(p[axis]) * c
                    pts.append(p)
    mesh = Mesh(_recenter(np.array(pts)), np.array(_BOX_TRIANGLES, dtype=np.int64),
                name=f"box{width:g}x{depth:g}x{height:g}")
    return drop_degenerate_triangles(mesh)[0]


def _strips(rows, closed=True) -> np.ndarray:
    """Two triangles per quad between consecutive rows of a vertex-index grid.

    Quad k between rows lo and hi gives (lo[k], lo[k+1], hi[k+1]) and
    (lo[k], hi[k+1], hi[k]), quad by quad. Both are counter-clockwise seen
    from the side where k runs left to right and lo lies below hi. `closed`
    adds the quad from each row's last column back to its first.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lo, hi = rows[:-1], rows[1:]
    if closed:
        lo2, hi2 = np.roll(lo, -1, axis=1), np.roll(hi, -1, axis=1)
    else:
        lo, hi, lo2, hi2 = lo[:, :-1], hi[:, :-1], lo[:, 1:], hi[:, 1:]
    return np.stack([lo, lo2, hi2, lo, hi2, hi], axis=-1).reshape(-1, 3)


def _fan(center, ring) -> np.ndarray:
    """Triangles (center, ring[k], ring[k+1]) closing a ring around `center`."""
    ring = np.asarray(ring, dtype=np.int64)
    return np.column_stack([np.full(len(ring), center), ring, np.roll(ring, -1)])


def _capped_rings(rings: np.ndarray, first_center, last_center):
    """(vertices, triangles) of (R, S, 3) rings joined by strips and capped by
    fans around the two centres; the first cap is wound against the rings."""
    count, segments = rings.shape[:2]
    grid = np.arange(count * segments).reshape(count, segments)
    vertices = np.vstack([rings.reshape(-1, 3), first_center, last_center])
    triangles = np.vstack([_strips(grid),
                           _fan(grid.size, grid[0])[:, [0, 2, 1]],
                           _fan(grid.size + 1, grid[-1])])
    return vertices, triangles


def _revolve(profile_r, profile_z, segments):
    """(vertices, triangles) of a closed surface of revolution about z."""
    r = np.asarray(profile_r, dtype=float)[:, None]
    z = np.asarray(profile_z, dtype=float)
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    rings = np.stack([r * np.cos(ang), r * np.sin(ang),
                      np.repeat(z[:, None], segments, axis=1)], axis=-1)
    return _capped_rings(rings, [0.0, 0.0, z[0]], [0.0, 0.0, z[-1]])


def _tube(path_points, radius, flat_radius, segments):
    """(vertices, triangles) of a closed tube swept along a polyline; its strap-like
    elliptic cross-section has `radius` in the sweep plane, `flat_radius` across it."""
    path = np.asarray(path_points, dtype=float)
    tangents = np.vstack([path[1] - path[0], path[2:] - path[:-2], path[-1] - path[-2]])
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    rings = []
    for point, tangent in zip(path, tangents):
        tangent = tangent / np.linalg.norm(tangent)
        helper = np.array([0.0, 1.0, 0.0])
        if abs(np.dot(helper, tangent)) > 0.9:
            helper = np.array([1.0, 0.0, 0.0])
        u = np.cross(tangent, helper)
        u /= np.linalg.norm(u)
        v = np.cross(tangent, u)
        rings.append(point + radius * np.outer(np.cos(ang), u)
                     + flat_radius * np.outer(np.sin(ang), v))
    return _capped_rings(np.array(rings), rings[0].mean(axis=0), rings[-1].mean(axis=0))


def cup(radius_bottom=28.0, radius_top=38.0, height=90.0, segments=48) -> Mesh:
    """Tapered cup body with a side handle.

    The body cross-section is slightly elliptical and the handle is a solid
    tube; both break the rotational symmetry that would otherwise leave the
    yaw of a pure surface of revolution unobservable to registration.
    """
    segments = _checked_segments("cup", segments, radius_bottom=radius_bottom,
                                 radius_top=radius_top, height=height)
    z = np.linspace(0.0, height, 8)
    r = radius_bottom + (radius_top - radius_bottom) * (z / height) ** 0.9
    body, body_triangles = _revolve(r, z, segments)
    body[:, 0] *= 1.12
    # handle: arc-shaped tube in the x-z plane attached to the +x side
    r_attach = 1.12 * (radius_bottom + radius_top) / 2.0
    arc = np.linspace(-0.60 * np.pi, 0.60 * np.pi, 12)
    handle_radius = 0.36 * height
    path = np.column_stack([
        r_attach + handle_radius * np.cos(arc) * 0.85,
        np.zeros_like(arc),
        height / 2.0 + handle_radius * np.sin(arc),
    ])
    handle, handle_triangles = _tube(path, 11.0, 4.5, 14)
    return Mesh(_recenter(np.vstack([body, handle])),
                np.vstack([body_triangles, handle_triangles + len(body)]),
                name=f"cup{radius_top:g}x{height:g}")


def can(radius=33.0, height=110.0, segments=48) -> Mesh:
    segments = _checked_segments("can", segments, radius=radius, height=height)
    vertices, triangles = _revolve([radius, radius], [0.0, height], segments)
    return Mesh(_recenter(vertices), triangles, name=f"can{radius:g}x{height:g}")


def bottle(radius=30.0, neck_radius=12.0, height=200.0, segments=48) -> Mesh:
    segments = _checked_segments("bottle", segments, radius=radius,
                                 neck_radius=neck_radius, height=height)
    z = np.array([0.0, 0.55, 0.62, 0.70, 0.76, 1.0]) * height
    r = np.array([radius, radius, 0.8 * radius + 0.2 * neck_radius,
                  0.35 * radius + 0.65 * neck_radius, neck_radius, neck_radius])
    vertices, triangles = _revolve(r, z, segments)
    return Mesh(_recenter(vertices), triangles, name=f"bottle{radius:g}x{height:g}")


# cutlery silhouette: fractional x positions and widths (handle into bowl),
# interpolated smoothly; the continuously varying width means every rim
# point constrains the position along the long axis
_BLADE_PROFILE_X = np.array([0.0, 0.04, 0.12, 0.22, 0.32, 0.42, 0.52, 0.62,
                             0.74, 0.86, 0.95, 1.0])
_BLADE_PROFILE_W = np.array([0.12, 0.42, 0.30, 0.52, 0.34, 0.56, 0.40, 0.92,
                             1.0, 0.88, 0.50, 0.10])


def blade(length=170.0, width=26.0, thickness=6.0, segments=40) -> Mesh:
    """Cutlery-like elongated blade: extruded tapered silhouette.

    The outline runs counter-clockwise seen from +z: out along the -y rim,
    back along the +y rim. Its bottom copy and top copy are joined by the
    side wall, and each copy is closed by a strip between the two rims at
    matching x stations.
    """
    segments = _checked_segments("blade", segments, length=length, width=width,
                                 thickness=thickness)
    xs = np.linspace(0.0, 1.0, segments)
    half_w = np.interp(xs, _BLADE_PROFILE_X, _BLADE_PROFILE_W) * width / 2.0
    outline = np.vstack([np.column_stack([xs * length, -half_w]),
                         np.column_stack([xs * length, half_w])[::-1]])
    n = len(outline)
    vertices = np.vstack([np.column_stack([outline, np.full(n, z)])
                          for z in (-thickness / 2.0, thickness / 2.0)])
    ring = np.arange(n)
    minus_rim, plus_rim = ring[:segments], ring[::-1][:segments]  # both x increasing
    triangles = np.vstack([_strips([minus_rim + n, plus_rim + n], closed=False),  # top
                           _strips([plus_rim, minus_rim], closed=False),  # bottom
                           _strips([ring, ring + n])])  # side wall
    return Mesh(_recenter(vertices), triangles, name=f"blade{length:g}x{width:g}")


PROCEDURAL_KINDS = {
    "box": chamfered_box,
    "cup": cup,
    "can": can,
    "bottle": bottle,
    "blade": blade,
}


def _procedural_factory(kind: str):
    try:
        return PROCEDURAL_KINDS[kind]
    except KeyError:
        raise ValidationError(f"unknown procedural mesh kind {kind!r}; "
                              f"known: {sorted(PROCEDURAL_KINDS)}") from None


def procedural_ref(kind: str, **params) -> str:
    """Build a 'proc:kind?a=1&b=2' mesh reference string."""
    _procedural_factory(kind)
    if not params:
        return f"proc:{kind}"
    query = urlencode({k: repr(float(v)) for k, v in sorted(params.items())})
    return f"proc:{kind}?{query}"


def resolve_mesh(ref: str, base_dir=None) -> Mesh:
    """Resolve a mesh reference: 'proc:...' generator or an OBJ path."""
    if ref.startswith("proc:"):
        spec = ref[len("proc:"):]
        kind, _, query = spec.partition("?")
        factory = _procedural_factory(kind)
        try:
            pairs = [(k, float(v)) for k, v in
                     parse_qsl(query, keep_blank_values=True, strict_parsing=True)]
        except ValueError:
            raise ValidationError(f"bad parameters in mesh reference {ref!r}")
        params = dict(pairs)
        if len(params) < len(pairs):
            raise ValidationError(f"repeated parameter in mesh reference {ref!r}")
        known = inspect.signature(factory).parameters
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ValidationError(f"unknown parameters {unknown} in mesh reference "
                                  f"{ref!r}; known: {sorted(known)}")
        return factory(**params)
    path = ref
    if base_dir is not None:
        import os
        if not os.path.isabs(ref):
            path = os.path.join(base_dir, ref)
    return load_obj(path)
