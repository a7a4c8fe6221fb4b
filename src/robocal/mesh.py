"""Triangle meshes: OBJ subset IO, area-uniform sampling, procedural shapes.

Vertices are in millimetres. The OBJ reader handles the v/f subset only,
fan-triangulates polygon faces and drops degenerate triangles on load.
The procedural generators produce household-object stand-ins (chamfered
box, cup with handle, can, bottle, cutlery-like blade) used by the pose
recovery benchmark and the simulated scenes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlencode

import numpy as np
from scipy.spatial import ConvexHull

from .errors import FileFormatError, ValidationError
from .textio import read_lines

DEGENERATE_AREA_MM2 = 1e-12


@dataclass
class Mesh:
    vertices: np.ndarray  # (V, 3) mm
    triangles: np.ndarray  # (F, 3) vertex indices
    name: str = ""

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
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
    from .fileio import atomic_write_text  # fileio imports this module

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


def _hull_mesh(points: np.ndarray, name: str) -> Mesh:
    hull = ConvexHull(points)
    return Mesh(_recenter(points), hull.simplices.astype(np.int64), name=name)


def chamfered_box(width=60.0, depth=40.0, height=30.0, chamfer=4.0) -> Mesh:
    """Box with chamfered corners (convex hull of inset corner triples)."""
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
    return _hull_mesh(np.array(pts), f"box{width:g}x{depth:g}x{height:g}")


def _revolve(profile_r, profile_z, segments, name, cap_bottom=True, cap_top=True):
    """Triangulated surface of revolution about z from a radius profile."""
    profile_r = np.asarray(profile_r, dtype=float)
    profile_z = np.asarray(profile_z, dtype=float)
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    rings = []
    verts = []
    for r, z in zip(profile_r, profile_z):
        ring = np.arange(len(verts), len(verts) + segments)
        verts.extend(np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                      np.full(segments, z)]))
        rings.append(ring)
    tris = []
    for lo, hi in zip(rings[:-1], rings[1:]):
        for k in range(segments):
            k2 = (k + 1) % segments
            tris.append((lo[k], lo[k2], hi[k2]))
            tris.append((lo[k], hi[k2], hi[k]))
    if cap_bottom:
        center = len(verts)
        verts.append(np.array([0.0, 0.0, profile_z[0]]))
        ring = rings[0]
        for k in range(segments):
            tris.append((center, ring[(k + 1) % segments], ring[k]))
    if cap_top:
        center = len(verts)
        verts.append(np.array([0.0, 0.0, profile_z[-1]]))
        ring = rings[-1]
        for k in range(segments):
            tris.append((center, ring[k], ring[(k + 1) % segments]))
    return Mesh(np.array(verts), np.array(tris, dtype=np.int64), name=name)


def _tube(path_points, radius, segments, name, flat_radius=None):
    """Tube swept along a polyline (used for the cup handle).

    With flat_radius the cross-section is an ellipse: `radius` in the
    sweep plane and `flat_radius` across it (a strap-like profile).
    """
    if flat_radius is None:
        flat_radius = radius
    path = np.asarray(path_points, dtype=float)
    n = len(path)
    verts = []
    rings = []
    for i in range(n):
        if i == 0:
            tangent = path[1] - path[0]
        elif i == n - 1:
            tangent = path[-1] - path[-2]
        else:
            tangent = path[i + 1] - path[i - 1]
        tangent = tangent / np.linalg.norm(tangent)
        helper = np.array([0.0, 1.0, 0.0])
        if abs(np.dot(helper, tangent)) > 0.9:
            helper = np.array([1.0, 0.0, 0.0])
        u = np.cross(tangent, helper)
        u /= np.linalg.norm(u)
        v = np.cross(tangent, u)
        ring = np.arange(len(verts), len(verts) + segments)
        ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
        verts.extend(path[i] + radius * np.outer(np.cos(ang), u)
                     + flat_radius * np.outer(np.sin(ang), v))
        rings.append(ring)
    tris = []
    for lo, hi in zip(rings[:-1], rings[1:]):
        for k in range(segments):
            k2 = (k + 1) % segments
            tris.append((lo[k], lo[k2], hi[k2]))
            tris.append((lo[k], hi[k2], hi[k]))
    # end caps (fans)
    for ring, flip in ((rings[0], True), (rings[-1], False)):
        center = len(verts)
        verts.append(np.asarray(verts)[ring].mean(axis=0))
        for k in range(segments):
            k2 = (k + 1) % segments
            tris.append((center, ring[k2], ring[k]) if flip else (center, ring[k], ring[k2]))
    return Mesh(np.array(verts), np.array(tris, dtype=np.int64), name=name)


def _merge(meshes, name) -> Mesh:
    verts = []
    tris = []
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        offset += len(m.vertices)
    return Mesh(np.vstack(verts), np.vstack(tris), name=name)


def cup(radius_bottom=28.0, radius_top=38.0, height=90.0, segments=48) -> Mesh:
    """Tapered cup body with a side handle.

    The body cross-section is slightly elliptical and the handle is a solid
    tube; both break the rotational symmetry that would otherwise leave the
    yaw of a pure surface of revolution unobservable to registration.
    """
    z = np.linspace(0.0, height, 8)
    r = radius_bottom + (radius_top - radius_bottom) * (z / height) ** 0.9
    body = _revolve(r, z, segments, "cup-body")
    body.vertices[:, 0] *= 1.12
    # handle: arc-shaped tube in the x-z plane attached to the +x side
    r_attach = 1.12 * (radius_bottom + radius_top) / 2.0
    arc = np.linspace(-0.60 * np.pi, 0.60 * np.pi, 12)
    handle_radius = 0.36 * height
    path = np.column_stack([
        r_attach + handle_radius * np.cos(arc) * 0.85,
        np.zeros_like(arc),
        height / 2.0 + handle_radius * np.sin(arc),
    ])
    handle = _tube(path, 11.0, 14, "cup-handle", flat_radius=4.5)
    merged = _merge([body, handle], f"cup{radius_top:g}x{height:g}")
    merged.vertices = _recenter(merged.vertices)
    return merged


def can(radius=33.0, height=110.0, segments=48) -> Mesh:
    mesh = _revolve([radius, radius], [0.0, height], segments,
                    f"can{radius:g}x{height:g}")
    mesh.vertices = _recenter(mesh.vertices)
    return mesh


def bottle(radius=30.0, neck_radius=12.0, height=200.0, segments=48) -> Mesh:
    z = np.array([0.0, 0.55, 0.62, 0.70, 0.76, 1.0]) * height
    r = np.array([radius, radius, 0.8 * radius + 0.2 * neck_radius,
                  0.35 * radius + 0.65 * neck_radius, neck_radius, neck_radius])
    mesh = _revolve(r, z, segments, f"bottle{radius:g}x{height:g}")
    mesh.vertices = _recenter(mesh.vertices)
    return mesh


# cutlery silhouette: fractional x positions and widths (handle into bowl),
# interpolated smoothly; the continuously varying width means every rim
# point constrains the position along the long axis
_BLADE_PROFILE_X = np.array([0.0, 0.04, 0.12, 0.22, 0.32, 0.42, 0.52, 0.62,
                             0.74, 0.86, 0.95, 1.0])
_BLADE_PROFILE_W = np.array([0.12, 0.42, 0.30, 0.52, 0.34, 0.56, 0.40, 0.92,
                             1.0, 0.88, 0.50, 0.10])


def blade(length=170.0, width=26.0, thickness=6.0, segments=40) -> Mesh:
    """Cutlery-like elongated blade: extruded tapered silhouette."""
    xs = np.linspace(0.0, 1.0, segments)
    half_w = np.interp(xs, _BLADE_PROFILE_X, _BLADE_PROFILE_W) * width / 2.0
    top_edge = np.column_stack([xs * length, half_w])
    bottom_edge = np.column_stack([xs * length, -half_w])[::-1]
    outline = np.vstack([top_edge, bottom_edge])
    n = len(outline)
    top = np.column_stack([outline, np.full(n, thickness / 2.0)])
    bot = np.column_stack([outline, np.full(n, -thickness / 2.0)])
    verts = np.vstack([top, bot])
    tris = []
    # caps: strip pairing the +y and -y rims at matching x stations
    for k in range(segments - 1):
        a, b = k, k + 1  # +y rim, x increasing
        c, d = n - 1 - k, n - 2 - k  # -y rim at the same stations
        for base in (0, n):  # top face then bottom face
            tris.append((base + a, base + b, base + d))
            tris.append((base + a, base + d, base + c))
    for k in range(n):  # side wall around the outline
        k2 = (k + 1) % n
        tris.append((k, n + k, n + k2))
        tris.append((k, n + k2, k2))
    mesh = Mesh(_recenter(verts), np.array(tris, dtype=np.int64),
                name=f"blade{length:g}x{width:g}")
    cleaned, _ = drop_degenerate_triangles(mesh)
    return cleaned


PROCEDURAL_KINDS = {
    "box": chamfered_box,
    "cup": cup,
    "can": can,
    "bottle": bottle,
    "blade": blade,
}


def procedural_ref(kind: str, **params) -> str:
    """Build a 'proc:kind?a=1&b=2' mesh reference string."""
    if kind not in PROCEDURAL_KINDS:
        raise ValidationError(f"unknown procedural mesh kind {kind!r}; "
                              f"known: {sorted(PROCEDURAL_KINDS)}")
    if not params:
        return f"proc:{kind}"
    query = urlencode({k: repr(float(v)) for k, v in sorted(params.items())})
    return f"proc:{kind}?{query}"


def resolve_mesh(ref: str, base_dir=None) -> Mesh:
    """Resolve a mesh reference: 'proc:...' generator or an OBJ path."""
    if ref.startswith("proc:"):
        spec = ref[len("proc:"):]
        kind, _, query = spec.partition("?")
        if kind not in PROCEDURAL_KINDS:
            raise ValidationError(f"unknown procedural mesh kind {kind!r}; "
                                  f"known: {sorted(PROCEDURAL_KINDS)}")
        try:
            params = {k: float(v) for k, v in parse_qsl(query)} if query else {}
        except ValueError:
            raise ValidationError(f"bad parameters in mesh reference {ref!r}")
        return PROCEDURAL_KINDS[kind](**params)
    path = ref
    if base_dir is not None:
        import os
        if not os.path.isabs(ref):
            path = os.path.join(base_dir, ref)
    return load_obj(path)
