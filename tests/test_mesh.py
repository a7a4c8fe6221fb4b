import itertools
import re
from collections import Counter

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from robocal.errors import FileFormatError, ValidationError
from robocal.geometry import make_rng
from robocal.mesh import (Mesh, blade, bottle, can, chamfered_box, cup,
                          drop_degenerate_triangles, load_obj, procedural_ref,
                          resolve_mesh, sample_surface, save_obj, surface_moment)

CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 3 2
f 1 4 3
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 2 3 7
f 2 7 6
f 3 4 8
f 3 8 7
f 4 1 5
f 4 5 8
"""

QUAD_CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 4 3 2
f 5 6 7 8
f 1 2 6 5
f 2 3 7 6
f 3 4 8 7
f 4 1 5 8
"""


def unit_cube() -> Mesh:
    verts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                     dtype=float)
    tris = np.array([
        [0, 2, 6], [0, 6, 4],
        [1, 7, 3], [1, 5, 7],
        [0, 4, 5], [0, 5, 1],
        [2, 3, 7], [2, 7, 6],
        [0, 1, 3], [0, 3, 2],
        [4, 6, 7], [4, 7, 5],
    ])
    return Mesh(verts, tris, name="cube")


class TestSampling:
    def test_cube_face_fractions(self):
        mesh = unit_cube()
        pts = sample_surface(mesh, 60_000, make_rng(1))
        for axis in range(3):
            for value in (0.0, 1.0):
                frac = np.isclose(pts[:, axis], value).mean()
                assert frac == pytest.approx(1.0 / 6.0, abs=0.01)

    def test_single_triangle_barycentric(self):
        tri = Mesh(np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10.0, 0]]),
                   np.array([[0, 1, 2]]))
        pts = sample_surface(tri, 500, make_rng(2))
        assert np.allclose(pts[:, 2], 0.0)
        assert np.all(pts[:, 0] >= -1e-12)
        assert np.all(pts[:, 1] >= -1e-12)
        assert np.all(pts[:, 0] + pts[:, 1] <= 10.0 + 1e-9)

    def test_zero_area_mesh_rejected(self):
        degenerate = Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
                          np.array([[0, 1, 2]]))
        cleaned, dropped = drop_degenerate_triangles(degenerate)
        assert dropped == 1
        with pytest.raises(ValidationError):
            sample_surface(cleaned, 10, make_rng(3))

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError):
            sample_surface(unit_cube(), 0, make_rng(4))


class TestSurfaceMoment:
    def test_unit_cube_is_analytic(self):
        # E[x] = 1/2, E[x^2] = 7/18, E[xy] = 1/4 on the cube's surface
        expected = np.full((4, 4), 0.25)
        np.fill_diagonal(expected, 7.0 / 18.0)
        expected[3, :] = expected[:, 3] = 0.5
        expected[3, 3] = 1.0
        np.testing.assert_allclose(surface_moment(unit_cube()), expected,
                                   rtol=0.0, atol=1e-12)

    def test_meshes_without_area_rejected(self):
        flat = Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
                    np.array([[0, 1, 2]]))
        with pytest.raises(ValidationError, match="zero surface area"):
            surface_moment(flat)
        with pytest.raises(ValidationError, match="no triangles"):
            surface_moment(Mesh(np.zeros((3, 3)), np.zeros((0, 3))))


class TestObjIO:
    def test_triangle_cube(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        mesh = load_obj(path)
        assert len(mesh.vertices) == 8
        assert len(mesh.triangles) == 12

    def test_quad_faces_fan_triangulated(self, tmp_path):
        path = tmp_path / "quadcube.obj"
        path.write_text(QUAD_CUBE_OBJ)
        mesh = load_obj(path)
        assert len(mesh.triangles) == 12  # 6 quads split into 2 each

    def test_out_of_range_index_cites_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text(CUBE_OBJ.replace("f 4 5 8", "f 1 2 99"))
        with pytest.raises(FileFormatError, match=r"bad\.obj:20"):
            load_obj(path)

    def test_malformed_vertex_cites_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 1 2 x\n")
        with pytest.raises(FileFormatError, match=r"bad\.obj:1"):
            load_obj(path)

    def test_degenerate_faces_dropped_with_warning(self, tmp_path):
        path = tmp_path / "degen.obj"
        path.write_text(CUBE_OBJ + "f 1 1 2\n")
        with pytest.warns(UserWarning, match="degenerate"):
            mesh = load_obj(path)
        assert len(mesh.triangles) == 12

    def test_save_load_round_trip(self, tmp_path):
        mesh = chamfered_box()
        path = tmp_path / "box.obj"
        save_obj(mesh, path)
        loaded = load_obj(path)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.triangles, mesh.triangles)

    def test_texture_and_normal_indices_ignored(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\n"
                        "f 1/1/1 2/1/1 3/1/1\n")
        mesh = load_obj(path)
        assert len(mesh.triangles) == 1


class TestProceduralShapes:
    @pytest.mark.parametrize("factory", [chamfered_box, cup, can, bottle, blade])
    def test_valid_and_centered(self, factory):
        mesh = factory()
        assert mesh.surface_area() > 0
        lo, hi = mesh.bounds()
        np.testing.assert_allclose((lo + hi) / 2.0, np.zeros(3), atol=1e-9)
        areas = mesh.triangle_areas()
        assert np.all(areas > 0)

    def test_reference_round_trip(self):
        ref = procedural_ref("box", width=50, depth=30, height=20, chamfer=2)
        mesh = resolve_mesh(ref)
        lo, hi = mesh.bounds()
        np.testing.assert_allclose(hi - lo, [50.0, 30.0, 20.0], atol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="sphere"):
            resolve_mesh("proc:sphere?radius=10")
        with pytest.raises(ValidationError):
            procedural_ref("sphere", radius=10)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError, match=r"\['radius'\].*'chamfer'"):
            resolve_mesh("proc:box?radius=3")

    def test_mesh_index_validation(self):
        with pytest.raises(ValidationError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


def signed_volume(mesh: Mesh) -> float:
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum()) / 6.0


def assert_closed_and_outward(mesh: Mesh) -> None:
    """Each directed edge appears once and so does its reverse; the signed
    volume is positive, so the faces point outward."""
    edges = Counter((int(t[i]), int(t[(i + 1) % 3]))
                    for t in mesh.triangles for i in range(3))
    assert set(edges.values()) == {1}
    assert all(edges[(j, i)] == 1 for i, j in edges)
    assert signed_volume(mesh) > 0


BOX_SIZES = [(60.0, 40.0, 30.0, 4.0), (50.0, 30.0, 20.0, 2.0), (45.0, 33.0, 58.0, 4.7)]


class TestChamferedBox:
    @pytest.mark.parametrize("size", BOX_SIZES)
    def test_closed_and_consistently_wound(self, size):
        mesh = chamfered_box(*size)
        assert len(mesh.triangles) == 44
        assert_closed_and_outward(mesh)

    @pytest.mark.parametrize("size", BOX_SIZES)
    def test_signed_volume_is_outward(self, size):
        width, depth, height, chamfer = size
        expected = width * depth * height - 8.0 * chamfer ** 3 / 6.0
        assert signed_volume(chamfered_box(*size)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("size", BOX_SIZES)
    def test_surface_moment_matches_hull_triangulation(self, size):
        mesh = chamfered_box(*size)
        hull = Mesh(mesh.vertices, ConvexHull(mesh.vertices).simplices)
        expected = surface_moment(hull)
        # the off-diagonal entries are 0 up to rounding: compare on the scale
        # of the largest entry
        np.testing.assert_allclose(surface_moment(mesh), expected, rtol=0.0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_vertices_are_inset_corner_triples(self):
        width, depth, height, chamfer = BOX_SIZES[0]
        expected = []
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            corner = np.array(signs) * [width / 2, depth / 2, height / 2]
            for axis in range(3):
                vertex = corner.copy()
                vertex[axis] -= signs[axis] * chamfer
                expected.append(vertex)
        np.testing.assert_array_equal(chamfered_box().vertices, np.array(expected))

    def test_zero_chamfer_is_a_plain_box(self):
        mesh = chamfered_box(60.0, 40.0, 30.0, 0.0)
        assert len(mesh.triangles) == 12
        assert signed_volume(mesh) == pytest.approx(60.0 * 40.0 * 30.0, rel=1e-12)

    @pytest.mark.parametrize("size", [(60.0, 0.0, 30.0, 4.0), (60.0, 40.0, 30.0, -1.0),
                                      (np.nan, 40.0, 30.0, 4.0), (60.0, np.inf, 30.0, 4.0),
                                      (60.0, 40.0, 30.0, np.nan), (60.0, 40.0, 30.0, np.inf)])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(ValidationError, match="box needs"):
            chamfered_box(*size)


# The parent design's loop-built generators: the reference that cup, can and
# bottle must match byte for byte.


def _reference_revolve(profile_r, profile_z, segments, name):
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
    center = len(verts)
    verts.append(np.array([0.0, 0.0, profile_z[0]]))
    ring = rings[0]
    for k in range(segments):
        tris.append((center, ring[(k + 1) % segments], ring[k]))
    center = len(verts)
    verts.append(np.array([0.0, 0.0, profile_z[-1]]))
    ring = rings[-1]
    for k in range(segments):
        tris.append((center, ring[k], ring[(k + 1) % segments]))
    return Mesh(np.array(verts), np.array(tris, dtype=np.int64), name=name)


def _reference_tube(path_points, radius, segments, name, flat_radius):
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
    for ring, flip in ((rings[0], True), (rings[-1], False)):
        center = len(verts)
        verts.append(np.asarray(verts)[ring].mean(axis=0))
        for k in range(segments):
            k2 = (k + 1) % segments
            tris.append((center, ring[k2], ring[k]) if flip else (center, ring[k], ring[k2]))
    return Mesh(np.array(verts), np.array(tris, dtype=np.int64), name=name)


def _reference_merge(meshes, name) -> Mesh:
    verts = []
    tris = []
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        offset += len(m.vertices)
    return Mesh(np.vstack(verts), np.vstack(tris), name=name)


def _recentered(mesh: Mesh) -> Mesh:
    lo, hi = mesh.bounds()
    return Mesh(mesh.vertices - (lo + hi) / 2.0, mesh.triangles, mesh.name)


def _reference_cup(radius_bottom=28.0, radius_top=38.0, height=90.0, segments=48):
    z = np.linspace(0.0, height, 8)
    r = radius_bottom + (radius_top - radius_bottom) * (z / height) ** 0.9
    body = _reference_revolve(r, z, segments, "cup-body")
    body = Mesh(body.vertices * [1.12, 1.0, 1.0], body.triangles, body.name)
    r_attach = 1.12 * (radius_bottom + radius_top) / 2.0
    arc = np.linspace(-0.60 * np.pi, 0.60 * np.pi, 12)
    handle_radius = 0.36 * height
    path = np.column_stack([
        r_attach + handle_radius * np.cos(arc) * 0.85,
        np.zeros_like(arc),
        height / 2.0 + handle_radius * np.sin(arc),
    ])
    handle = _reference_tube(path, 11.0, 14, "cup-handle", flat_radius=4.5)
    return _recentered(_reference_merge([body, handle], f"cup{radius_top:g}x{height:g}"))


def _reference_can(radius=33.0, height=110.0, segments=48):
    return _recentered(_reference_revolve([radius, radius], [0.0, height], segments,
                                          f"can{radius:g}x{height:g}"))


def _reference_bottle(radius=30.0, neck_radius=12.0, height=200.0, segments=48):
    z = np.array([0.0, 0.55, 0.62, 0.70, 0.76, 1.0]) * height
    r = np.array([radius, radius, 0.8 * radius + 0.2 * neck_radius,
                  0.35 * radius + 0.65 * neck_radius, neck_radius, neck_radius])
    return _recentered(_reference_revolve(r, z, segments,
                                          f"bottle{radius:g}x{height:g}"))


REVOLVED = [(cup, _reference_cup, ((24, 32), (33, 44), (75, 105))),
            (can, _reference_can, ((26, 38), (90, 135))),
            (bottle, _reference_bottle, ((25, 36), (10, 15), (160, 240)))]


class TestMatchesLoopReference:
    @pytest.mark.parametrize("factory, reference, _", REVOLVED, ids=["cup", "can", "bottle"])
    def test_default_sizes(self, factory, reference, _):
        mesh, expected = factory(), reference()
        assert mesh.vertices.tobytes() == expected.vertices.tobytes()
        assert mesh.triangles.tobytes() == expected.triangles.tobytes()
        assert mesh.name == expected.name

    @pytest.mark.parametrize("segments", [3, 4, 5, 17, 48, 101, 300])
    @pytest.mark.parametrize("factory, reference, ranges", REVOLVED,
                             ids=["cup", "can", "bottle"])
    def test_random_sizes(self, factory, reference, ranges, segments):
        rng = make_rng(segments)
        for _ in range(3):
            sizes = [float(rng.uniform(lo, hi)) for lo, hi in ranges]
            mesh, expected = factory(*sizes, segments), reference(*sizes, segments)
            assert mesh.vertices.tobytes() == expected.vertices.tobytes()
            assert mesh.triangles.tobytes() == expected.triangles.tobytes()
            assert mesh.name == expected.name


CLOSED_CASES = [
    (cup, (28.0, 38.0, 90.0)), (cup, (24.0, 44.0, 75.0)),
    (can, (33.0, 110.0)), (can, (26.0, 135.0)),
    (bottle, (30.0, 12.0, 200.0)), (bottle, (36.0, 10.0, 160.0)),
    (blade, (170.0, 26.0, 6.0)), (blade, (150.0, 30.0, 8.0)),
]


class TestClosedProceduralShapes:
    @pytest.mark.parametrize("segments", [3, 40])
    @pytest.mark.parametrize("factory, sizes", CLOSED_CASES)
    def test_closed_and_wound_outward(self, factory, sizes, segments):
        assert_closed_and_outward(factory(*sizes, segments))

    @pytest.mark.parametrize("segments", [3, 40])
    @pytest.mark.parametrize("radius, height", [(33.0, 110.0), (26.0, 135.0)])
    def test_can_volume_is_its_prism(self, radius, height, segments):
        expected = segments / 2.0 * radius ** 2 * np.sin(2.0 * np.pi / segments) * height
        assert signed_volume(can(radius, height, segments)) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("segments", [3, 40])
    @pytest.mark.parametrize("length, width, thickness", [(170.0, 26.0, 6.0),
                                                          (150.0, 30.0, 8.0)])
    def test_blade_volume_is_outline_area_times_thickness(self, length, width,
                                                          thickness, segments):
        # the silhouette's half widths at evenly spaced stations, from the
        # blade's profile table; shoelace area of the +-y rims between them
        profile_x = [0.0, 0.04, 0.12, 0.22, 0.32, 0.42, 0.52, 0.62, 0.74, 0.86, 0.95, 1.0]
        profile_w = [0.12, 0.42, 0.30, 0.52, 0.34, 0.56, 0.40, 0.92, 1.0, 0.88, 0.50, 0.10]
        x = np.linspace(0.0, length, segments)
        y = np.interp(x / length, profile_x, profile_w) * width / 2.0
        px, py = np.concatenate([x, x[::-1]]), np.concatenate([-y, y[::-1]])
        area = 0.5 * np.sum(px * np.roll(py, -1) - np.roll(px, -1) * py)
        assert signed_volume(blade(length, width, thickness, segments)) == pytest.approx(
            area * thickness, rel=1e-12)


class TestReferenceParameters:
    @pytest.mark.parametrize("query, segments", [("segments=48.0", 48),
                                                 ("segments=64&radius=30.0", 64),
                                                 ("segments=3", 3)])
    def test_integral_segments_accepted(self, query, segments):
        mesh = resolve_mesh(f"proc:bottle?{query}")
        expected = bottle(segments=segments)
        np.testing.assert_array_equal(mesh.vertices, expected.vertices)
        np.testing.assert_array_equal(mesh.triangles, expected.triangles)

    @pytest.mark.parametrize("ref, message", [
        ("proc:bottle?segments=2.5", "segments must be a whole number >= 3, got 2.5"),
        ("proc:cup?segments=2", "segments must be a whole number >= 3, got 2"),
        ("proc:can?segments=inf", "segments must be a whole number >= 3"),
        ("proc:blade?segments=nan", "segments must be a whole number >= 3"),
        ("proc:can?height=110.0&radius=-34.1", "can needs finite sizes > 0, got radius=-34.1"),
        ("proc:bottle?height=0", "bottle needs finite sizes > 0, got height=0.0"),
        ("proc:blade?width=0", "blade needs finite sizes > 0, got width=0.0"),
        ("proc:blade?thickness=inf", "got thickness=inf"),
        ("proc:cup?radius_top=nan&height=-1", "got radius_top=nan, height=-1.0"),
        ("proc:box?chamfer=nan", "box needs"),
        # each of these once fell back to the default radius without a word
        ("proc:can?radius=10&radius=40", "repeated parameter"),
        ("proc:can?radius=", "bad parameters"),
        ("proc:can?radius", "bad parameters"),
        ("proc:can?radius=5&&height=3", "bad parameters"),
    ])
    def test_bad_parameters_rejected(self, ref, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            resolve_mesh(ref)
