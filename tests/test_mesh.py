import itertools
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


BOX_SIZES = [(60.0, 40.0, 30.0, 4.0), (50.0, 30.0, 20.0, 2.0), (45.0, 33.0, 58.0, 4.7)]


class TestChamferedBox:
    @pytest.mark.parametrize("size", BOX_SIZES)
    def test_closed_and_consistently_wound(self, size):
        mesh = chamfered_box(*size)
        assert len(mesh.triangles) == 44
        edges = Counter((int(t[i]), int(t[(i + 1) % 3]))
                        for t in mesh.triangles for i in range(3))
        assert set(edges.values()) == {1}
        assert all(edges[(j, i)] == 1 for i, j in edges)

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

    @pytest.mark.parametrize("size", [(60.0, 0.0, 30.0, 4.0), (60.0, 40.0, 30.0, -1.0)])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(ValidationError, match="box needs"):
            chamfered_box(*size)
