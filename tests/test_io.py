from __future__ import annotations

import numpy as np
import pytest

from chamferlab import InvalidInputError, PointCloud
from chamferlab.cli import main
from chamferlab.io import read_cloud, read_ply, read_ply_mesh, read_xyz, write_xyz

from conftest import random_cloud

PLY_CLOUD = """ply
format ascii 1.0
comment demo
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1.5 0 0
0 2.25 0
"""

PLY_MESH = """ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
element face 3
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
2 0 0
3 0 1 2
3 1 3 2
3 0 1 3
"""


def test_xyz_round_trip(tmp_path, rng):
    cloud = random_cloud(rng, 37)
    path = tmp_path / "cloud.xyz"
    write_xyz(path, cloud)
    assert read_xyz(path) == cloud
    # edge tokens read exactly as float() reads them: subnormals, signed zero,
    # digit separator, explicit plus sign, and an underflow to zero
    edge = ["1e-320", "-0", "1_0", "+1.5", "-1e-320", "0.1e-400"]
    with path.open("a") as fh:
        fh.write(" ".join(edge[:3]) + "\n" + " ".join(edge[3:]) + "\n")
    points = read_xyz(path).points
    assert points[:37].tobytes() == cloud.points.tobytes()
    assert points[37:].tobytes() == np.array([float(t) for t in edge]).reshape(2, 3).tobytes()


def test_xyz_round_trip_2d(tmp_path, rng):
    cloud = random_cloud(rng, 5, dim=2)
    path = tmp_path / "cloud.xyz"
    write_xyz(path, cloud)
    assert read_xyz(path) == cloud


def test_xyz_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n\n0 0 0\n  \n# mid comment\n1 2 3\n")
    cloud = read_xyz(path)
    assert cloud.points.tolist() == [[0, 0, 0], [1, 2, 3]]


def test_xyz_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(InvalidInputError, match="bad.xyz:2: expected 3 coordinates, got 2"):
        read_xyz(path)


def test_xyz_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.xyz"
    for token in ("zero", "0x10", "1__0"):
        path.write_text(f"# comment\n0 {token} 0\n")
        with pytest.raises(InvalidInputError, match="bad.xyz:2: malformed coordinate row"):
            read_xyz(path)


def test_xyz_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("# nothing here\n")
    with pytest.raises(InvalidInputError):
        read_xyz(path)


def test_read_ply_vertices(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(PLY_CLOUD)
    cloud = read_ply(path)
    assert cloud.points.tolist() == [[0, 0, 0], [1.5, 0, 0], [0, 2.25, 0]]


def test_read_ply_rejects_binary(tmp_path):
    path = tmp_path / "bin.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(InvalidInputError):
        read_ply(path)


def test_read_ply_mesh_drops_degenerate_faces(tmp_path):
    # third face reuses collinear vertices (0,1,3 all on the x axis)
    path = tmp_path / "mesh.ply"
    path.write_text(PLY_MESH)
    mesh = read_ply_mesh(path)
    assert len(mesh) == 2
    assert mesh.vertices.shape == (4, 3)


def test_read_ply_mesh_rejects_polygons(tmp_path):
    text = PLY_MESH.replace("element face 3", "element face 1").split("end_header\n")[0]
    text += "end_header\n0 0 0\n1 0 0\n0 1 0\n2 0 0\n4 0 1 2 3\n"
    path = tmp_path / "quad.ply"
    path.write_text(text)
    with pytest.raises(InvalidInputError):
        read_ply_mesh(path)


@pytest.mark.parametrize(
    "row, short, line, problem",
    [
        ("1 0 0\n", "1 0\n", 11, "malformed"),
        ("3 0 1 2\n", "3 0 1\n", 14, "malformed"),
        ("format ascii 1.0\n", "format\n", 2, "malformed"),
        ("element vertex 4\n", "element vertex\n", 3, "malformed"),
        ("element vertex 4\n", "element vertex abc\n", 3, "malformed"),
        ("element vertex 4\n", "element vertex -1\n", 3, "malformed"),
        ("element face 3\n", "element\n", 7, "malformed"),
        # every face uses vertex 1: a NaN there must not read as degenerate faces
        ("1 0 0\n", "1 0 nan\n", 11, "non-finite"),
        ("0 1 0\n", "0 one 0\n", 12, "malformed"),
        # a row longer than its header declares: a missing property or a shifted face
        ("1 0 0\n", "1 0 0 9 9\n", 11, "malformed vertex row: '1 0 0 9 9'"),
        ("3 0 1 2\n", "3 0 1 2 7 7\n", 14, "malformed face row: '3 0 1 2 7 7'"),
        # well-formed face rows that the mesh cannot use
        ("3 1 3 2\n", "4 1 3 2 0\n", 15, "only triangular faces supported, got 4-gon"),
        ("3 1 3 2\n", "3 1 3 4\n", 15, "face indices out of vertex range"),
        ("3 0 1 3\n", "3 0 -1 3\n", 16, "face indices out of vertex range"),
    ],
    ids=["vertex", "face", "header-format", "header-no-count", "header-count-abc",
         "header-count-negative", "header-no-name", "vertex-nan", "vertex-non-numeric",
         "vertex-long", "face-long", "face-quad", "face-index-high", "face-index-negative"],
)
def test_read_ply_mesh_rejects_short_rows(tmp_path, capsys, row, short, line, problem):
    path = tmp_path / "short.ply"
    path.write_text(PLY_MESH.replace(row, short, 1))
    with pytest.raises(InvalidInputError, match=f"short.ply:{line}: {problem}"):
        read_ply_mesh(path)
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0 0\n")
    assert main(["metrics", str(cloud), str(cloud), "--mesh", str(path)]) == 3
    assert f"short.ply:{line}:" in capsys.readouterr().err


def test_read_ply_rejects_rows_after_the_last_element(tmp_path, capsys):
    # one declared face and two face rows: the second must not be dropped unread
    path = tmp_path / "extra.ply"
    path.write_text(PLY_MESH.replace("element face 3", "element face 1").replace("3 0 1 3\n", ""))
    expected = f"{path}:15: PLY row after the last declared element: '3 1 3 2'"
    for read in (read_ply, read_ply_mesh):
        with pytest.raises(InvalidInputError) as err:
            read(path)
        assert str(err.value) == expected
    cloud = tmp_path / "q.xyz"
    cloud.write_text("0.9 0.9 0\n0.1 0.1 0\n")
    assert main(["metrics", str(cloud), str(cloud), "--mesh", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {expected}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (PLY_MESH.replace("3 0 1 3\n", ""), "PLY body ends inside element 'face'"),
        ("ply\nformat ascii 1.0\nelement face 0\nproperty list uchar int vertex_indices\n"
         "end_header\n", "PLY file has no vertex element"),
        (PLY_MESH.replace("property float z", "property float w"),
         "vertex element lacks x/y/z properties"),
        (PLY_CLOUD, "PLY file has no faces"),
        # the one face left lies on the x axis
        (PLY_MESH.replace("element face 3", "element face 1").replace("3 0 1 2\n3 1 3 2\n", ""),
         "all faces are degenerate"),
    ],
    ids=["body-ends-inside-element", "no-vertex-element", "no-xyz", "no-faces", "all-degenerate"],
)
def test_read_ply_mesh_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "m.ply"
    path.write_text(text)
    expected = f"{path}: {message}"
    with pytest.raises(InvalidInputError) as err:
        read_ply_mesh(path)
    assert str(err.value) == expected
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0 0\n")
    assert main(["metrics", str(cloud), str(cloud), "--mesh", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_read_ply_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "blank.ply"
    path.write_text(PLY_MESH + "\n  \n\n")
    assert len(read_ply_mesh(path)) == 2
    assert len(read_ply(path)) == 4


def test_read_ply_mesh_names_the_first_out_of_range_face(tmp_path):
    path = tmp_path / "oor.ply"
    path.write_text(PLY_MESH.replace("3 1 3 2\n", "3 1 3 9\n").replace("3 0 1 3\n", "3 0 1 -1\n"))
    with pytest.raises(InvalidInputError, match="oor.ply:15: face indices out of vertex range"):
        read_ply_mesh(path)


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("PLY\nformat ascii 1.0\nend_header\n", ":1:", "not a PLY file (missing 'ply' magic)"),
        ("", ":1:", "not a PLY file (missing 'ply' magic)"),
        ("ply\nformat ascii 1.0\nelement vertex 1\n", ":", "unexpected end of PLY header"),
        ("ply\nformat ascii 1.0\nproperty float x\nend_header\n", ":3:",
         "PLY property before any element"),
        ("ply\ncomment x\nformat binary_little_endian 1.0\nend_header\n", ":3:",
         "only ASCII PLY is supported, got format 'binary_little_endian'"),
        ("ply\nelement vertex 0\nend_header\n", ":", "only ASCII PLY is supported, got format None"),
        # a repeated element name: its rows must not be read against the first one's header
        (PLY_MESH.replace("element face", "element vertex 1\nproperty float x\nelement face"),
         ":7:", "PLY element 'vertex' declared twice"),
        (PLY_MESH.replace("end_header", "element face 1\nproperty list uchar int i\nend_header"),
         ":9:", "PLY element 'face' declared twice"),
    ],
    ids=["magic", "magic-empty-file", "end-of-header", "property-first", "binary", "no-format",
         "vertex-twice", "face-twice"],
)
def test_ply_header_errors_name_the_file(tmp_path, capsys, text, where, message):
    path = tmp_path / "bad.ply"
    path.write_text(text)
    expected = f"{path}{where} {message}"
    with pytest.raises(InvalidInputError) as err:
        read_ply_mesh(path)
    assert str(err.value) == expected
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0 0\n")
    assert main(["metrics", str(cloud), str(cloud), "--mesh", str(path)]) == 3
    assert f"error: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("n.xyz", "0 0 0\n\nnan 1 2\n1 1 1\n", ":3: non-finite coordinate row: 'nan 1 2'"),
        ("n.xyz", "0 0 0\n\n1 1e999 2\n", ":3: non-finite coordinate row: '1 1e999 2'"),
        ("n.xyz", "0 0 0\n\n0 0 -inf\n", ":3: non-finite coordinate row: '0 0 -inf'"),
        ("n.ply", PLY_CLOUD.replace("1.5 0 0", "1.5 nan 0"),
         ":10: non-finite vertex row: '1.5 nan 0'"),
        ("long.ply", PLY_CLOUD.replace("1.5 0 0", "1.5 0 0 9"),
         ":10: malformed vertex row: '1.5 0 0 9'"),
        ("wide.xyz", "0 0 0 0\n1 1 1 1\n", ": points must be 2- or 3-dimensional, got dim 4"),
        ("empty.ply", "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
         "property float y\nproperty float z\nend_header\n", ": no points found"),
    ],
    ids=["xyz-nan", "xyz-1e999", "xyz-minus-inf", "ply-nan", "ply-long-row", "xyz-4-columns",
         "ply-no-vertices"],
)
def test_read_cloud_errors_name_the_file(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    expected = f"{path}{message}"
    with pytest.raises(InvalidInputError) as err:
        read_cloud(path)
    assert str(err.value) == expected
    assert main(["metrics", str(path), str(path)]) == 3
    assert f"error: {expected}" in capsys.readouterr().err


def test_read_cloud_dispatches_on_extension(tmp_path):
    ply = tmp_path / "c.ply"
    ply.write_text(PLY_CLOUD)
    xyz = tmp_path / "c.xyz"
    xyz.write_text("7 8 9\n")
    assert read_cloud(ply).points.shape == (3, 3)
    assert read_cloud(xyz).points.tolist() == [[7, 8, 9]]


def test_write_xyz_is_lossless_at_full_precision(tmp_path):
    cloud = PointCloud(np.array([[1 / 3, 2 / 7, np.pi]]))
    path = tmp_path / "pi.xyz"
    write_xyz(path, cloud)
    assert read_xyz(path) == cloud
