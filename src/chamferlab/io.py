"""Reading and writing point clouds (XYZ, ASCII PLY) and triangle meshes."""

from __future__ import annotations

import os
from itertools import islice

import numpy as np

from .cloud import PointCloud, TriangleMesh, _positive_area
from .errors import InvalidInputError


def read_xyz(path: str | os.PathLike) -> PointCloud:
    """Read a whitespace-separated coordinate file.

    One point per line; lines starting with ``#`` are comments; blank lines
    are ignored. Dimension (2 or 3) is inferred from the first point.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(lineno, tokens) for lineno, line in enumerate(fh, start=1)
                if (tokens := line.split()) and not tokens[0].startswith("#")]
    points = _coordinate_rows(path, rows, "coordinate")
    try:
        return PointCloud(points)
    except InvalidInputError as exc:  # a width other than 2 or 3
        raise InvalidInputError(f"{path}: {exc}") from None


def _coordinate_rows(path, rows: list[tuple[int, list[str]]], what: str) -> np.ndarray:
    """The (n, width) float64 array of ``rows``, pairs of (line number, tokens).

    A valid file takes one whole-array conversion. Only when that fails, or
    finds a ragged shape or a non-finite value, does a row-by-row pass run to
    name ``path:line`` of the first non-numeric, wrong-width or non-finite row.
    """
    if not rows:
        raise InvalidInputError(f"{path}: no points found")
    try:
        points = np.array([tokens for _, tokens in rows], dtype=np.float64)
        if np.isfinite(points).all():
            return points
    except ValueError:  # a non-numeric token or a ragged row
        pass
    width = len(rows[0][1])
    for lineno, tokens in rows:
        try:
            finite = np.isfinite(np.array(tokens, dtype=np.float64)).all()
        except ValueError:
            raise _malformed(path, lineno, tokens, what) from None
        if len(tokens) != width:
            raise InvalidInputError(
                f"{path}:{lineno}: expected {width} coordinates, got {len(tokens)}"
            )
        if not finite:
            raise InvalidInputError(f"{path}:{lineno}: non-finite {what} row: {' '.join(tokens)!r}")
    raise AssertionError("the whole-array conversion failed on rows that all convert")


def write_xyz(path: str | os.PathLike, cloud: PointCloud) -> None:
    """Write a cloud as one point per line, full-precision, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in cloud.points:
            fh.write(" ".join(repr(float(c)) for c in row) + "\n")


def _parse_ply_header(path, lines):
    """Elements of the header, name -> (count, properties); ``lines`` yields (number, text)."""
    if next(lines, (0, ""))[1].strip() != "ply":
        raise InvalidInputError(f"{path}:1: not a PLY file (missing 'ply' magic)")
    fmt, fmt_lineno = None, 0
    elements: dict[str, tuple[int, list[str]]] = {}
    props = None  # the properties of the last element
    while True:
        lineno, line = next(lines, (0, ""))
        if not line:
            raise InvalidInputError(f"{path}: unexpected end of PLY header")
        tokens = line.strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise _malformed(path, lineno, tokens, "header")
            fmt, fmt_lineno = tokens[1], lineno
        elif tokens[0] == "element":
            try:
                count = int(tokens[2])
            except (IndexError, ValueError):
                count = -1
            if count < 0:
                raise _malformed(path, lineno, tokens, "header")
            if tokens[1] in elements:
                raise InvalidInputError(f"{path}:{lineno}: PLY element {tokens[1]!r} declared twice")
            props = []
            elements[tokens[1]] = count, props
        elif tokens[0] == "property":
            if props is None:
                raise InvalidInputError(f"{path}:{lineno}: PLY property before any element")
            props.append(tokens[-1])
        elif tokens[0] == "end_header":
            break
    if fmt != "ascii":
        where = f"{path}:{fmt_lineno}:" if fmt_lineno else f"{path}:"  # no format line
        raise InvalidInputError(f"{where} only ASCII PLY is supported, got format {fmt!r}")
    return elements


def _read_ply_elements(path) -> dict[str, tuple[list[str], list[tuple[int, list[str]]]]]:
    """The file's elements in header order: name -> (properties, rows of (line number, tokens))."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        elements = {}
        for name, (count, props) in _parse_ply_header(path, lines).items():
            rows = [(lineno, line.split()) for lineno, line in islice(lines, count)]
            if len(rows) < count:
                raise InvalidInputError(f"{path}: PLY body ends inside element {name!r}")
            elements[name] = props, rows
        for lineno, line in lines:  # blank lines may follow the last element, nothing else
            if tokens := line.split():
                raise InvalidInputError(f"{path}:{lineno}: PLY row after the last declared "
                                        f"element: {' '.join(tokens)!r}")
    return elements


def _malformed(path, lineno: int, row: list[str], what: str) -> InvalidInputError:
    return InvalidInputError(f"{path}:{lineno}: malformed {what} row: {' '.join(row)!r}")


def _vertex_array(elements, path) -> np.ndarray:
    if "vertex" not in elements:
        raise InvalidInputError(f"{path}: PLY file has no vertex element")
    props, body = elements["vertex"]
    try:
        ix, iy, iz = props.index("x"), props.index("y"), props.index("z")
    except ValueError as exc:
        raise InvalidInputError(f"{path}: vertex element lacks x/y/z properties") from exc
    rows = []
    for lineno, row in body:
        if len(row) != len(props):
            raise _malformed(path, lineno, row, "vertex")
        rows.append((lineno, [row[ix], row[iy], row[iz]]))
    return _coordinate_rows(path, rows, "vertex")


def read_ply(path: str | os.PathLike) -> PointCloud:
    """Read the vertices of an ASCII PLY file as a point cloud."""
    return PointCloud(_vertex_array(_read_ply_elements(path), path))


def read_ply_mesh(path: str | os.PathLike) -> TriangleMesh:
    """Read an ASCII PLY file as a triangle mesh.

    Faces must be triangles; degenerate (zero-area) triangles are dropped.
    """
    elements = _read_ply_elements(path)
    verts = _vertex_array(elements, path)
    props, faces = elements.get("face", ([], []))
    tris: list[tuple[int, int, int]] = []
    for lineno, row in faces:
        try:
            k = int(row[0])
            tri = (int(row[1]), int(row[2]), int(row[3])) if k == 3 else None
        except (IndexError, ValueError):
            k = None
        # the index count k, k indices, then one token per other face property
        if k is None or len(row) != k + len(props):
            raise _malformed(path, lineno, row, "face")
        if tri is None:
            raise InvalidInputError(f"{path}:{lineno}: only triangular faces supported, got {k}-gon")
        tris.append(tri)
    if not tris:
        raise InvalidInputError(f"{path}: PLY file has no faces")
    tri_arr = np.asarray(tris, dtype=np.intp)
    out_of_range = ((tri_arr < 0) | (tri_arr >= len(verts))).any(axis=1)
    if out_of_range.any():
        lineno, _ = faces[out_of_range.argmax()]  # one triangle per face row
        raise InvalidInputError(f"{path}:{lineno}: face indices out of vertex range")
    tri_arr = tri_arr[_positive_area(verts, tri_arr)]
    if tri_arr.shape[0] == 0:
        raise InvalidInputError(f"{path}: all faces are degenerate")
    return TriangleMesh(verts, tri_arr)


def read_cloud(path: str | os.PathLike) -> PointCloud:
    """Read a point cloud, dispatching on file extension (.ply vs XYZ-style)."""
    if str(path).lower().endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)
