import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

import mclift
from mclift.core import ConnectivityMap, DataFormatError, Frame, Sequence, UpdateField
from mclift.io import (
    read_dataset,
    read_pgm,
    read_ppm,
    read_raw_sequence,
    write_dataset,
    write_file,
    write_heatmap,
    write_pgm,
    write_pgm16,
    write_pgm_subband,
    write_raw_sequence,
)

from conftest import make_frame


def test_read_raw_8bit_bytes(tmp_path):
    path = tmp_path / "tiny.raw"
    path.write_bytes(bytes([0, 1, 2, 3]))
    seq = read_raw_sequence(path, 2, 2, 8, 1)
    assert seq[0].samples.tolist() == [[0, 1], [2, 3]]


def test_read_raw_12bit_little_endian(tmp_path):
    path = tmp_path / "tiny12.raw"
    path.write_bytes(bytes([0xFF, 0x0F]))
    seq = read_raw_sequence(path, 1, 1, 12, 1)
    assert seq[0].samples[0, 0] == 4095


def test_read_raw_short_file_names_frame(tmp_path):
    path = tmp_path / "short.raw"
    path.write_bytes(bytes(4 + 2))  # one full 2x2 frame plus a fragment
    with pytest.raises(DataFormatError, match="frame 1"):
        read_raw_sequence(path, 2, 2, 8, 2)


def test_read_raw_out_of_range_sample(tmp_path):
    path = tmp_path / "bad12.raw"
    path.write_bytes(bytes([0x00, 0x10]))  # 4096 does not fit 12 bits
    with pytest.raises(DataFormatError, match="frame 0"):
        read_raw_sequence(path, 1, 1, 12, 1)


@pytest.mark.parametrize("bit_depth", [1, 4, 7])
def test_read_raw_out_of_range_one_byte_sample(tmp_path, bit_depth):
    # Depths below 8 store one byte per sample; a byte >= 2**bit_depth is
    # refused at read, not when the container is synthesised.
    path = tmp_path / "bad.raw"
    path.write_bytes(bytes([0, 1 << bit_depth, 200]))
    with pytest.raises(DataFormatError, match="frame 0"):
        read_raw_sequence(path, 3, 1, bit_depth, 1)
    path.write_bytes(bytes([0, (1 << bit_depth) - 1, 0]))
    frame = read_raw_sequence(path, 3, 1, bit_depth, 1)[0]
    assert frame.samples.max() == (1 << bit_depth) - 1


@pytest.mark.parametrize("bit_depth", [8, 12])
def test_raw_round_trip(tmp_path, bit_depth):
    rng = np.random.default_rng(5 + bit_depth)
    seq = Sequence(tuple(make_frame(rng, 13, 9, bit_depth) for _ in range(3)))
    path = tmp_path / "seq.raw"
    payload = write_raw_sequence(seq, path)
    assert path.read_bytes() == payload
    back = read_raw_sequence(path, 13, 9, bit_depth, 3)
    assert all(a == b for a, b in zip(back, seq))


def test_write_raw_rejects_out_of_range():
    f = Frame(np.array([[-1]], dtype=np.int32), 8)
    with pytest.raises(ValueError, match="original-range"):
        write_raw_sequence(Sequence((f,)), "/dev/null")


def test_dataset_sidecar_round_trip(tmp_path, rng):
    seq = Sequence(tuple(make_frame(rng, 10, 6, 12) for _ in range(4)), axis_label="slice")
    sidecar = tmp_path / "vol.json"
    write_dataset(seq, sidecar)
    meta = json.loads(sidecar.read_text())
    assert meta == {
        "width": 10,
        "height": 6,
        "bit_depth": 12,
        "frames": 4,
        "axis": "slice",
        "data": "vol.raw",
    }
    back = read_dataset(sidecar)
    assert back.axis_label == "slice"
    assert all(a == b for a, b in zip(back, seq))


def test_dataset_sidecar_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError, match="JSON"):
        read_dataset(bad)
    bad.write_text(json.dumps({"width": 2}))
    with pytest.raises(DataFormatError, match="missing keys"):
        read_dataset(bad)


def test_write_pgm_exact_bytes(tmp_path):
    path = tmp_path / "one.pgm"
    write_pgm(Frame(np.array([[0]], dtype=np.int32), 8), path)
    assert path.read_bytes() == b"P5\n1 1\n255\n\x00"


def test_write_pgm_rejects_wide_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(Frame(np.array([[300]], dtype=np.int32), 12), tmp_path / "x.pgm")


def test_pgm_round_trip(tmp_path, rng):
    f = make_frame(rng, 7, 5, 8)
    path = tmp_path / "rt.pgm"
    write_pgm(f, path)
    back = read_pgm(path)
    assert np.array_equal(back.samples, f.samples)


def test_pgm16_big_endian(tmp_path):
    path = tmp_path / "deep.pgm"
    write_pgm16(Frame(np.array([[4095]], dtype=np.int32), 12), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n1 1\n65535\n")
    assert data[-2:] == bytes([0x0F, 0xFF])
    assert read_pgm(path).samples[0, 0] == 4095


def test_pgm_subband_centers_zero(tmp_path):
    hp = Frame(np.array([[0, 256, -256, 1000]], dtype=np.int32), 8)
    path = tmp_path / "hp.pgm"
    write_pgm_subband(hp, path)
    data = path.read_bytes()
    assert b"# symmetric subband map" in data
    back = read_pgm(path)
    assert back.samples.tolist() == [[128, 255, 1, 255]]


def test_heatmap_zero_field_is_green(tmp_path):
    field = UpdateField(np.zeros((3, 4)), np.zeros((3, 4), dtype=bool))
    path = tmp_path / "zero.ppm"
    write_heatmap(field, path)
    rgb = read_ppm(path)
    assert np.all(rgb == np.array([0, 255, 0], dtype=np.uint8))


def test_heatmap_endpoints_and_holes(tmp_path):
    values = np.array([[0.0, 5.0, -5.0, 2.5]])
    holes = np.array([[False, False, False, False]])
    holes2 = holes.copy()
    holes2[0, 0] = True
    field = UpdateField(np.where(holes2, 0.0, values), holes2)
    path = tmp_path / "heat.ppm"
    write_heatmap(field, path)
    rgb = read_ppm(path)
    assert rgb[0, 0].tolist() == [255, 255, 255]  # hole is white
    assert rgb[0, 1].tolist() == [255, 0, 0]      # max positive is pure red
    assert rgb[0, 2].tolist() == [0, 0, 255]      # max negative is pure blue
    assert rgb[0, 3].tolist() == [128, 128, 0]    # halfway toward red


def test_heatmap_connectivity_map(tmp_path):
    counts = np.array([[0, 1, 3]], dtype=np.int32)
    path = tmp_path / "conn.ppm"
    write_heatmap(ConnectivityMap(counts), path)
    rgb = read_ppm(path)
    assert rgb[0, 0].tolist() == [255, 255, 255]  # unconnected stays white
    assert rgb[0, 1].tolist() == [0, 255, 0]      # one-connected is the baseline
    assert rgb[0, 2].tolist() == [255, 0, 0]      # strongest overlap is red


def test_write_file_over_longer_file_leaves_only_new_bytes(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"x" * 5000)
    inode = path.stat().st_ino
    write_file(path, b"short")
    assert path.read_bytes() == b"short"
    assert path.stat().st_ino == inode
    write_file(path, b"")
    assert path.read_bytes() == b""


def test_write_file_creates_with_umask_applied(tmp_path):
    old = os.umask(0o027)
    try:
        write_file(tmp_path / "new.bin", b"abc")
    finally:
        os.umask(old)
    assert (tmp_path / "new.bin").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_write_file_writes_through_symlink(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"old contents")
    link = tmp_path / "link.bin"
    link.symlink_to(target)
    write_file(link, b"new")
    assert link.is_symlink()
    assert target.read_bytes() == b"new"


def test_write_file_to_character_device():
    write_file("/dev/null", b"discarded")


def _writes_outside_write_file(source: str) -> list[int]:
    """Line numbers of calls that write a file other than through the body
    of `write_file`: write_bytes, write_text, os.open, or open with a
    writing (or non-literal) mode."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "write_file"
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("write_bytes", "write_text"):
                found.append(node.lineno)
            elif name == "open":
                if isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os":
                    found.append(node.lineno)
                else:
                    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                    modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                    for mode in modes:
                        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or (
                            set(mode.value) & set("wax+")
                        ):
                            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_every_file_write_goes_through_write_file():
    package = Path(mclift.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _writes_outside_write_file(path.read_text()))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "line",
    [
        "Path(p).write_bytes(b'')",
        "p.write_text('x')",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "open(p, m)",
        "os.open(p, os.O_WRONLY)",
        "p.open('w')",
    ],
)
def test_write_guard_flags_other_writers(line):
    assert _writes_outside_write_file(f"def f(p, m):\n    {line}\n") == [2]


def test_write_guard_allows_reads():
    source = "def f(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n"
    assert _writes_outside_write_file(source) == []
