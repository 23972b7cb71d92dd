import csv
import json
import re
import struct
from pathlib import Path

import pytest

from mclift.cli import COMPARE_COLUMNS, METRICS_COLUMNS, main
from mclift.core import LiftConfig
from mclift.io import SIDECAR_KEYS, read_dataset
from mclift.lifting import _CONTAINER_HEADER, read_container

FAST_FSE = ["--fse-tile", "8", "--fse-border", "8", "--fse-iters", "60"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def gen(tmp_path, kind, name="data", **kwargs) -> Path:
    sidecar = tmp_path / f"{name}.json"
    argv = ["gen-fixture", "--kind", kind, "--output", sidecar]
    for key, value in kwargs.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert run(*argv) == 0
    return sidecar


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_fixture_is_deterministic(tmp_path):
    a = gen(tmp_path, "translate", name="a", seed=9)
    b = gen(tmp_path, "translate", name="b", seed=9)
    assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()
    assert json.loads(a.read_text())["width"] == 128


def test_gen_fixture_constant_all_equal(tmp_path):
    sidecar = gen(tmp_path, "constant", width=32, height=32, frames=2)
    seq = read_dataset(sidecar)
    assert len(set(seq[0].samples.ravel().tolist())) == 1
    assert seq[0] == seq[1]


def test_gen_fixture_unknown_kind_is_usage_error(tmp_path):
    assert run("gen-fixture", "--kind", "wobble", "--output", tmp_path / "x.json") == 1


def test_missing_subcommand_is_usage_error():
    assert run() == 1


def test_analyze_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run("analyze", "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    cfg = LiftConfig()
    for flag, default in (
        ("--block-size", cfg.block_size),
        ("--search-range", cfg.search_range),
        ("--fse-iters", cfg.fse.max_iterations),
        ("--fse-tile", cfg.fse.tile_size),
        ("--fse-border", cfg.fse.border),
    ):
        assert re.search(rf"{flag} [A-Z_]+ [^()]*\(default: {default}\)", text), flag


def test_analyze_then_synthesize_round_trip(tmp_path):
    sidecar = gen(tmp_path, "flash_disocclusion", width=96, height=96, frames=5, seed=4)
    container = tmp_path / "bands.mclf"
    assert run(
        "analyze", "--input", sidecar, "--output", container,
        "--mode", "block+fse", *FAST_FSE,
    ) == 0
    recon = tmp_path / "recon.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 0
    assert recon.read_bytes() == (tmp_path / "data.raw").read_bytes()
    meta = json.loads(Path(str(recon) + ".json").read_text())
    assert meta["frames"] == 5


def test_axis_is_not_carried_slice_comes_back_as_time(tmp_path):
    # The container has no axis field: the samples survive, the label not.
    sidecar = gen(tmp_path, "translate", width=48, height=32, frames=2)
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "axis": "slice"}))
    container = tmp_path / "bands.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, "--mode", "block") == 0
    recon = tmp_path / "recon.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 0
    assert recon.read_bytes() == (tmp_path / "data.raw").read_bytes()
    assert json.loads(Path(str(recon) + ".json").read_text())["axis"] == "time"


def test_synthesize_hash_verification(tmp_path, capsys):
    sidecar = gen(tmp_path, "translate", width=64, height=48, frames=2)
    container = tmp_path / "bands.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, "--mode", "block") == 0
    recon = tmp_path / "recon.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 0
    digest = capsys.readouterr().out.strip().splitlines()[-1].split()[1]
    assert run(
        "synthesize", "--input", container, "--output", recon,
        "--expect-sha256", digest,
    ) == 0
    assert run(
        "synthesize", "--input", container, "--output", recon,
        "--expect-sha256", "0" * 64,
    ) == 3


def test_analyze_missing_input_is_data_error(tmp_path):
    assert run(
        "analyze", "--input", tmp_path / "nope.json", "--output", tmp_path / "o.mclf"
    ) == 2


def test_analyze_out_of_range_low_depth_sample_is_data_error(tmp_path):
    # A 4-bit dataset holding 200 used to analyse (exit 0) into a container
    # that synthesize then refused.
    sidecar = gen(tmp_path, "constant", width=8, height=8, frames=2, bit_depth=4)
    raw = bytearray((tmp_path / "data.raw").read_bytes())
    raw[5] = 200
    (tmp_path / "data.raw").write_bytes(bytes(raw))
    container = tmp_path / "o.mclf"
    assert run("analyze", "--input", sidecar, "--output", container) == 2
    assert not container.exists()


@pytest.mark.parametrize("key", SIDECAR_KEYS)
@pytest.mark.parametrize("value", [None, True, 2.0, [], "x"])
def test_analyze_ill_typed_sidecar_value_is_data_error(tmp_path, capsys, key, value):
    sidecar = gen(tmp_path, "constant", width=8, height=8, frames=2)
    meta = json.loads(sidecar.read_text())
    if isinstance(meta[key], str) and isinstance(value, str):
        value = 7  # a number where a string belongs
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    assert run("analyze", "--input", sidecar, "--output", tmp_path / "o.mclf") == 2
    assert repr(key) in capsys.readouterr().err


def test_analyze_sidecar_not_an_object_is_data_error(tmp_path):
    # A list that holds every key name passes a membership test.
    sidecar = tmp_path / "list.json"
    sidecar.write_text(json.dumps(list(SIDECAR_KEYS)))
    assert run("analyze", "--input", sidecar, "--output", tmp_path / "o.mclf") == 2


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("width,height", [(65536, 1), (1, 65536)])
def test_dimension_past_u16_is_data_error(tmp_path, capsys, command, width, height):
    # The container and rate coder headers store each dimension as a u16;
    # such a dataset used to run the whole transform and then crash.
    sidecar = gen(tmp_path, "constant", width=width, height=height, frames=2)
    out = tmp_path / "out"
    assert run(command, "--input", sidecar, "--output", out) == 2
    assert "65535" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_block_size_past_u16_is_usage_error(tmp_path, capsys, command):
    # The container stores block_size as a u16; this used to run the whole
    # transform and then fail as a data error when the container was written.
    sidecar = gen(tmp_path, "translate", width=48, height=32, frames=2)
    out = tmp_path / "out"
    assert run(command, "--input", sidecar, "--output", out, "--block-size", 70000) == 1
    assert "65535" in capsys.readouterr().err
    assert not out.exists()


def test_synthesize_vector_outside_the_frame_is_data_error(tmp_path, capsys):
    # A well-formed container whose first vector of pair 0 points far left.
    sidecar = gen(tmp_path, "translate", width=48, height=32, frames=2)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, "--mode", "block") == 0
    payload = bytearray(container.read_bytes())
    struct.pack_into("<hh", payload, _CONTAINER_HEADER.size + 6, -32768, 0)
    container.write_bytes(bytes(payload))
    recon = tmp_path / "r.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 2
    assert "block (0,0) vector" in capsys.readouterr().err
    assert not recon.exists()


def test_synthesize_corrupt_container_is_data_error(tmp_path):
    bad = tmp_path / "bad.mclf"
    bad.write_bytes(b"NOPE" + bytes(16))
    assert run("synthesize", "--input", bad, "--output", tmp_path / "r.raw") == 2


def test_analyze_writes_metrics_csv_with_infinite_psnr(tmp_path):
    sidecar = gen(tmp_path, "constant", width=48, height=48, frames=2)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, *FAST_FSE) == 0
    rows = read_rows(str(container) + ".metrics.csv")
    assert list(rows[0].keys()) == list(METRICS_COLUMNS)
    assert rows[0]["mean_lowpass_psnr_db"] == "inf"
    assert rows[0]["mode"] == "block+fse"


@pytest.mark.parametrize(
    "flag,value",
    [("mode", "block"), ("block-size", "8"), ("search-range", "4"), ("threads", "1"),
     ("fse-iters", "60"), ("fse-tile", "8"), ("fse-border", "8")],
)
def test_synthesize_rejects_flags_it_does_not_read(tmp_path, flag, value):
    # The update mode, the FSE parameters and the motion come from the
    # container, and there is no thread count to set.
    sidecar = gen(tmp_path, "constant", width=32, height=32, frames=2)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, *FAST_FSE) == 0
    recon = tmp_path / "r.raw"
    common = ["synthesize", "--input", container, "--output", recon]
    assert run(*common, f"--{flag}", value) == 1
    assert not recon.exists()
    assert run(*common) == 0


def test_synthesize_decodes_with_the_fse_parameters_analyze_used(tmp_path):
    # Analysed with --fse-iters 50 and synthesised with defaults, this used
    # to exit 0 with 64 wrong bytes, because the container did not store the
    # FSE parameters.
    sidecar = gen(tmp_path, "flash_disocclusion", frames=2, seed=1)
    container = tmp_path / "c.mclf"
    assert run(
        "analyze", "--input", sidecar, "--output", container,
        "--fse-iters", "50", "--fse-tile", "8", "--fse-border", "12",
    ) == 0
    recon = tmp_path / "r.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 0
    assert recon.read_bytes() == (tmp_path / "data.raw").read_bytes()


def test_synthesize_corrupt_lowpass_is_verification_failure(tmp_path, capsys):
    sidecar = gen(tmp_path, "translate", width=64, height=48, frames=2)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, *FAST_FSE) == 0
    payload = bytearray(container.read_bytes())
    lowpass = read_container(container).lowpass[0].samples.astype("<i4").tobytes()
    payload[payload.index(lowpass) + 100] ^= 0x01
    container.write_bytes(bytes(payload))
    recon = tmp_path / "r.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 3
    assert "pair 0" in capsys.readouterr().err
    assert not recon.exists()


@pytest.mark.parametrize(
    "offset,fmt,value",
    [(13, "<H", 0xFFFF),  # tile_size: fft_size 262144, 512 GiB per grid
     (33, "<I", 0xFFFFFFFF)],  # max_iterations
)
def test_synthesize_refuses_fse_work_the_header_cannot_ask_for(
    tmp_path, offset, fmt, value
):
    sidecar = gen(tmp_path, "constant", width=32, height=32, frames=2)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, *FAST_FSE) == 0
    payload = bytearray(container.read_bytes())
    struct.pack_into(fmt, payload, offset, value)
    container.write_bytes(bytes(payload))
    recon = tmp_path / "r.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 2
    assert not recon.exists()


def test_synthesize_refuses_a_v2_container(tmp_path, capsys):
    sidecar = gen(tmp_path, "flash_disocclusion", frames=2, seed=1)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, *FAST_FSE) == 0
    payload = bytearray(container.read_bytes())
    payload[4] = 2
    container.write_bytes(bytes(payload))
    recon = tmp_path / "r.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 2
    assert "unsupported container version 2" in capsys.readouterr().err
    assert not recon.exists()


# tile_size 1, border 127 (fft_size 256), 10000 iterations: every field is
# within its own bound, but decoding would cost ~1.75 s per hole pixel
CRAFTED_FSE = ((13, "<H", 1), (15, "<H", 127), (33, "<I", 10_000))


def test_synthesize_refuses_fse_work_per_pixel_past_the_bound(tmp_path, capsys):
    sidecar = gen(tmp_path, "flash_disocclusion", frames=2, seed=1)
    container = tmp_path / "c.mclf"
    assert run("analyze", "--input", sidecar, "--output", container, *FAST_FSE) == 0
    payload = bytearray(container.read_bytes())
    for offset, fmt, value in CRAFTED_FSE:
        struct.pack_into(fmt, payload, offset, value)
    container.write_bytes(bytes(payload))
    recon = tmp_path / "r.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 2
    assert "exceeds 16000" in capsys.readouterr().err
    assert not recon.exists()


def test_analyze_refuses_fse_work_per_pixel_past_the_bound(tmp_path, capsys):
    sidecar = gen(tmp_path, "flash_disocclusion", frames=2, seed=1)
    container = tmp_path / "c.mclf"
    assert run(
        "analyze", "--input", sidecar, "--output", container,
        "--fse-tile", "1", "--fse-border", "127", "--fse-iters", "10000",
    ) == 1
    assert "exceeds 16000" in capsys.readouterr().err
    assert not container.exists()


def test_compare_header_and_direction(tmp_path):
    sidecar = gen(tmp_path, "flash_disocclusion", seed=2)
    out = tmp_path / "cmp.csv"
    assert run(
        "compare", "--input", sidecar, "--output", out,
        "--modes", "block,block+fse", "--fse-iters", "300",
    ) == 0
    header = out.read_text().splitlines()[0]
    assert header == "mode,total_bytes,lowpass_bytes,highpass_bytes,motion_bytes,mean_lowpass_psnr_db,boundary_step"
    rows = {r["mode"]: r for r in read_rows(out)}
    assert set(rows) == {"block", "block+fse"}
    assert float(rows["block+fse"]["boundary_step"]) < float(rows["block"]["boundary_step"])
    assert int(rows["block+fse"]["lowpass_bytes"]) <= int(rows["block"]["lowpass_bytes"])
    assert list(read_rows(out)[0].keys()) == list(COMPARE_COLUMNS)


def test_compare_identical_frames_all_modes_equal(tmp_path):
    sidecar = gen(tmp_path, "constant", width=48, height=48, frames=4)
    out = tmp_path / "cmp.csv"
    assert run(
        "compare", "--input", sidecar, "--output", out,
        "--modes", "none,block,block+fse", *FAST_FSE,
    ) == 0
    rows = read_rows(out)
    assert len({r["total_bytes"] for r in rows}) == 1
    assert len({r["lowpass_bytes"] for r in rows}) == 1


def test_compare_requires_two_modes(tmp_path):
    sidecar = gen(tmp_path, "constant", width=32, height=32, frames=2)
    assert run(
        "compare", "--input", sidecar, "--output", tmp_path / "c.csv",
        "--modes", "block",
    ) == 1
    assert run(
        "compare", "--input", sidecar, "--output", tmp_path / "c.csv",
        "--modes", "block,warp",
    ) == 1


def test_dump_diagnostics_writes_images(tmp_path):
    sidecar = gen(tmp_path, "flash_disocclusion", seed=5, frames=2)
    container = tmp_path / "c.mclf"
    diag = tmp_path / "diag"
    assert run(
        "analyze", "--input", sidecar, "--output", container,
        "--dump-diagnostics", diag, "--fse-iters", "60",
    ) == 0
    names = {p.name for p in diag.iterdir()}
    assert {"conn_000.ppm", "update_000.ppm", "update_filled_000.ppm",
            "lowpass_000.pgm", "highpass_000.pgm", "fse_trace.csv"} <= names
    trace = read_rows(diag / "fse_trace.csv")
    assert {"pair", "tile_y", "tile_x", "iteration", "energy"} == set(trace[0].keys())


def round_trip_outputs(directory: Path, width: int, height: int, frames: int) -> dict:
    """gen-fixture, analyze (with diagnostics) and synthesize into fixed
    paths under `directory`; returns the bytes of every file the run wrote."""
    sidecar = gen(directory, "flash_disocclusion", width=width, height=height,
                  frames=frames, seed=3)
    container = directory / "bands.mclf"
    diag = directory / "diag"
    assert run(
        "analyze", "--input", sidecar, "--output", container,
        "--dump-diagnostics", diag, *FAST_FSE,
    ) == 0
    recon = directory / "recon.raw"
    assert run("synthesize", "--input", container, "--output", recon) == 0
    names = ["data.json", "data.raw", "bands.mclf", "bands.mclf.metrics.csv",
             "recon.raw", "recon.raw.json"]
    names += [f"diag/{p.name}" for p in diag.iterdir()]
    return {name: (directory / name).read_bytes() for name in names}


def test_rerun_over_larger_outputs_matches_fresh_run(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    reused.mkdir()
    fresh.mkdir()
    larger = round_trip_outputs(reused, 144, 112, 5)
    over = round_trip_outputs(reused, 80, 80, 2)
    clean = round_trip_outputs(fresh, 80, 80, 2)
    assert set(clean) <= set(over)
    for name, payload in clean.items():
        assert len(larger[name]) > len(payload), name
        assert over[name] == payload, name
