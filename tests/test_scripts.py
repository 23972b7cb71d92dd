import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_scripts_run(tmp_path):
    cmp_dir, diag_dir = tmp_path / "cmp", tmp_path / "diag"
    assert load("run_comparison").run(
        ["--out-dir", str(cmp_dir), "--fse-iters", "60"]
    ) == 0
    assert load("export_diagnostics").run(
        ["--out-dir", str(diag_dir), "--fse-iters", "60"]
    ) == 0
    assert (cmp_dir / "modes.csv").read_text().startswith("mode,total_bytes,")
    images = {p.name for p in (diag_dir / "images").iterdir()}
    assert {"conn_000.ppm", "update_filled_000.ppm", "lowpass_000.pgm",
            "fse_trace.csv"} <= images
