import importlib.util
from pathlib import Path

from mclift.core import FseParams
from mclift.lifting import read_container

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


def test_diagnostics_script_keeps_the_package_fse_budget(tmp_path):
    # Without --fse-iters the script passes no budget, so analyze uses its own.
    assert load("export_diagnostics").run(["--out-dir", str(tmp_path)]) == 0
    bands = read_container(tmp_path / "bands.mclf")
    assert bands.fse.max_iterations == FseParams().max_iterations
