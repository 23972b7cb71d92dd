"""Smoke tests of the benchmark: every workload at its reduced size, untraced
and traced, plus its correctness gates. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4
    assert "failed_ops 0.0000" in done.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert f"({m['better']} is better)" in next(
            line for line in done.stdout.splitlines() if line.split()[:1] == [m["name"]]
        )


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "noise_fse", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_wrong_reconstruction_counts_as_failed(tmp_path):
    cli, _ = run._import_program()
    client = run.Client(cli, tmp_path, run.WORKLOADS["noise_fse"].shrunk(), 1)
    assert client.analyze() is not None
    client.input_sha = "0" * 64
    assert client.synthesize() is None
    assert (client.attempted, client.failed) == (2, 1)


def test_drifting_exact_value_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_exact("key", {"fse.iterations": 63000}) == []
    assert run.check_exact("key", {"fse.iterations": 63000}) == []
    assert run.check_exact("key", {"fse.iterations": 62999}) != []
    assert run.check_exact("other", {"fse.iterations": 1}) == []


def test_missing_function_drops_only_its_metrics():
    run._import_program()
    import mclift.lifting

    tracer = spans.Tracer()
    tracer.install((
        spans.Hook("fse.reconstruct", ("mclift.lifting:fse_renamed_away",)),
        spans.Hook("motion.search", ("mclift.lifting:estimate_motion",)),
    ))
    try:
        assert tracer.missing == ["fse.reconstruct"]
        assert tracer.found == {"motion.search": "mclift.lifting:estimate_motion"}
        dropped = run.dropped_metrics(tracer, fse_counted=True)
        assert {"fse.ms_per_pair", "fse.iterations"} <= set(dropped)
        assert "motion.search_ms_per_pair" not in dropped
    finally:
        tracer.close()
    assert not hasattr(mclift.lifting.estimate_motion, "__wrapped__")


def test_calibration_weights_name_known_kernels():
    for wl in run.WORKLOADS.values():
        assert set(wl.calibration) == {"analyze", "synthesize"}
        for weights in wl.calibration.values():
            assert set(weights) <= set(calibrate.KERNELS)
            assert abs(sum(weights.values()) - 1.0) < 1e-9


def test_calibration_flags_a_busy_thread():
    import numpy as np

    assert calibrate.slowdown({"overhead": 1.0})[1]
    values = np.random.default_rng(0).random(4_000_000)
    stop = threading.Event()

    def busy():  # a sort this long runs without the GIL, beside the mix
        while not stop.is_set():
            np.sort(values)

    worker = threading.Thread(target=busy)
    worker.start()
    try:
        time.sleep(0.05)
        slowdown, alone = calibrate.slowdown({"overhead": 1.0})
    finally:
        stop.set()
        worker.join()
    assert slowdown > 0 and not alone
